import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal.classify import build_splitting, separated_pairs
from arboreal.errors import DegeneratePresentationError, InputError, ResourceCapError
from arboreal.graphs import INFINITY, SimpleGraph
from arboreal.words import (
    Presentation,
    Syllable,
    cumulative_counts,
    format_word,
    parse_word,
)

from conftest import crowded_links, dense_plus_pair, p4_graph, presentations
from oracles import (
    coset_canonical,
    enumerate_ball,
    enumerate_ball_by_canonical,
    enumerate_ball_info,
    first_vertices,
    first_vertices_brute,
    full_subgroup_order_by_definition,
    growth_series,
    in_full_subgroup,
    last_vertices,
    last_vertices_brute,
    lex_min_of_orbit,
    power,
    random_presentation,
    random_word,
    reduce_randomized,
    shuffle_closure,
    support,
    word_length,
)


class TestPresentationValidation:
    def test_rejects_single_vertex(self):
        with pytest.raises(DegeneratePresentationError):
            Presentation(SimpleGraph("a"), {"a": 2})

    def test_rejects_trivial_vertex_group(self):
        with pytest.raises(DegeneratePresentationError):
            Presentation(SimpleGraph("ab"), {"a": 1, "b": 2})

    def test_rejects_missing_order(self):
        with pytest.raises(DegeneratePresentationError):
            Presentation(SimpleGraph("ab"), {"a": 2})

    def test_exponent_normalization(self, p4_racg):
        assert p4_racg.make_word([("a", 3)]) == (Syllable("a", 1),)
        assert p4_racg.make_word([("a", -1)]) == (Syllable("a", 1),)
        assert p4_racg.make_word([("a", 4)]) == ()

    @settings(max_examples=50, deadline=None)
    @given(presentations(max_vertices=6, orders=(2, 3, 5, INFINITY)))
    def test_repr_round_trips(self, pres):
        """``repr`` evaluates to an equal presentation with SimpleGraph,
        Presentation and inf in scope."""
        scope = {"SimpleGraph": SimpleGraph, "Presentation": Presentation, "inf": INFINITY}
        assert eval(repr(pres), scope) == pres

    def test_equal_presentations_hash_equal(self):
        """Two presentations of one P4 product, built apart with edges and
        orders listed the other way round, are equal and hash equal, so a
        splitting of one is a dict key that finds the other's entry; a
        changed order makes a different presentation."""
        graph = SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        orders = {"a": 2, "b": 3, "c": INFINITY, "d": 2}
        one = Presentation(graph, orders)
        two = Presentation(SimpleGraph("abcd", [("d", "c"), ("c", "b"), ("b", "a")]),
                           dict(reversed(orders.items())))
        assert one == two and hash(one) == hash(two)
        table = {build_splitting(one, separated_pairs(one)[0]): "one"}
        assert table[build_splitting(two, separated_pairs(two)[0])] == "one"
        assert one != Presentation(graph, {**orders, "d": 3})


class TestReduce:
    """Reduction is the canonical form: ``canonical`` returns a reduced word."""

    def test_inverse_pair_cancels(self, p3_raag):
        assert p3_raag.canonical(parse_word(p3_raag, "a a^-1")) == ()

    def test_join_through_commuting_syllable(self, p3_raag):
        # b commutes with a, so the two a-syllables join
        w = p3_raag.canonical(parse_word(p3_raag, "a b a"))
        assert sorted(w) == sorted(parse_word(p3_raag, "a^2 b"))

    def test_racg_o2_sandwich(self, o2_racg):
        assert o2_racg.canonical(parse_word(o2_racg, "a b b a")) == ()

    def test_unknown_vertex(self, p3_raag):
        with pytest.raises(InputError):
            p3_raag.canonical(((Syllable("z", 1)),) * 2)

    def test_output_never_longer(self, p3_raag):
        rng = random.Random(0)
        for _ in range(100):
            w = random_word(rng, p3_raag)
            assert len(p3_raag.canonical(w)) <= len(w)


class TestCanonical:
    def test_commuting_pair_sorted(self, p3_raag):
        assert p3_raag.canonical(parse_word(p3_raag, "b a")) == parse_word(p3_raag, "a b")

    def test_empty(self, p3_raag):
        assert p3_raag.canonical(()) == ()

    def test_non_commuting_pair_fixed(self, p4_racg):
        assert p4_racg.canonical(parse_word(p4_racg, "d a")) == parse_word(p4_racg, "d a")

    def test_matches_lex_min_oracle(self):
        rng, order_rng = random.Random(42), random.Random(43)
        for _ in range(150):
            pres = random_presentation(rng)
            w = random_word(rng, pres, max_len=6)
            got = pres.canonical(w)
            expected = lex_min_of_orbit(pres, reduce_randomized(pres, w, order_rng))
            assert got == expected

    def test_confluence_under_randomized_reduction(self):
        rng = random.Random(7)
        for _ in range(200):
            pres = random_presentation(rng, max_vertices=6)
            w = random_word(rng, pres, max_len=8)
            a = pres.canonical(w)
            b = pres.canonical(reduce_randomized(pres, w, rng))
            assert a == b

    def test_shuffle_orbit_soundness(self):
        rng = random.Random(11)
        for _ in range(100):
            pres = random_presentation(rng)
            w = pres.canonical(random_word(rng, pres, max_len=6))
            orbit = list(shuffle_closure(pres, w))
            other = rng.choice(orbit)
            assert pres.canonical(w) == pres.canonical(other)

    def test_length_invariance_over_orbit(self):
        rng = random.Random(13)
        for _ in range(60):
            pres = random_presentation(rng)
            w = pres.canonical(random_word(rng, pres, max_len=6))
            assert {len(u) for u in shuffle_closure(pres, w)} <= {len(w)}

    def test_unknown_vertex_in_a_generator_stops_the_read(self, p3_raag):
        """Pairs given as a generator: the first unknown vertex raises, and no
        later pair is read."""
        read = []

        def pairs():
            for s in (("a", 2), ("b", -1), ("z", 1), ("y", 1), ("a", 1)):
                read.append(s)
                yield s

        for call in (p3_raag.canonical, p3_raag.multiply,
                     lambda g: p3_raag._extend((Syllable("a", 1),), g)):
            read.clear()
            with pytest.raises(InputError, match="^unknown vertex: z$"):
                call(pairs())
            assert read == [("a", 2), ("b", -1), ("z", 1)]


class TestGroupLaws:
    def test_trivial_product(self, p3_raag):
        assert p3_raag.multiply(parse_word(p3_raag, "a"), parse_word(p3_raag, "a^-1")) == ()

    def test_racg_no_cancellation(self, p4_racg):
        w = p4_racg.multiply(parse_word(p4_racg, "a"), parse_word(p4_racg, "d"))
        assert w == parse_word(p4_racg, "a d")

    def test_identity_law(self):
        rng = random.Random(3)
        for _ in range(100):
            pres = random_presentation(rng)
            g = pres.canonical(random_word(rng, pres))
            assert pres.multiply(g, ()) == g
            assert pres.multiply((), g) == g

    def test_associativity_on_samples(self):
        rng = random.Random(5)
        for _ in range(100):
            pres = random_presentation(rng)
            g, h, k = (pres.canonical(random_word(rng, pres, max_len=5)) for _ in range(3))
            assert pres.multiply(pres.multiply(g, h), k) == pres.multiply(g, pres.multiply(h, k))

    def test_inverse_law(self):
        rng = random.Random(9)
        for _ in range(100):
            pres = random_presentation(rng)
            g = pres.canonical(random_word(rng, pres))
            assert pres.multiply(g, pres.inverse(g)) == ()
            assert pres.multiply(pres.inverse(g), g) == ()

    def test_inverse_examples(self, o2_racg, p3_raag):
        ab = parse_word(o2_racg, "a b")
        assert o2_racg.inverse(ab) == parse_word(o2_racg, "b a")
        g = parse_word(p3_raag, "a^2 b")
        assert p3_raag.multiply(g, p3_raag.inverse(g)) == ()

    def test_power(self, p4_racg):
        ad = parse_word(p4_racg, "a d")
        assert power(p4_racg, ad, 2) == parse_word(p4_racg, "a d a d")
        assert power(p4_racg, ad, 0) == ()
        assert power(p4_racg, ad, -1) == p4_racg.inverse(ad)

    @settings(max_examples=150, deadline=None)
    @given(presentations(), st.integers(0, 2**32), st.integers(-12, 12))
    def test_power_matches_repeated_multiply(self, pres, seed, n):
        g = random_word(random.Random(seed), pres)
        factor = pres.inverse(g) if n < 0 else g
        assert power(pres, g, n) == pres.multiply(*[factor] * abs(n))

    def test_power_takes_logarithmically_many_products(self, p4_racg):
        # a and b commute and have order 2, so a b has order 2
        ab = parse_word(p4_racg, "a b")
        assert power(p4_racg, ab, 10**18) == ()
        assert power(p4_racg, ab, 10**18 + 1) == ab
        free = Presentation(SimpleGraph("ab", []), {"a": INFINITY, "b": 2})
        assert power(free, (("a", 1),), 10**18) == (("a", 10**18),)


class TestSupports:
    def test_empty(self, p3_raag):
        assert support(p3_raag, ()) == set()
        assert first_vertices(p3_raag, ()) == set()
        assert last_vertices(p3_raag, ()) == set()

    def test_read_off(self, p3_raag):
        assert support(p3_raag, parse_word(p3_raag, "a^2 b")) == {"a", "b"}

    def test_shuffle_invariance(self):
        rng = random.Random(17)
        for _ in range(80):
            pres = random_presentation(rng)
            w = random_word(rng, pres, max_len=6)
            assert support(pres, w) == {v for v, _ in reduce_randomized(pres, w, rng)}

    def test_first_last_p3(self, p3_raag):
        g = parse_word(p3_raag, "a b")
        assert first_vertices(p3_raag, g) == {"a", "b"}
        assert last_vertices(p3_raag, g) == {"a", "b"}

    def test_first_last_p4(self, p4_racg):
        g = parse_word(p4_racg, "a d")
        assert first_vertices(p4_racg, g) == {"a"}
        assert last_vertices(p4_racg, g) == {"d"}

    def test_first_last_against_orbit_brute_force(self):
        rng, order_rng = random.Random(19), random.Random(20)
        for _ in range(80):
            pres = random_presentation(rng)
            w = random_word(rng, pres, max_len=6)
            assert first_vertices(pres, w) == first_vertices_brute(pres, w, order_rng)
            assert last_vertices(pres, w) == last_vertices_brute(pres, w, order_rng)


class TestFullSubgroups:
    def test_empty_word_in_anything(self, p4_racg):
        assert in_full_subgroup(p4_racg, (), set())
        assert in_full_subgroup(p4_racg, (), {"a"})

    def test_membership_by_support(self, p4_racg):
        ad = parse_word(p4_racg, "a d")
        assert not in_full_subgroup(p4_racg, ad, {"a", "b", "c"})
        assert in_full_subgroup(p4_racg, ad, {"a", "b", "d"})

    def test_closure_under_multiplication(self):
        rng = random.Random(23)
        for _ in range(60):
            pres = random_presentation(rng)
            s = {v for v in pres.graph.vertices if rng.random() < 0.6}
            gens = [
                Syllable(v, 1)
                for v in pres.graph.vertices
                if v in s
            ]
            if not gens:
                continue
            w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 6)))
            assert in_full_subgroup(pres, pres.canonical(w), s)

    def test_order_of_empty_set(self, p4_racg):
        assert p4_racg.full_subgroup_order(set()) == 1

    def test_names_lists_a_masks_vertices_in_vertex_order(self):
        """``_names`` reads a sparse mask's set bits and deletes a dense
        mask's clear bits; both list the mask's vertices in vertex order. For
        2 to 200 vertices, in shuffled order: the empty and full masks, one
        bit set or clear, masks with set-bit counts on both sides of n/2, and
        random masks."""
        rng = random.Random(48)
        for n in [*range(2, 12), 63, 64, 65, 101, 200]:
            vertices = [f"v{i}" for i in rng.sample(range(n), n)]
            pres = Presentation(SimpleGraph(vertices), dict.fromkeys(vertices, 2))
            full = (1 << n) - 1
            masks = [0, full, *(1 << i for i in range(n)), *(full ^ 1 << i for i in range(n))]
            for count in range(max(n // 2 - 2, 0), min(n // 2 + 3, n + 1)):
                masks += [sum(1 << i for i in rng.sample(range(n), count)) for _ in range(3)]
            masks += [rng.getrandbits(n) for _ in range(20)]
            for mask in masks:
                assert pres._names(mask) == [v for i, v in enumerate(vertices) if mask >> i & 1]
            assert pres._names(pres._mask(vertices[::2])) == vertices[::2]

    def test_induced_keeps_vertex_order_edges_and_orders(self):
        pres = Presentation(p4_graph(), {"a": 2, "b": 3, "c": 5, "d": INFINITY})
        sub = pres.induced({"c", "a"})
        assert sub.graph.vertices == ("a", "c")
        assert not sub.graph.edges
        assert sub.orders == {"a": 2, "c": 5}
        with pytest.raises(InputError, match="zz"):
            pres.induced({"a", "zz"})

    def test_order_of_adjacent_pair(self):
        pres = Presentation(SimpleGraph("ab", [("a", "b")]), {"a": 2, "b": 3})
        assert pres.full_subgroup_order({"a", "b"}) == 6

    def test_infinite_for_non_adjacent(self):
        pres = Presentation(SimpleGraph("abc", [("a", "b"), ("b", "c")]), dict.fromkeys("abc", 2))
        assert pres.full_subgroup_order({"a", "c"}) == INFINITY

    def test_infinite_order_vertex(self, p3_raag):
        assert p3_raag.full_subgroup_order({"a"}) == INFINITY

    @settings(max_examples=60, deadline=None)
    @given(presentations(max_vertices=7))
    def test_order_matches_pairwise_clique_definition(self, pres):
        verts = pres.graph.vertices
        for mask in range(2 ** len(verts)):
            s = [v for i, v in enumerate(verts) if mask >> i & 1]
            assert pres.full_subgroup_order(s) == full_subgroup_order_by_definition(pres, s)

    def test_finiteness_rule_matches_ball_stabilization(self):
        # |G_S| finite <=> the G_S ball stops growing; exhaustive over
        # subsets of small presentations
        rng = random.Random(29)
        for _ in range(12):
            pres = random_presentation(rng, max_vertices=4, orders=(2, 3))
            verts = pres.graph.vertices
            for mask in range(1, 2 ** len(verts)):
                s = {v for i, v in enumerate(verts) if mask >> i & 1}
                order = pres.full_subgroup_order(s)
                ball, saturated = enumerate_ball_info(pres, 8, subset=s, cap=100_000)
                if order != INFINITY:
                    assert saturated and len(ball) == order
                else:
                    assert not saturated

    def test_intersection_law(self):
        # g in G_S and G_T iff g in G_{S & T}, over a radius-3 ball
        rng = random.Random(31)
        pres = Presentation(p4_graph(), dict.fromkeys("abcd", 2))
        ball = enumerate_ball(pres, 3)
        for _ in range(30):
            s = {v for v in "abcd" if rng.random() < 0.5}
            t = {v for v in "abcd" if rng.random() < 0.5}
            for g in ball:
                both = in_full_subgroup(pres, g, s) and in_full_subgroup(pres, g, t)
                assert both == in_full_subgroup(pres, g, s & t)


class TestEnumerateBall:
    def test_radius_zero(self, p4_racg):
        assert enumerate_ball(p4_racg, 0) == {()}

    def test_negative_radius_rejected(self, p4_racg):
        """No element is reached in -1 multiplications, not even the identity,
        also in the trivial subgroup's ball, which has no generator."""
        with pytest.raises(InputError, match="^radius must be at least 0, got -1$"):
            enumerate_ball(p4_racg, -1)
        with pytest.raises(InputError, match="^radius must be at least 0, got -3$"):
            enumerate_ball_info(p4_racg, -3, subset=())

    def test_d_infinity_ball(self, o2_racg):
        assert len(enumerate_ball(o2_racg, 3)) == 7

    def test_z2xz2_whole_group(self):
        pres = Presentation(SimpleGraph("ab", [("a", "b")]), {"a": 2, "b": 2})
        ball, saturated = enumerate_ball_info(pres, 2)
        assert len(ball) == 4 and saturated

    def test_cap_enforced(self, p4_racg):
        with pytest.raises(ResourceCapError):
            enumerate_ball(p4_racg, 8, cap=10)

    def test_cap_stops_at_the_insert_that_passes_it(self, p4_racg):
        # radius 1 holds 5 elements; the first new element of radius 2 is
        # the 6th, found by the 6th insertion step, one ``_extend`` call each
        calls = []
        extend = p4_racg._extend
        p4_racg._extend = lambda g, sylls: calls.append(sylls) or extend(g, sylls)
        with pytest.raises(ResourceCapError, match="at radius 2$"):
            enumerate_ball(p4_racg, 10, cap=5)
        assert len(calls) == 6

    def test_huge_order_stops_at_the_cap_before_building_generators(self):
        """A vertex of order 10**12, or 2**64 past sys.maxsize, has order - 1
        generators: they are counted, not built, so cap 100 stops the ball
        at radius 1, and radius 0 needs none of them."""
        message = "^ball exceeded cap of 100 elements at radius 1$"
        for order in (10**12, 2**64):
            pres = Presentation(SimpleGraph("ab"), {"a": 2, "b": order})
            with pytest.raises(ResourceCapError, match=message):
                enumerate_ball_info(pres, 3, cap=100)
            assert enumerate_ball_info(pres, 0, cap=100) == ({()}, False)
            subgroup = enumerate_ball_info(pres, 3, cap=100, subset="a")
            assert subgroup == ({(), (Syllable("a", 1),)}, True)

    def test_cap_met_by_the_generators_inserts_nothing(self):
        """Z9 * Z has 8 + 2 = 10 generators, so cap 10 is exceeded at radius 1
        before any of them is built or inserted."""
        pres = Presentation(SimpleGraph("ab"), {"a": 9, "b": INFINITY})
        calls = []
        extend = pres._extend
        pres._extend = lambda g, sylls: calls.append(sylls) or extend(g, sylls)
        with pytest.raises(ResourceCapError, match="at radius 1$"):
            enumerate_ball(pres, 2, cap=10)
        assert not calls

    @pytest.mark.parametrize("cap", [9, 10, 11])
    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_generator_count_meets_the_cap_as_the_oracle_does(self, cap, radius):
        """Z9 * Z has 8 + 2 = 10 generators: caps just below, at and above
        that count, with the ball and its flag or the cap message compared
        to the whole-word oracle's."""
        pres = Presentation(SimpleGraph("ab"), {"a": 9, "b": INFINITY})

        def outcome(fn, *args):
            try:
                return fn(*args)
            except ResourceCapError as exc:
                return str(exc)

        assert outcome(enumerate_ball_info, pres, radius, cap) == outcome(
            enumerate_ball_by_canonical, pres, radius, cap, {"a", "b"}
        )

    @settings(max_examples=60, deadline=None)
    @given(presentations(), st.integers(0, 4), st.sampled_from([50, 2000]), st.data())
    def test_no_element_is_built_past_the_radius(self, pres, radius, cap, data):
        """Every word ``_extend`` builds for a ball of G_S, whether it ends
        saturated, cut at its radius or at the cap, has at most ``radius``
        generators: the flag needs no probe of the next sphere."""
        subset = data.draw(st.frozensets(st.sampled_from(pres.graph.vertices)))
        built = []
        extend = pres._extend
        pres._extend = lambda g, sylls: built.append(extend(g, sylls)) or built[-1]
        try:
            enumerate_ball_info(pres, radius, cap=cap, subset=subset)
        except ResourceCapError:
            pass
        assert all(word_length(pres, h) <= radius for h in built)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_saturation_is_read_from_the_vertex_set(self, m):
        """A clique of m finite vertices, Z2 x Z3 x Z5 cut to m factors, is
        all of its ball at radius m and not at m - 1; the infinite vertex z,
        alone or with the clique, never saturates; at radius 0 only the empty
        subset does."""
        clique = "abc"[:m]
        edges = [(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]]
        pres = Presentation(SimpleGraph(clique + "z", edges),
                            {**dict(zip(clique, (2, 3, 5))), "z": INFINITY})
        ball, saturated = enumerate_ball_info(pres, m, subset=clique)
        assert saturated and len(ball) == pres.full_subgroup_order(clique)
        assert not enumerate_ball_info(pres, m - 1, subset=clique)[1]
        for radius in range(m + 3):
            assert not enumerate_ball_info(pres, radius, subset="z")[1]
            assert not enumerate_ball_info(pres, radius, subset=clique + "z")[1]
        assert enumerate_ball_info(pres, 0, subset=())[1]
        assert not any(enumerate_ball_info(pres, 0, subset=s)[1] for s in (clique, "z"))

    def test_deterministic_contents(self, p3_raag):
        a = enumerate_ball(p3_raag, 3)
        b = enumerate_ball(p3_raag, 3)
        assert a == b


class TestGrowthSeries:
    @staticmethod
    def check_ball(pres, subset, radius, cap):
        """The radius ball of G_S against its growth series W_S = D/P: its
        size, its saturation flag (under a cap that never raises, the totals
        at radius and radius + 1 are equal iff the sphere at radius + 1 is
        empty), and for each C = S - {u} the pass that also sums W_S/W_C =
        (1 + y_u z) P_C/P_S, as ``_levels`` does for a side: the ball's size
        and the G_C cosets it meets; or, from both passes, the ball's cap
        error, which names the same radius, the first whose total passes
        ``cap``."""
        d, p = growth_series(pres, subset)
        reps = {}
        for u in subset:
            (_, y), _ = growth_series(pres, {u})
            p_c = growth_series(pres, subset - {u})[1]
            reps[u] = [a + y * b for a, b in zip(p_c + [0], [0] + p_c)]
        try:
            ball, saturated = enumerate_ball_info(pres, radius, cap=cap, subset=subset)
        except ResourceCapError as error:
            for series in [()] + list(reps.values()):
                with pytest.raises(ResourceCapError) as series_error:
                    cumulative_counts(d, p, radius, cap, series)
                assert str(series_error.value) == str(error)
            return
        assert cumulative_counts(d, p, radius, cap) == (len(ball), 0)
        assert saturated == (cumulative_counts(d, p, radius, math.inf)
                             == cumulative_counts(d, p, radius + 1, math.inf))
        for u, series in reps.items():
            cosets = {coset_canonical(pres, g, subset - {u}) for g in ball}
            assert cumulative_counts(d, p, radius, cap, series) == (len(ball), len(cosets))

    @settings(max_examples=50, deadline=None)
    @given(presentations(max_vertices=7).filter(lambda p: len(p.graph.vertices) >= 3),
           st.sampled_from([40, 200]), st.booleans())
    def test_series_counts_the_enumerated_balls(self, pres, cap, linked):
        """Every S ⊆ V at radii 1 to 4 (see ``check_ball``); and with a vertex
        z of order 10**12 added, linked to the first vertex or not, the
        balls that hold z pass the cap at radius 1."""
        verts = pres.graph.vertices
        for mask in range(2 ** len(verts)):
            subset = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
            for radius in range(1, 5):
                self.check_ball(pres, subset, radius, cap)
        edges = [tuple(e) for e in pres.graph.edges] + [("z", verts[0])] * linked
        huge = Presentation(SimpleGraph(verts + ("z",), edges), {**pres.orders, "z": 10**12})
        for subset in ({"z"}, {"z", verts[0]}, {"z", *verts}):
            self.check_ball(huge, frozenset(subset), 1, cap)

    @pytest.mark.parametrize("radius", [1, 4, 10**9])
    def test_series_stops_at_an_empty_sphere_or_the_cap(self, radius):
        """Z2 x Z3 has 6 elements, the last at length 2, so its totals end
        there at any radius; Z's reach 2r + 1, and stop at the first past
        the cap, 101 at radius 50, whose cap error the series raises, not at
        radius 10**9."""
        pres = Presentation(SimpleGraph("abc", [("a", "b")]), {"a": 2, "b": 3, "c": INFINITY})
        assert growth_series(pres, "ab") == ([1, 3, 2], [1, 0, 0])
        assert cumulative_counts(*growth_series(pres, "ab"), radius, 100)[0] == [1, 4, 6][
            min(radius, 2)]
        if radius < 50:
            assert cumulative_counts(*growth_series(pres, "c"), radius, 100)[0] == 2 * radius + 1
        else:
            with pytest.raises(ResourceCapError, match="cap of 100 elements at radius 50$"):
                cumulative_counts(*growth_series(pres, "c"), radius, 100)

    def test_counts_keep_only_the_coefficients_the_recurrence_reads(self):
        """Z's ball passes a cap of 200,000 at radius 100,000: a list of every
        coefficient or total to there would take megabytes, the last deg P
        coefficients take bytes, also with a second series (here D again)
        summed in the same pass."""
        pres = Presentation(SimpleGraph("ab"), {"a": 2, "b": INFINITY})
        d, p = growth_series(pres, "b")
        tracemalloc.start()
        try:
            for reps in ((), d):
                with pytest.raises(ResourceCapError,
                                   match="cap of 200000 elements at radius 100000$"):
                    cumulative_counts(d, p, 10**9, 200_000, reps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


    def test_clique_sum_stops_past_the_cap(self):
        """The table of C = {v0..v59} on ``dense_plus_pair()`` at degree 3
        passes the default cap, so it returns None. ``crowded_links(10)``'s
        table over all 20 vertices holds 66 masks of 2 x 21 coefficients:
        None under a cap of 1,000, and under the default cap the series of D =
        (1 + z)^20, whose ball of radius 1 has 21 elements."""
        pres = dense_plus_pair()
        assert pres.growth_table(3)(pres._mask(pres.graph.vertices[:60])) is None
        pres = crowded_links(10)
        assert growth_series(pres, pres.graph.vertices, cap=1000) is None
        d, p = growth_series(pres, pres.graph.vertices)
        assert d == [math.comb(20, j) for j in range(21)]
        assert cumulative_counts(d, p, 1, 100)[0] == 21

    @settings(max_examples=60, deadline=None)
    @given(presentations(max_vertices=7), st.integers(1, 8), st.data())
    def test_one_table_serves_every_subset_and_cuts_at_its_degree(self, pres, degree, data):
        """One table read for subsets in any order gives what a fresh table
        gives each, and its series cut at degree t = min(degree, |V|) are the
        uncut ones up to z^t."""
        verts = pres.graph.vertices
        subsets = data.draw(st.lists(st.frozensets(st.sampled_from(verts)), min_size=1,
                                     max_size=8))
        shared, t = pres.growth_table(degree), min(degree, len(verts))
        for subset in subsets:
            series = shared(pres._mask(subset))
            assert series == pres.growth_table(degree)(pres._mask(subset))
            for cut, uncut in zip(series, growth_series(pres, subset)):
                assert cut == (uncut + [0] * t)[:t + 1]


class TestWordSyntax:
    def test_round_trip(self, p3_raag):
        w = p3_raag.canonical(parse_word(p3_raag, "a^2 b c^-1"))
        assert p3_raag.canonical(parse_word(p3_raag, format_word(w))) == w

    def test_identity_forms(self, p3_raag):
        assert parse_word(p3_raag, "1") == ()
        assert parse_word(p3_raag, "") == ()
        assert format_word(()) == "1"

    # the first bad token is the one reported
    def test_zero_exponent_rejected(self, p3_raag):
        for text in ("a^0", "a^0 z"):
            with pytest.raises(InputError, match="^zero exponent in syllable 'a\\^0'$"):
                parse_word(p3_raag, text)

    def test_unknown_vertex_rejected(self, p3_raag):
        for text in ("z", "z a^0"):
            with pytest.raises(InputError, match="^unknown vertex: z$"):
                parse_word(p3_raag, text)

    def test_parse_word_and_make_word_give_the_normal_form(self, p3_raag):
        ab = (Syllable("a", 1), Syllable("b", 1))
        assert parse_word(p3_raag, "b a") == ab
        assert p3_raag.make_word([("b", 1), ("a", 1)]) == ab

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_parse_word_make_word_and_canonical_agree(self, data):
        pres = data.draw(presentations())
        exponent = st.integers(-3, 3).filter(bool)
        syllable = st.tuples(st.sampled_from(pres.graph.vertices), exponent)
        w = tuple(data.draw(st.lists(syllable, max_size=10)))
        assert parse_word(pres, format_word(w)) == pres.make_word(w) == pres.canonical(w)
