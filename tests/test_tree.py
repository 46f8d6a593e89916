import random

import pytest

from arboreal.classify import Arboreality, SeparatedPair, build_splitting, classify, separated_pairs
from arboreal import tree as tree_module
from arboreal.errors import InputError, ResourceCapError
from arboreal.formats import load_presentation
from arboreal.tree import (
    SIDE_A,
    SIDE_B,
    TreeEdge,
    TreeVertex,
    act,
    audit_acylindricity,
    base_vertex,
    element_action,
    elliptic_generation_check,
    make_edge,
    make_vertex,
    path_stabilizer,
    tree_ball,
    tree_ball_to_dot,
    tree_distance,
)
from arboreal.graphs import SimpleGraph
from arboreal.words import DEFAULT_BALL_CAP, INFINITY, Presentation, Syllable, parse_word

from conftest import FIXTURES, crowded_links, dense_plus_pair
from oracles import (
    audit_by_scan,
    bfs_distances,
    coset_canonical,
    enumerate_ball,
    power,
    random_presentation,
    random_word,
    support,
)


class TestCosetCanonical:
    def test_subgroup_element_collapses(self, p4_racg, p4_splitting):
        g = parse_word(p4_racg, "a b c a")
        assert coset_canonical(p4_racg, g, p4_racg._names(p4_splitting.a_side)) == ()

    def test_no_strippable_syllable(self, p4_racg, p4_splitting):
        g = parse_word(p4_racg, "a d")
        assert coset_canonical(p4_racg, g, p4_racg._names(p4_splitting.a_side)) == g

    def test_strips_last_syllable(self, p4_racg, p4_splitting):
        g = parse_word(p4_racg, "d a")
        assert coset_canonical(p4_racg, g, p4_racg._names(p4_splitting.a_side)) == parse_word(p4_racg, "d")

    def test_right_invariance(self):
        rng = random.Random(61)
        checked = 0
        while checked < 60:
            pres = random_presentation(rng, max_vertices=4, orders=(2, 3))
            s_set = {v for v in pres.graph.vertices if rng.random() < 0.5}
            g = pres.canonical(random_word(rng, pres, max_len=5))
            s_words = [
                w for w in enumerate_ball(pres, 3, subset=s_set, cap=50_000)
            ]
            s = rng.choice(s_words)
            assert coset_canonical(pres, pres.multiply(g, s), s_set) == coset_canonical(
                pres, g, s_set
            )
            checked += 1

    def test_equal_reps_imply_same_coset(self):
        rng = random.Random(67)
        for _ in range(40):
            pres = random_presentation(rng, max_vertices=4, orders=(2, 3))
            s_set = {v for v in pres.graph.vertices if rng.random() < 0.5}
            g = pres.canonical(random_word(rng, pres, max_len=5))
            h = pres.canonical(random_word(rng, pres, max_len=5))
            if coset_canonical(pres, g, s_set) == coset_canonical(pres, h, s_set):
                rel = pres.multiply(pres.inverse(h), g)
                assert support(pres, rel) <= s_set


def no_enumeration(*args, **kwargs):
    raise AssertionError("a ball was enumerated")


def base_neighbors(splitting, local_radius):
    """The base vertex's (edge, vertex) pairs and truncation, from the radius-1 ball."""
    ball = tree_ball(splitting, 1, local_radius=local_radius)
    return ball.adjacency[ball.base], ball.truncated


class TestNeighbors:
    def test_base_edge_shared(self, p4_splitting):
        nbrs, _ = base_neighbors(p4_splitting, local_radius=2)
        reps = {edge.rep for edge, _ in nbrs}
        assert () in reps  # the base edge G_C
        opposite = dict((edge.rep, v) for edge, v in nbrs)
        assert opposite[()] == TreeVertex(SIDE_B, ())

    def test_includes_a_translate(self, p4_racg, p4_splitting):
        nbrs, _ = base_neighbors(p4_splitting, local_radius=2)
        reps = {edge.rep for edge, _ in nbrs}
        assert parse_word(p4_racg, "a") in reps

    def test_degree_at_least_two(self, p4_splitting):
        nbrs, _ = base_neighbors(p4_splitting, local_radius=2)
        assert len(nbrs) >= 2

    def test_finite_sides_saturate(self, z2_z5):
        sp = build_splitting(z2_z5, SeparatedPair("a", "b", (), 1))
        nbrs, truncated = base_neighbors(sp, local_radius=3)
        assert not truncated
        assert len(nbrs) == 2  # [Z2 : 1] cosets

    @pytest.mark.parametrize("a, b", [("a", "b"), ("b", "a")])
    def test_each_side_read_at_depth_below_two_is_checked(self, a, b):
        """Z2^3 with one edge b - c: of the sides V - {b} and V - {a}, {a, c}
        is infinite and {b, c} = Z2 x Z2 is whole at local radius 2. So a
        ball, or an audit, is truncated iff it reads the infinite side: side
        A at radius 1 only when a is the pair's first vertex, and always at
        radius 2, whichever side is A."""
        pres = Presentation(SimpleGraph("abc", [("b", "c")]), dict.fromkeys("abc", 2))
        sp = build_splitting(pres, SeparatedPair(a, b, (), 1))
        assert tree_ball(sp, 1, local_radius=2).truncated == (a == "a")
        assert tree_ball(sp, 2, local_radius=2).truncated
        assert audit_acylindricity(sp, 1, tree_radius=1, local_radius=2).truncated == (a == "a")
        assert audit_acylindricity(sp, 1, tree_radius=2, local_radius=2).truncated


class TestTreeDistance:
    def test_zero_on_equal(self, p4_splitting):
        v = base_vertex(p4_splitting)
        assert tree_distance(p4_splitting, v, v) == 0

    def test_base_edge(self, p4_splitting):
        assert tree_distance(
            p4_splitting, base_vertex(p4_splitting), TreeVertex(SIDE_B, ())
        ) == 1

    def test_translate_by_ad(self, p4_racg, p4_splitting):
        x = base_vertex(p4_splitting)
        gx = act(p4_splitting, parse_word(p4_racg, "a d"), x)
        assert tree_distance(p4_splitting, x, gx) == 2

    def test_matches_bfs_on_ball(self, p4_splitting):
        ball = tree_ball(p4_splitting, 4, local_radius=2)
        for src in ball.vertices[::7]:
            dist = bfs_distances(ball, src)
            for tgt, d in dist.items():
                assert tree_distance(p4_splitting, src, tgt) == d

    def test_symmetry_and_triangle(self, p4_splitting):
        rng = random.Random(71)
        ball = tree_ball(p4_splitting, 4, local_radius=2)
        verts = ball.vertices
        for _ in range(60):
            u, v, w = (rng.choice(verts) for _ in range(3))
            duv = tree_distance(p4_splitting, u, v)
            assert duv == tree_distance(p4_splitting, v, u)
            assert duv <= tree_distance(p4_splitting, u, w) + tree_distance(
                p4_splitting, w, v
            )

    def test_equivariance(self, p4_racg, p4_splitting):
        rng = random.Random(73)
        ball = tree_ball(p4_splitting, 3, local_radius=2)
        elements = sorted(enumerate_ball(p4_racg, 4))
        for _ in range(60):
            g = rng.choice(elements)
            u = rng.choice(ball.vertices)
            v = rng.choice(ball.vertices)
            assert tree_distance(p4_splitting, u, v) == tree_distance(
                p4_splitting, act(p4_splitting, g, u), act(p4_splitting, g, v)
            )

    @pytest.mark.parametrize("position", [0, 1])
    def test_unknown_side_rejected_in_either_position(self, p4_splitting, position):
        vertices = [TreeVertex(SIDE_A, ()), TreeVertex(SIDE_A, ())]
        vertices[position] = TreeVertex("C", ())
        with pytest.raises(InputError, match="unknown side: C"):
            tree_distance(p4_splitting, *vertices)


class TestElementAction:
    def test_identity_elliptic(self, p4_splitting):
        assert element_action(p4_splitting, ()).kind == "Elliptic"

    def test_side_subgroup_elliptic(self, p4_racg, p4_splitting):
        for text in ("a", "b c", "a b a", "c b a c"):
            g = parse_word(p4_racg, text)
            assert support(p4_racg, g) <= set(p4_racg._names(p4_splitting.a_side))
            assert element_action(p4_splitting, g).kind == "Elliptic"

    def test_ad_loxodromic_translation_two(self, p4_racg, p4_splitting):
        action = element_action(p4_splitting, parse_word(p4_racg, "a d"))
        assert action.kind == "Loxodromic"
        assert action.translation_length == 2

    def test_translation_length_formula(self, p4_racg, p4_splitting):
        g = parse_word(p4_racg, "a d")
        x = base_vertex(p4_splitting)
        d1 = tree_distance(p4_splitting, x, act(p4_splitting, g, x))
        ell = element_action(p4_splitting, g).translation_length
        for n in range(1, 5):
            gn = power(p4_racg, g, n)
            assert tree_distance(p4_splitting, x, act(p4_splitting, gn, x)) == n * ell + (
                d1 - ell
            )

    def test_loxodromic_exists_for_arboreal_verdicts(self):
        rng = random.Random(79)
        found = 0
        while found < 15:
            pres = random_presentation(rng, max_vertices=4, orders=(2, 3))
            verdict = classify(pres)
            if verdict.arboreality != Arboreality.ACYL_ARBOREAL:
                continue
            found += 1
            sp = verdict.splitting
            ball = enumerate_ball(pres, 4, cap=100_000)
            assert any(element_action(sp, g).is_loxodromic for g in sorted(ball))


class TestStabilizers:
    def test_base_edge_stabilized_by_edge_group(self, p4_splitting):
        base = make_edge(p4_splitting, ())
        assert path_stabilizer(p4_splitting, [base]) == ((), ("b", "c"))

    def test_sides_and_r_follow_vertex_order(self):
        """The path d - c - b - a lists its vertices out of alphabetical
        order: the verdict's sides and R keep it."""
        graph = SimpleGraph("dcba", [("d", "c"), ("c", "b"), ("b", "a")])
        verdict = classify(Presentation(graph, dict.fromkeys("dcba", 2)))
        sides = verdict.to_dict()["splitting"]
        assert [sides[key] for key in ("pair", "A", "B", "C")] == [
            ["d", "b"], ["d", "c", "a"], ["c", "b", "a"], ["c", "a"]]
        sp = verdict.splitting
        assert path_stabilizer(sp, [make_edge(sp, ())]) == ((), ("c", "a"))

    def test_three_edge_paths_trivial_stabilizer(self, p4_splitting):
        ball = tree_ball(p4_splitting, 3, local_radius=2)
        x = base_vertex(p4_splitting)
        # pick a geodesic of 3 edges out of the base vertex
        dist = bfs_distances(ball, x)
        far = next(v for v in ball.vertices if dist[v] == 3)
        # reconstruct the path by walking back
        path = []
        cur = far
        while cur != x:
            edge, nxt = next(
                (e, w) for e, w in ball.adjacency[cur] if dist[w] == dist[cur] - 1
            )
            path.append(edge)
            cur = nxt
        _, r = path_stabilizer(p4_splitting, path)
        assert r == ()

    def test_c_syllables_at_either_end_of_the_relative_word(self):
        """On the path a - c - b - u split over C = {c, u}, the word joining the
        edges cuaG_C and G_C is auc one way, its C-syllables all in q, and cua
        the other, all in p. Either way the stabilizer is {1, cucuc}."""
        pres = Presentation(
            SimpleGraph("abcu", [("a", "c"), ("b", "c"), ("b", "u")]),
            {v: 2 for v in "abcu"},
        )
        sp = build_splitting(pres, SeparatedPair("a", "b", ("c",), 2))
        far, base = make_edge(sp, parse_word(pres, "c u a")), make_edge(sp, ())
        assert path_stabilizer(sp, [far, base]) == (parse_word(pres, "c u a"), ("c",))
        assert path_stabilizer(sp, [base, far]) == (parse_word(pres, "c u"), ("c",))

    def test_empty_path_rejected(self, p4_splitting):
        with pytest.raises(InputError):
            path_stabilizer(p4_splitting, [])

    def test_unreduced_edge_rep_reads_as_its_coset(self):
        """a^2 = 1 in the right-angled Coxeter group on P4, so over the pair
        (a, c) the edge a^2 G_C is G_C, whose stabilizer is G_C = G_{b, d}."""
        pres, _ = load_presentation(FIXTURES / "p4_racg.json")
        sp = build_splitting(pres, separated_pairs(pres)[0])
        assert sp.pair == ("a", "c")
        assert path_stabilizer(sp, [TreeEdge((Syllable("a", 2),))]) == ((), ("b", "d"))

    @pytest.mark.parametrize("name", ["p4_racg", "z2_z3", "z2_z5"])
    def test_any_edge_words_give_their_cosets_stabilizer(self, name):
        """End edges held as raw words, unreduced or not canonical, give what
        ``make_edge`` of the same words gives."""
        pres, _ = load_presentation(FIXTURES / f"{name}.json")
        rng = random.Random(71)

        def word():
            return tuple(
                Syllable(rng.choice(pres.graph.vertices), rng.choice((-1, 1, 2, 3)))
                for _ in range(rng.randint(0, 5))
            )

        for pair in separated_pairs(pres):
            sp = build_splitting(pres, pair)
            for _ in range(300):
                w1, w2 = word(), word()
                assert path_stabilizer(sp, [TreeEdge(w1), TreeEdge(w2)]) == path_stabilizer(
                    sp, [make_edge(sp, w1), make_edge(sp, w2)]
                ), (pair, w1, w2)

    @pytest.mark.parametrize("ends", [("z a", "z b"), ("z", "z"), ("z", "z a"), ("z a", "z")])
    def test_unknown_vertex_in_a_shared_prefix_rejected(self, p4_splitting, ends):
        """z is no vertex of P4. Both representatives begin with it, so it lies
        in the prefix they share, where it is still found, in tree_distance as
        in path_stabilizer, whose end edges are read as any words."""
        u, w = (tuple(Syllable(v, 1) for v in text.split()) for text in ends)
        with pytest.raises(InputError, match="^unknown vertex: z$"):
            tree_distance(p4_splitting, TreeVertex(SIDE_A, u), TreeVertex(SIDE_B, w))
        with pytest.raises(InputError, match="^unknown vertex: z$"):
            path_stabilizer(p4_splitting, [TreeEdge(u), TreeEdge(w)])

    @pytest.mark.parametrize("e", [True, False, 2.0, 1.0])
    def test_non_int_exponent_rejected(self, p4_splitting, e):
        """Every tree function that takes a word rejects an exponent whose
        type is not int, in either end of a pair of words."""
        bad, good = (Syllable("a", 1), Syllable("c", e)), (Syllable("b", 1),)
        calls = [
            lambda w: make_vertex(p4_splitting, w, SIDE_B),
            lambda w: make_edge(p4_splitting, w),
            lambda w: act(p4_splitting, w, base_vertex(p4_splitting)),
            lambda w: act(p4_splitting, good, TreeVertex(SIDE_A, w)),
            lambda w: element_action(p4_splitting, w),
            lambda w: elliptic_generation_check(p4_splitting, [good, w]),
            lambda w: tree_distance(p4_splitting, TreeVertex(SIDE_A, w), TreeVertex(SIDE_B, good)),
            lambda w: tree_distance(p4_splitting, TreeVertex(SIDE_A, good), TreeVertex(SIDE_B, w)),
            lambda w: path_stabilizer(p4_splitting, [TreeEdge(w), TreeEdge(good)]),
            lambda w: path_stabilizer(p4_splitting, [TreeEdge(good), TreeEdge(w)]),
        ]
        for call in calls:
            with pytest.raises(InputError, match=f"^exponent at vertex c must be an int, got {e!r}$"):
                call(bad)


class TestAudit:
    def test_p4_bound_holds(self, p4_splitting):
        report = audit_acylindricity(
            p4_splitting, k=3, tree_radius=4, element_radius=5, local_radius=2
        )
        assert report.passed
        assert report.max_stabilizer_size == 1 == report.bound
        assert report.paths_checked > 0

    def test_z2_z5_bound_holds(self, z2_z5):
        sp = build_splitting(z2_z5, SeparatedPair("a", "b", (), 1))
        report = audit_acylindricity(
            sp, k=3, tree_radius=5, element_radius=6, local_radius=3
        )
        assert report.passed
        assert report.bound == 1
        assert report.max_stabilizer_size == 1

    def test_cap_raises(self, p4_splitting):
        with pytest.raises(ResourceCapError):
            audit_acylindricity(
                p4_splitting, k=3, tree_radius=5, element_radius=6, cap=10
            )

    def test_cap_bounds_the_tree_ball_too(self):
        """A wide tree ball stops at the audit's cap, not at the default one:
        the radius-2 ball of Z2*Z3*Z3*Z5 over (a, d) at local radius 3
        already has 2,107 vertices."""
        pres = Presentation(SimpleGraph("abcd"), {"a": 2, "b": 3, "c": 3, "d": 5})
        sp = build_splitting(pres, SeparatedPair("a", "d", (), 1))
        with pytest.raises(ResourceCapError, match="tree ball exceeded cap of 3000 vertices"):
            audit_acylindricity(
                sp, k=2, tree_radius=3, element_radius=1, local_radius=3, cap=3000
            )

    def test_cap_counts_the_whole_tree_ball(self, p4_splitting):
        """The radius-12 ball over (a, d) has 12,286 vertices. The audit builds
        none of it, and counts it from its level sizes, which still exceed
        the cap."""
        with pytest.raises(ResourceCapError, match="tree ball exceeded cap of 10000 vertices"):
            audit_acylindricity(p4_splitting, k=3, tree_radius=12, element_radius=6, cap=10_000)
        assert len(tree_ball(p4_splitting, 12, 2, 20_000).vertices) == 12_286

    def test_cap_counts_only_balls_within_the_element_radius(self):
        """G_C = Z5^3 has 125 elements, more than the cap of 100, but the audit
        needs only the radius-1 balls: 15 elements, 13 of them in G_C."""
        cs = ["c1", "c2", "c3"]
        edges = [("c1", "c2"), ("c1", "c3"), ("c2", "c3")]
        edges += [(x, c) for x in "ab" for c in cs]
        pres = Presentation(
            SimpleGraph(["a", "b"] + cs, edges), {"a": 2, "b": 2, "c1": 5, "c2": 5, "c3": 5}
        )
        sp = build_splitting(pres, SeparatedPair("a", "b", tuple(cs), 125))
        report = audit_acylindricity(
            sp, k=1, tree_radius=1, element_radius=1, local_radius=1, cap=100
        )
        assert report.max_stabilizer_size == 13

    def test_cap_bounds_the_g_r_balls(self):
        """The same splitting at element radius 3: the tree ball has 3 vertices,
        but the edge stabilizer G_C's radius-3 ball is all 125 elements."""
        cs = ["c1", "c2", "c3"]
        edges = [("c1", "c2"), ("c1", "c3"), ("c2", "c3")]
        edges += [(x, c) for x in "ab" for c in cs]
        pres = Presentation(
            SimpleGraph(["a", "b"] + cs, edges), {"a": 2, "b": 2, "c1": 5, "c2": 5, "c3": 5}
        )
        sp = build_splitting(pres, SeparatedPair("a", "b", tuple(cs), 125))
        with pytest.raises(ResourceCapError, match="ball exceeded cap of 100 elements at radius 3"):
            audit_acylindricity(sp, k=1, tree_radius=1, element_radius=3, local_radius=1, cap=100)

    def test_cap_error_is_the_first_r_k_ball_past_the_cap(self, monkeypatch):
        """Z*Z*Z2*Z2*Z3 over a-e with edges a-c, a-e, b-e, pair (d, e): the
        391-vertex ball fits the cap of 391. The maximum's first R_k is C ∩
        lk(d) = {}, the second C ∩ lk(e) = {a, b}, and the free G_{a,b}
        passes the cap at radius 5, the error the audit raises, with no tree
        ball built. (A path deeper in the ball has R = {a}, and G_a = Z
        passes the cap at radius 196.)"""
        pres = Presentation(
            SimpleGraph(list("abcde"), [("a", "c"), ("a", "e"), ("b", "e")]),
            {"a": INFINITY, "b": INFINITY, "c": 2, "d": 2, "e": 3},
        )
        sp = build_splitting(pres, SeparatedPair("d", "e", (), 1))

        def no_ball(*args):
            raise AssertionError("the audit built a tree ball")

        monkeypatch.setattr(tree_module, "tree_ball", no_ball)
        with pytest.raises(ResourceCapError, match="cap of 391 elements at radius 5$"):
            audit_acylindricity(sp, k=2, tree_radius=2, element_radius=200, local_radius=3, cap=391)

    @pytest.mark.parametrize("element_radius, radius", [(200, 5), (10, 5)])
    def test_each_g_r_ball_is_enumerated_once(self, monkeypatch, element_radius, radius):
        """The product above: the maximum meets the cap in G_{a, b}'s ball,
        at radius 5 at either element radius, and raises that error from its
        growth series. Each G_R ball is enumerated at most once, and here no
        ball is: neither G_{a, b}'s nor a side's."""
        pres = Presentation(
            SimpleGraph(list("abcde"), [("a", "c"), ("a", "e"), ("b", "e")]),
            {"a": INFINITY, "b": INFINITY, "c": 2, "d": 2, "e": 3},
        )
        sp = build_splitting(pres, SeparatedPair("d", "e", (), 1))
        monkeypatch.setattr(Presentation, "_ball", no_enumeration)
        with pytest.raises(ResourceCapError, match=f"cap of 391 elements at radius {radius}$"):
            audit_acylindricity(sp, k=2, tree_radius=2, element_radius=element_radius,
                                local_radius=3, cap=391)

    def test_huge_element_radius_cap_error_is_read_from_series(self, monkeypatch):
        """Z2 * (Z2 x Z) over (a, b), the cap step of the CLI checks: G_C = Z
        passes the default cap at radius 100,000, of 10^9, and the audit
        raises that error from its growth series, enumerating no ball."""
        pres = Presentation(SimpleGraph("abd", [("a", "d")]), {"a": 2, "b": 2, "d": INFINITY})
        sp = build_splitting(pres, SeparatedPair("a", "b", (), 1))
        monkeypatch.setattr(Presentation, "_ball", no_enumeration)
        with pytest.raises(ResourceCapError,
                           match="^ball exceeded cap of 200000 elements at radius 100000$"):
            audit_acylindricity(sp, k=1, tree_radius=1, element_radius=10**9)

    @pytest.mark.parametrize("series", [True, False])
    def test_tree_ball_error_comes_before_side_b_error(self, monkeypatch, z2_z5, series):
        """Z2 * Z5 at local radius 1 and cap 2: the base and its two children
        pass the cap at depth 0, before side B's ball, whose five elements
        pass it too, is read; from the growth table or, cut, by enumeration."""
        sp = build_splitting(z2_z5, SeparatedPair("a", "b", (), 1))
        if not series:
            monkeypatch.setattr(Presentation, "growth_table", lambda *_: lambda *_: None)
        with pytest.raises(ResourceCapError, match="^tree ball exceeded cap of 2 vertices$"):
            audit_acylindricity(sp, k=1, tree_radius=2, element_radius=1, local_radius=1, cap=2)

    def test_a_failing_audit_whose_table_is_not_cut_enumerates_no_ball(self, monkeypatch):
        """Z3 * Z2 * (Z x Z2) over (a, c), as below: the audit fails, and names
        its witness, the path G_C, cG_C, which turns at G_B, with R = C ∩
        lk(c) = {d} and two elements, more than |G_N| = 1. Every count comes
        from series, so no ball is enumerated."""
        orders = {"a": 3, "b": 2, "c": INFINITY, "d": 2}
        pres = Presentation(SimpleGraph("abcd", [("c", "d")]), orders)
        sp = build_splitting(pres, SeparatedPair("a", "c", (), 1))
        monkeypatch.setattr(Presentation, "_ball", no_enumeration)
        report = audit_acylindricity(sp, 2, 2, 2, 2)
        assert report.to_dict()["violations"] == [{"path": ["C:1", "C:c"], "stabilizer_size": 2}]

    def test_a_clique_sum_past_the_cap_is_left_to_enumeration(self, monkeypatch):
        """The growth table of C = V - {a, b} on ``dense_plus_pair()`` passes
        the default cap at the audit's degree, 3 or 4: the audit enumerates
        the balls it needs instead, and passes, or raises the G_C ball's cap
        error."""
        pres = dense_plus_pair()
        sp = build_splitting(pres, SeparatedPair("a", "b", (), 1))
        assert pres.growth_table(3)(sp.c_side) is None
        calls = []
        ball = Presentation._ball
        monkeypatch.setattr(Presentation, "_ball", lambda *args: calls.append(1) or ball(*args))
        report = audit_acylindricity(sp, 3, 2, 2, 2)
        assert report.passed and report.max_stabilizer_size == 1 and calls
        with pytest.raises(ResourceCapError, match="cap of 20000 elements at radius 3$"):
            audit_acylindricity(sp, 1, 1, 4, 1, cap=20000)

    @pytest.mark.parametrize("m", [16, 30])
    def test_crowded_links_read_every_count_from_series(self, m, monkeypatch):
        """On ``crowded_links(m)``, pair (y0, y1), whose table meets about
        m^2/2 masks, the audit enumerates no ball and gives the report of the
        enumerating path, taken where no growth series is read."""
        pres = crowded_links(m)
        sp = build_splitting(pres, SeparatedPair("y0", "y1", pres.graph.vertices[2:m],
                                                 2 ** (m - 2)))
        calls = []
        ball = Presentation._ball
        monkeypatch.setattr(Presentation, "_ball", lambda *args: calls.append(1) or ball(*args))
        limits = [(1, 1, 1, 1), (1, 1, 2, 1), (3, 2, 2, 2)]
        reports = [audit_acylindricity(sp, *limit).to_dict() for limit in limits]
        assert not calls and not any(report["violations"] for report in reports)
        monkeypatch.setattr(Presentation, "growth_table", lambda *_: lambda *_: None)
        assert reports == [audit_acylindricity(sp, *limit).to_dict() for limit in limits]
        assert calls

    @pytest.mark.parametrize("element_radius", [1, 2, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_a_finite_g_n_is_counted_from_its_vertex_set(self, monkeypatch, element_radius,
                                                          offset):
        """Z2*Z2*(Z5 x Z7) over (a, b), both joined to c and d, N = {c, d}:
        at cap |G_N| - 1, |G_N| and |G_N| + 1 the three-edge audit gives the
        report, or the cap error, of the enumerating path, taken where no
        growth series is read. There G_N's ball is enumerated iff the count
        cannot come from N's vertex set: unless |N| <= ``element_radius``
        and |G_N| = 35 <= cap."""
        pres = Presentation(
            SimpleGraph("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]),
            {"a": 2, "b": 2, "c": 5, "d": 7},
        )
        sp = build_splitting(pres, SeparatedPair("a", "b", ("c", "d"), 35))
        limits = dict(k=3, tree_radius=2, element_radius=element_radius, local_radius=1,
                      cap=35 + offset)

        def outcome():
            try:
                return audit_acylindricity(sp, **limits).to_dict()
            except ResourceCapError as error:
                return str(error)

        masks = []
        ball = Presentation._ball
        monkeypatch.setattr(Presentation, "_ball",
                            lambda pres, mask, *args: masks.append(mask) or ball(pres, mask, *args))
        read = outcome()
        monkeypatch.setattr(Presentation, "growth_table", lambda *_: lambda *_: None)
        assert read == outcome()
        assert (sp.c_side in masks) == (element_radius < 2 or offset < 0)

    @pytest.mark.parametrize("tree_radius, most", [(1, 2), (2, 14)])
    def test_two_edge_paths_turn_at_g_b_from_tree_radius_2(self, tree_radius, most):
        """Z2*Z2*Z2*Z3 over a-d with edges a-c, b-c, b-d, pair (a, b), C = {c, d}:
        a two-edge path turning at the base has R in C ∩ lk(a) = {c}, one
        turning at G_B, which needs tree radius 2, has R = C ∩ lk(b) = {c, d},
        and Z2*Z3 has 14 elements of length at most 3."""
        pres = Presentation(
            SimpleGraph(list("abcd"), [("a", "c"), ("b", "c"), ("b", "d")]),
            {"a": 2, "b": 2, "c": 2, "d": 3},
        )
        sp = build_splitting(pres, SeparatedPair("a", "b", ("c",), 2))
        limits = (2, tree_radius, 3, 1)
        report, oracle = audit_acylindricity(sp, *limits).to_dict(), audit_by_scan(
            sp, *limits, DEFAULT_BALL_CAP).to_dict()
        assert report["max_stabilizer_size"] == most
        witnesses = [{"path": ["C:1", "C:b"], "stabilizer_size": 14}] if most > 2 else []
        assert report.pop("violations") == witnesses
        assert bool(oracle.pop("violations")) == bool(witnesses)
        assert report == oracle

    def test_element_radius_reaches_past_the_cap(self):
        """Z2*Z2*Z3*Z3*Z3, pair (a, b): the whole group's radius-3 ball has
        more than 300 elements, but the audit builds no such ball, so cap 300
        gives the report of cap 3,000."""
        pres = Presentation(SimpleGraph("abcde"), {"a": 2, "b": 2, "c": 3, "d": 3, "e": 3})
        sp = build_splitting(pres, SeparatedPair("a", "b", (), 1))
        limits = dict(k=3, tree_radius=2, element_radius=3, local_radius=1)
        with pytest.raises(ResourceCapError):
            enumerate_ball(pres, 3, cap=300)
        assert (
            audit_acylindricity(sp, **limits, cap=300).to_dict()
            == audit_acylindricity(sp, **limits, cap=3000).to_dict()
        )

    @pytest.mark.parametrize("pair", ["ac", "ad", "bd"])
    def test_huge_element_radius_is_sized_by_the_g_r_balls(self, p4_racg, pair):
        """P4 RACG's G_R are finite (G_b or G_{b, d}), so an element radius of
        10**9 costs what radius 50 does, which already counts every element
        of f G_R f^-1 here, and gives the same report."""
        sp = build_splitting(
            p4_racg, next(p for p in separated_pairs(p4_racg) if p.a + p.b == pair)
        )
        reports = [
            audit_acylindricity(sp, k=3, tree_radius=4, element_radius=r).to_dict()
            for r in (10**9, 50, 51)
        ]
        for report in reports:
            del report["element_radius"]
        assert reports[0] == reports[1] == reports[2]

    def test_no_ball_of_the_whole_group(self, monkeypatch, p4_racg):
        """The six passing fixture audits enumerate no ball: they read their
        sizes from growth series. The P4 RACG's two-edge audits fail, and
        name their witnesses from the same series, enumerating no ball
        either."""
        masks = []
        ball = Presentation._ball

        def counted(pres, mask, radius, cap):
            masks.append(mask)
            return ball(pres, mask, radius, cap)

        monkeypatch.setattr(Presentation, "_ball", counted)
        audits = 0
        for path in sorted(FIXTURES.glob("*.json")):
            pres, _ = load_presentation(path)
            for pair in separated_pairs(pres):
                sp = build_splitting(pres, pair)
                assert audit_acylindricity(sp, k=3, tree_radius=3, element_radius=4,
                                           local_radius=2).passed
                audits += 1
        assert audits == 6
        assert masks == []
        for pair in separated_pairs(p4_racg):
            sp = build_splitting(p4_racg, pair)
            assert not audit_acylindricity(sp, k=2, tree_radius=3, element_radius=4,
                                           local_radius=2).passed
        assert masks == []

    @pytest.mark.parametrize("element_radius", [1, 2])
    def test_sizes_conjugate_by_the_whole_of_f(self, element_radius):
        """Z3 * Z2 * (Z x Z2) over (a, c), C = {b, d}, local radius 2: on some
        2-edge paths the joining word h begins with C-syllables, so p is not
        empty, and sizing g_1 G_R g_1^-1 instead of f G_R f^-1, f = g_1 p,
        would list 12 violations, not the oracle's 10. The report is the
        oracle's but for those, where the audit names one witness, G_C, cG_C,
        a violation of the oracle's, with its size."""
        orders = {"a": 3, "b": 2, "c": INFINITY, "d": 2}
        pres = Presentation(SimpleGraph("abcd", [("c", "d")]), orders)
        sp = build_splitting(pres, SeparatedPair("a", "c", (), 1))
        limits = (2, 2, element_radius, 2)
        report = audit_acylindricity(sp, *limits).to_dict()
        oracle = audit_by_scan(sp, *limits, DEFAULT_BALL_CAP).to_dict()
        assert len(oracle["violations"]) == 10
        witness = {"path": ["C:1", "C:c"], "stabilizer_size": 2}
        assert report.pop("violations") == [witness]
        assert witness in oracle.pop("violations")
        assert report == oracle

    @pytest.mark.parametrize(
        "limits, message",
        [
            (dict(k=0), "k must be at least 1, got 0"),
            (dict(tree_radius=0), "tree_radius must be at least 1, got 0"),
            (dict(element_radius=-1), "element_radius must be at least 1, got -1"),
            (dict(local_radius=0), "local_radius must be at least 1, got 0"),
            (dict(cap=0), "cap must be at least 1, got 0"),
            (dict(k=5, tree_radius=2), "k 5 is more than twice tree_radius 2"),
        ],
    )
    def test_vacuous_limits_rejected(self, p4_splitting, limits, message):
        with pytest.raises(InputError, match=message):
            audit_acylindricity(p4_splitting, **limits)

    def test_report_serializes(self, p4_splitting):
        import json

        report = audit_acylindricity(
            p4_splitting, k=3, tree_radius=3, element_radius=4, local_radius=2
        )
        payload = json.dumps(report.to_dict())
        assert "max_stabilizer_size" in payload


class TestEllipticGeneration:
    def test_side_generators_pass(self, p4_racg, p4_splitting):
        gens = [parse_word(p4_racg, t) for t in ("a", "b", "c")]
        assert elliptic_generation_check(p4_splitting, gens)

    def test_a_d_fails(self, p4_racg, p4_splitting):
        gens = [parse_word(p4_racg, "a"), parse_word(p4_racg, "d")]
        assert not elliptic_generation_check(p4_splitting, gens)

    def test_empty_passes(self, p4_splitting):
        assert elliptic_generation_check(p4_splitting, [])

    def test_loxodromic_generator_fails(self, p4_racg, p4_splitting):
        # a d is loxodromic itself, so no product of two generators is needed
        assert not elliptic_generation_check(p4_splitting, [parse_word(p4_racg, "a d")])


class TestTreeBallExport:
    def test_dot_contains_labels(self, p4_splitting):
        ball = tree_ball(p4_splitting, 1, local_radius=2)
        dot = tree_ball_to_dot(ball)
        assert dot.startswith("graph T {\n")
        assert "A:1" in dot and "B:1" in dot
        assert dot.count("--") == len(ball.edges)

    def test_dot_escapes_quoted_vertex_names(self):
        names = ['a"b', "c\\d", "e"]
        pres = Presentation(SimpleGraph(names, [names[:2]]), dict.fromkeys(names, 2))
        sp = build_splitting(pres, SeparatedPair('a"b', "e", (), 1))
        dot = tree_ball_to_dot(tree_ball(sp, 2, local_radius=2))
        assert '[label="B:a\\"b"]' in dot
        assert '[label="A:c\\\\d e"]' in dot

    def test_vertex_reps_are_minimal(self, p4_racg, p4_splitting):
        ball = tree_ball(p4_splitting, 3, local_radius=2)
        for v in ball.vertices:
            s = p4_racg._names(p4_splitting.side(v.side))
            assert coset_canonical(p4_racg, v.rep, s) == v.rep

    @pytest.mark.parametrize(
        "args, message",
        [
            ((-1, 2, 10), "radius must be at least 0, got -1"),
            ((2, 0, 10), "local_radius must be at least 1, got 0"),
            ((2, 2, 0), "cap must be at least 1, got 0"),
        ],
    )
    def test_out_of_range_limits_rejected(self, p4_splitting, args, message):
        with pytest.raises(InputError, match=message):
            tree_ball(p4_splitting, *args)

    def test_radius_zero_is_the_base_vertex(self, p4_splitting):
        ball = tree_ball(p4_splitting, 0)
        assert ball.vertices == [base_vertex(p4_splitting)] and not ball.edges

    def test_make_vertex_canonicalizes(self, p4_racg, p4_splitting):
        v = make_vertex(p4_splitting, parse_word(p4_racg, "d a"), SIDE_A)
        assert v.rep == parse_word(p4_racg, "d")
