import random

import pytest

from arboreal.errors import DegeneratePresentationError, InputError, ResourceCapError
from arboreal.graphs import INFINITY, SimpleGraph
from arboreal.words import (
    Presentation,
    Syllable,
    format_word,
    parse_word,
    word_from_json,
    word_to_json,
)

from conftest import p4_graph
from oracles import (
    first_vertices_brute,
    last_vertices_brute,
    lex_min_of_orbit,
    random_presentation,
    random_word,
    reduce_randomized,
    shuffle_closure,
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
        assert p4_racg.normalize_exponent("a", 3) == 1
        assert p4_racg.normalize_exponent("a", -1) == 1
        assert p4_racg.normalize_exponent("a", 4) == 0

    def test_syllable_rejects_identity(self, p4_racg):
        with pytest.raises(InputError):
            p4_racg.syllable("a", 2)


class TestReduce:
    def test_inverse_pair_cancels(self, p3_raag):
        assert p3_raag.reduce(parse_word(p3_raag, "a a^-1")) == ()

    def test_join_through_commuting_syllable(self, p3_raag):
        # b commutes with a, so the two a-syllables join
        w = p3_raag.reduce(parse_word(p3_raag, "a b a"))
        assert sorted(w) == sorted(parse_word(p3_raag, "a^2 b"))

    def test_racg_o2_sandwich(self, o2_racg):
        assert o2_racg.reduce(parse_word(o2_racg, "a b b a")) == ()

    def test_unknown_vertex(self, p3_raag):
        with pytest.raises(InputError):
            p3_raag.reduce(((Syllable("z", 1)),) * 2)

    def test_output_never_longer(self, p3_raag):
        rng = random.Random(0)
        for _ in range(100):
            w = random_word(rng, p3_raag)
            assert len(p3_raag.reduce(w)) <= len(w)


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
            w = pres.reduce(random_word(rng, pres, max_len=6))
            orbit = list(shuffle_closure(pres, w))
            other = rng.choice(orbit)
            assert pres.canonical(w) == pres.canonical(other)

    def test_length_invariance_over_orbit(self):
        rng = random.Random(13)
        for _ in range(60):
            pres = random_presentation(rng)
            w = pres.reduce(random_word(rng, pres, max_len=6))
            assert {len(u) for u in shuffle_closure(pres, w)} <= {len(w)}


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
        assert p4_racg.power(ad, 2) == parse_word(p4_racg, "a d a d")
        assert p4_racg.power(ad, 0) == ()
        assert p4_racg.power(ad, -1) == p4_racg.inverse(ad)


class TestSupports:
    def test_empty(self, p3_raag):
        assert p3_raag.support(()) == set()
        assert p3_raag.first_vertices(()) == set()
        assert p3_raag.last_vertices(()) == set()

    def test_read_off(self, p3_raag):
        assert p3_raag.support(parse_word(p3_raag, "a^2 b")) == {"a", "b"}

    def test_shuffle_invariance(self):
        rng = random.Random(17)
        for _ in range(80):
            pres = random_presentation(rng)
            w = random_word(rng, pres, max_len=6)
            assert pres.support(pres.canonical(w)) == pres.support(pres.reduce(w))

    def test_first_last_p3(self, p3_raag):
        g = parse_word(p3_raag, "a b")
        assert p3_raag.first_vertices(g) == {"a", "b"}
        assert p3_raag.last_vertices(g) == {"a", "b"}

    def test_first_last_p4(self, p4_racg):
        g = parse_word(p4_racg, "a d")
        assert p4_racg.first_vertices(g) == {"a"}
        assert p4_racg.last_vertices(g) == {"d"}

    def test_first_last_against_orbit_brute_force(self):
        rng, order_rng = random.Random(19), random.Random(20)
        for _ in range(80):
            pres = random_presentation(rng)
            w = random_word(rng, pres, max_len=6)
            assert pres.first_vertices(w) == first_vertices_brute(pres, w, order_rng)
            assert pres.last_vertices(w) == last_vertices_brute(pres, w, order_rng)


class TestFullSubgroups:
    def test_empty_word_in_anything(self, p4_racg):
        assert p4_racg.in_full_subgroup((), set())
        assert p4_racg.in_full_subgroup((), {"a"})

    def test_membership_by_support(self, p4_racg):
        ad = parse_word(p4_racg, "a d")
        assert not p4_racg.in_full_subgroup(ad, {"a", "b", "c"})
        assert p4_racg.in_full_subgroup(ad, {"a", "b", "d"})

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
            assert pres.in_full_subgroup(pres.canonical(w), s)

    def test_order_of_empty_set(self, p4_racg):
        assert p4_racg.full_subgroup_order(set()) == 1

    def test_order_of_adjacent_pair(self):
        pres = Presentation(SimpleGraph("ab", [("a", "b")]), {"a": 2, "b": 3})
        assert pres.full_subgroup_order({"a", "b"}) == 6

    def test_infinite_for_non_adjacent(self):
        pres = Presentation(SimpleGraph("abc", [("a", "b"), ("b", "c")]), dict.fromkeys("abc", 2))
        assert pres.full_subgroup_order({"a", "c"}) == INFINITY

    def test_infinite_order_vertex(self, p3_raag):
        assert p3_raag.full_subgroup_order({"a"}) == INFINITY

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
                ball, saturated = pres.enumerate_ball_info(8, subset=s, cap=100_000)
                if order != INFINITY:
                    assert saturated and len(ball) == order
                else:
                    assert not saturated

    def test_intersection_law(self):
        # g in G_S and G_T iff g in G_{S & T}, over a radius-3 ball
        rng = random.Random(31)
        pres = Presentation(p4_graph(), dict.fromkeys("abcd", 2))
        ball = pres.enumerate_ball(3)
        for _ in range(30):
            s = {v for v in "abcd" if rng.random() < 0.5}
            t = {v for v in "abcd" if rng.random() < 0.5}
            for g in ball:
                both = pres.in_full_subgroup(g, s) and pres.in_full_subgroup(g, t)
                assert both == pres.in_full_subgroup(g, s & t)


class TestEnumerateBall:
    def test_radius_zero(self, p4_racg):
        assert p4_racg.enumerate_ball(0) == {()}

    def test_d_infinity_ball(self, o2_racg):
        assert len(o2_racg.enumerate_ball(3)) == 7

    def test_z2xz2_whole_group(self):
        pres = Presentation(SimpleGraph("ab", [("a", "b")]), {"a": 2, "b": 2})
        ball, saturated = pres.enumerate_ball_info(2)
        assert len(ball) == 4 and saturated

    def test_cap_enforced(self, p4_racg):
        with pytest.raises(ResourceCapError):
            p4_racg.enumerate_ball(8, cap=10)

    def test_cap_stops_at_the_insert_that_passes_it(self, p4_racg):
        # radius 1 holds 5 elements; the first new element of radius 2 is
        # the 6th, found by the 6th canonicalization
        calls = []
        canonical = p4_racg.canonical
        p4_racg.canonical = lambda w: calls.append(w) or canonical(w)
        with pytest.raises(ResourceCapError, match="at radius 2$"):
            p4_racg.enumerate_ball(10, cap=5)
        assert len(calls) == 6

    def test_deterministic_contents(self, p3_raag):
        a = p3_raag.enumerate_ball(3)
        b = p3_raag.enumerate_ball(3)
        assert a == b


class TestWordSyntax:
    def test_round_trip(self, p3_raag):
        w = p3_raag.canonical(parse_word(p3_raag, "a^2 b c^-1"))
        assert p3_raag.canonical(parse_word(p3_raag, format_word(w))) == w

    def test_identity_forms(self, p3_raag):
        assert parse_word(p3_raag, "1") == ()
        assert parse_word(p3_raag, "") == ()
        assert format_word(()) == "1"

    def test_zero_exponent_rejected(self, p3_raag):
        with pytest.raises(InputError):
            parse_word(p3_raag, "a^0")

    def test_unknown_vertex_rejected(self, p3_raag):
        with pytest.raises(InputError):
            parse_word(p3_raag, "z")

    def test_json_round_trip(self, p3_raag):
        w = p3_raag.canonical(parse_word(p3_raag, "a^-2 c b"))
        assert word_from_json(p3_raag, word_to_json(w)) == w

    def test_json_zero_exponent_rejected(self, p3_raag):
        with pytest.raises(InputError):
            word_from_json(p3_raag, [["a", 0]])
