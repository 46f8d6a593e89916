"""Property tests of the normal-form engine against the brute-force oracles.

Presentations have at most five vertices with orders in {2, 3, inf}; words
have at most ten syllables, given as plain ``(vertex, exponent)`` tuples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal.classify import build_splitting, separated_pairs
from arboreal.tree import coset_canonical
from arboreal.words import Syllable

from conftest import presentations
from oracles import (
    coset_canonical_by_stripping,
    first_vertices_brute,
    last_vertices_brute,
    lex_min_of_orbit,
    reduce_randomized,
)


@st.composite
def presentations_and_words(draw):
    pres = draw(presentations())
    syllable = st.tuples(st.sampled_from(pres.graph.vertices), st.integers(-3, 3))
    return pres, tuple(draw(st.lists(syllable, max_size=10)))


randoms = st.randoms(use_true_random=False)


class TestEngine:
    @settings(max_examples=150, deadline=None)
    @given(presentations_and_words(), randoms)
    def test_canonical_is_lex_min_of_orbit(self, case, rng):
        pres, w = case
        assert pres.canonical(w) == lex_min_of_orbit(pres, reduce_randomized(pres, w, rng))

    @settings(max_examples=150, deadline=None)
    @given(presentations_and_words(), randoms)
    def test_first_last_vertices_match_orbit(self, case, rng):
        pres, w = case
        assert pres.first_vertices(w) == first_vertices_brute(pres, w, rng)
        assert pres.last_vertices(w) == last_vertices_brute(pres, w, rng)

    @settings(max_examples=100, deadline=None)
    @given(presentations_and_words())
    def test_outputs_are_syllables(self, case):
        pres, w = case
        outputs = [pres.reduce(w), pres.canonical(w), pres.multiply(w, w), pres.inverse(w)]
        outputs += [coset_canonical(pres, w, pres.graph.vertices[:k]) for k in range(3)]
        assert all(type(s) is Syllable for out in outputs for s in out)

    @settings(max_examples=150, deadline=None)
    @given(presentations_and_words(), randoms)
    def test_coset_canonical_matches_stripping(self, case, rng):
        pres, w = case
        for pair in separated_pairs(pres):
            sp = build_splitting(pres, pair)
            for side in (sp.a_side, sp.b_side, sp.c_side):
                expected = coset_canonical_by_stripping(pres, w, side, rng)
                assert coset_canonical(pres, w, side) == expected
