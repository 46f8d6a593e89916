"""Property tests of the normal-form engine against the brute-force oracles.

Presentations have at most five vertices with orders in {2, 3, inf}, and
also 10^12 where exponent types are checked; words have at most ten
syllables, given as plain ``(vertex, exponent)`` tuples,
except against the heap oracle, which takes words of 20 to 400, as pairs or
Syllables, with exponents up to 2**64 and also order 10^12; there the
syllable tables of ``Presentation._steps`` are checked to hold reduced
exponents only and to stop filling at their limit.
Balls go up to radius 3 under caps low enough that cap errors are compared
too; their counts per length, on up to six vertices, go up to radius 5
against the growth series.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal.classify import build_splitting, separated_pairs
from arboreal.errors import InputError, ResourceCapError
from arboreal.words import _SYLLABLE_TABLE_LIMIT, INFINITY, Syllable

from conftest import presentations
from oracles import (
    ball_generators,
    canonical_by_heap,
    coset_canonical,
    coset_canonical_by_stripping,
    enumerate_ball,
    enumerate_ball_by_canonical,
    first_vertices,
    first_vertices_brute,
    growth_coefficients,
    last_vertices,
    last_vertices_brute,
    lex_min_of_orbit,
    power,
    reduce_exponent,
    reduce_randomized,
    word_length,
)


randoms = st.randoms(use_true_random=False)
ORDERS = (2, 3, 10**12, INFINITY)
EXPONENTS = st.sampled_from([*range(-7, 8), 12, -12, 2**64])


@st.composite
def presentations_and_words(draw, min_size=0, max_size=10, orders=(2, 3, INFINITY),
                            exponents=st.integers(-3, 3)):
    """(pres, w): w has between min_size and max_size syllables, a length
    drawn from a seeded Random, as hypothesis' own list draws stay near
    min_size."""
    pres, rng = draw(presentations(orders=orders)), draw(randoms)
    size = rng.randint(min_size, max_size)
    syllable = st.tuples(st.sampled_from(pres.graph.vertices), exponents)
    return pres, tuple(draw(st.lists(syllable, min_size=size, max_size=size)))


@st.composite
def cancelling_words(draw):
    """(pres, w, cancels): a raw word w, as plain pairs or as Syllables,
    with exponents 0, negative, past the order and 2**64, and a quarter of
    the time the unknown vertex z. w is a word u of up to 200 syllables
    followed by its inverse, so that it cancels to () (``cancels``); or holds
    (v, e), syllables in link(v), then (v, -e) or (v, e + 1), so that the
    last joins or cancels with the first across the link, before or after u.
    Half the time the link syllables all come after v in vertex order, so
    the v-syllable stays at index 0 while they are read."""
    (pres, u), rng = draw(presentations_and_words(0, 200, ORDERS, EXPONENTS)), draw(randoms)
    graph = pres.graph
    cancels = draw(st.booleans())
    if cancels:
        w = [*u, *((v, -e) for v, e in reversed(u))]
    else:
        v, e = rng.choice(graph.vertices), draw(EXPONENTS)
        link = [x for x in graph.vertices if x in graph.adjacency[v]]
        if draw(st.booleans()):
            link = [x for x in link if graph.index[x] > graph.index[v]]
        inner = [(rng.choice(link), draw(EXPONENTS)) for _ in range(rng.randint(0, 50) if link else 0)]
        core = [(v, e), *inner, (v, rng.choice((-e, e + 1)))]
        w = core + list(u) if draw(st.booleans()) else list(u) + core
    if not draw(st.integers(0, 3)):
        w.insert(rng.randint(0, len(w)), ("z", 1))
    if draw(st.booleans()):
        w = [Syllable(v, e) for v, e in w]
    return pres, tuple(w), cancels


def inverse_identities(pres, w):
    """``inverse`` reads the raw word reversed and negates each exponent as
    it reads it: it gives the heap oracle's normal form of the negated
    reversed pairs, whose product with w is () and whose inverse is w's
    normal form."""
    inverse = pres.inverse(w)
    assert inverse == canonical_by_heap(pres, tuple((v, -e) for v, e in reversed(w)))
    assert pres.multiply(w, inverse) == ()
    assert pres.inverse(inverse) == pres.canonical(w)
    return inverse


def reduced_syllables(pres, pairs):
    """The pairs as Syllables with exponents reduced by the oracle's rule,
    identities dropped, in the given order."""
    reduced = ((v, reduce_exponent(pres, v, e)) for v, e in pairs)
    return tuple(Syllable(v, e) for v, e in reduced if e)


class TestEngine:
    @settings(max_examples=150, deadline=None)
    @given(presentations_and_words(), randoms)
    def test_canonical_is_lex_min_of_orbit(self, case, rng):
        pres, w = case
        assert pres.canonical(w) == lex_min_of_orbit(pres, reduce_randomized(pres, w, rng))

    @settings(max_examples=150, deadline=None)
    @given(presentations_and_words(), randoms)
    def test_reduce_is_a_reduced_word_for_the_element(self, case, rng):
        pres, w = case
        reduced = pres.canonical(w)
        assert len(reduced) == len(reduce_randomized(pres, w, rng))
        assert pres.canonical(reduced) == reduced

    @settings(max_examples=150, deadline=None)
    @given(presentations_and_words(20, 400, ORDERS, EXPONENTS), st.booleans())
    def test_canonical_matches_heap_on_long_words(self, case, as_syllables):
        pres, w = case
        if as_syllables:
            w = tuple(Syllable(v, e) for v, e in w)
        assert pres.canonical(w) == canonical_by_heap(pres, w)
        inverse_identities(pres, w)
        steps = pres._steps
        for n, *_, made in steps.values():
            assert len(made) <= (n - 1 if n else _SYLLABLE_TABLE_LIMIT)
        infinite = [v for v, (n, *_) in steps.items() if not n]
        if infinite:
            a = infinite[0]
            assert pres.multiply(*[((a, 1),)] * 5000) == ((a, 5000),)
            assert len(steps[a][3]) == _SYLLABLE_TABLE_LIMIT

    @settings(max_examples=150, deadline=None)
    @given(presentations_and_words(), randoms)
    def test_first_last_vertices_match_orbit(self, case, rng):
        pres, w = case
        assert first_vertices(pres, w) == first_vertices_brute(pres, w, rng)
        assert last_vertices(pres, w) == last_vertices_brute(pres, w, rng)

    @settings(max_examples=100, deadline=None)
    @given(presentations_and_words())
    def test_outputs_are_syllables(self, case):
        pres, w = case
        outputs = [pres.canonical(w), pres.multiply(w, w), pres.inverse(w)]
        outputs += [coset_canonical(pres, w, pres.graph.vertices[:k]) for k in range(3)]
        assert all(type(s) is Syllable for out in outputs for s in out)

    @settings(max_examples=150, deadline=None)
    @given(presentations(orders=(2, 3, 10**12, INFINITY)), st.data())
    def test_output_exponents_are_ints(self, pres, data):
        """At orders 2, 3, 10^12 and inf, with exponents up to +-10^6: every
        syllable that ``canonical``, ``multiply``, ``inverse`` and ``power``
        give is a Syllable whose exponent is an int, also after calls with
        bool and float exponents, which the syllable tables must not keep."""
        vertices = pres.graph.vertices
        for e in (True, 2.0):
            pres.canonical(tuple((v, e) for v in vertices))
        syllable = st.tuples(st.sampled_from(vertices), st.integers(-10**6, 10**6))
        w, u = (tuple(data.draw(st.lists(syllable, max_size=10))) for _ in range(2))
        outputs = [pres.canonical(w), pres.multiply(w, u), pres.inverse(w),
                   power(pres, w, data.draw(st.integers(-5, 5)))]
        outputs += [pres.canonical(tuple((v, e) for v in vertices)) for e in (1, 2)]
        assert all(type(s) is Syllable and type(s.exponent) is int
                   for out in outputs for s in out)

    @settings(max_examples=150, deadline=None)
    @given(presentations_and_words(), randoms)
    def test_coset_canonical_matches_stripping(self, case, rng):
        pres, w = case
        for pair in separated_pairs(pres):
            sp = build_splitting(pres, pair)
            for side in map(pres._names, (sp.a_side, sp.b_side, sp.c_side)):
                expected = coset_canonical_by_stripping(pres, w, side, rng)
                assert coset_canonical(pres, w, side) == expected

    @settings(max_examples=150, deadline=None)
    @given(presentations_and_words())
    def test_insert_is_canonical_of_concatenation(self, case):
        pres, w = case
        g = canonical_by_heap(pres, w)
        # every generator, and the inverse of each syllable of g, so that
        # joins whose exponent vanishes are met on every nonempty g
        steps = ball_generators(pres, pres.graph.vertices) + list(
            reduced_syllables(pres, ((v, -e) for v, e in g)))
        for s in steps:
            assert pres._extend(g, (s,)) == canonical_by_heap(pres, w + (s,))

    @settings(max_examples=150, deadline=None)
    @given(presentations_and_words(), st.data())
    def test_extend_is_canonical_of_concatenation(self, case, data):
        pres, w = case
        g = canonical_by_heap(pres, w)
        # u mixes fresh syllables with inverses of w's, and may begin by
        # undoing w entirely, so joins whose exponent vanishes are met
        inverses = [(v, -e) for v, e in reversed(w)]
        syllable = st.tuples(st.sampled_from(pres.graph.vertices), st.integers(-3, 3))
        if inverses:
            syllable |= st.sampled_from(inverses)
        u = tuple(data.draw(st.lists(syllable, max_size=10)))
        if data.draw(st.booleans()):
            u = tuple(inverses) + u
        assert pres._extend(g, u) == canonical_by_heap(pres, w + u)

    @settings(max_examples=150, deadline=None)
    @given(presentations_and_words(), st.data())
    def test_extend_normalizes_raw_pairs_as_make_word_does(self, case, data):
        """Pairs or Syllables with exponents 0, multiples of the order, past
        it and negative, and sometimes the unknown vertex z: ``_extend``,
        ``multiply`` and ``inverse`` reduce the exponents as the oracle does
        and reject z."""
        pres, w = case
        g = canonical_by_heap(pres, w)
        vertex = st.sampled_from(pres.graph.vertices)
        if data.draw(st.booleans()):
            vertex |= st.just("z")
        exponent = st.integers(-7, 7) | st.sampled_from((12, -12, 2**64))
        u = tuple(data.draw(st.lists(st.tuples(vertex, exponent), max_size=10)))
        if data.draw(st.booleans()):
            u = tuple(Syllable(v, e) for v, e in u)
        if any(v == "z" for v, _ in u):
            for call in (lambda: pres._extend(g, u), lambda: pres.multiply(w, u),
                         lambda: pres.inverse(u)):
                with pytest.raises(InputError) as got:
                    call()
                assert str(got.value) == "unknown vertex: z"
            return
        assert pres._extend(g, u) == canonical_by_heap(pres, w + reduced_syllables(pres, u))
        assert pres.multiply(w, u) == canonical_by_heap(pres, w + u)
        assert pres.inverse(u) == canonical_by_heap(pres, tuple((v, -e) for v, e in reversed(u)))

    @settings(max_examples=100, deadline=None)
    @given(cancelling_words())
    def test_inverse_of_cancelling_words(self, case):
        """The inverse identities where w's first syllable joins or cancels
        at index 0, or w cancels to (); an unknown vertex is rejected by name,
        as ``canonical`` and ``multiply`` reject it."""
        pres, w, cancels = case
        if any(v == "z" for v, _ in w):
            for call in (lambda: pres.inverse(w), lambda: pres.canonical(w),
                         lambda: pres.multiply(w, w)):
                with pytest.raises(InputError) as got:
                    call()
                assert str(got.value) == "unknown vertex: z"
            return
        inverse = inverse_identities(pres, w)
        if cancels:
            assert inverse == ()

    @settings(max_examples=100, deadline=None)
    @given(presentations(), st.integers(0, 3), st.sampled_from((4, 30, 1000)), st.data())
    def test_ball_matches_whole_word_oracle(self, pres, radius, cap, data):
        subset = data.draw(st.sets(st.sampled_from(pres.graph.vertices)))

        def outcome(enumerate_ball, *args):
            try:
                return enumerate_ball(*args)
            except ResourceCapError as exc:
                return str(exc)

        assert outcome(pres.enumerate_ball_info, radius, cap, subset) == outcome(
            enumerate_ball_by_canonical, pres, radius, cap, subset
        )

    @settings(max_examples=200, deadline=None)
    @given(presentations(max_vertices=6), st.integers(2, 5), st.data())
    def test_ball_counts_by_length_are_the_growth_series(self, pres, radius, data):
        """Per ``word_length``, the ball of G_S counts what Chiswell's growth
        series of G_S gives: one normal form per element, and ``word_length``
        the word metric, as the audit's size rule needs."""
        subset = data.draw(st.sets(st.sampled_from(pres.graph.vertices)))
        try:
            ball = enumerate_ball(pres, radius, cap=3000, subset=subset)
        except ResourceCapError:
            return
        lengths = Counter(word_length(pres, w) for w in ball)
        assert [lengths[t] for t in range(radius + 1)] == growth_coefficients(pres, radius, subset)
