"""Property tests of the graph layer's fast paths against the definitions.

Presentations have at most nine vertices with orders in {2, 3, inf}. Pair
search, the certificate ``classify`` picks, irreducibility and the
virtually-cyclic witness are each checked against a brute-force oracle.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal.classify import (
    Arboreality,
    VirtuallyCyclic,
    VirtuallyCyclicWitness,
    classify,
    separated_pairs,
)
from arboreal.graphs import INFINITY, SimpleGraph, complement, is_connected, is_irreducible
from arboreal.words import Presentation

from conftest import presentations
from oracles import separated_pairs_by_definition


@st.composite
def complete_minus_one_edge(draw):
    """A complete graph on at most nine vertices with one edge removed: the
    only graphs of diameter >= 2 whose product can be virtually cyclic."""
    names = "abcdefghi"[: draw(st.integers(2, 9))]
    pairs = list(combinations(names, 2))
    missing = draw(st.sampled_from(pairs))
    orders = {v: draw(st.sampled_from((2, 3, INFINITY))) for v in names}
    return Presentation(SimpleGraph(names, [p for p in pairs if p != missing]), orders)


class TestAgainstDefinition:
    @settings(max_examples=300, deadline=None)
    @given(presentations(max_vertices=9))
    def test_separated_pairs_match_definition(self, pres):
        assert separated_pairs(pres) == separated_pairs_by_definition(pres)

    @settings(max_examples=300, deadline=None)
    @given(presentations(max_vertices=9))
    def test_certificate_is_first_pair_by_definition(self, pres):
        verdict = classify(pres)
        if verdict.arboreality == Arboreality.ACYL_ARBOREAL:
            assert verdict.certificate == separated_pairs_by_definition(pres)[0]

    @settings(max_examples=300, deadline=None)
    @given(presentations(max_vertices=9))
    def test_irreducible_iff_complement_connected(self, pres):
        assert is_irreducible(pres.graph) == is_connected(complement(pres.graph))

    @settings(max_examples=200, deadline=None)
    @given(complete_minus_one_edge())
    def test_witness_is_the_single_non_edge(self, pres):
        graph = pres.graph
        (missing,) = [
            (u, v) for u, v in combinations(graph.vertices, 2)
            if frozenset((u, v)) not in graph.edges
        ]
        verdict = classify(pres)
        finite = all(n != INFINITY for n in pres.orders.values())
        expected = finite and all(pres.orders[v] == 2 for v in missing)
        assert (verdict.virtually_cyclic == VirtuallyCyclic.YES) == expected
        if expected:
            assert verdict.certificate == VirtuallyCyclicWitness(missing)
