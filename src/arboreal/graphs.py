"""Finite simple graphs and the combinatorial primitives used downstream.

Vertices are strings with a fixed total order given by input order; that
order is the universal tie-breaker for all canonical choices made elsewhere.

A graph is its int bitmasks, one per vertex: ``masks[i]`` has bit j set iff
vertices i and j are adjacent; a vertex set is a mask with bit i for
``vertices[i]``, so its bits are in vertex order. The constructor builds
``index`` and ``masks`` in one pass over the edges; the ``adjacency`` sets and
the ``edges`` frozenset are derived from the masks on first use and cached.
``diameter``, ``is_irreducible`` and the separated-pair search run on the
masks: a set operation is one int operation on n bits, n/64 machine words.
"""

import math
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

from .errors import InputError

INFINITY = math.inf


class SimpleGraph:
    """Undirected simple graph: no loops, no multi-edges, ordered vertices. Built
    eagerly: ``index`` and ``masks``; from ``masks`` on first use: ``adjacency``, ``edges``."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self.vertices = tuple(vertices)
        self.index = index = {v: i for i, v in enumerate(self.vertices)}
        if len(index) != len(self.vertices):
            raise InputError("duplicate vertex identifiers")
        masks = [0] * len(index)
        for u, v in edges:
            try:
                i, j = index[u], index[v]
            except KeyError:
                raise InputError(
                    f"edge ({u}, {v}) has an endpoint outside the vertex list") from None
            if i == j:
                raise InputError(f"loop at vertex {u}")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self.masks = tuple(masks)

    @cached_property
    def adjacency(self) -> dict[str, set[str]]:
        vertices = self.vertices
        return {v: {vertices[j] for j in bit_indices(m)} for v, m in zip(vertices, self.masks)}

    @cached_property
    def edges(self) -> frozenset[frozenset[str]]:
        vertices = self.vertices
        return frozenset(frozenset((vertices[i], vertices[j])) for i, m in enumerate(self.masks)
                         for j in bit_indices(m) if i < j)

    def __eq__(self, other):
        return (
            isinstance(other, SimpleGraph)
            and self.vertices == other.vertices
            and self.masks == other.masks
        )

    def __hash__(self):
        return hash((self.vertices, self.masks))

    def __repr__(self):
        edges = sorted(tuple(sorted(e, key=self.index.get)) for e in self.edges)
        return f"SimpleGraph({list(self.vertices)!r}, {edges!r})"

    def check_vertices(self, subset: Iterable[str]) -> set[str]:
        subset = set(subset)
        unknown = subset.difference(self.index)
        if unknown:
            raise InputError(f"unknown vertices: {sorted(unknown)}")
        return subset


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first: the vertex indices
    of a vertex mask, in vertex order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def diameter(graph: SimpleGraph) -> int | float:
    """Graph-theoretical diameter; INFINITY iff the graph is disconnected.

    One breadth-first search per source on vertex masks. Each round ORs the
    masks of the new frontier's vertices only. A search ends when no vertex is
    unseen, and the result is INFINITY as soon as a frontier empties first.
    A source's last frontier is never expanded, so on a dense graph a source
    reaches every vertex after expanding few of them. Each vertex is expanded
    at most once per source: at most n^2 ORs of n-bit ints in all, O(n^3/64)
    machine-word operations, against O(n*m) set operations for a search over
    adjacency sets.
    """
    masks = graph.masks
    if not masks:
        raise InputError("diameter of the empty graph is not defined")
    everything = (1 << len(masks)) - 1
    best = 0
    for source in range(len(masks)):
        frontier = 1 << source
        unseen = everything ^ frontier
        rounds = 0
        while unseen:
            reach = 0
            while frontier:
                i = frontier.bit_length() - 1
                reach |= masks[i]
                frontier ^= 1 << i
            frontier = reach & unseen
            if not frontier:
                return INFINITY
            unseen ^= frontier
            rounds += 1
        if rounds > best:
            best = rounds
    return best


def complement(graph: SimpleGraph) -> SimpleGraph:
    adjacency = graph.adjacency
    edges = [(u, v) for u, v in combinations(graph.vertices, 2) if v not in adjacency[u]]
    return SimpleGraph(graph.vertices, edges)


def is_irreducible(graph: SimpleGraph) -> bool:
    """True iff the graph-theoretical complement is connected: a search over
    non-edges that steps from u to every unseen vertex outside its link,
    ``unseen & ~masks[u]``."""
    masks = graph.masks
    if not masks:
        raise InputError("connectivity of the empty graph is not defined")
    unseen = (1 << len(masks)) - 2
    frontier = 1
    while frontier and unseen:
        i = frontier.bit_length() - 1
        frontier ^= 1 << i
        reached = unseen & ~masks[i]
        unseen ^= reached
        frontier |= reached
    return not unseen


def induced_subgraph(graph: SimpleGraph, subset: Iterable[str]) -> SimpleGraph:
    """Subgraph on ``subset`` with inherited vertex ordering."""
    subset = graph.check_vertices(subset)
    vertices = [v for v in graph.vertices if v in subset]
    edges = [tuple(e) for e in graph.edges if e <= subset]
    return SimpleGraph(vertices, edges)


def dot_quoted(text: str) -> str:
    """``text`` as a quoted DOT string, with its backslashes and double
    quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(graph: SimpleGraph) -> str:
    """DOT rendering as ``graph G``: the vertices in vertex order, then each
    edge as (u, v) with u before v, ordered by u and then by v."""
    vertices = graph.vertices
    lines = ["graph G {"]
    lines += [f"  {dot_quoted(v)};" for v in vertices]
    for i, mask in enumerate(graph.masks):
        for j in bit_indices(mask):
            if i < j:
                lines.append(f"  {dot_quoted(vertices[i])} -- {dot_quoted(vertices[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
