"""Finite simple graphs and the combinatorial primitives used downstream.

Vertices are strings with a fixed total order given by input order; that
order is the universal tie-breaker for all canonical choices made elsewhere.

Besides its ``adjacency`` sets, a graph holds one int bitmask per vertex,
``masks[i]``, with bit j set iff vertices i and j are adjacent; a vertex set
is a mask with bit i for ``vertices[i]``, so its bits are in vertex order.
``diameter``, ``is_irreducible`` and the separated-pair search run on the
masks: a set operation is one int operation on n bits, n/64 machine words.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Iterator

from .errors import InputError

INFINITY = math.inf


class SimpleGraph:
    """Undirected simple graph: no loops, no multi-edges, ordered vertices."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex identifiers")
        self.index = {v: i for i, v in enumerate(self.vertices)}
        edge_set = set()
        for u, v in edges:
            if u not in self.index or v not in self.index:
                raise InputError(f"edge ({u}, {v}) has an endpoint outside the vertex list")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            edge_set.add(frozenset((u, v)))
        self.edges = frozenset(edge_set)
        self.adjacency = {v: set() for v in self.vertices}
        masks = [0] * len(self.vertices)
        for e in self.edges:
            u, v = tuple(e)
            self.adjacency[u].add(v)
            self.adjacency[v].add(u)
            i, j = self.index[u], self.index[v]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self.masks = tuple(masks)

    def __eq__(self, other):
        return (
            isinstance(other, SimpleGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        edges = sorted(tuple(sorted(e, key=self.index.get)) for e in self.edges)
        return f"SimpleGraph({list(self.vertices)!r}, {edges!r})"

    def check_vertices(self, subset: Iterable[str]) -> set[str]:
        subset = set(subset)
        unknown = subset.difference(self.index)
        if unknown:
            raise InputError(f"unknown vertices: {sorted(unknown)}")
        return subset

    def sort_key(self, v: str) -> int:
        return self.index[v]


def link(graph: SimpleGraph, subset: Iterable[str]) -> set[str]:
    """Common link: vertices adjacent to every vertex of ``subset``.

    The link of a singleton is the ordinary link; the result is always
    disjoint from ``subset``. The empty subset is rejected (we do not adopt
    the whole-vertex-set convention).
    """
    subset = graph.check_vertices(subset)
    if not subset:
        raise InputError("link of the empty set is not defined")
    return set.intersection(*(graph.adjacency[v] for v in subset)) - subset


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


def to_dot(graph: SimpleGraph, name: str = "G") -> str:
    """DOT rendering with deterministic vertex and edge order."""
    lines = [f"graph {name} {{"]
    for v in graph.vertices:
        lines.append(f"  {dot_quoted(v)};")
    for u, v in sorted(
        (tuple(sorted(e, key=graph.index.get)) for e in graph.edges),
        key=lambda e: (graph.index[e[0]], graph.index[e[1]]),
    ):
        lines.append(f"  {dot_quoted(u)} -- {dot_quoted(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
