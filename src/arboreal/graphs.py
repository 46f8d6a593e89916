"""Finite simple graphs and the combinatorial primitives used downstream.

Vertices are strings with a fixed total order given by input order; that
order is the universal tie-breaker for all canonical choices made elsewhere.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations
from typing import Iterable

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
        for e in self.edges:
            u, v = tuple(e)
            self.adjacency[u].add(v)
            self.adjacency[v].add(u)

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

    def adjacent(self, u: str, v: str) -> bool:
        self.check_vertices((u, v))
        return v in self.adjacency[u]

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


def neighbourhood(graph: SimpleGraph, subset: Iterable[str]) -> set[str]:
    """Union over v in subset of link(v) | {v}; empty for the empty subset."""
    subset = graph.check_vertices(subset)
    result = set()
    for v in subset:
        result |= graph.adjacency[v]
        result.add(v)
    return result


def _bfs_distances(graph: SimpleGraph, source: str) -> dict[str, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in graph.adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def edge_distance(graph: SimpleGraph, u: str, v: str) -> int | float:
    """BFS edge distance; INFINITY if u and v are in different components."""
    graph.check_vertices((u, v))
    return _bfs_distances(graph, u).get(v, INFINITY)


def diameter(graph: SimpleGraph) -> int | float:
    """Graph-theoretical diameter; INFINITY iff the graph is disconnected."""
    if not graph.vertices:
        raise InputError("diameter of the empty graph is not defined")
    best = 0
    for v in graph.vertices:
        dist = _bfs_distances(graph, v)
        if len(dist) < len(graph.vertices):
            return INFINITY
        best = max(best, max(dist.values()))
    return best


def is_connected(graph: SimpleGraph) -> bool:
    if not graph.vertices:
        raise InputError("connectivity of the empty graph is not defined")
    return len(_bfs_distances(graph, graph.vertices[0])) == len(graph.vertices)


def complement(graph: SimpleGraph) -> SimpleGraph:
    adjacency = graph.adjacency
    edges = [(u, v) for u, v in combinations(graph.vertices, 2) if v not in adjacency[u]]
    return SimpleGraph(graph.vertices, edges)


def is_irreducible(graph: SimpleGraph) -> bool:
    """True iff the graph-theoretical complement is connected: a search over
    non-edges that steps from u to every unseen vertex outside its link."""
    if not graph.vertices:
        raise InputError("connectivity of the empty graph is not defined")
    unseen = set(graph.vertices[1:])
    frontier = [graph.vertices[0]]
    while frontier and unseen:
        reached = unseen - graph.adjacency[frontier.pop()]
        unseen -= reached
        frontier.extend(reached)
    return not unseen


def is_complete(graph: SimpleGraph) -> bool:
    n = len(graph.vertices)
    return len(graph.edges) == n * (n - 1) // 2


def induced_subgraph(graph: SimpleGraph, subset: Iterable[str]) -> SimpleGraph:
    """Subgraph on ``subset`` with inherited vertex ordering."""
    subset = graph.check_vertices(subset)
    vertices = [v for v in graph.vertices if v in subset]
    edges = [tuple(e) for e in graph.edges if e <= subset]
    return SimpleGraph(vertices, edges)


def to_dot(graph: SimpleGraph, name: str = "G") -> str:
    """DOT rendering with deterministic vertex and edge order."""
    lines = [f"graph {name} {{"]
    for v in graph.vertices:
        lines.append(f'  "{v}";')
    for u, v in sorted(
        (tuple(sorted(e, key=graph.index.get)) for e in graph.edges),
        key=lambda e: (graph.index[e[0]], graph.index[e[1]]),
    ):
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
