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
``diameter`` grows every vertex's ball at once, each round ORing a vertex's
neighbours' balls into its own until it is full, so its cost follows the
edges and the eccentricities rather than n^2.
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

    Every vertex's ball grows at once, as an n-bit mask. The round-1 balls are
    the closed neighbourhoods; in round r each vertex whose ball is not yet
    everything ORs its neighbours' round r - 1 balls into its own, and stops
    ORing as soon as its ball is everything. The result is INFINITY when a
    ball stops growing short of everything, and otherwise the round at which
    the last ball fills. Round 2 reads a vertex's neighbours off its mask and
    lists them for the rounds after it, so a dense graph, whose balls fill
    after a few ORs of round 2, lists few neighbours.

    Cost: about sum of ecc(v) * deg(v) ORs of n-bit ints, ecc(v) the
    eccentricity of v, and fewer where balls fill partway through a round.
    That is small on graphs with many vertices, few edges and a small
    diameter, where a breadth-first search from each vertex costs about n^2
    ORs: on G(4000, 10/n) the rounds run about 80 times faster. Memory: two
    lists of n balls of n bits, about 4 MB at n = 4000, and one list of
    neighbours for each vertex whose ball round 2 leaves short of everything.
    Long paths and cycles, whose balls grow by two vertices a round, gain
    least: P_800 and C_800 run about 1.4 and 1.8 times faster than a search
    from each vertex, where a version that reads every round's neighbours off
    the masks ran 1.5 times slower.
    """
    masks = graph.masks
    if not masks:
        raise InputError("diameter of the empty graph is not defined")
    everything = (1 << len(masks)) - 1
    if everything == 1:
        return 0
    balls = [m | 1 << v for v, m in enumerate(masks)]
    if balls.count(everything) == len(balls):
        return 1
    # Round r writes spare while it reads balls, round r - 1's. A ball full at
    # round r is read in round r + 1 only: a ball growing after that has an
    # eccentricity of r + 2 or more, so no neighbour of eccentricity r or less.
    spare = balls[:]
    growing = []
    for v, before in enumerate(balls):  # round 2, listing the neighbours of a ball not yet full
        if before == everything:
            continue
        ball, near, m = before, [], masks[v]
        while m:
            low = m & -m
            u = low.bit_length() - 1
            ball |= balls[u]
            if ball == everything:
                break
            near.append(u)
            m ^= low
        spare[v] = ball
        if ball == before:
            return INFINITY
        if ball != everything:
            growing.append((v, near))
    rounds = 2
    while growing:
        balls, spare = spare, balls
        rounds += 1
        still = []
        for item in growing:
            v, near = item
            ball = before = balls[v]
            for u in near:
                ball |= balls[u]
                if ball == everything:
                    break
            spare[v] = ball
            if ball == before:
                return INFINITY
            if ball != everything:
                still.append(item)
        growing = still
    return rounds


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
