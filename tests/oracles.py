"""Independent brute-force oracles used to check the fast implementations.

These deliberately avoid the code paths they verify: reduction applies the
rewriting rules in a random order, the shuffle-closure oracle works by
exhaustive BFS over adjacent commuting swaps, the first/last-vertex and
coset oracles read the answer off the whole orbit (the one-scan heap
sources they check, ``first_vertices`` and ``last_vertices``, are here too,
as only tests use them, as are the word helpers ``power``, ``word_length``,
``support``, ``in_full_subgroup``, ``enumerate_ball``, ``enumerate_ball_info``
and ``growth_series``, the coset helper ``coset_canonical`` and the graph
helper ``link``), canonical forms also come from linearizing the
dependency heap of the whole reduced word, balls grow by those whole-word
forms rather than by inserting a syllable, ball counts
per length come from the growth series of the product, separated
pairs come from BFS distances and pairwise adjacency, a graph's adjacency
and edge sets are built straight from its edge list, full-subgroup orders
from pairwise adjacency on the adjacency sets, exponents are reduced
here rather than by the library, the tree ball and the audit
enumerate a side ball at every tree vertex and scan the whole element ball
(or enumerate G_C) at every tree edge, a ball is saturated iff it is closed
under the generators, and tree distances come from
re-canonicalizing stripping rounds or from BFS on a materialized ball.
"""

import math
import random
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import combinations

from arboreal.classify import SIDE_A, SIDE_B, SeparatedPair
from arboreal.errors import InputError, ResourceCapError
from arboreal.graphs import SimpleGraph
from arboreal.tree import (
    AuditReport,
    ElementAction,
    TreeBall,
    act,
    _strip,
    base_vertex,
    make_edge,
    make_vertex,
)
from arboreal.words import DEFAULT_BALL_CAP, INFINITY, Presentation, Syllable


def shuffle_closure(pres, word):
    """All words reachable from ``word`` by adjacent commuting swaps."""
    adjacency = pres.graph.adjacency
    word = tuple(word)
    seen = {word}
    frontier = [word]
    while frontier:
        new = []
        for w in frontier:
            for i in range(len(w) - 1):
                u, v = w[i].vertex, w[i + 1].vertex
                if v in adjacency[u]:
                    swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                    if swapped not in seen:
                        seen.add(swapped)
                        new.append(swapped)
        frontier = new
    return seen


def word_key(pres, word):
    return tuple((pres.graph.index[s.vertex], s.exponent) for s in word)


def lex_min_of_orbit(pres, reduced_word):
    """Lexicographically smallest member of the shuffle orbit."""
    return min(shuffle_closure(pres, reduced_word), key=lambda w: word_key(pres, w))


def heap_sources(pres, sylls):
    """Vertices of the syllables of a reduced word with no earlier syllable
    outside their link: the heap's sources, in one scan with the set of
    vertices seen."""
    adjacency = pres.graph.adjacency
    seen, out = set(), set()
    for v, _ in sylls:
        if seen <= adjacency[v]:
            out.add(v)
        seen.add(v)
    return out


def first_vertices(pres, word):
    """Vertices that can begin a reduced word for the element: heap sources."""
    return heap_sources(pres, pres.canonical(word))


def last_vertices(pres, word):
    """Vertices that can end a reduced word for the element: heap sinks, the
    sources of the reversed word."""
    return heap_sources(pres, reversed(pres.canonical(word)))


def first_vertices_brute(pres, word, rng: random.Random):
    """First-syllable vertices found by inspecting the whole shuffle orbit."""
    orbit = shuffle_closure(pres, reduce_randomized(pres, word, rng))
    return {w[0].vertex for w in orbit if w}


def last_vertices_brute(pres, word, rng: random.Random):
    orbit = shuffle_closure(pres, reduce_randomized(pres, word, rng))
    return {w[-1].vertex for w in orbit if w}


def coset_canonical(pres, word, subset):
    """Canonical minimal-length representative of the coset gG_S: the tree
    layer's strip (see ``tree._strip``) of ``canonical(word)`` by S's mask."""
    return _strip(pres, pres.canonical(word), pres._mask(pres.graph.check_vertices(subset)))


def coset_canonical_by_stripping(pres, word, subset, rng: random.Random):
    """Coset representative of gG_S by iterated stripping, on the oracles:
    drop the last syllable at the smallest vertex of S that can end the
    word, re-canonicalize, and repeat until no vertex of S can end it."""
    subset = set(subset)
    g = lex_min_of_orbit(pres, reduce_randomized(pres, word, rng))
    while True:
        strippable = last_vertices_brute(pres, g, rng) & subset
        if not strippable:
            return g
        v = min(strippable, key=pres.graph.index.__getitem__)
        i = max(i for i, s in enumerate(g) if s.vertex == v)
        g = lex_min_of_orbit(pres, reduce_randomized(pres, g[:i] + g[i + 1:], rng))


def canonical_by_heap(pres, word):
    """Canonical form as the lexicographically least linearization of the
    reduced word's dependency heap: an arc into each syllable from the last
    earlier syllable at each vertex outside its link, linearized by Kahn's
    algorithm taking the smallest ready vertex first. The word is reduced by
    ``reduce_randomized``, since the library's reduced words are its
    canonical forms."""
    sylls = reduce_randomized(pres, word, random.Random(0))
    adjacency, index = pres.graph.adjacency, pres.graph.index
    last, succ, indeg = {}, [], []
    for j, (v, _) in enumerate(sylls):
        before = [i for u, i in last.items() if u not in adjacency[v]]
        for i in before:
            succ[i].append(j)
        succ.append([])
        indeg.append(len(before))
        last[v] = j
    ready = [(index[v], j) for j, (v, _) in enumerate(sylls) if not indeg[j]]
    heapify(ready)
    out = []
    while ready:
        _, i = heappop(ready)
        out.append(sylls[i])
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                heappush(ready, (index[sylls[j].vertex], j))
    return tuple(out)


def ball_generators(pres, subset):
    """The single-syllable generators of G_S: every nontrivial exponent at a
    finite vertex, exponents +-1 at an infinite one."""
    return [
        Syllable(v, e)
        for v in pres.graph.vertices
        if v in subset
        for e in ((1, -1) if pres.orders[v] == INFINITY else range(1, pres.orders[v]))
    ]


def closed_under_generators(pres, ball, subset):
    """Whether ``ball`` is closed under right multiplication by every
    generator of G_S (see ``ball_generators``), and so is all of G_S: a
    saturation flag that reads neither the radius nor the vertex set."""
    gens = ball_generators(pres, subset)
    return all(pres.multiply(g, (s,)) in ball for g in ball for s in gens)


def enumerate_ball_by_canonical(pres, radius, cap, subset):
    """Ball of G_S and its saturation flag, each element the whole-word
    ``canonical_by_heap(g + (s,))`` of an element g one step nearer; raises
    ResourceCapError at the element that passes ``cap``."""
    gens = ball_generators(pres, subset)
    seen = {()}
    frontier = [()]
    for depth in range(1, radius + 1):
        new = []
        for g in frontier:
            for s in gens:
                h = canonical_by_heap(pres, g + (s,))
                if h not in seen:
                    seen.add(h)
                    if len(seen) > cap:
                        raise ResourceCapError(
                            f"ball exceeded cap of {cap} elements at radius {depth}"
                        )
                    new.append(h)
        frontier = new
        if not frontier:
            return seen, True
    return seen, all(canonical_by_heap(pres, g + (s,)) in seen for g in frontier for s in gens)


def random_presentation(rng: random.Random, max_vertices=5, orders=(2, 3, INFINITY)):
    n = rng.randint(2, max_vertices)
    names = [chr(ord("a") + i) for i in range(n)]
    edges = [
        (u, v)
        for i, u in enumerate(names)
        for v in names[i + 1:]
        if rng.random() < 0.5
    ]
    return Presentation(
        SimpleGraph(names, edges), {v: rng.choice(orders) for v in names}
    )


def random_word(rng: random.Random, pres, max_len=8, exp_bound=2):
    out = []
    for _ in range(rng.randint(0, max_len)):
        v = rng.choice(pres.graph.vertices)
        n = pres.orders[v]
        if n == INFINITY:
            e = rng.choice([k for k in range(-exp_bound, exp_bound + 1) if k != 0])
        else:
            e = rng.randint(1, n - 1)
        out.append(Syllable(v, e))
    return tuple(out)


def reduce_exponent(pres, v, e):
    """``e`` reduced mod the order of ``v`` when it is finite; 0 = identity."""
    n = pres.orders[v]
    return e if n == INFINITY else e % n


def reduce_randomized(pres, word, rng: random.Random):
    """Reduction applying join/delete rules in a random order.

    Independent re-statement of the rewriting system, used to check that the
    deterministic reducer is confluent.
    """
    sylls = [Syllable(v, reduce_exponent(pres, v, e)) for v, e in word]
    sylls = [s for s in sylls if s.exponent != 0]
    adjacency = pres.graph.adjacency
    while True:
        moves = []
        for i in range(len(sylls)):
            v = sylls[i].vertex
            for j in range(i + 1, len(sylls)):
                u = sylls[j].vertex
                if u == v:
                    moves.append((i, j))
                    break
                if u not in adjacency[v]:
                    break
        if not moves:
            return tuple(sylls)
        i, j = rng.choice(moves)
        v = sylls[i].vertex
        e = reduce_exponent(pres, v, sylls[i].exponent + sylls[j].exponent)
        del sylls[j]
        if e == 0:
            del sylls[i]
        else:
            sylls[i] = Syllable(v, e)


def graph_by_edge_sets(vertices, edges):
    """(adjacency, edges) of a graph built straight from its edge list: a
    frozenset per edge and a set per vertex, no masks. Raises InputError for
    duplicate vertices, else for the first edge with an endpoint outside the
    vertex list or with both endpoints equal, in that order."""
    vertices = list(vertices)
    if len(set(vertices)) != len(vertices):
        raise InputError("duplicate vertex identifiers")
    adjacency = {v: set() for v in vertices}
    edge_set = set()
    for u, v in edges:
        if u not in adjacency or v not in adjacency:
            raise InputError(f"edge ({u}, {v}) has an endpoint outside the vertex list")
        if u == v:
            raise InputError(f"loop at vertex {u}")
        adjacency[u].add(v)
        adjacency[v].add(u)
        edge_set.add(frozenset((u, v)))
    return adjacency, frozenset(edge_set)


def graph_distances(graph, source):
    """Edge distances from ``source`` to every vertex of its component, by BFS."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in graph.adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def is_connected_by_bfs(graph):
    return len(graph_distances(graph, graph.vertices[0])) == len(graph.vertices)


def link(graph, subset):
    """Common link: vertices adjacent to every vertex of ``subset``.

    The link of a singleton is the ordinary link; the result is always
    disjoint from ``subset``. The empty subset is rejected (we do not adopt
    the whole-vertex-set convention).
    """
    subset = graph.check_vertices(subset)
    if not subset:
        raise InputError("link of the empty set is not defined")
    return set.intersection(*(graph.adjacency[v] for v in subset)) - subset


def power(pres, word, n):
    """word^n by repeated squaring: O(log |n|) products."""
    g = pres.canonical(word)
    if n < 0:
        g, n = pres.inverse(g), -n
    out = ()
    while n:
        if n & 1:
            out = pres.multiply(out, g)
        n >>= 1
        if n:
            g = pres.multiply(g, g)
    return out


def word_length(pres, word):
    """Generator count of a reduced word: 1 per syllable at a finite vertex,
    |e| per syllable at an infinite one."""
    return sum(1 if pres.orders[v] != INFINITY else abs(e) for v, e in word)


def support(pres, word):
    return {s.vertex for s in pres.canonical(word)}


def enumerate_ball_info(pres, radius, cap=DEFAULT_BALL_CAP, subset=None):
    """G_S's ball (``Presentation._ball``) plus a flag, True iff it is the
    whole subgroup (``Presentation._saturates``), S all vertices by default.
    Raises InputError for an unknown vertex, and for a negative radius, whose
    ball is empty."""
    if radius < 0:
        raise InputError(f"radius must be at least 0, got {radius}")
    graph = pres.graph
    mask = pres._mask(graph.check_vertices(graph.vertices if subset is None else subset))
    return pres._ball(mask, radius, cap), pres._saturates(mask, radius)


def enumerate_ball(pres, radius, cap=DEFAULT_BALL_CAP, subset=None):
    """Canonical forms reachable in <= radius generator multiplications."""
    return enumerate_ball_info(pres, radius, cap=cap, subset=subset)[0]


def in_full_subgroup(pres, word, subset):
    """Membership in G_S, decided by support containment."""
    return support(pres, word) <= pres.graph.check_vertices(subset)


def growth_series(pres, subset, cap=DEFAULT_BALL_CAP):
    """(D, P) of degree <= |S|, G_S's growth series being W_S = D/P (see
    ``Presentation.growth_table``), from a table for S alone; None past cap."""
    chosen = pres.graph.check_vertices(subset)
    return pres.growth_table(len(chosen), cap)(pres._mask(chosen))


def full_subgroup_order_by_definition(pres, subset):
    """|G_S|: the product of the orders when S induces a complete graph of
    finite-order vertices, checked pair by pair on the adjacency sets, else
    INFINITY."""
    orders, adjacency = pres.orders, pres.graph.adjacency
    finite = all(orders[v] != INFINITY for v in subset)
    clique = all(v in adjacency[u] for u, v in combinations(subset, 2))
    return math.prod(orders[v] for v in subset) if finite and clique else INFINITY


def growth_coefficients(pres, radius, subset=None):
    """[W_0, ..., W_radius]: the number of elements of G_S (S all vertices by
    default) of each length in the generators of ``enumerate_ball_info``, as
    integer power series from Chiswell's formula (Bull. London Math. Soc. 26,
    1994): 1/W(z) = sum over cliques K of S, the empty one included, of
    prod_{v in K} (1/f_v(z) - 1). For Z_n, f_v = 1 + (n-1)z and
    1/f_v - 1 = sum_{k>=1} (1-n)^k z^k; for Z, f_v = (1+z)/(1-z) and
    1/f_v - 1 = sum_{k>=1} 2(-1)^k z^k. Cliques come from pairwise adjacency."""
    vertices = list(pres.graph.vertices if subset is None else subset)
    adjacency = pres.graph.adjacency

    def times(a, b):
        return [sum(a[i] * b[t - i] for i in range(t + 1)) for t in range(radius + 1)]

    def term(v):
        n = pres.orders[v]
        return [0] + [2 * (-1) ** k if n == INFINITY else (1 - n) ** k
                      for k in range(1, radius + 1)]

    inverse_w = [0] * (radius + 1)
    for size in range(len(vertices) + 1):
        for clique in combinations(vertices, size):
            if all(v in adjacency[u] for u, v in combinations(clique, 2)):
                series = [1] + [0] * radius
                for v in clique:
                    series = times(series, term(v))
                inverse_w = [x + y for x, y in zip(inverse_w, series)]
    w = [1]  # inverse_w[0] == 1, from the empty clique alone
    for t in range(1, radius + 1):
        w.append(-sum(inverse_w[i] * w[t - i] for i in range(1, t + 1)))
    return w


def separated_pairs_by_definition(pres):
    """Separated pairs in vertex order, by the definition: BFS edge distance
    >= 2, and a common link inducing a complete graph of finite-order vertices."""
    graph = pres.graph
    out = []
    for a, b in combinations(graph.vertices, 2):
        if graph_distances(graph, a).get(b, INFINITY) < 2:
            continue
        common = [v for v in graph.vertices if {a, b} <= graph.adjacency[v]]
        order = full_subgroup_order_by_definition(pres, common)
        if order != INFINITY:
            out.append(SeparatedPair(a, b, tuple(common), order))
    return out


OTHER_SIDE = {SIDE_A: SIDE_B, SIDE_B: SIDE_A}


def neighbors_by_side_ball(splitting, v, local_radius, cap):
    """Edges at v from its own enumeration of the side ball: v.rep * s for
    every s in it, first s per edge kept. Returns (pairs, truncated), the
    ball truncated iff it is not closed under the side's generators."""
    pres = splitting.presentation
    side = pres._names(splitting.side(v.side))
    reps = enumerate_ball(pres, local_radius, cap, side)
    opp = OTHER_SIDE[v.side]
    found = {}
    for s in sorted(reps):
        g = pres.multiply(v.rep, s)
        edge = make_edge(splitting, g)
        if edge.rep not in found:
            found[edge.rep] = (edge, make_vertex(splitting, g, opp))
    return (sorted(found.values(), key=lambda pair: pair[0].rep),
            not closed_under_generators(pres, reps, side))


def tree_ball_by_vertex(splitting, radius, local_radius, cap):
    """BFS tree ball calling ``neighbors_by_side_ball`` at every vertex."""
    base = base_vertex(splitting)
    adjacency = {base: []}
    edges = {}
    truncated = False
    frontier = [base]
    for _ in range(radius):
        new = []
        for v in frontier:
            nbrs, trunc = neighbors_by_side_ball(splitting, v, local_radius, cap)
            truncated = truncated or trunc
            for edge, w in nbrs:
                if edge.rep not in edges:
                    edges[edge.rep] = edge
                    adjacency[v].append((edge, w))
                    if w not in adjacency:
                        adjacency[w] = []
                        new.append(w)
                    adjacency[w].append((edge, v))
        frontier = new
    return TreeBall(base, radius, list(adjacency), list(edges.values()), adjacency, truncated)


def edge_fixers_by_scan(splitting, edge, ball, cap):
    """Ball elements in gG_Cg^-1: for finite G_C, its conjugates enumerated
    afresh and intersected with the ball; else every ball element s with
    g^-1 s g supported in C."""
    pres = splitting.presentation
    c_set = set(pres._names(splitting.c_side))
    c_order = pres.full_subgroup_order(c_set)
    g = edge.rep
    g_inv = pres.inverse(g)
    if c_order != INFINITY:
        elements = enumerate_ball(pres, c_order, cap, c_set)
        return {pres.multiply(g, x, g_inv) for x in elements} & ball
    return {s for s in ball if support(pres, pres.multiply(g_inv, s, g)) <= c_set}


def paths_by_edge_set(ball, k):
    """Non-backtracking k-edge walks from every vertex, in ball order, keeping
    the first walk over each edge set (a tree path is determined by its edges)."""
    seen = set()
    for start in ball.vertices:
        stack = [(start, [])]
        while stack:
            v, edges = stack.pop()
            if len(edges) == k:
                key = frozenset(e.rep for e in edges)
                if key not in seen:
                    seen.add(key)
                    yield edges
                continue
            for edge, w in ball.adjacency[v]:
                if not edges or edge.rep != edges[-1].rep:
                    stack.append((w, edges + [edge]))


# Cap of the element ball ``audit_by_scan`` scans for fixers. The audit
# builds no such ball, so ``cap`` must not stop it; this one holds the
# radius-3 ball of any group on ten generators (911 elements at most), and
# five vertices of order 2, 3 or inf give at most ten.
ELEMENT_BALL_CAP = 10_000


def audit_by_scan(splitting, k, tree_radius, element_radius, local_radius, cap):
    """``audit_acylindricity`` on ``tree_ball_by_vertex``, ``paths_by_edge_set``
    and ``edge_fixers_by_scan``; ``cap`` bounds the tree ball and the side
    and G_C balls, ``ELEMENT_BALL_CAP`` the element ball, exhaustive iff it
    is closed under every generator."""
    pres = splitting.presentation
    ball = tree_ball_by_vertex(splitting, tree_radius, local_radius, cap)
    elements = enumerate_ball(pres, element_radius, ELEMENT_BALL_CAP)
    fixers = {}
    sizes = []
    violations = []
    for path in paths_by_edge_set(ball, k):
        stab = None
        for edge in path:
            if edge.rep not in fixers:
                fixers[edge.rep] = edge_fixers_by_scan(splitting, edge, elements, cap)
            stab = set(fixers[edge.rep]) if stab is None else stab & fixers[edge.rep]
        sizes.append(len(stab))
        if len(stab) > splitting.acyl_c:
            violations.append((list(path), len(stab)))
    return AuditReport(
        splitting=splitting,
        k=k,
        tree_radius=tree_radius,
        element_radius=element_radius,
        local_radius=local_radius,
        paths_checked=len(sizes),
        max_stabilizer_size=max(sizes, default=0),
        bound=splitting.acyl_c,
        truncated=ball.truncated,
        exhaustive_elements=closed_under_generators(pres, elements, pres.graph.vertices),
        violations=violations,
    )


def bfs_distances(ball, source):
    """Edge distances from ``source`` to every vertex of a tree ball, by BFS."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for _, w in ball.adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def tree_distance_by_stripping(splitting, v1, v2):
    """Tree distance by alternating right-stripping, re-canonicalizing every
    round: strip v2's side from h = v1.rep^-1 v2.rep, then the other side,
    and so on until h is empty; one more edge if the last side is not v1's."""
    pres = splitting.presentation
    h = pres.multiply(pres.inverse(v1.rep), v2.rep)
    side = v2.side
    h = coset_canonical(pres, h, pres._names(splitting.side(side)))
    dist = 0
    while h:
        side = OTHER_SIDE[side]
        h = coset_canonical(pres, h, pres._names(splitting.side(side)))
        dist += 1
    return dist + (side != v1.side)


def element_action_by_stripping(splitting, g):
    """Displacement test at the base vertex x on ``act`` and
    ``tree_distance_by_stripping``: loxodromic iff d(x, g^2 x) > d(x, gx)."""
    pres = splitting.presentation
    g = pres.canonical(g)
    x = base_vertex(splitting)
    d1 = tree_distance_by_stripping(splitting, x, act(splitting, g, x))
    d2 = tree_distance_by_stripping(splitting, x, act(splitting, pres.multiply(g, g), x))
    return ElementAction("Loxodromic", d2 - d1) if d2 > d1 else ElementAction("Elliptic")
