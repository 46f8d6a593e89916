"""Bounded simulation of the action on the Bass-Serre tree of an amalgam.

Vertices are cosets gG_A and gG_B, edges cosets gG_C, each held as the
canonical minimal-length representative obtained by right-stripping; an
edge at a vertex is the vertex's representative extended by a coset
representative, already stripped (see ``tree_ball``). The tree is infinite;
every exploration here is bounded and reports truncation.
The vertex sets A, B and C are the splitting's frozensets, read as they are.

Coset representatives, distances and stabilizers are questions about the
dependency heap of a reduced word (see words.py), which is never built: a
later syllable outside the link of a v-syllable is its descendant, so each
question is a scan over the word with per-vertex state.

Distances need no representatives in normal form: the alternating strips
that measure one are rounds of a single reverse pass over the relative word
(see ``tree_distance``).

The pointwise stabilizer of a path is one conjugate f G_R f^-1 of a
parabolic subgroup, read off a forward scan of the word joining its end
edges and a strip of what that scan leaves (see ``_stabilizer_scan``).

What depends only on the splitting and the radii is enumerated once per
tree ball or audit, not once per tree vertex or path: each side's subgroup
ball, collapsed to its G_C cosets, and the ball of each G_R a path
stabilizer is conjugate to, kept as length counts per support, from which
the audit sizes f G_R f^-1, R empty or not (see ``audit_acylindricity``).
The audit inverts each first edge's representative once, and walks each
path once, from its end listed first, cutting walks that can only end at an
earlier-listed vertex (see ``_paths_of_length``).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cache
from itertools import accumulate, chain, combinations
from typing import AbstractSet, Iterable, NamedTuple, Optional

from .classify import SIDE_A, SIDE_B, SplittingSpec
from .errors import InputError, ResourceCapError
from .graphs import dot_quoted
from .words import DEFAULT_BALL_CAP, Presentation, Word, format_word


class TreeVertex(NamedTuple):
    side: str  # SIDE_A or SIDE_B
    rep: Word

    def label(self) -> str:
        return f"{self.side}:{format_word(self.rep)}"


class TreeEdge(NamedTuple):
    rep: Word

    def label(self) -> str:
        return f"C:{format_word(self.rep)}"


class ElementAction(NamedTuple):
    kind: str  # "Elliptic" or "Loxodromic"
    translation_length: int = 0

    @property
    def is_loxodromic(self) -> bool:
        return self.kind == "Loxodromic"


class TreeBall(NamedTuple):
    """Explicit radius-bounded piece of the tree around the base vertex."""

    base: TreeVertex
    radius: int
    vertices: list[TreeVertex]
    edges: list[TreeEdge]
    adjacency: dict[TreeVertex, list[tuple[TreeEdge, TreeVertex]]]
    truncated: bool


class AuditReport(NamedTuple):
    splitting: SplittingSpec
    k: int
    tree_radius: int
    element_radius: int
    local_radius: int
    paths_checked: int
    max_stabilizer_size: int
    bound: int
    truncated: bool
    exhaustive_elements: bool
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self):
        return {
            "splitting": self.splitting.to_dict(),
            "k": self.k,
            "tree_radius": self.tree_radius,
            "element_radius": self.element_radius,
            "local_radius": self.local_radius,
            "paths_checked": self.paths_checked,
            "max_stabilizer_size": self.max_stabilizer_size,
            "bound": self.bound,
            "tree_truncated": self.truncated,
            "exhaustive_elements": self.exhaustive_elements,
            "violations": [
                {
                    "path": [e.label() for e in path],
                    "stabilizer_size": size,
                }
                for path, size in self.violations
            ],
        }


def coset_canonical(pres: Presentation, word: Word, subset: Iterable[str]) -> Word:
    """Canonical minimal-length representative of the coset gG_S.

    Strips S from ``canonical(word)`` (see ``_strip``), which equals
    stripping S-labelled last syllables until none is left. O(L*|V|) beyond
    ``canonical``.
    """
    return _strip(pres, pres.canonical(word), pres.graph.check_vertices(subset))


def _strip(pres: Presentation, word: Word, subset: AbstractSet[str]) -> Word:
    """``coset_canonical`` of the canonical word ``word``, which also gives a
    tree ball's far vertices and a stabilizer's d (see ``_stabilizer_scan``).

    One reverse scan drops the largest successor-closed set of S-labelled
    syllables of the word's heap (see words.py): a syllable goes iff its
    vertex is in S and all its successors go. Every later syllable outside
    its link is a descendant, so that is: no kept later syllable lies outside
    its link. That set is unique. The kept syllables are predecessor-closed,
    and Kahn's choice among those ready never depends on the dropped ones, so
    the kept subsequence is already canonical.
    """
    adjacency = pres.graph.adjacency
    kept = []
    kept_vertices: set[str] = set()
    for s in reversed(word):
        if s.vertex in subset and kept_vertices <= adjacency[s.vertex]:
            continue
        kept.append(s)
        kept_vertices.add(s.vertex)
    kept.reverse()
    return tuple(kept)


def make_vertex(splitting: SplittingSpec, word: Word, side: str) -> TreeVertex:
    pres = splitting.presentation
    return TreeVertex(side, _strip(pres, pres.canonical(word), splitting.side(side)))


def make_edge(splitting: SplittingSpec, word: Word) -> TreeEdge:
    return TreeEdge(coset_canonical(splitting.presentation, word, splitting.c_side))


def base_vertex(splitting: SplittingSpec) -> TreeVertex:
    return TreeVertex(SIDE_A, ())


def act(splitting: SplittingSpec, g: Word, v: TreeVertex) -> TreeVertex:
    return make_vertex(splitting, tuple(g) + tuple(v.rep), v.side)


def tree_ball(
    splitting: SplittingSpec,
    radius: int,
    local_radius: int = 2,
    cap: int = DEFAULT_BALL_CAP,
) -> TreeBall:
    """BFS exploration of the tree around the base vertex G_A.

    The edges at a vertex gG_S are gtG_C, one for each coset tG_C of G_C in
    G_S, and the far vertex of each is gt times the other side's subgroup.
    Each side's ball is enumerated once, at the first vertex of that side,
    and collapsed to its C-stripped coset representatives t. A vertex v then
    costs one extension g = v.rep t per coset and one strip, of the far
    vertex; g is the edge as it stands. v.rep has no sink in S and t none in
    C, so nothing in v.rep t merges or cancels (that would take an S-sink of
    v.rep), and g's sinks are t's, in S - C, or v.rep's, outside S ⊇ C: so
    ``_strip(g, C)`` is g. Distinct cosets give distinct edges, listed in
    order at each vertex.
    The ball is a tree, so the one neighbour of a frontier vertex already in
    the ball is its parent; every other neighbour is new.
    ``cap`` bounds the side balls and the ball's vertex count alike.
    Raises InputError for limits ``check_limits`` rejects.
    """
    check_limits(radius=radius, local_radius=local_radius, cap=cap)
    pres = splitting.presentation
    base = base_vertex(splitting)
    adjacency: dict[TreeVertex, list[tuple[TreeEdge, TreeVertex]]] = {base: []}
    edges: list[TreeEdge] = []
    cosets: dict[str, set[Word]] = {}
    truncated = False
    frontier = [base]
    for _ in range(radius):
        new = []
        for v in frontier:
            if v.side not in cosets:
                side_ball, saturated = pres.enumerate_ball_info(
                    local_radius, cap=cap, subset=splitting.side(v.side)
                )
                cosets[v.side] = {_strip(pres, s, splitting.c_side) for s in side_ball}
                truncated = truncated or not saturated
            opp = SIDE_B if v.side == SIDE_A else SIDE_A
            for g in sorted(pres._extend(v.rep, t) for t in cosets[v.side]):
                w = TreeVertex(opp, _strip(pres, g, splitting.side(opp)))
                if w not in adjacency:
                    edge = TreeEdge(g)
                    edges.append(edge)
                    adjacency[v].append((edge, w))
                    adjacency[w] = [(edge, v)]
                    new.append(w)
            if len(adjacency) > cap:
                raise ResourceCapError(f"tree ball exceeded cap of {cap} vertices")
        frontier = new
    return TreeBall(
        base=base,
        radius=radius,
        vertices=list(adjacency),
        edges=edges,
        adjacency=adjacency,
        truncated=truncated,
    )


def tree_distance(splitting: SplittingSpec, v1: TreeVertex, v2: TreeVertex) -> int:
    """Edge-metric distance between two vertices, whose representatives may
    be any words.

    Right-stripping h = v1.rep^-1 v2.rep through the sides in turn, v2's side
    first, measures it: each round deletes the largest successor-closed set of
    syllables of h's heap on that round's side. One reverse pass over the
    reduced h gives every syllable its round: the largest round r of its
    successors (0 if none) when its vertex is on round r's side, else r + 1,
    because every vertex is on side A or B. Rounds never increase along heap
    arcs, and every later syllable outside a syllable's link is a descendant,
    so r is the largest round held by a vertex outside the link, each vertex
    holding the round of its latest syllable. The distance is the largest
    round, plus one when that round's side is not v1's. O(L*|V|) beyond
    ``inverse`` and ``_extend``, which give h reduced.
    """
    splitting.side(v1.side)  # rejects an unknown side, as side(v2.side) below does
    pres = splitting.presentation
    adjacency = pres.graph.adjacency
    sylls = pres._extend(pres.inverse(v1.rep), v2.rep)
    sides = [v2.side, SIDE_B if v2.side == SIDE_A else SIDE_A]
    vertex_sets = [splitting.side(side) for side in sides]
    rounds: dict[str, int] = {}
    for v, _ in reversed(sylls):
        lk = adjacency[v]
        r = max((ru for u, ru in rounds.items() if u not in lk), default=0)
        rounds[v] = r if v in vertex_sets[r % 2] else r + 1
    last = max(rounds.values(), default=0)
    return last + (sides[last % 2] != v1.side)


def element_action(splitting: SplittingSpec, g: Word) -> ElementAction:
    """Elliptic/loxodromic type via the displacement test at the base vertex.

    For a simplicial tree isometry without inversion, d(x, g^2 x) exceeds
    d(x, gx) exactly by the translation length when g is loxodromic, and
    never exceeds it when g is elliptic. gx and g^2 x are the vertices gG_A
    and ggG_A, whatever words g and gg are.
    """
    x, g = base_vertex(splitting), tuple(g)
    d1 = tree_distance(splitting, x, TreeVertex(SIDE_A, g))
    d2 = tree_distance(splitting, x, TreeVertex(SIDE_A, g + g))
    if d2 > d1:
        return ElementAction("Loxodromic", d2 - d1)
    return ElementAction("Elliptic")


def path_stabilizer(
    splitting: SplittingSpec, path: list[TreeEdge]
) -> tuple[Word, tuple[str, ...]]:
    """(f, R) with the path's pointwise stabilizer f G_R f^-1 (see
    ``_stabilizer_scan``), whatever words represent its end edges.
    Raises InputError for an empty path."""
    if not path:
        raise InputError("path must contain at least one edge")
    g1, gk = (make_edge(splitting, e.rep).rep for e in (path[0], path[-1]))
    return _stabilizer_scan(splitting, g1, splitting.presentation.inverse(g1), gk)


def _stabilizer_scan(splitting: SplittingSpec, g1: Word, g1_inv: Word, gk: Word):
    """(f, R) for the path from the edge g_1G_C to g_kG_C, g_1 and g_k canonical
    edge representatives and g1_inv the canonical inverse of g_1: the path's
    pointwise stabilizer is f G_R f^-1, and no R-syllable ends f.

    An element fixing both end edges fixes the path, so the stabilizer is
    g_1(G_C ∩ hG_Ch^-1)g_1^-1 for h = g_1^-1 g_k. Split h's heap as p d q: p
    the largest predecessor-closed set of C-syllables, q the largest
    successor-closed set of the other C-syllables. Then d has no source or
    sink in C, and G_C ∩ dG_Cd^-1 = G_R for R = C ∩ lk(supp d), a parabolic
    intersection (Antolín-Minasyan, J. reine angew. Math. 2015); f = g_1 p.
    A forward scan over the reduced h finds p: a C-syllable joins it iff
    every earlier syllable outside p lies in its link. ``_strip`` of h's
    other syllables, d q, by C drops q and keeps d, whose vertices are supp d.
    No R-syllable ends f: g_1 and g_k are C-stripped, so neither has a sink
    in C, and each p-syllable comes from g_k, not from g_1^-1 or a merge, and
    has a descendant outside C in h. A p-sink at r in R would have all its
    successors in q, as r is in lk(supp d); q is successor-closed and inside
    C, so p has no R-sink. g_1 p is reduced, as no C-sink of g_1 meets p ⊂ C,
    and its sinks are p's or g_1's, none of them in R.
    """
    pres = splitting.presentation
    adjacency, c_set = pres.graph.adjacency, splitting.c_side
    h = pres._extend(g1_inv, gk)
    p, rest = [], []
    rest_vertices: set[str] = set()
    for s in h:
        if s.vertex in c_set and rest_vertices <= adjacency[s.vertex]:
            p.append(s)
        else:
            rest.append(s)
            rest_vertices.add(s.vertex)
    d_support = {v for v, _ in _strip(pres, rest, c_set)}
    r = tuple(c for c in pres.graph.vertices if c in c_set and d_support <= adjacency[c])
    return pres._extend(g1, p), r


def _conjugate_counter(pres: Presentation, radius: int, cap: int, r: tuple[str, ...]):
    """f -> the number of elements of length at most ``radius`` in f G_R f^-1,
    f with no R-syllable at its end (1 for an empty R), by the length rule of
    ``audit_acylindricity``: G_R's ball, enumerated once under ``cap``, kept
    per support S as lk(S) and the number of its elements of length <= t,
    for t up to the longest, not up to ``radius``, which may be huge."""
    lengths: defaultdict[frozenset[str], Counter[int]] = defaultdict(Counter)
    for x in pres.enumerate_ball(radius, cap=cap, subset=r):
        lengths[frozenset(v for v, _ in x)][pres._length(x)] += 1
    adjacency = pres.graph.adjacency
    table = [
        ({u for u in pres.graph.vertices if s <= adjacency[u]},
         list(accumulate(c[t] for t in range(max(c) + 1))))
        for s, c in lengths.items()
    ]
    return lambda f: sum(
        n[min(t, len(n) - 1)]
        for lk, n in table if (t := radius - 2 * pres._length(_strip(pres, f, lk))) >= 0
    )


def _paths_of_length(ball: TreeBall, k: int):
    """Non-backtracking k-edge paths in the ball, each walked once, from the
    end listed first in ``ball.vertices`` (a tree path has two distinct ends).

    The walk runs over vertex indices, with neighbour lists built once, and
    hashes no vertex. ``ball.vertices`` is listed by BFS level, so a walk
    that can no longer climb back to its start's level, at vertex v with j
    edges to go and level(v) + j < level(start), can only end at a vertex
    listed before its start; it is cut there.
    """
    index = {v: i for i, v in enumerate(ball.vertices)}
    nbrs = [[(edge, index[w]) for edge, w in ball.adjacency[v]] for v in ball.vertices]
    level = [0] * len(nbrs)
    for v, out in enumerate(nbrs):
        for _, w in out:
            if w > v:
                level[w] = level[v] + 1
    for start, floor in enumerate(level):
        stack = [(start, -1, [])]
        while stack:
            v, prev, edges = stack.pop()
            if len(edges) == k:
                if start < v:
                    yield edges
                continue
            to_go = k - len(edges) - 1
            for edge, w in nbrs[v]:
                if w != prev and level[w] + to_go >= floor:
                    stack.append((w, v, edges + [edge]))


# The least value of each limit of a tree ball or an audit.
_LEAST_LIMITS = dict(k=1, radius=0, tree_radius=1, element_radius=1, local_radius=1, cap=1)


def check_limits(names: Optional[dict[str, str]] = None, **limits: int) -> None:
    """Raise InputError for the first of ``limits`` below its least value (0
    for a tree ball's radius, else 1), or for k above 2 * tree_radius, the
    longest path in the tree ball, under which nothing would be audited.
    ``names`` maps a parameter name to how messages spell it."""
    names = names or {}
    for key, value in limits.items():
        least = _LEAST_LIMITS[key]
        if value < least:
            raise InputError(f"{names.get(key, key)} must be at least {least}, got {value}")
    if "k" in limits and limits["k"] > 2 * limits["tree_radius"]:
        raise InputError(
            f"{names.get('k', 'k')} {limits['k']} is more than twice "
            f"{names.get('tree_radius', 'tree_radius')} {limits['tree_radius']}: no path of "
            "that many edges fits in the tree ball, so nothing would be audited"
        )


def audit_acylindricity(
    splitting: SplittingSpec,
    k: int = 3,
    tree_radius: int = 5,
    element_radius: int = 6,
    local_radius: int = 2,
    cap: int = DEFAULT_BALL_CAP,
) -> AuditReport:
    """Empirical check of the (k, |G_N|) acylindricity bound.

    Enumerates every k-edge path in the bounded tree ball and counts the
    elements of length <= ``element_radius`` in its pointwise stabilizer
    f G_R f^-1 (see ``path_stabilizer``), reporting the max against |G_N|.
    Each path is walked once (see ``_paths_of_length``). Three memoized
    functions, local to the call, keep what paths share. ``inverse`` gives the
    canonical inverse of each distinct first edge's representative g_1 once,
    and one ``_stabilizer_scan`` per path extends it by g_k to find (f, R).
    ``size_of`` sizes each distinct (f, R) once, from word lengths (see
    ``Presentation._length``): for x in G_R with support S,
    |f x f^-1| = |x| + 2|f_0|, f_0 = f stripped of lk(S). f_0 x f_0^-1 is the
    same element, and reduced: no R-syllable ends f, so no sink of f_0 is in S
    or lk(S). So the size is the number of x with |x| <= r - 2|f_0|, read per
    support from the radius-r ball of G_R, which ``counter`` enumerates once
    per distinct R (see ``_conjugate_counter``), an empty one too: G_∅'s ball
    is {()} and f stripped of lk(∅) = V is (), so the size is 1. No ball of
    the whole group is built, and ``exhaustive_elements`` is always False.
    Each side's ball is enumerated once, collapsed to G_C cosets (see
    ``tree_ball``). ``cap`` bounds the tree ball's vertex count, the side
    balls and the G_R balls.
    Raises InputError for limits under which no path would be checked.
    """
    check_limits(k=k, tree_radius=tree_radius, element_radius=element_radius,
                 local_radius=local_radius, cap=cap)
    pres = splitting.presentation
    ball = tree_ball(splitting, tree_radius, local_radius, cap)
    inverse = cache(pres.inverse)
    counter = cache(lambda r: _conjugate_counter(pres, element_radius, cap, r))
    size_of = cache(lambda f, r: counter(r)(f))
    bound = splitting.acyl_c
    max_size = 0
    paths_checked = 0
    violations = []
    for path in _paths_of_length(ball, k):
        g1 = path[0].rep
        size = size_of(*_stabilizer_scan(splitting, g1, inverse(g1), path[-1].rep))
        paths_checked += 1
        max_size = max(max_size, size)
        if size > bound:
            violations.append((list(path), size))
    return AuditReport(
        splitting=splitting,
        k=k,
        tree_radius=tree_radius,
        element_radius=element_radius,
        local_radius=local_radius,
        paths_checked=paths_checked,
        max_stabilizer_size=max_size,
        bound=bound,
        truncated=ball.truncated,
        exhaustive_elements=False,  # no ball is all of G, which holds the infinite G_a * G_b
        violations=violations,
    )


def elliptic_generation_check(splitting: SplittingSpec, generators: list[Word]) -> bool:
    """True iff every s_i, s_j and s_i s_j acts elliptically."""
    products = (tuple(g) + tuple(h) for g, h in combinations(generators, 2))
    return not any(
        element_action(splitting, g).is_loxodromic for g in chain(generators, products)
    )


def tree_ball_to_dot(ball: TreeBall) -> str:
    """DOT rendering of a tree ball as ``graph T``: vertices labeled
    side:representative, in ball order; edges labeled C:representative."""
    lines = ["graph T {"]
    order = {v: i for i, v in enumerate(ball.vertices)}
    for v in ball.vertices:
        lines.append(f"  v{order[v]} [label={dot_quoted(v.label())}];")
    for v in ball.vertices:
        for edge, w in ball.adjacency[v]:
            if order[v] < order[w]:
                lines.append(f"  v{order[v]} -- v{order[w]} [label={dot_quoted(edge.label())}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
