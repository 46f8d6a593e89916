"""Bounded simulation of the action on the Bass-Serre tree of an amalgam.

Vertices are cosets gG_A and gG_B, edges cosets gG_C, each held as the
canonical minimal-length representative obtained by right-stripping; an
edge at a vertex is the vertex's representative extended by a coset
representative, already stripped (see ``_ball``). The tree is infinite;
every exploration here is bounded and reports truncation. The vertex sets A,
B and C are the splitting's frozensets, read as they are.

Coset representatives, distances and stabilizers are questions about the
dependency heap of a reduced word (see words.py), which is never built: a
later syllable outside the link of a v-syllable is its descendant, so each
question is a scan over the word with per-vertex state.

Distances need no representatives in normal form: the alternating strips
that measure one are rounds of a single reverse pass over the relative word
(see ``tree_distance``).

The pointwise stabilizer of a path is one conjugate f G_R f^-1 of a
parabolic subgroup, read off a forward and a reverse peel of the word
joining its end edges; a reverse peel alone strips a coset (see ``_peel``).

What depends only on the splitting and the radii is enumerated once per
tree ball or audit, not once per tree vertex or path: each side's subgroup
ball, collapsed to its G_C cosets, and the ball of each G_R a path
stabilizer is conjugate to, kept as sorted lengths per support, which the
audit bisects to size f G_R f^-1, R empty or not (see ``_conjugate_counter``).
The audit builds no path but to list violations: its maximum is a G_R ball's
count, and its path count comes from level sizes (see ``audit_acylindricity``).
It reads those counts, and any cap error they raise, from growth series, so
a passing audit enumerates no ball; it enumerates only to walk the tree
ball, or where its growth table is cut.
"""

from bisect import bisect_right
from collections import defaultdict
from functools import cache, partial
from itertools import chain, combinations
from typing import Iterable, NamedTuple, Optional

from .classify import SIDE_A, SIDE_B, SplittingSpec
from .errors import InputError, ResourceCapError
from .graphs import dot_quoted
from .words import (DEFAULT_BALL_CAP, Presentation, Syllable, Word, _ball_count,
                    cumulative_counts, format_word)


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
    return _strip(pres, pres.canonical(word), pres._mask(pres.graph.check_vertices(subset)))


def _peel(pres: Presentation, sylls: Iterable[Syllable], peelable: int):
    """(peeled, kept) in scan order, ``sylls`` a reduced word read forward or
    in reverse, S the vertex set of the int mask ``peelable`` (see
    ``Presentation._mask``): a syllable is peeled iff its vertex is in S and
    every kept syllable scanned before it lies in its link. The earlier
    syllables outside its link are its heap ancestors (see words.py), so the
    peeled ones are the largest predecessor-closed (in reverse,
    successor-closed) set of S-syllables, which is unique. The vertices still
    peelable, S ∩ lk(u) for every kept u, are cut by each kept vertex's mask;
    once none is left, the rest is kept unread."""
    index, masks = pres.graph.index, pres.graph.masks
    peeled, kept = [], []
    sylls = iter(sylls)
    for s in sylls:
        i = index[s.vertex]
        if peelable >> i & 1:
            peeled.append(s)
        else:
            kept.append(s)
            peelable &= masks[i]
            if not peelable:
                kept.extend(sylls)
                break
    return peeled, kept


def _strip(pres: Presentation, word: Word, mask: int) -> Word:
    """``coset_canonical`` of the canonical word ``word`` by the S of ``mask``,
    also a tree ball's far vertices: what the reverse peel by S keeps. That
    part is predecessor-closed, and Kahn's choice among those ready never
    depends on the peeled syllables, so it is already canonical."""
    return tuple(reversed(_peel(pres, reversed(word), mask)[1]))


def make_vertex(splitting: SplittingSpec, word: Word, side: str) -> TreeVertex:
    pres = splitting.presentation
    return TreeVertex(side, _strip(pres, pres.canonical(word), pres._mask(splitting.side(side))))


def make_edge(splitting: SplittingSpec, word: Word) -> TreeEdge:
    return TreeEdge(coset_canonical(splitting.presentation, word, splitting.c_side))


def base_vertex(splitting: SplittingSpec) -> TreeVertex:
    return TreeVertex(SIDE_A, ())


def act(splitting: SplittingSpec, g: Word, v: TreeVertex) -> TreeVertex:
    return make_vertex(splitting, tuple(g) + tuple(v.rep), v.side)


def _levels(splitting: SplittingSpec, radius: int, local_radius: int, cap: int,
            series=None):
    """(cosets, kids, truncated) of ``_ball``: kids[d], the child count at
    depth d, m_A at the base and m_S - 1 elsewhere on side S; whether a side
    ball is cut; and the set of C-stripped coset representatives of each
    side whose ball is enumerated. A side is read from the growth table
    ``series`` (see ``Presentation.growth_table``) where one is given and not
    cut, and enumerated otherwise. From the series, m_S counts the
    C-stripped representatives of length at most ``local_radius``, whose
    series is W_S/W_C = (1 + y_u z) P_C/P_S for S - C = {u} (see
    ``audit_acylindricity``), y_u being D_S's z-coefficient, the sum of y_v
    over S, less D_C's; the side's ball is cut iff its sphere of radius
    ``local_radius`` + 1 is not empty. Read or enumerated, the cap errors
    come in BFS order: side A's ball, the tree at depth 0, side B's ball,
    the tree at each deeper depth."""
    pres = splitting.presentation
    c_mask = pres._mask(splitting.c_side)
    read_c = series and series(splitting.c_side)
    cosets, counts, kids, truncated, level, size = {}, {}, [], False, 1, 1
    for d in range(radius):
        side = SIDE_B if d % 2 else SIDE_A
        if d < 2 and (read := read_c and series(splitting.side(side))):
            (d_s, p_s), (d_c, p_c) = read, read_c
            ball = cumulative_counts(d_s, p_s, local_radius + 1, cap)
            _ball_count(ball, local_radius, cap)
            truncated = truncated or ball[0] > local_radius  # a sphere past it
            y = d_s[1] - d_c[1]
            reps = [a + y * b for a, b in zip(p_c + [0], [0] + p_c)]
            counts[side] = cumulative_counts(reps, p_s, local_radius, cap)[1]
        elif d < 2:
            side_ball, saturated = pres.enumerate_ball_info(local_radius, cap=cap,
                                                            subset=splitting.side(side))
            cosets[side] = {_strip(pres, s, c_mask) for s in side_ball}
            counts[side] = len(cosets[side])
            truncated = truncated or not saturated
        kids.append(counts[side] - (d > 0))
        size += (level := level * kids[-1])
        if size > cap:
            raise ResourceCapError(f"tree ball exceeded cap of {cap} vertices")
    return cosets, kids, truncated


def _ball(splitting: SplittingSpec, radius: int, local_radius: int, cap: int):
    """``tree_ball`` as index arrays: (reps, sides, nbrs, truncated).

    Vertex 0 is the base, the others follow by BFS level, and vertex n > 0
    shares reps[n] with edge n, its edge to its parent, so the edge between
    neighbours x and w is max(x, w). nbrs[x] lists x's neighbours in
    ``tree_ball``'s order: its parent, then its children in representative
    order. The edges at xG_S are xtG_C, one per coset tG_C of G_C in G_S, t
    a C-stripped representative from the side's ball (see ``_levels``), and
    x costs one extension g = x.rep t per coset but its parent's: x.rep has
    no sink in S and t none in C, so nothing in x.rep t merges or cancels.
    With S - C = {u} and T - C = {v} for the far side T (A = V - {b}, B = V
    - {a}), u and v are not adjacent, so a u-sink of t != () follows the
    sinks of x.rep, all v-syllables: g's sinks are t's, outside T ⊇ C, and
    g is both the edge and the far vertex, where u is (). So at every
    vertex but the base, t = () is the parent, which is skipped, and every
    other t gives a new vertex, in edge order.
    """
    pres = splitting.presentation
    cosets, _, truncated = _levels(splitting, radius, local_radius, cap)
    reps, sides, nbrs = [()], [SIDE_A], [[]]
    start = 0
    for _ in range(radius):
        end = len(reps)
        for x in range(start, end):
            opp = SIDE_B if sides[x] == SIDE_A else SIDE_A
            for g in sorted(pres._extend(reps[x], t) for t in cosets[sides[x]] if t or not x):
                w = len(reps)
                reps.append(g)
                sides.append(opp)
                nbrs[x].append(w)
                nbrs.append([x])
        start = end
    return reps, sides, nbrs, truncated


def tree_ball(
    splitting: SplittingSpec,
    radius: int,
    local_radius: int = 2,
    cap: int = DEFAULT_BALL_CAP,
) -> TreeBall:
    """BFS exploration of the tree around the base vertex G_A (see ``_ball``):
    each vertex lists its edge to its parent first (the base has none), then
    those to its children in representative order. Raises InputError for
    limits ``check_limits`` rejects."""
    check_limits(radius=radius, local_radius=local_radius, cap=cap)
    reps, sides, nbrs, truncated = _ball(splitting, radius, local_radius, cap)
    vertices = [TreeVertex(side, rep) for side, rep in zip(sides, reps)]
    edges = [TreeEdge(rep) for rep in reps]
    adjacency = {vertices[x]: [(edges[max(x, w)], vertices[w]) for w in out]
                 for x, out in enumerate(nbrs)}
    return TreeBall(vertices[0], radius, vertices, edges[1:], adjacency, truncated)


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
    pres = splitting.presentation
    g1, gk = (make_edge(splitting, e.rep).rep for e in (path[0], path[-1]))
    a, b = _relative(g1, gk)
    p, r = _stabilizer_scan(splitting, pres._extend(pres.inverse(a), b))
    return pres._extend(g1, p), r


def _relative(g1: Word, gk: Word) -> tuple[Word, Word]:
    """(a, b), g_1 = c a and g_k = c b canonical, c their longest common literal
    prefix, unread as its vertices are known: g_1^-1 g_k is a^-1 extended by b."""
    n, m = 0, min(len(g1), len(gk))
    while n < m and g1[n] == gk[n]:
        n += 1
    return g1[n:], gk[n:]


def _stabilizer_scan(splitting: SplittingSpec, h: Word):
    """(p, R) of the reduced h = g_1^-1 g_k (see ``_relative``) joining a
    path's end edges g_1G_C and g_kG_C, g_1 and g_k canonical: the pointwise
    stabilizer is f G_R f^-1, f = g_1 p, and no R-syllable ends f.

    An element fixing both end edges fixes the path, so the stabilizer is
    g_1(G_C ∩ hG_Ch^-1)g_1^-1 for h = g_1^-1 g_k. Split h's heap as p d q: p
    the largest predecessor-closed set of C-syllables, q the largest
    successor-closed set of the other C-syllables. Then d has no source or
    sink in C, and G_C ∩ dG_Cd^-1 = G_R for R = C ∩ lk(supp d), a parabolic
    intersection (Antolín-Minasyan, J. reine angew. Math. 2015); f = g_1 p.
    Two peels by C (see ``_peel``) find them: the forward peel of the reduced
    h peels p, and the reverse peel of what it keeps, d q, a successor-closed
    part of h's heap, peels q and keeps d, whose vertices are supp d.
    No R-syllable ends f: g_1 and g_k are C-stripped, so neither has a sink
    in C, and each p-syllable comes from g_k, not from g_1^-1 or a merge, and
    has a descendant outside C in h. A p-sink at r in R would have all its
    successors in q, as r is in lk(supp d); q is successor-closed and inside
    C, so p has no R-sink. g_1 p is reduced, as no C-sink of g_1 meets p ⊂ C,
    and its sinks are p's or g_1's, none of them in R.
    """
    pres = splitting.presentation
    adjacency, c_set = pres.graph.adjacency, splitting.c_side
    c_mask = pres._mask(c_set)
    p, rest = _peel(pres, h, c_mask)
    d_support = {v for v, _ in _peel(pres, reversed(rest), c_mask)[1]}
    r = tuple(c for c in pres.graph.vertices if c in c_set and d_support <= adjacency[c])
    return tuple(p), r


def _conjugate_counter(pres: Presentation, radius: int, cap: int, r: tuple[str, ...]):
    """f -> the number of elements of length at most ``radius`` in f G_R f^-1,
    f with no R-syllable at its end (1 for an empty R), by the length rule of
    ``audit_acylindricity``: G_R's ball, enumerated once under ``cap``, kept
    per support S as lk(S) and the sorted lengths of its elements, of which
    a bisection counts those of length at most radius - 2|f_0|, a bound that
    may be negative or huge."""
    lengths: defaultdict[frozenset[str], list[int]] = defaultdict(list)
    for x in pres.enumerate_ball(radius, cap=cap, subset=r):
        lengths[frozenset(v for v, _ in x)].append(pres._length(x))
    adjacency = pres.graph.adjacency
    table = [(pres._mask(u for u in pres.graph.vertices if s <= adjacency[u]), sorted(ls))
             for s, ls in lengths.items()]
    return lambda f: sum(
        bisect_right(ls, radius - 2 * pres._length(_strip(pres, f, lk))) for lk, ls in table
    )


def _walk(nbrs, k: int):
    """The edge indices of each non-backtracking k-edge path of a ``_ball``,
    walked once, from the end listed first. Vertices are listed by BFS level,
    so a walk that can no longer climb back to its start's level, at vertex v
    with j edges to go and level(v) + j < level(start), can only end at a
    vertex listed before its start; it is cut there."""
    level = [0] * len(nbrs)
    for w in range(1, len(nbrs)):
        level[w] = level[nbrs[w][0]] + 1
    for start, floor in enumerate(level):
        stack = [(start, -1, ())]
        while stack:
            v, prev, edges = stack.pop()
            if len(edges) == k:
                if start < v:
                    yield edges
                continue
            to_go = k - len(edges) - 1
            for w in nbrs[v]:
                if w != prev and level[w] + to_go >= floor:
                    stack.append((w, v, edges + (max(v, w),)))


def _path_count(kids: list[int], k: int) -> int:
    """The number of k-edge paths in a tree ball with kids[d] children at each
    vertex of depth d (see ``_levels``), counted at their apex: one branch of
    k levels, or two of a and k - a levels through distinct children.
    below[j] counts the j-level branches through one child, width the
    vertices at depth d; both are running products."""
    count, width = 0, 1
    for d, n in enumerate(kids):
        below = [0, 1]
        for m in kids[d + 1:d + k]:
            below.append(below[-1] * m)
        below += [0] * (k + 1 - len(below))
        pairs = sum(below[a] * below[k - a] for a in range(1, k))
        count += width * (n * below[k] + n * (n - 1) // 2 * pairs)
        width *= n
    return count


def _path_groups(splitting: SplittingSpec, k: int, tree_radius: int) -> list[tuple[str, ...]]:
    """The R_k of ``audit_acylindricity``, C ∩ lk(U) in vertex order: U = () at
    k = 1; {a}, and {b} once G_B has children, at k = 2; {a, b} at k >= 3."""
    a, b = splitting.pair
    turns = {1: [()], 2: [(a,), (b,)] if tree_radius >= 2 else [(a,)]}.get(k, [(a, b)])
    graph = splitting.presentation.graph
    return [tuple(c for c in graph.vertices if c in splitting.c_side
                  and graph.adjacency[c].issuperset(us)) for us in turns]


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

    Counts the k-edge paths of the bounded tree ball from its level sizes
    (see ``_path_count``) and reports the most elements of length <=
    ``element_radius`` in a path's pointwise stabilizer f G_R f^-1 (see
    ``path_stabilizer``), against |G_N|, with the paths that hold more.

    The most is top(R_k), the count of G_{R_k}'s radius-r ball, largest over
    the R_k of ``_path_groups``. At an interior vertex of side S, S - C =
    {u}, a path's edges differ by a coset of G_C in G_S, so the word joining
    them has a u-syllable in its middle, and their stabilizer, which holds
    the path's, has its R in C ∩ lk(u). So R lies in R_k: C for k = 1, C ∩
    lk(a) or C ∩ lk(b) for k = 2, N for k >= 3, and each count is at most
    top(R_k) (see below). A base path reaches it, its R being R_k and f a
    word in a and b, which lk(R_k) strips away: the edge G_C; G_C and aG_C,
    or G_C and bG_C, which needs ``tree_radius`` >= 2; or branches through
    these two of about k/2 edges, which k <= 2 ``tree_radius`` fits.

    Only when the most is above |G_N| is the ball built and walked (see
    ``_walk``) to list violations in walk order. Memoized per walk: ``join``
    forms h (see ``_relative``), ``scan`` splits it into (p, R), and
    ``size_of`` sizes f G_R f^-1, f = g_1 p: for x in G_R with support S,
    |f x f^-1| = |x| + 2|f_0|, f_0 = f stripped of lk(S), as f_0 x f_0^-1 is
    the same reduced element (no R-syllable ends f, so no sink of f_0 is in
    S or lk(S)). So ``top``, the count at f = (), bounds every count, and a
    path is sized only if its top(R) is above |G_N|, tested by ``large`` once
    per R. ``counter`` builds each G_R's ball at most once per call (see
    ``_conjugate_counter``).

    No ball is enumerated for a count: top(R) is the total of G_R's growth
    series W_R up to ``element_radius``, and ``_levels`` reads the level
    sizes and ``truncated`` from the side series. All come from one growth
    table per call (see ``Presentation.growth_table``), cut at the highest
    degree read, max(``local_radius`` + 1, ``element_radius``). The
    children per level count cosets: m_S is the number of C-stripped
    representatives t of G_C's cosets in G_S of length at most
    ``local_radius``. Each g in G_S is t c for one such t and one c in G_C; t
    has no C-sink, so t c is reduced and |g| = |t| + |c|, as normal forms are
    geodesic. So W_S = T W_C for the series T of the representatives, and T =
    W_S/W_C = (1 + y_u z) P_C/P_S. As |t| <= |g|, the side's radius-r ball
    strips by C to the representatives of length at most r, the set
    ``_levels`` counts.

    ``cap`` bounds the tree ball's vertex count, the side balls and the G_R
    balls, and the coefficients of the growth table. A ball the series puts
    past it raises its enumeration's error, at the same radius (see
    ``words._ball_count``), and only where the table is cut is a ball
    enumerated for a count. ``_levels`` raises the first errors, in the
    tree ball's BFS order. Every G_R ball lies in an R_k's, so one past the
    cap is met there, by the maximum, which raises the error of the first
    R_k, in ``_path_groups`` order, whose ball passes the cap; no tree ball
    is built for it. No ball of the whole group is built
    (``exhaustive_elements`` is False).
    Raises InputError for limits under which no path would be checked.
    """
    check_limits(k=k, tree_radius=tree_radius, element_radius=element_radius,
                 local_radius=local_radius, cap=cap)
    pres = splitting.presentation
    series = pres.growth_table(max(local_radius + 1, element_radius), cap)
    _, kids, truncated = _levels(splitting, tree_radius, local_radius, cap, series)
    counters, bound = {}, splitting.acyl_c

    def counter(r):
        if r not in counters:
            counters[r] = _conjugate_counter(pres, element_radius, cap, r)
        return counters[r]

    def top(r):  # from the series, else enumerated where the table is cut
        if read := series(r):
            return _ball_count(cumulative_counts(*read, element_radius, cap), element_radius, cap)
        return counter(r)(())

    def walked():
        reps, _, nbrs, _ = _ball(splitting, tree_radius, local_radius, cap)
        join = cache(lambda a, b: pres._extend(pres.inverse(a), b))
        scan = cache(partial(_stabilizer_scan, splitting))
        size_of = cache(lambda g1, p, r: counter(r)(pres._extend(g1, p)))
        large = cache(lambda r: top(r) > bound)
        for edges in _walk(nbrs, k):
            g1 = reps[edges[0]]
            p, r = scan(join(*_relative(g1, reps[edges[-1]])))
            if large(r) and (size := size_of(g1, p, r)) > bound:
                yield [TreeEdge(reps[e]) for e in edges], size

    max_size = max(map(top, _path_groups(splitting, k, tree_radius)))
    violations = list(walked()) if max_size > bound else []
    return AuditReport(
        splitting=splitting,
        k=k,
        tree_radius=tree_radius,
        element_radius=element_radius,
        local_radius=local_radius,
        paths_checked=_path_count(kids, k),
        max_stabilizer_size=max_size,
        bound=bound,
        truncated=truncated,
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
