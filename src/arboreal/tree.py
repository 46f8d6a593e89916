"""Bounded simulation of the action on the Bass-Serre tree of an amalgam.

Vertices are cosets gG_A and gG_B, edges cosets gG_C, each held as the
canonical minimal-length representative obtained by right-stripping; an
edge at a vertex is the vertex's representative extended by a coset
representative, already stripped (see ``tree_ball``). The tree is infinite;
every exploration here is bounded and reports truncation. Vertex sets (A, B,
C and each R) are int masks, bit i for ``graph.vertices[i]``, named only
where ``path_stabilizer`` returns an R.

Coset representatives, distances and stabilizers are questions about the
dependency heap of a reduced word (see words.py), which is never built: a
later syllable outside the link of a v-syllable is its descendant, so each
question is a scan over the word with per-vertex state.

Distances need no representatives in normal form: the alternating strips
that measure one are rounds of a single reverse pass over the relative word
(see ``_rounds``).

The pointwise stabilizer of a path is one conjugate f G_R f^-1 of a
parabolic subgroup, read off a forward and a reverse peel of the word
joining its end edges; a reverse peel alone strips a coset (see ``_peel``).

What depends only on the splitting and the radii is enumerated once per
tree ball, not once per tree vertex: each side's subgroup ball, collapsed to
its G_C cosets. The audit builds no path: its maximum is a G_R ball's count,
its path count comes from level sizes, and a failing audit names the base
paths that reach its maximum (see ``audit_acylindricity``). It reads those
counts, and any cap error they raise, from growth series, so it enumerates
a ball only where its growth table is cut.
"""

from functools import reduce
from itertools import chain, combinations
from operator import and_
from typing import Iterable, NamedTuple

from .classify import SplittingSpec
from .errors import InputError, ResourceCapError
from .graphs import dot_quoted
from .params import DEFAULT_BALL_CAP, SIDE_A, SIDE_B, check_limits
from .words import Presentation, Syllable, Word, cumulative_counts, format_word


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


def _peel(pres: Presentation, sylls: Iterable[Syllable], peelable: int):
    """(peeled, kept) in scan order, ``sylls`` a reduced word read forward or
    in reverse and S the vertex set of ``peelable``: a syllable is peeled iff
    its vertex is in S and every kept syllable scanned before it lies in its
    link. The earlier syllables outside its link are its heap ancestors (see
    words.py), so the peeled ones are the largest predecessor-closed (in
    reverse, successor-closed) set of S-syllables, which is unique. The
    vertices still peelable, S ∩ lk(u) for every kept u, are cut by each kept
    vertex's mask; once none is left, the rest is kept unread."""
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
    """The canonical minimal-length representative of gG_S, g the canonical
    ``word`` and S the vertex set of ``mask``: what the reverse peel by S
    keeps. That part is predecessor-closed, and Kahn's choice among those
    ready never depends on the peeled syllables, so it is already canonical."""
    return tuple(reversed(_peel(pres, reversed(word), mask)[1]))


def make_vertex(splitting: SplittingSpec, word: Word, side: str) -> TreeVertex:
    pres = splitting.presentation
    return TreeVertex(side, _strip(pres, pres.canonical(word), splitting.side(side)))


def make_edge(splitting: SplittingSpec, word: Word) -> TreeEdge:
    pres = splitting.presentation
    return TreeEdge(_strip(pres, pres.canonical(word), splitting.c_side))


def base_vertex(splitting: SplittingSpec) -> TreeVertex:
    return TreeVertex(SIDE_A, ())


def act(splitting: SplittingSpec, g: Word, v: TreeVertex) -> TreeVertex:
    return make_vertex(splitting, tuple(g) + tuple(v.rep), v.side)


def _levels(splitting: SplittingSpec, radius: int, local_radius: int, cap: int,
            series=None):
    """(cosets, kids, truncated) of ``tree_ball``: kids[d], the child count at
    depth d, m_A at the base and m_S - 1 elsewhere on side S; whether a side
    ball is cut, not all of G_S (see ``Presentation._saturates``); and the
    set of C-stripped coset representatives of each side whose ball is
    enumerated. A side is read from the growth table ``series`` (see
    ``Presentation.growth_table``) where one is given and not cut, split on
    u, S - C = {u}, so one step from C's series, read first; and enumerated
    by ``Presentation._ball`` otherwise. From the series, m_S counts the
    C-stripped representatives of length at most ``local_radius``, whose
    series is W_S/W_C = (1 + y_u z) P_C/P_S for S - C = {u} (see
    ``audit_acylindricity``), y_u being D_S's z-coefficient, the sum of y_v
    over S, less D_C's. One pass over P_S (see ``cumulative_counts``) gives
    the side ball's total, checked against the cap, and the
    representatives', which is no larger. Read or enumerated, the cap
    errors come in BFS order: side A's ball, the tree at depth 0, side B's
    ball, the tree at each deeper depth."""
    pres, c_mask = splitting.presentation, splitting.c_side
    read_c = series and series(c_mask)
    cosets, counts, kids, truncated, level, size = {}, {}, [], False, 1, 1
    for d in range(radius):
        side = SIDE_B if d % 2 else SIDE_A
        if d < 2:
            s_mask = splitting.side(side)
            truncated = truncated or not pres._saturates(s_mask, local_radius)
            if read := read_c and series(s_mask, (s_mask ^ c_mask).bit_length() - 1):
                (d_s, p_s), (d_c, p_c) = read, read_c
                y = d_s[1] - d_c[1]
                reps = [a + y * b for a, b in zip(p_c + [0], [0] + p_c)]
                counts[side] = cumulative_counts(d_s, p_s, local_radius, cap, reps)[1]
            else:
                side_ball = pres._ball(s_mask, local_radius, cap)
                cosets[side] = {_strip(pres, s, c_mask) for s in side_ball}
                counts[side] = len(cosets[side])
        kids.append(counts[side] - (d > 0))
        size += (level := level * kids[-1])
        if size > cap:
            raise ResourceCapError(f"tree ball exceeded cap of {cap} vertices")
    return cosets, kids, truncated


def tree_ball(
    splitting: SplittingSpec,
    radius: int,
    local_radius: int = 2,
    cap: int = DEFAULT_BALL_CAP,
) -> TreeBall:
    """BFS exploration of the tree around the base vertex G_A: each vertex
    lists its edge to its parent first (the base has none), then those to
    its children in representative order. Raises InputError for limits
    ``check_limits`` rejects.

    The edges at xG_S are xtG_C, one per coset tG_C of G_C in G_S, t a
    C-stripped representative from the side's ball (see ``_levels``), and x
    costs one extension g = x.rep t per coset but its parent's: x.rep has no
    sink in S and t none in C, so nothing in x.rep t merges or cancels. With
    S - C = {u} and T - C = {v} for the far side T (A = V - {b}, B = V -
    {a}), u and v are not adjacent, so a u-sink of t != () follows the sinks
    of x.rep, all v-syllables: g's sinks are t's, outside T ⊇ C, and g is
    both the edge and the far vertex, where u is (). So at every vertex but
    the base, t = () is the parent, which is skipped, and every other t
    gives a new vertex, in edge order.
    """
    check_limits(radius=radius, local_radius=local_radius, cap=cap)
    pres = splitting.presentation
    cosets, _, truncated = _levels(splitting, radius, local_radius, cap)
    base = base_vertex(splitting)
    vertices, edges, adjacency, level = [base], [], {base: []}, [base]
    for _ in range(radius):
        below = []
        for x in level:
            opp = SIDE_B if x.side == SIDE_A else SIDE_A
            for g in sorted(pres._extend(x.rep, t) for t in cosets[x.side] if t or x == base):
                e, w = TreeEdge(g), TreeVertex(opp, g)
                adjacency[x].append((e, w))
                adjacency[w] = [(e, x)]
                edges.append(e)
                below.append(w)
        vertices += below
        level = below
    return TreeBall(base, radius, vertices, edges, adjacency, truncated)


def tree_distance(splitting: SplittingSpec, v1: TreeVertex, v2: TreeVertex) -> int:
    """Edge-metric distance between two vertices, whose representatives may
    be any words: the rounds (see ``_rounds``) of h = v1.rep^-1 v2.rep,
    which ``inverse`` and ``_extend`` give reduced.
    """
    splitting.side(v1.side)  # rejects an unknown side, as side(v2.side) below does
    pres = splitting.presentation
    h = pres._extend(pres.inverse(v1.rep), v2.rep)
    return _rounds(splitting, h, v1.side, v2.side)


def _rounds(splitting: SplittingSpec, h: Word, side1: str, side2: str) -> int:
    """The distance between vertices g_1G_side1 and g_2G_side2, h the reduced
    g_1^-1 g_2 of L syllables, in O(L*D).

    Right-stripping h through the sides in turn, side2 first, measures it:
    each round deletes the largest successor-closed set of syllables of h's
    heap on that round's side. One reverse pass over h gives every syllable
    its round: the largest round r of its successors (0 if none) when its
    vertex is on round r's side, else r + 1, because every vertex is on side
    A or B. Rounds never increase along heap arcs, and every later syllable
    outside a syllable's link is a descendant, so r is the largest round
    held by a vertex outside the link, each vertex holding the round of its
    latest syllable: the top mask held[r] of the vertices that have held
    round r that meets the link's complement. A vertex is outside its own
    link, so its rounds only grow along the scan, and a stale bit in a lower
    mask never changes the maximum; no bit is cleared. The distance is the
    largest round, plus one when that round's side is not side1.
    """
    graph = splitting.presentation.graph
    index, masks = graph.index, graph.masks
    sides = [side2, SIDE_B if side2 == SIDE_A else SIDE_A]
    on = [splitting.side(side) for side in sides]
    held = [0]
    for v, _ in reversed(h):
        i = index[v]
        r, out = len(held) - 1, ~masks[i]
        while r and not held[r] & out:
            r -= 1
        r += not on[r % 2] >> i & 1  # off round r's side, it opens the next round
        if r == len(held):
            held.append(0)
        held[r] |= 1 << i
    last = len(held) - 1
    return last + (sides[last % 2] != side1)


def element_action(splitting: SplittingSpec, g: Word) -> ElementAction:
    """Elliptic/loxodromic type via the displacement test at the base vertex.

    For a simplicial tree isometry without inversion, d(x, g^2 x) exceeds
    d(x, gx) exactly by the translation length when g is loxodromic, and
    never exceeds it when g is elliptic. With x = G_A, gx and g^2 x are gG_A
    and ggG_A, whose relative words to x are g and gg: g is normalized once
    and g^2 is its normal form extended by itself (see ``_rounds``).
    """
    pres = splitting.presentation
    g = pres.canonical(g)
    d1 = _rounds(splitting, g, SIDE_A, SIDE_A)
    d2 = _rounds(splitting, pres._extend(g, g), SIDE_A, SIDE_A)
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
    p, r = _stabilizer_scan(splitting, pres._extend(pres.inverse(g1), gk))
    return pres._extend(g1, p), tuple(pres._names(r))


def _stabilizer_scan(splitting: SplittingSpec, h: Word):
    """(p, R) of h, the normal form of g_1^-1 g_k, for a path's end edges
    g_1G_C and g_kG_C, g_1 and g_k canonical: the pointwise stabilizer is f
    G_R f^-1, f = g_1 p, and no R-syllable ends f. R is a mask, C's cut by
    the link mask of each vertex of d.

    An element fixing both end edges fixes the path, so the stabilizer is
    g_1(G_C ∩ hG_Ch^-1)g_1^-1 for h = g_1^-1 g_k. Split h's heap as p d q: p
    the largest predecessor-closed set of C-syllables, q the largest
    successor-closed set of the other C-syllables. Then d has no source or
    sink in C, and G_C ∩ dG_Cd^-1 = G_R for R = C ∩ lk(supp d), a parabolic
    intersection (Antolín-Minasyan, J. reine angew. Math. 2015); f = g_1 p.
    Two peels by C (see ``_peel``) find them: the forward peel of the reduced
    h peels p, and the reverse peel of what it keeps, d q, a successor-closed
    part of h's heap, peels q and keeps d, whose vertices are supp d.
    No R-syllable ends f. Write g_1 = c a and g_k = c b, c their longest
    common prefix; h is also a^-1 b's normal form, as normal forms are unique
    (the code never splits them). g_1 and g_k are C-stripped, so neither has
    a sink in C, and each p-syllable comes from b, not from a^-1 or a merge,
    and has a descendant outside C in h. A p-sink at r in R would have all
    its successors in q, as r is in lk(supp d); q is successor-closed and
    inside C, so p has no R-sink. g_1 p is reduced, as no C-sink of g_1
    meets p ⊂ C, and its sinks are p's or g_1's, none of them in R.
    """
    pres, c = splitting.presentation, splitting.c_side
    index, masks = pres.graph.index, pres.graph.masks
    p, rest = _peel(pres, h, c)
    d = _peel(pres, reversed(rest), c)[1]
    return tuple(p), reduce(and_, (masks[index[v]] for v, _ in d), c)


def _path_count(kids: list[int], k: int) -> int:
    """The number of k-edge paths in a tree ball with kids[d] children at each
    vertex of depth d (see ``_levels``), counted at their apex: one branch of
    k levels, or two of a and k - a levels through distinct children.
    below[j] counts the j-level branches through one child, a running
    product down from depth d, 0 past the ball; width, the vertices at depth
    d, is a running product too."""
    count, width, depth, below = 0, 1, len(kids), [0] * (k + 1)
    for d, n in enumerate(kids):
        b = 1
        for j in range(1, k + 1):
            below[j] = b
            b = b * kids[d + j] if d + j < depth else 0
        pairs = 0
        for a in range(1, k):
            pairs += below[a] * below[k - a]
        count += width * (n * below[k] + n * (n - 1) // 2 * pairs)
        width *= n
    return count


def _path_groups(splitting: SplittingSpec, k: int, tree_radius: int):
    """(U, R_k) for the R_k of ``audit_acylindricity``, the mask of C ∩ lk(U),
    U the turn of its base path: U = () at k = 1; {a}, and {b} once G_B has
    children, at k = 2; {a, b} at k >= 3."""
    a, b = splitting.pair
    graph, c = splitting.presentation.graph, splitting.c_side
    if k == 1:
        return [((), c)]
    lk_a, lk_b = graph.masks[graph.index[a]], graph.masks[graph.index[b]]
    if k > 2:
        return [((a, b), c & lk_a & lk_b)]
    return [((a,), c & lk_a), ((b,), c & lk_b)] if tree_radius >= 2 else [((a,), c & lk_a)]


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
    ``path_stabilizer``), against |G_N|, with witnesses of any excess.

    The most is top(R_k), the count of G_{R_k}'s radius-r ball, largest over
    the R_k of ``_path_groups``. At an interior vertex of side S, S - C =
    {u}, a path's edges differ by a coset of G_C in G_S, so the word joining
    them has a u-syllable in its middle, and their stabilizer, which holds
    the path's, has its R in C ∩ lk(u). So R lies in R_k: C for k = 1, C ∩
    lk(a) or C ∩ lk(b) for k = 2, N for k >= 3. Each count is at most
    top(R_k): for x in G_R with support S, |f x f^-1| = |x| + 2|f_0|, f_0 =
    f stripped of lk(S), as f_0 x f_0^-1 is the same reduced element (no
    R-syllable ends f, so no sink of f_0 is in S or lk(S)); so the count is
    at most top(R), its value at f = (). A base path reaches top(R_k), its R
    being R_k and f a word in a and b, which lk(R_k) strips away: the edge
    G_C; G_C and aG_C, or G_C and bG_C, which needs ``tree_radius`` >= 2; or
    branches through these two of about k/2 edges, which k <= 2
    ``tree_radius`` fits.

    So the audit fails iff some top(R_k) is above |G_N|, and it names one
    witness per such R_k, the base path of its turn U with top(R_k): [G_C]
    at k = 1, [G_C, uG_C] at k = 2 for U = {u}, u = a or b; there f = () and
    R = R_k (see ``path_stabilizer``). Every violating path's stabilizer is
    conjugate into a witness's, and G translates each witness to infinitely
    many violating paths, so the ones that a ball of some radius holds are
    not listed. No audit with k >= 3 fails: R_k = N there, and G_N has
    |G_N| elements.

    No ball is enumerated for a count: top(R) is the total of G_R's growth
    series W_R up to ``element_radius``, and ``_levels`` reads the level
    sizes from the side series. All come from one growth table per call (see
    ``Presentation.growth_table``), cut at the highest degree read,
    max(``local_radius``, ``element_radius``), which sums C's chain and
    puts each side one step from it. A finite G_R that the radius cannot
    cut (see ``Presentation._saturates``) with |G_R| <= ``cap`` needs no
    series: its ball is all of G_R, and no running total up to |G_R| passes
    the cap, so top(R) is |G_R|, read from R's vertex set. The
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
    ``cumulative_counts``), and only where the table is cut is a ball
    enumerated for a count. ``_levels`` raises the first errors, in the
    tree ball's BFS order, and then the maximum the error of the first R_k,
    in ``_path_groups`` order, whose ball passes the cap. Neither a tree ball
    nor a ball of the whole group is built (``exhaustive_elements`` is False).
    Raises InputError for limits under which no path would be checked.
    """
    check_limits(k=k, tree_radius=tree_radius, element_radius=element_radius,
                 local_radius=local_radius, cap=cap)
    pres = splitting.presentation
    series = pres.growth_table(max(local_radius, element_radius), cap)
    _, kids, truncated = _levels(splitting, tree_radius, local_radius, cap, series)
    bound = splitting.acyl_c

    def top(r):  # |G_R| where the radius cannot cut it, else from the series or the ball
        if r.bit_count() <= element_radius and (order := pres._mask_order(r)) <= cap:
            return order
        if read := series(r):
            return cumulative_counts(*read, element_radius, cap)[0]
        return len(pres._ball(r, element_radius, cap))

    most, witnesses = 0, []
    for us, r in _path_groups(splitting, k, tree_radius):
        size = top(r)
        if size > most:
            most = size
        if size > bound:
            witnesses.append(([TreeEdge(())] + [TreeEdge((Syllable(u, 1),)) for u in us], size))
    # exhaustive_elements is False: no ball is all of G, which holds the infinite G_a * G_b
    return AuditReport(splitting, k, tree_radius, element_radius, local_radius,
                       _path_count(kids, k), most, bound, truncated, False, witnesses)


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
