"""Bounded simulation of the action on the Bass-Serre tree of an amalgam.

Vertices are cosets gG_A and gG_B, edges cosets gG_C, each held as the
canonical minimal-length representative obtained by right-stripping. The
tree is infinite; every exploration here is bounded and reports truncation.

Coset representatives, distances and stabilizers are questions about the
dependency heap of a reduced word (see words.py), which is never built: a
later syllable outside the link of a v-syllable is its descendant, so each
question is a scan over the word with per-vertex state.

Distances need no representatives in normal form: the alternating strips
that measure one are rounds of a single reverse pass over the relative word
(see ``tree_distance``).

The pointwise stabilizer of a path is one conjugate f G_R f^-1 of a
parabolic subgroup, read off two scans of the word joining its end edges
(see ``path_stabilizer``).

What depends only on the splitting and the radii is enumerated once per
tree ball or audit, not once per tree vertex or path: each side's subgroup
ball, collapsed to its G_C cosets; the element ball; and the ball of each
G_R that some path's stabilizer is conjugate to. The audit inverts each
first edge's representative once, and walks each path once, from its end
listed first, cutting walks that can only end at an earlier-listed vertex
(see ``_paths_of_length``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .classify import SplittingSpec
from .errors import InputError, ResourceCapError
from .graphs import dot_quoted
from .words import DEFAULT_BALL_CAP, Presentation, Word, format_word

SIDE_A = "A"
SIDE_B = "B"


@dataclass(frozen=True)
class TreeVertex:
    side: str  # SIDE_A or SIDE_B
    rep: Word

    def label(self) -> str:
        return f"{self.side}:{format_word(self.rep)}"


@dataclass(frozen=True)
class TreeEdge:
    rep: Word

    def label(self) -> str:
        return f"C:{format_word(self.rep)}"


@dataclass(frozen=True)
class ElementAction:
    kind: str  # "Elliptic" or "Loxodromic"
    translation_length: int = 0

    @property
    def is_loxodromic(self) -> bool:
        return self.kind == "Loxodromic"


@dataclass
class TreeBall:
    """Explicit radius-bounded piece of the tree around the base vertex."""

    base: TreeVertex
    radius: int
    vertices: list[TreeVertex]
    edges: list[TreeEdge]
    adjacency: dict[TreeVertex, list[tuple[TreeEdge, TreeVertex]]]
    truncated: bool


@dataclass
class AuditReport:
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
    violations: list = field(default_factory=list)

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


def side_set(splitting: SplittingSpec, side: str) -> tuple[str, ...]:
    if side == SIDE_A:
        return splitting.a_side
    if side == SIDE_B:
        return splitting.b_side
    raise InputError(f"unknown side: {side}")


def other_side(side: str) -> str:
    return SIDE_B if side == SIDE_A else SIDE_A


def coset_canonical(pres: Presentation, word: Word, subset: Iterable[str]) -> Word:
    """Canonical minimal-length representative of the coset gG_S.

    Strips S from ``canonical(word)`` (see ``_strip``), which equals
    stripping S-labelled last syllables until none is left. O(L*|V|) beyond
    ``canonical``.
    """
    return _strip(pres, pres.canonical(word), pres.graph.check_vertices(subset))


def _strip(pres: Presentation, word: Word, subset: set[str]) -> Word:
    """``coset_canonical`` of the canonical word ``word``.

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
    return TreeVertex(side, coset_canonical(pres, word, side_set(splitting, side)))


def make_edge(splitting: SplittingSpec, word: Word) -> TreeEdge:
    pres = splitting.presentation
    return TreeEdge(coset_canonical(pres, word, splitting.c_side))


def base_vertex(splitting: SplittingSpec) -> TreeVertex:
    return TreeVertex(SIDE_A, ())


def act(splitting: SplittingSpec, g: Word, v: TreeVertex) -> TreeVertex:
    return make_vertex(splitting, tuple(g) + tuple(v.rep), v.side)


def _side_cosets(
    splitting: SplittingSpec, side: str, local_radius: int, cap: int
) -> tuple[list[Word], bool]:
    """Sorted distinct G_C-coset representatives of the side subgroup's ball of
    radius ``local_radius``, and whether that ball may be truncated."""
    pres = splitting.presentation
    ball, saturated = pres.enumerate_ball_info(
        local_radius, cap=cap, subset=side_set(splitting, side)
    )
    c_set = set(splitting.c_side)
    reps = sorted({_strip(pres, s, c_set) for s in ball})
    return reps, not saturated


def _neighbors(
    splitting: SplittingSpec, v: TreeVertex, reps: list[Word]
) -> list[tuple[TreeEdge, TreeVertex]]:
    """The (edge, opposite vertex) pairs v.rep*t*G_C, v.rep*t*G_opp for the
    side cosets t*G_C, sorted by edge. Distinct cosets give distinct edges.
    The canonical v.rep is extended by t once per incident edge, never
    canonicalized again, and both cosets are stripped from the result."""
    pres = splitting.presentation
    opp = other_side(v.side)
    c_set, opp_set = set(splitting.c_side), set(side_set(splitting, opp))
    out = []
    for t in reps:
        g = pres._extend(v.rep, t)
        out.append((TreeEdge(_strip(pres, g, c_set)), TreeVertex(opp, _strip(pres, g, opp_set))))
    out.sort(key=lambda pair: pair[0].rep)
    return out


def tree_ball(
    splitting: SplittingSpec,
    radius: int,
    local_radius: int = 2,
    cap: int = DEFAULT_BALL_CAP,
) -> TreeBall:
    """BFS exploration of the tree around the base vertex G_A.

    The edges at gG_A are gsG_C, and the far vertex of each is gsG_B, for s
    in the side ball of G_A; both depend on s only through the coset sG_C,
    because G_C <= G_B. So each side's ball is enumerated once, at the first
    vertex of that side, and collapsed to its G_C-coset representatives by
    stripping its canonical elements; a vertex then costs one extension of its
    canonical representative per coset, from which both the edge and the far
    vertex are stripped (see ``_neighbors``). No concatenation of canonical
    words is canonicalized again.
    The ball is a tree, so the one neighbour of a frontier vertex already in
    the ball is its parent; every other neighbour is new.
    ``cap`` bounds the side balls and the ball's vertex count alike.
    Raises InputError for limits ``check_tree_ball_limits`` rejects.
    """
    check_tree_ball_limits(radius, local_radius, cap)
    base = base_vertex(splitting)
    adjacency: dict[TreeVertex, list[tuple[TreeEdge, TreeVertex]]] = {base: []}
    edges: list[TreeEdge] = []
    cosets: dict[str, list[Word]] = {}
    truncated = False
    frontier = [base]
    for _ in range(radius):
        new = []
        for v in frontier:
            if v.side not in cosets:
                cosets[v.side], trunc = _side_cosets(splitting, v.side, local_radius, cap)
                truncated = truncated or trunc
            for edge, w in _neighbors(splitting, v, cosets[v.side]):
                if w not in adjacency:
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
    ``canonical``, whose output is reduced.
    """
    side_set(splitting, v1.side)  # rejects an unknown side, as side_set(v2.side) below does
    pres = splitting.presentation
    adjacency = pres.graph.adjacency
    sylls = pres.canonical(tuple((v, -e) for v, e in reversed(v1.rep)) + tuple(v2.rep))
    sides = [v2.side, other_side(v2.side)]
    vertex_sets = [set(side_set(splitting, side)) for side in sides]
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
    """(f, R) with the pointwise stabilizer of the path equal to f G_R f^-1.

    An element fixing the end edges g_1G_C and g_kG_C of a tree path fixes
    every edge between them, so the stabilizer is g_1(G_C ∩ hG_Ch^-1)g_1^-1
    for h = g_1^-1 g_k, which the canonical inverse of g_1 extended by g_k
    gives (see ``_stabilizer_scan``). The edge representatives must be
    canonical, as ``make_edge`` and ``tree_ball`` build them.
    Raises InputError for an empty path.
    """
    if not path:
        raise InputError("path must contain at least one edge")
    pres = splitting.presentation
    g1 = path[0].rep
    return _stabilizer_scan(splitting, g1, pres._extend(pres.inverse(g1), path[-1].rep))


def _stabilizer_scan(
    splitting: SplittingSpec, g1: Word, h: Word
) -> tuple[Word, tuple[str, ...]]:
    """``path_stabilizer`` of a path from the edge g_1G_C to g_1hG_C, for
    canonical g_1 and h.

    Split h's heap as p d q: p the largest predecessor-closed set of
    C-syllables, q the largest successor-closed set of the other C-syllables.
    Then d has no source or sink in C, and G_C ∩ dG_Cd^-1 = G_R for
    R = C ∩ lk(supp d), a parabolic intersection (Antolín-Minasyan, J. reine
    angew. Math. 2015). f is the canonical representative of g_1 p G_R, so no
    R-syllable ends f: g_1 is extended by p, not canonicalized again, and R
    is stripped.
    Every earlier (later) syllable outside a syllable's link is an ancestor
    (descendant), so a forward scan over h, a reduced word, finds p: a
    C-syllable joins it iff every earlier syllable outside p lies in its link.
    A reverse scan finds q and supp d the same way; a later p-syllable lies
    in the link of any syllable outside p.
    """
    pres = splitting.presentation
    adjacency = pres.graph.adjacency
    c_set = set(splitting.c_side)
    in_p = []
    outside_p: set[str] = set()
    for v, _ in h:
        in_p.append(v in c_set and outside_p <= adjacency[v])
        if not in_p[-1]:
            outside_p.add(v)
    d_support: set[str] = set()
    for (v, _), p in zip(reversed(h), reversed(in_p)):
        if not (p or v in c_set and d_support <= adjacency[v]):
            d_support.add(v)
    r = tuple(c for c in splitting.c_side if all(c in adjacency[v] for v in d_support))
    p_word = tuple(s for s, p in zip(h, in_p) if p)
    return _strip(pres, pres._extend(g1, p_word), set(r)), r


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


def _check_at_least(least: int, limits: dict[str, int], names: dict[str, str]) -> None:
    """Raise InputError for the first of ``limits`` (name: value) below
    ``least``, named as ``names`` spells it."""
    for key, value in limits.items():
        if value < least:
            raise InputError(f"{names.get(key, key)} must be at least {least}, got {value}")


def check_tree_ball_limits(
    radius: int, local_radius: int, cap: int, names: Optional[dict[str, str]] = None
) -> None:
    """Raise InputError for a negative radius, or a local radius or cap below
    1. ``names`` maps a parameter name to how messages spell it."""
    names = names or {}
    _check_at_least(0, {"radius": radius}, names)
    _check_at_least(1, {"local_radius": local_radius, "cap": cap}, names)


def check_audit_limits(
    k: int,
    tree_radius: int,
    element_radius: int,
    local_radius: int,
    cap: int,
    names: Optional[dict[str, str]] = None,
) -> None:
    """Raise InputError for audit limits under which nothing would be audited:
    any of them below 1, or k above 2 * tree_radius, the longest path in the
    tree ball. ``names`` maps a parameter name to how messages spell it."""
    names = names or {}
    _check_at_least(
        1, {"k": k, "tree_radius": tree_radius, "element_radius": element_radius}, names
    )
    check_tree_ball_limits(tree_radius, local_radius, cap, names)
    if k > 2 * tree_radius:
        raise InputError(
            f"{names.get('k', 'k')} {k} is more than twice "
            f"{names.get('tree_radius', 'tree_radius')} {tree_radius}: no path of that "
            "many edges fits in the tree ball, so nothing would be audited"
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
    elements of the element ball in its pointwise stabilizer f G_R f^-1 (see
    ``path_stabilizer``), reporting the maximum against the bound |G_N|.
    Each path is walked once (see ``_paths_of_length``). The canonical
    inverse of a first edge's representative g_1 is computed once per audit
    and shared by every path that starts with that edge: the word g_1^-1 g_k
    joining the end edges is that inverse extended by g_k.
    Since no R-syllable ends f, none of x cancels in f x f^-1 for x in G_R, so
    |x| <= |f x f^-1| and the count ranges over the radius-r ball of G_R,
    enumerated once per distinct R; each distinct (f, R) is counted once.
    f x f^-1 is f extended by x and then by f^-1, all three canonical, so no
    concatenation of canonical words is canonicalized again.
    Each side's ball is enumerated once too, collapsed to G_C cosets (see
    ``tree_ball``).
    Raises InputError for limits under which no path would be checked.
    """
    check_audit_limits(k, tree_radius, element_radius, local_radius, cap)
    pres = splitting.presentation
    ball = tree_ball(splitting, tree_radius, local_radius, cap)
    elements, exhaustive = pres.enumerate_ball_info(element_radius, cap=cap)
    inverses: dict[Word, Word] = {}
    subgroup_balls: dict[tuple[str, ...], set[Word]] = {}
    sizes: dict[tuple[Word, tuple[str, ...]], int] = {}
    bound = splitting.acyl_c
    max_size = 0
    paths_checked = 0
    violations = []
    for path in _paths_of_length(ball, k):
        g1 = path[0].rep
        if g1 not in inverses:
            inverses[g1] = pres.inverse(g1)
        stabilizer = _stabilizer_scan(splitting, g1, pres._extend(inverses[g1], path[-1].rep))
        if stabilizer not in sizes:
            f, r = stabilizer
            if r not in subgroup_balls:
                subgroup_balls[r] = pres.enumerate_ball(element_radius, cap=cap, subset=r)
            f_inv = pres.inverse(f)
            sizes[stabilizer] = sum(
                pres._extend(pres._extend(f, x), f_inv) in elements
                for x in subgroup_balls[r]
            )
        size = sizes[stabilizer]
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
        exhaustive_elements=exhaustive,
        violations=violations,
    )


def elliptic_generation_check(splitting: SplittingSpec, generators: list[Word]) -> bool:
    """True iff every s_i, s_j and s_i s_j acts elliptically."""
    for g in generators:
        if element_action(splitting, g).is_loxodromic:
            return False
    for i, g in enumerate(generators):
        for h in generators[i + 1:]:
            if element_action(splitting, tuple(g) + tuple(h)).is_loxodromic:
                return False
    return True


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
