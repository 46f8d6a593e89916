"""Bounded simulation of the action on the Bass-Serre tree of an amalgam.

Vertices are cosets gG_A and gG_B, edges cosets gG_C, each held as the
canonical minimal-length representative obtained by right-stripping. The
tree is infinite; every exploration here is bounded and reports truncation.

Distances need no representatives in normal form: the alternating strips
that measure one are rounds of a single reverse pass over the heap of the
relative word (see ``tree_distance``).

What depends only on the splitting and the radii is enumerated once per
tree ball or audit, not once per tree vertex or edge: each side's subgroup
ball, collapsed to its G_C cosets; the element ball; G_C when it is finite;
and otherwise the element ball's kernel of rho, the homomorphism killing the
vertices of C, which holds every conjugate of G_C and so every edge fixer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .classify import SplittingSpec
from .errors import InputError, ResourceCapError
from .graphs import INFINITY
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

    One reverse sweep over the heap of the reduced word (see words.py) drops
    the largest successor-closed set of S-labelled syllables: a syllable goes
    iff its vertex is in S and all its successors go. That set is unique, so
    this equals stripping S-labelled last syllables until none is left. The
    rest is canonicalized once; O(L*|V| + L log L) beyond ``reduce``.
    """
    subset = pres.graph.check_vertices(subset)
    sylls = pres.reduce(word)
    succ, _ = pres._heap(sylls)
    deleted = [False] * len(sylls)
    for i in range(len(sylls) - 1, -1, -1):
        deleted[i] = sylls[i].vertex in subset and all(deleted[j] for j in succ[i])
    return pres.canonical(tuple(s for s, gone in zip(sylls, deleted) if not gone))


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
    reps = sorted({coset_canonical(pres, s, splitting.c_side) for s in ball})
    return reps, not saturated


def _neighbors(
    splitting: SplittingSpec, v: TreeVertex, reps: list[Word]
) -> list[tuple[TreeEdge, TreeVertex]]:
    """The (edge, opposite vertex) pairs v.rep*t*G_C, v.rep*t*G_opp for the
    side cosets t*G_C, sorted by edge. Distinct cosets give distinct edges;
    ``coset_canonical`` reduces the concatenation itself."""
    opp = other_side(v.side)
    out = [
        (make_edge(splitting, v.rep + t), make_vertex(splitting, v.rep + t, opp))
        for t in reps
    ]
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
    vertex of that side, and collapsed to its G_C-coset representatives; a
    vertex then costs one ``make_edge`` and one ``make_vertex`` per coset.
    ``cap`` bounds the side balls and the ball's vertex count alike.
    Raises InputError for a negative radius, or a local radius or cap below 1.
    """
    if radius < 0:
        raise InputError(f"radius must be at least 0, got {radius}")
    for name, value in (("local_radius", local_radius), ("cap", cap)):
        if value < 1:
            raise InputError(f"{name} must be at least 1, got {value}")
    base = base_vertex(splitting)
    adjacency: dict[TreeVertex, list[tuple[TreeEdge, TreeVertex]]] = {base: []}
    edges: dict[Word, TreeEdge] = {}
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
                if edge.rep not in edges:
                    edges[edge.rep] = edge
                    adjacency[v].append((edge, w))
                    if w not in adjacency:
                        adjacency[w] = []
                        new.append(w)
                    adjacency[w].append((edge, v))
            if len(adjacency) > cap:
                raise ResourceCapError(f"tree ball exceeded cap of {cap} vertices")
        frontier = new
        if not frontier:
            break
    return TreeBall(
        base=base,
        radius=radius,
        vertices=list(adjacency),
        edges=list(edges.values()),
        adjacency=adjacency,
        truncated=truncated,
    )


def tree_distance(splitting: SplittingSpec, v1: TreeVertex, v2: TreeVertex) -> int:
    """Edge-metric distance between two vertices, whose representatives may
    be any words.

    Right-stripping h = v1.rep^-1 v2.rep through the sides in turn, v2's side
    first, measures it: each round deletes the largest successor-closed set of
    syllables of h's heap on that round's side. One reverse pass over the heap
    gives every syllable its round: the largest round r of its successors (0
    if none) when its vertex is on round r's side, else r + 1, because every
    vertex is on side A or B. The distance is the last round, plus one when
    that round's side is not v1's. O(L*|V|) beyond ``reduce``.
    """
    pres = splitting.presentation
    sylls = pres.reduce(tuple((v, -e) for v, e in reversed(v1.rep)) + tuple(v2.rep))
    succ, _ = pres._heap(sylls)
    sides = [v2.side, other_side(v2.side)]
    vertex_sets = [set(side_set(splitting, side)) for side in sides]
    rounds = [0] * len(sylls)
    for i in range(len(sylls) - 1, -1, -1):
        r = max((rounds[j] for j in succ[i]), default=0)
        rounds[i] = r if sylls[i].vertex in vertex_sets[r % 2] else r + 1
    last = max(rounds, default=0)
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


class _Fixers:
    """What an audit enumerates once: the element ball, then, at the first
    edge, G_C if it is finite or else the ball's rho-kernel, and the fixers of
    each edge met so far.

    The fixers of the edge gG_C are the ball elements in gG_Cg^-1. For finite
    G_C they are the conjugates g x g^-1, x in G_C, that lie in the ball. For
    infinite G_C, killing the vertices of C is a homomorphism rho onto
    G_{V-C} (= G_a * G_b), and rho(g c g^-1) = 1, so only ball elements whose
    syllables outside C reduce to the identity can fix an edge: each edge
    scans that kernel, not the whole ball.
    """

    def __init__(self, splitting: SplittingSpec, element_radius: int, cap: int):
        pres = self.pres = splitting.presentation
        self.cap = cap
        self.c_set = set(splitting.c_side)
        self.c_order = pres.full_subgroup_order(self.c_set)
        self.ball, self.exhaustive = pres.enumerate_ball_info(element_radius, cap=cap)
        self.cache: dict[Word, set[Word]] = {}

    @cached_property
    def c_elements(self) -> set[Word]:
        elements, saturated = self.pres.enumerate_ball_info(
            self.c_order, cap=self.cap, subset=self.c_set
        )
        assert saturated
        return elements

    @cached_property
    def kernel(self) -> list[Word]:
        c_set, reduce = self.c_set, self.pres.reduce
        return [
            s for s in self.ball if not reduce(tuple(x for x in s if x.vertex not in c_set))
        ]

    def edge(self, edge: TreeEdge) -> set[Word]:
        """Ball elements stabilizing the coset gG_C (= ball intersect gG_Cg^-1)."""
        if edge.rep not in self.cache:
            pres, g = self.pres, edge.rep
            g_inv = pres.inverse(g)
            if self.c_order != INFINITY:
                fixers = {pres.multiply(g, x, g_inv) for x in self.c_elements} & self.ball
            else:
                c_set = self.c_set
                fixers = {s for s in self.kernel if pres.support(g_inv + s + g) <= c_set}
            self.cache[edge.rep] = fixers
        return self.cache[edge.rep]

    def path(self, path: list[TreeEdge]) -> set[Word]:
        result = set(self.edge(path[0]))
        for edge in path[1:]:
            result &= self.edge(edge)
        return result


def path_pointwise_stabilizer_bounded(
    splitting: SplittingSpec,
    path: list[TreeEdge],
    element_radius: int,
    cap: int = DEFAULT_BALL_CAP,
) -> set[Word]:
    """Elements of the radius-bounded group ball fixing every edge of the path.

    A certified subset of the true pointwise stabilizer; exhaustive exactly
    when the group ball saturates at the given radius.
    """
    if not path:
        raise InputError("path must contain at least one edge")
    return _Fixers(splitting, element_radius, cap).path(path)


def vertex_stabilizer_bounded(
    splitting: SplittingSpec,
    v: TreeVertex,
    element_radius: int,
    cap: int = DEFAULT_BALL_CAP,
) -> set[Word]:
    """Ball elements fixing the vertex (the path-of-length-0 case)."""
    pres = splitting.presentation
    ball = pres.enumerate_ball(element_radius, cap=cap)
    return {s for s in ball if act(splitting, s, v) == v}


def _paths_of_length(ball: TreeBall, k: int):
    """Non-backtracking k-edge paths in the ball, each walked from the end
    listed first in ``ball.vertices`` (a tree path has two distinct ends)."""
    order = {v: i for i, v in enumerate(ball.vertices)}
    for start in ball.vertices:
        stack = [(start, [])]
        while stack:
            v, edges = stack.pop()
            if len(edges) == k:
                if order[start] < order[v]:
                    yield edges
                continue
            for edge, w in ball.adjacency[v]:
                if edges and edge.rep == edges[-1].rep:
                    continue
                stack.append((w, edges + [edge]))


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
    limits = {
        "k": k,
        "tree_radius": tree_radius,
        "element_radius": element_radius,
        "local_radius": local_radius,
        "cap": cap,
    }
    for key, value in limits.items():
        if value < 1:
            raise InputError(f"{names.get(key, key)} must be at least 1, got {value}")
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

    Enumerates every k-edge path in the bounded tree ball, computes the
    bounded pointwise stabilizer of each, and reports the maximum size
    against the bound |G_N|. Each audit enumerates every subgroup ball once:
    each side's ball, collapsed to G_C cosets (see ``tree_ball``); the
    element ball; and, at the first edge, G_C if finite or else the part of
    the element ball in the kernel of killing C, which holds every fixer
    g c g^-1 (see ``_Fixers``). Each edge's fixers are found once.
    Raises InputError for limits under which no path would be checked.
    """
    check_audit_limits(k, tree_radius, element_radius, local_radius, cap)
    ball = tree_ball(splitting, tree_radius, local_radius, cap)
    fixers = _Fixers(splitting, element_radius, cap)
    bound = splitting.acyl_c
    max_size = 0
    paths_checked = 0
    violations = []
    for path in _paths_of_length(ball, k):
        size = len(fixers.path(path))
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
        exhaustive_elements=fixers.exhaustive,
        violations=violations,
    )


def elliptic_generation_check(splitting: SplittingSpec, generators: list[Word]) -> bool:
    """True iff every s_i, s_j and s_i s_j acts elliptically."""
    pres = splitting.presentation
    gens = [pres.canonical(g) for g in generators]
    for g in gens:
        if element_action(splitting, g).is_loxodromic:
            return False
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            if element_action(splitting, pres.multiply(g, h)).is_loxodromic:
                return False
    return True


def tree_ball_to_dot(ball: TreeBall, name: str = "T") -> str:
    """DOT rendering of a tree ball, vertices labeled side:representative."""
    lines = [f"graph {name} {{"]
    order = {v: i for i, v in enumerate(ball.vertices)}
    for v in ball.vertices:
        lines.append(f'  v{order[v]} [label="{v.label()}"];')
    seen = set()
    for v in ball.vertices:
        for edge, w in ball.adjacency[v]:
            key = edge.rep
            if key in seen:
                continue
            seen.add(key)
            lines.append(f'  v{order[v]} -- v{order[w]} [label="{edge.label()}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
