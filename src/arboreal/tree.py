"""Bounded simulation of the action on the Bass-Serre tree of an amalgam.

Vertices are cosets gG_A and gG_B, edges cosets gG_C, each held as the
canonical minimal-length representative obtained by right-stripping. The
tree is infinite; every exploration here is bounded and reports truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    pres = splitting.presentation
    return make_vertex(splitting, pres.multiply(g, v.rep), v.side)


def act_edge(splitting: SplittingSpec, g: Word, e: TreeEdge) -> TreeEdge:
    pres = splitting.presentation
    return make_edge(splitting, pres.multiply(g, e.rep))


def neighbors(
    splitting: SplittingSpec,
    v: TreeVertex,
    local_radius: int = 2,
    cap: int = DEFAULT_BALL_CAP,
) -> tuple[list[tuple[TreeEdge, TreeVertex]], bool]:
    """Incident edges found within the side-subgroup generator ball.

    Edges at gG_A are the cosets gsG_C for s ranging over G_C-coset
    representatives in G_A (symmetrically for B). Returns the discovered
    (edge, opposite vertex) pairs plus a flag marking whether the coset
    enumeration may be truncated.
    """
    pres = splitting.presentation
    this_side = side_set(splitting, v.side)
    reps, saturated = pres.enumerate_ball_info(local_radius, cap=cap, subset=this_side)
    opp = other_side(v.side)
    found: dict[Word, tuple[TreeEdge, TreeVertex]] = {}
    for s in sorted(reps):
        g = pres.multiply(v.rep, s)
        edge = make_edge(splitting, g)
        if edge.rep not in found:
            found[edge.rep] = (edge, make_vertex(splitting, g, opp))
    out = sorted(found.values(), key=lambda pair: pair[0].rep)
    return out, not saturated


def tree_ball(
    splitting: SplittingSpec,
    radius: int,
    local_radius: int = 2,
    cap: int = DEFAULT_BALL_CAP,
    vertex_cap: int = DEFAULT_BALL_CAP,
) -> TreeBall:
    """BFS exploration of the tree around the base vertex G_A."""
    base = base_vertex(splitting)
    adjacency: dict[TreeVertex, list[tuple[TreeEdge, TreeVertex]]] = {base: []}
    edges: dict[Word, TreeEdge] = {}
    truncated = False
    frontier = [base]
    for _ in range(radius):
        new = []
        for v in frontier:
            nbrs, trunc = neighbors(splitting, v, local_radius, cap)
            truncated = truncated or trunc
            for edge, w in nbrs:
                if w == v:
                    continue
                if edge.rep not in edges:
                    edges[edge.rep] = edge
                    adjacency[v].append((edge, w))
                    if w not in adjacency:
                        adjacency[w] = []
                        new.append(w)
                    adjacency[w].append((edge, v))
            if len(adjacency) > vertex_cap:
                raise ResourceCapError(
                    f"tree ball exceeded cap of {vertex_cap} vertices"
                )
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
    """Edge-metric distance, via alternating right-stripping of the relative
    word through the two sides of the amalgam."""
    pres = splitting.presentation
    h = pres.multiply(pres.inverse(v1.rep), v2.rep)
    side = v2.side
    h = coset_canonical(pres, h, side_set(splitting, side))
    dist = 0
    while h:
        side = other_side(side)
        h = coset_canonical(pres, h, side_set(splitting, side))
        dist += 1
    if side != v1.side:
        dist += 1
    return dist


def element_action(splitting: SplittingSpec, g: Word) -> ElementAction:
    """Elliptic/loxodromic type via the displacement test at the base vertex.

    For a simplicial tree isometry without inversion, d(x, g^2 x) exceeds
    d(x, gx) exactly by the translation length when g is loxodromic, and
    never exceeds it when g is elliptic.
    """
    pres = splitting.presentation
    g = pres.canonical(g)
    x = base_vertex(splitting)
    d1 = tree_distance(splitting, x, act(splitting, g, x))
    d2 = tree_distance(splitting, x, act(splitting, pres.multiply(g, g), x))
    if d2 > d1:
        return ElementAction("Loxodromic", d2 - d1)
    return ElementAction("Elliptic")


def _edge_fixers(
    splitting: SplittingSpec,
    edge: TreeEdge,
    ball: set[Word],
    cap: int,
) -> set[Word]:
    """Ball elements stabilizing the coset gG_C (= ball intersect gG_Cg^-1)."""
    pres = splitting.presentation
    c_set = set(splitting.c_side)
    c_order = pres.full_subgroup_order(c_set)
    g = edge.rep
    g_inv = pres.inverse(g)
    if c_order != INFINITY:
        # enumerate the full conjugate g G_C g^-1 and intersect with the ball
        if not c_set:
            elements: set[Word] = {()}
        else:
            elements, saturated = pres.enumerate_ball_info(
                c_order, cap=cap, subset=c_set
            )
            assert saturated
        return {pres.multiply(g, x, g_inv) for x in elements} & ball
    return {
        s for s in ball if pres.support(pres.multiply(g_inv, s, g)) <= c_set
    }


def path_pointwise_stabilizer_bounded(
    splitting: SplittingSpec,
    path: list[TreeEdge],
    element_radius: int,
    cap: int = DEFAULT_BALL_CAP,
    _ball: Optional[set[Word]] = None,
    _fixer_cache: Optional[dict] = None,
) -> set[Word]:
    """Elements of the radius-bounded group ball fixing every edge of the path.

    A certified subset of the true pointwise stabilizer; exhaustive exactly
    when the group ball saturates at the given radius.
    """
    if not path:
        raise InputError("path must contain at least one edge")
    pres = splitting.presentation
    ball = _ball if _ball is not None else pres.enumerate_ball(element_radius, cap=cap)
    cache = _fixer_cache if _fixer_cache is not None else {}
    result = None
    for edge in path:
        if edge.rep not in cache:
            cache[edge.rep] = _edge_fixers(splitting, edge, ball, cap)
        fixers = cache[edge.rep]
        result = set(fixers) if result is None else result & fixers
    return result


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
    """Non-backtracking k-edge paths in the ball, deduplicated by edge set
    (a path in a tree is determined by the set of edges it uses)."""
    seen: set[frozenset] = set()
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
                if edges and edge.rep == edges[-1].rep:
                    continue
                stack.append((w, edges + [edge]))


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
    against the bound |G_N|.
    """
    pres = splitting.presentation
    ball = tree_ball(splitting, tree_radius, local_radius, cap)
    elements, exhaustive = pres.enumerate_ball_info(element_radius, cap=cap)
    bound = splitting.acyl_c
    cache: dict = {}
    max_size = 0
    paths_checked = 0
    violations = []
    for path in _paths_of_length(ball, k):
        stab = path_pointwise_stabilizer_bounded(
            splitting, path, element_radius, cap, _ball=elements, _fixer_cache=cache
        )
        paths_checked += 1
        size = len(stab)
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
