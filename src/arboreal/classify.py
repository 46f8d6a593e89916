"""Decision procedures for acylindrical arboreality of graph products.

The verdict logic: a non-degenerate graph product with diam >= 2 is
acylindrically arboreal iff it is not virtually cyclic and some pair of
vertices is separated (edge distance >= 2, finite common-link subgroup).
Complete graphs (diam <= 1) are fully decidable under the cyclic
vertex-group restriction and are never acylindrically arboreal.

Distinct non-adjacent vertices are at edge distance >= 2, so the pair search
is link intersection with no distance computation, and ``classify`` stops at
the first pair. A verdict's only BFS is for its ``diameter`` field.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Optional

from .errors import InputError
from .graphs import INFINITY, SimpleGraph, diameter, is_irreducible
from .words import Presentation


class Arboreality(enum.Enum):
    ACYL_ARBOREAL = "AcylArboreal"
    NOT_ACYL_ARBOREAL = "NotAcylArboreal"
    OUT_OF_SCOPE = "OutOfScope"


class VirtuallyCyclic(enum.Enum):
    YES = "Yes"
    NO = "No"
    NOT_COVERED = "NotCovered"


class AHCriterion(enum.Enum):
    AH_BY_IRREDUCIBILITY = "AHByIrreducibility"
    VIRTUALLY_CYCLIC = "VirtuallyCyclic"
    INCONCLUSIVE = "Inconclusive"


class SubgroupVerdict(enum.Enum):
    AA_OR_VC = "AAorVC"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class SeparatedPair:
    a: str
    b: str
    link_set: tuple[str, ...]
    link_order: int

    def to_dict(self):
        return {
            "kind": "SeparatedPair",
            "a": self.a,
            "b": self.b,
            "link_set": list(self.link_set),
            "link_order": self.link_order,
        }


@dataclass(frozen=True)
class NoSeparatedPair:
    checked_pair_count: int

    def to_dict(self):
        return {"kind": "NoSeparatedPair", "checked_pair_count": self.checked_pair_count}


@dataclass(frozen=True)
class VirtuallyCyclicWitness:
    missing_edge: tuple[str, str]

    def to_dict(self):
        return {"kind": "VirtuallyCyclicWitness", "missing_edge": list(self.missing_edge)}


@dataclass(frozen=True)
class CompleteGraphCase:
    reason: str

    def to_dict(self):
        return {"kind": "CompleteGraphCase", "reason": self.reason}


@dataclass(frozen=True)
class Degenerate:
    reason: str

    def to_dict(self):
        return {"kind": "Degenerate", "reason": self.reason}


Certificate = object  # one of the dataclasses above


@dataclass(frozen=True)
class SplittingSpec:
    """The witnessing amalgam G_A *_{G_C} G_B for a separated pair (a, b).

    A = V - {b}, B = V - {a}, C = V - {a, b}, N = link({a, b}); the action
    on the Bass-Serre tree is (3, |G_N|)-acylindrical.
    """

    presentation: Presentation = field(compare=False, repr=False)
    pair: tuple[str, str]
    a_side: tuple[str, ...]
    b_side: tuple[str, ...]
    c_side: tuple[str, ...]
    n_set: tuple[str, ...]
    acyl_k: int
    acyl_c: int

    def to_dict(self):
        return {
            "pair": list(self.pair),
            "A": list(self.a_side),
            "B": list(self.b_side),
            "C": list(self.c_side),
            "N": list(self.n_set),
            "acyl_k": self.acyl_k,
            "acyl_C": self.acyl_c,
        }


@dataclass(frozen=True)
class Verdict:
    arboreality: Arboreality
    virtually_cyclic: VirtuallyCyclic
    ah_criterion: AHCriterion
    certificate: Certificate
    splitting: Optional[SplittingSpec] = None
    diameter: int | float = 0

    def to_dict(self):
        return {
            "arboreality": self.arboreality.value,
            "virtually_cyclic": self.virtually_cyclic.value,
            "ah_criterion": self.ah_criterion.value,
            "certificate": self.certificate.to_dict(),
            "splitting": self.splitting.to_dict() if self.splitting else None,
            "diameter": "inf" if self.diameter == INFINITY else self.diameter,
        }


def _separated_pairs(pres: Presentation) -> Iterator[SeparatedPair]:
    """Separated pairs in vertex order, lazily: non-adjacent pairs whose
    common link spans a finite full subgroup."""
    graph = pres.graph
    adjacency = graph.adjacency
    for i, a in enumerate(graph.vertices):
        link_a = adjacency[a]
        for b in graph.vertices[i + 1:]:
            if b in link_a:
                continue
            common = link_a & adjacency[b]
            order = pres.full_subgroup_order(common)
            if order != INFINITY:
                yield SeparatedPair(a, b, tuple(sorted(common, key=graph.sort_key)), order)


def separated_pairs(pres: Presentation) -> list[SeparatedPair]:
    """All separated pairs (edge distance >= 2, finite common-link subgroup),
    sorted by vertex order. An empty list is an exhaustive negative."""
    return list(_separated_pairs(pres))


def _non_adjacent_pair_count(pres: Presentation) -> int:
    graph = pres.graph
    n = len(graph.vertices)
    return n * (n - 1) // 2 - len(graph.edges)


def _complete_minus_one_edge(pres: Presentation):
    """The missing edge if the graph is complete minus exactly one edge."""
    if _non_adjacent_pair_count(pres) != 1:
        return None
    adjacency = pres.graph.adjacency
    return next((u, v) for u, v in combinations(pres.graph.vertices, 2) if v not in adjacency[u])


def is_virtually_cyclic(pres: Presentation) -> VirtuallyCyclic:
    """Virtual cyclicity of the graph product.

    For diam >= 2: yes iff the graph is complete minus one edge, all orders
    are finite and both missing-edge endpoints have order 2 (the group is
    then finite-by-D_infinity). For complete graphs the product is a direct
    product of cyclic groups, virtually cyclic iff at most one factor is
    infinite.
    """
    orders = pres.orders
    infinite = sum(n == INFINITY for n in orders.values())
    missing = _non_adjacent_pair_count(pres)
    if not missing:
        yes = infinite <= 1
    else:
        yes = missing == 1 and not infinite and all(
            orders[v] == 2 for v in _complete_minus_one_edge(pres)
        )
    return VirtuallyCyclic.YES if yes else VirtuallyCyclic.NO


def ah_criterion(pres: Presentation) -> AHCriterion:
    """Acylindrical hyperbolicity via graph irreducibility.

    An irreducible non-degenerate product is either virtually cyclic or
    acylindrically hyperbolic; for reducible graphs the criterion is silent.
    """
    return _ah_criterion(pres.graph, is_virtually_cyclic(pres))


def _ah_criterion(graph: SimpleGraph, vc: VirtuallyCyclic) -> AHCriterion:
    if vc == VirtuallyCyclic.YES:
        return AHCriterion.VIRTUALLY_CYCLIC
    return AHCriterion.AH_BY_IRREDUCIBILITY if is_irreducible(graph) else AHCriterion.INCONCLUSIVE


def build_splitting(pres: Presentation, pair: SeparatedPair) -> SplittingSpec:
    graph = pres.graph
    a, b = pair.a, pair.b
    a_side = tuple(v for v in graph.vertices if v != b)
    b_side = tuple(v for v in graph.vertices if v != a)
    c_side = tuple(v for v in graph.vertices if v not in (a, b))
    return SplittingSpec(
        presentation=pres,
        pair=(a, b),
        a_side=a_side,
        b_side=b_side,
        c_side=c_side,
        n_set=pair.link_set,
        acyl_k=3,
        acyl_c=pair.link_order,
    )


def classify(pres: Presentation) -> Verdict:
    """Full acylindrical-arboreality verdict with a checkable certificate."""
    diam = diameter(pres.graph)
    vc = is_virtually_cyclic(pres)
    ah = _ah_criterion(pres.graph, vc)
    if diam <= 1:
        cert = CompleteGraphCase(
            "complete graph of cyclic groups: direct product Z^k x finite is "
            "finite, virtually cyclic, or a product of two infinite groups, "
            "none of which act acylindrically non-elementarily on a tree"
        )
        return Verdict(Arboreality.NOT_ACYL_ARBOREAL, vc, ah, cert, None, diam)
    if vc == VirtuallyCyclic.YES:
        cert = VirtuallyCyclicWitness(_complete_minus_one_edge(pres))
        return Verdict(Arboreality.NOT_ACYL_ARBOREAL, vc, ah, cert, None, diam)
    first = next(_separated_pairs(pres), None)
    if first is not None:
        splitting = build_splitting(pres, first)
        return Verdict(Arboreality.ACYL_ARBOREAL, vc, ah, first, splitting, diam)
    cert = NoSeparatedPair(_non_adjacent_pair_count(pres))
    return Verdict(Arboreality.NOT_ACYL_ARBOREAL, vc, ah, cert, None, diam)


def full_subgroup_check(pres: Presentation, subset) -> SubgroupVerdict:
    """Sufficient condition for a full subgroup G_S: if the induced
    sub-presentation contains a separated pair then G_S is acylindrically
    arboreal or virtually cyclic; otherwise no verdict is offered."""
    subset = pres.graph.check_vertices(subset)
    if len(subset) <= 1:
        raise InputError("full subgroup check needs at least two vertices")
    sub = pres.induced(subset)
    return SubgroupVerdict.AA_OR_VC if any(_separated_pairs(sub)) else SubgroupVerdict.UNKNOWN
