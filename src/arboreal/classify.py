"""Decision procedures for acylindrical arboreality of graph products.

The verdict logic: a non-degenerate graph product with diam >= 2 is
acylindrically arboreal iff it is not virtually cyclic and some pair of
vertices is separated (edge distance >= 2, finite common-link subgroup).
Complete graphs (diam <= 1) are fully decidable under the cyclic
vertex-group restriction and are never acylindrically arboreal.

Distinct non-adjacent vertices are at edge distance >= 2, so the pair search
is link intersection with no distance computation, and ``classify`` stops at
the first pair. The search runs on the graph's vertex masks: a pair is
non-adjacent when bit j of ``masks[i]`` is clear, its common link is
``masks[i] & masks[j]``, and the link's order comes from the same clique test
as ``Presentation.full_subgroup_order``. A verdict's only search over paths
is the frontier-mask search for its ``diameter`` field.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Optional

from .graphs import INFINITY, SimpleGraph, bit_indices, diameter, is_irreducible
from .words import Presentation


class Arboreality(enum.Enum):
    ACYL_ARBOREAL = "AcylArboreal"
    NOT_ACYL_ARBOREAL = "NotAcylArboreal"


class VirtuallyCyclic(enum.Enum):
    YES = "Yes"
    NO = "No"


class AHCriterion(enum.Enum):
    AH_BY_IRREDUCIBILITY = "AHByIrreducibility"
    VIRTUALLY_CYCLIC = "VirtuallyCyclic"
    INCONCLUSIVE = "Inconclusive"


class Certificate:
    """Base of the verdict certificates. ``to_dict`` writes ``kind``, the
    class name, then each field in declaration order, tuples as lists."""

    def to_dict(self):
        out = {"kind": type(self).__name__}
        for key, value in vars(self).items():
            out[key] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class SeparatedPair(Certificate):
    a: str
    b: str
    link_set: tuple[str, ...]
    link_order: int


@dataclass(frozen=True)
class NoSeparatedPair(Certificate):
    checked_pair_count: int


@dataclass(frozen=True)
class VirtuallyCyclicWitness(Certificate):
    missing_edge: tuple[str, str]


@dataclass(frozen=True)
class CompleteGraphCase(Certificate):
    reason: str


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
    certificate: SeparatedPair | NoSeparatedPair | VirtuallyCyclicWitness | CompleteGraphCase
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
    common link ``masks[i] & masks[j]`` spans a finite full subgroup."""
    vertices, masks = pres.graph.vertices, pres.graph.masks
    for i, a in enumerate(vertices):
        mask_a = masks[i]
        for j in range(i + 1, len(vertices)):
            if mask_a >> j & 1:
                continue
            common = mask_a & masks[j]
            order = pres._mask_order(common)
            if order != INFINITY:
                link_set = tuple(vertices[k] for k in bit_indices(common))
                yield SeparatedPair(a, vertices[j], link_set, order)


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


def _ah_criterion(graph: SimpleGraph, vc: VirtuallyCyclic) -> AHCriterion:
    """Acylindrical hyperbolicity via graph irreducibility: an irreducible
    non-degenerate product is either virtually cyclic or acylindrically
    hyperbolic; for reducible graphs the criterion is silent."""
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
