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
is ``graphs.diameter``, which grows every vertex's ball at once, for its
``diameter`` field.
"""

import enum
from itertools import chain, combinations
from typing import Iterator, NamedTuple, Optional

from .errors import InputError
from .graphs import INFINITY, SimpleGraph, diameter, is_irreducible
from .params import SIDE_A, SIDE_B
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


class SeparatedPair(NamedTuple):
    a: str
    b: str
    link_set: tuple[str, ...]
    link_order: int


class NoSeparatedPair(NamedTuple):
    checked_pair_count: int


class VirtuallyCyclicWitness(NamedTuple):
    missing_edge: tuple[str, str]


class CompleteGraphCase(NamedTuple):
    reason: str


# The certificate of every complete graph: it names no vertex.
_COMPLETE_GRAPH_CASE = CompleteGraphCase(
    "complete graph of cyclic groups: direct product Z^k x finite is "
    "finite, virtually cyclic, or a product of two infinite groups, "
    "none of which act acylindrically non-elementarily on a tree"
)


def _certificate_dict(cert) -> dict:
    """``kind``, the certificate's class name, then each field in declaration
    order, tuples as lists."""
    out = {"kind": type(cert).__name__}
    for key, value in zip(cert._fields, cert):
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


class SplittingSpec(NamedTuple):
    """The witnessing amalgam G_A *_{G_C} G_B for a separated pair (a, b).

    A = V - {b}, B = V - {a}, C = V - {a, b}, N = link({a, b}); the action
    on the Bass-Serre tree is (3, |G_N|)-acylindrical. The sides are int
    vertex masks, bit i for ``graph.vertices[i]`` (see
    ``Presentation._mask``), listed by name in vertex order by ``to_dict``.
    Equality includes the presentation: equal sides over different groups
    are different amalgams.
    """

    presentation: Presentation
    pair: tuple[str, str]
    a_side: int
    b_side: int
    c_side: int
    n_set: tuple[str, ...]
    acyl_c: int
    acyl_k = 3  # the paper's constant, the same for every separated pair

    def side(self, name: str) -> int:
        """The vertex mask of the tree-vertex side ``name``, SIDE_A or SIDE_B."""
        if name not in (SIDE_A, SIDE_B):
            raise InputError(f"unknown side: {name}")
        return self.a_side if name == SIDE_A else self.b_side

    def to_dict(self):
        names = self.presentation._names
        return {
            "pair": list(self.pair),
            "A": names(self.a_side),
            "B": names(self.b_side),
            "C": names(self.c_side),
            "N": list(self.n_set),
            "acyl_k": self.acyl_k,
            "acyl_C": self.acyl_c,
        }


class Verdict(NamedTuple):
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
            "certificate": _certificate_dict(self.certificate),
            "splitting": self.splitting.to_dict() if self.splitting else None,
            "diameter": "inf" if self.diameter == INFINITY else self.diameter,
        }


def _separated_row(pres: Presentation, i: int, columns) -> Iterator[SeparatedPair]:
    """Separated pairs (vertices[i], vertices[j]) for j in ``columns``, in order: j is
    not adjacent to i and the common link ``masks[i] & masks[j]`` spans a finite subgroup."""
    vertices, masks = pres.graph.vertices, pres.graph.masks
    mask_a = masks[i]
    for j in columns:
        common = mask_a & masks[j]
        if not mask_a >> j & 1 and (order := pres._mask_order(common)) != INFINITY:
            yield SeparatedPair(vertices[i], vertices[j], tuple(pres._names(common)), order)


def _separated_pairs(pres: Presentation) -> Iterator[SeparatedPair]:
    """Separated pairs in vertex order, lazily, one row of the pair search at a time."""
    n = len(pres.graph.vertices)
    return chain.from_iterable(_separated_row(pres, i, range(i + 1, n)) for i in range(n))


def separated_pairs(pres: Presentation) -> list[SeparatedPair]:
    """All separated pairs (edge distance >= 2, finite common-link subgroup),
    sorted by vertex order. An empty list is an exhaustive negative."""
    return list(_separated_pairs(pres))


def _non_adjacent_pair_count(pres: Presentation) -> int:
    """n(n-1)/2 minus the edges, each counted at both ends of the masks."""
    masks = pres.graph.masks
    n = len(masks)
    return n * (n - 1) // 2 - sum(map(int.bit_count, masks)) // 2


def _complete_minus_one_edge(pres: Presentation):
    """The missing edge of a graph that is complete minus exactly one edge."""
    vertices, masks = pres.graph.vertices, pres.graph.masks
    return next((vertices[i], vertices[j]) for i, j in combinations(range(len(masks)), 2)
                if not masks[i] >> j & 1)


def is_virtually_cyclic(pres: Presentation) -> VirtuallyCyclic:
    """Virtual cyclicity of the graph product.

    For diam >= 2: yes iff the graph is complete minus one edge, all orders
    are finite and both missing-edge endpoints have order 2 (the group is
    then finite-by-D_infinity). For complete graphs the product is a direct
    product of cyclic groups, virtually cyclic iff at most one factor is
    infinite.
    """
    orders = pres.orders
    infinite = [*orders.values()].count(INFINITY)
    # two infinite factors rule out both cases, so the non-edges go uncounted
    missing = _non_adjacent_pair_count(pres) if infinite < 2 else None
    yes = missing == 0 or missing == 1 and not infinite and all(
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
    """The splitting of a separated pair, in either order. Raises InputError
    unless a and b are distinct, non-adjacent vertices whose common link is
    ``link_set``, in vertex order, spanning a finite subgroup of order ``link_order``."""
    graph = pres.graph
    graph.check_vertices((pair.a, pair.b))
    i, j = graph.index[pair.a], graph.index[pair.b]
    found = next(_separated_row(pres, i, (j,)), None) if i != j else None
    if found is None or found[2:] != (tuple(pair.link_set), pair.link_order):
        raise InputError(f"not a separated pair: {tuple(pair)}")
    return _splitting(pres, pair)


def _splitting(pres: Presentation, pair: SeparatedPair) -> SplittingSpec:
    """``build_splitting`` for a pair known to be separated."""
    index = pres.graph.index
    every = (1 << len(index)) - 1
    a_side, b_side = every ^ 1 << index[pair.b], every ^ 1 << index[pair.a]
    return SplittingSpec(pres, (pair.a, pair.b), a_side, b_side, a_side & b_side, pair.link_set,
                         pair.link_order)


def classify(pres: Presentation) -> Verdict:
    """Full acylindrical-arboreality verdict with a checkable certificate."""
    diam = diameter(pres.graph)
    vc = is_virtually_cyclic(pres)
    ah = _ah_criterion(pres.graph, vc)
    if diam <= 1:
        cert = _COMPLETE_GRAPH_CASE
    elif vc == VirtuallyCyclic.YES:
        cert = VirtuallyCyclicWitness(_complete_minus_one_edge(pres))
    else:
        cert = next(_separated_pairs(pres), None) or NoSeparatedPair(
            _non_adjacent_pair_count(pres))
    separated = isinstance(cert, SeparatedPair)
    return Verdict(
        Arboreality.ACYL_ARBOREAL if separated else Arboreality.NOT_ACYL_ARBOREAL,
        vc, ah, cert, _splitting(pres, cert) if separated else None, diam,
    )
