"""Acylindrical arboreality of graph products of cyclic groups.

Normal-form algebra for graph products, the separated-pair classification
with machine-checkable certificates, and bounded simulation of the action
on the Bass-Serre tree of the witnessing amalgam splitting.
"""

from .classify import (
    AHCriterion,
    Arboreality,
    SeparatedPair,
    SplittingSpec,
    Verdict,
    VirtuallyCyclic,
    build_splitting,
    classify,
    is_virtually_cyclic,
    separated_pairs,
)
from .errors import DegeneratePresentationError, InputError, ResourceCapError
from .graphs import (
    INFINITY,
    SimpleGraph,
    complement,
    diameter,
    induced_subgraph,
    is_irreducible,
    to_dot,
)
from .words import Presentation, Syllable, format_word, parse_word

__all__ = [
    "AHCriterion",
    "Arboreality",
    "DegeneratePresentationError",
    "INFINITY",
    "InputError",
    "Presentation",
    "ResourceCapError",
    "SeparatedPair",
    "SimpleGraph",
    "SplittingSpec",
    "Syllable",
    "Verdict",
    "VirtuallyCyclic",
    "act",
    "audit_acylindricity",
    "base_vertex",
    "build_splitting",
    "classify",
    "element_action",
    "elliptic_generation_check",
    "path_stabilizer",
    "tree_ball",
    "tree_distance",
    "complement",
    "diameter",
    "format_word",
    "induced_subgraph",
    "is_irreducible",
    "is_virtually_cyclic",
    "parse_word",
    "separated_pairs",
    "to_dot",
]

__version__ = "0.1.0"


def __getattr__(name):
    # The names of __all__ not bound above are the tree layer's: that layer,
    # the largest module, loads on first use (of the CLI commands only
    # tree-dist, tree-audit and export-dot --target tree-ball need it).
    if name in __all__:
        from . import tree
        return getattr(tree, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
