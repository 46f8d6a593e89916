"""Acylindrical arboreality of graph products of cyclic groups.

Normal-form algebra for graph products, the separated-pair classification
with machine-checkable certificates, and bounded simulation of the action
on the Bass-Serre tree of the witnessing amalgam splitting.

``import arboreal`` loads no layer: each name of ``__all__`` loads its
layer, and the layers that one imports, on first use. The layers and the
names they export:

- ``errors``: DegeneratePresentationError, InputError, ResourceCapError;
- ``graphs``: INFINITY, SimpleGraph, complement, diameter,
  induced_subgraph, is_irreducible, to_dot;
- ``words`` (imports graphs): Presentation, Syllable, format_word,
  parse_word;
- ``classify`` (imports words): AHCriterion, Arboreality, SeparatedPair,
  SplittingSpec, Verdict, VirtuallyCyclic, build_splitting, classify,
  is_virtually_cyclic, separated_pairs;
- ``tree`` (imports classify): act, audit_acylindricity, base_vertex,
  element_action, elliptic_generation_check, path_stabilizer, tree_ball,
  tree_distance.

``arboreal.classify`` is the verdict function, also once the submodule of
that name has loaded.
"""

import sys

_EXPORTS = {
    "errors": ("DegeneratePresentationError", "InputError", "ResourceCapError"),
    "graphs": ("INFINITY", "SimpleGraph", "complement", "diameter", "induced_subgraph",
               "is_irreducible", "to_dot"),
    "words": ("Presentation", "Syllable", "format_word", "parse_word"),
    "classify": ("AHCriterion", "Arboreality", "SeparatedPair", "SplittingSpec", "Verdict",
                 "VirtuallyCyclic", "build_splitting", "classify", "is_virtually_cyclic",
                 "separated_pairs"),
    "tree": ("act", "audit_acylindricity", "base_vertex", "element_action",
             "elliptic_generation_check", "path_stabilizer", "tree_ball", "tree_distance"),
}
_LAYER = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAYER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    layer = f"{__name__}.{_LAYER[name]}"
    __import__(layer)
    value = globals()[name] = getattr(sys.modules[layer], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(type(sys)):
    def __setattr__(self, name, value):
        # The import system sets each submodule it loads on its package: the
        # submodule arboreal.classify would hide the function of that name.
        if not (name in _LAYER and isinstance(value, type(sys))):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
