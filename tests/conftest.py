import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from arboreal.classify import SeparatedPair, build_splitting
from arboreal.graphs import SimpleGraph
from arboreal.words import INFINITY, Presentation

sys.path.insert(0, str(Path(__file__).parent))

FIXTURES = Path(__file__).parent.parent / "fixtures"

# Same examples on every run, and nothing written into the checkout: no example
# database, and hypothesis's cache of source constants goes to the temp dir.
settings.register_profile("deterministic", derandomize=True, database=None)
# The same without shrinking, for scripts/mutants.py (--hypothesis-profile
# mutants): a failing example is reported as found, not after minutes of shrinking.
settings.register_profile(
    "mutants", settings.get_profile("deterministic"), phases=[Phase.explicit, Phase.generate]
)
settings.load_profile("deterministic")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "arboreal-hypothesis")


@st.composite
def presentations(draw, max_vertices=5):
    """Graph products on 2..max_vertices (at most 9) vertices, orders in {2, 3, inf}."""
    names = "abcdefghi"[: draw(st.integers(2, max_vertices))]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    edges = [p for p in pairs if draw(st.booleans())]
    orders = {v: draw(st.sampled_from((2, 3, INFINITY))) for v in names}
    return Presentation(SimpleGraph(names, edges), orders)


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.integers()
    | st.floats()
    | st.sampled_from(["a", "b", "c", "inf", "1", "", "a b", "a^2", "b a^-1", "a^0"])
    | st.text(max_size=4)
)
JSON_KEYS = st.sampled_from(["vertices", "edges", "words", "name", "order"]) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_KEYS, children, max_size=4),
    max_leaves=20,
)


def _slots(value):
    """(container, key) for every position inside a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in list(items):
        yield value, key
        yield from _slots(child)


@st.composite
def json_documents(draw):
    """Any JSON value, or a well-formed presentation with at most one position
    replaced by any JSON value: random values mostly fail the first type
    check, these reach the later ones and the valid path."""
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    names = draw(st.lists(st.sampled_from("abcd"), unique=True, max_size=4))
    pairs = [[u, v] for i, u in enumerate(names) for v in names[i + 1:]] or [["a", "b"]]
    doc = {
        "vertices": [{"name": v, "order": draw(st.sampled_from([2, 3, "inf"]))} for v in names],
        "edges": draw(st.lists(st.sampled_from(pairs), max_size=4)),
        "words": draw(st.dictionaries(st.sampled_from("gh"), st.sampled_from(
            ["a", "b^-1 a", "a^0", "a^2 b", "", "1", "c^3", "a^", "e", "a b a^-1 b^-1"]
        ), max_size=2)),
    }
    if draw(st.booleans()):
        container, key = draw(st.sampled_from(list(_slots(doc))))
        container[key] = draw(JSON_VALUES)
    return doc


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def p3_graph():
    return SimpleGraph("abc", [("a", "b"), ("b", "c")])


def p4_graph():
    return SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


def fig2_graph():
    return SimpleGraph(
        "abcdef",
        [
            ("a", "b"), ("a", "c"), ("b", "c"),
            ("d", "e"), ("a", "e"), ("b", "e"),
            ("d", "f"), ("a", "f"), ("c", "f"),
        ],
    )


@pytest.fixture
def p3_raag():
    g = p3_graph()
    return Presentation(g, {v: INFINITY for v in g.vertices})


@pytest.fixture
def p4_racg():
    g = p4_graph()
    return Presentation(g, {v: 2 for v in g.vertices})


@pytest.fixture
def o2_racg():
    return Presentation(SimpleGraph("ab"), {"a": 2, "b": 2})


@pytest.fixture
def z2_z3():
    return Presentation(SimpleGraph("ab"), {"a": 2, "b": 3})


@pytest.fixture
def z2_z5():
    return Presentation(SimpleGraph("ab"), {"a": 2, "b": 5})


@pytest.fixture
def fig2_raag():
    g = fig2_graph()
    return Presentation(g, {v: INFINITY for v in g.vertices})


@pytest.fixture
def p4_splitting(p4_racg):
    """The splitting over the distance-3 pair (a, d): N = {}, |G_N| = 1."""
    return build_splitting(p4_racg, SeparatedPair("a", "d", (), 1))
