import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
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
