import random
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
def presentations(draw, max_vertices=5, orders=(2, 3, INFINITY)):
    """Graph products on 2..max_vertices (at most 10) vertices, orders drawn
    from ``orders``."""
    names = "abcdefghij"[: draw(st.integers(2, max_vertices))]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    edges = [p for p in pairs if draw(st.booleans())]
    return Presentation(SimpleGraph(names, edges),
                        {v: draw(st.sampled_from(orders)) for v in names})


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


def crowded_links(m):
    """The RACG on a clique x0..x{m-1} and m vertices y0..y{m-1}, each y_i
    joined to every x_j with j != i. Any two y's are a separated pair, and so
    are x_i and y_i. C = V - {y0, y1} has more than 2^m cliques, yet its
    growth table (see ``Presentation.growth_table``) meets about m^2/2
    vertex masks: the prefixes of C and, for each y_j in C, the prefixes of
    its link, the x's but x_j (437 masks at m = 30). So a passing audit of
    (y0, y1) reads every count from series."""
    xs, ys = [f"x{i}" for i in range(m)], [f"y{i}" for i in range(m)]
    edges = [(u, v) for i, u in enumerate(xs) for v in xs[i + 1:]]
    edges += [(x, y) for i, x in enumerate(xs) for j, y in enumerate(ys) if i != j]
    return Presentation(SimpleGraph(xs + ys, edges), dict.fromkeys(xs + ys, 2))


def dense_plus_pair():
    """The RACG on a seeded G(60, 0.8) over v0..v59, plus two isolated
    vertices a and b: a separated pair with an empty common link. The growth
    table of C = {v0..v59} at degree 3 meets about 139,000 vertex masks, 1.1
    million coefficients, past the default cap, so an audit of (a, b)
    enumerates its balls instead."""
    rng = random.Random(0)
    vs = [f"v{i}" for i in range(60)]
    edges = [(u, w) for i, u in enumerate(vs) for w in vs[i + 1:] if rng.random() < 0.8]
    return Presentation(SimpleGraph(vs + ["a", "b"], edges), dict.fromkeys(vs + ["a", "b"], 2))


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
