import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal.classify import classify
from arboreal.errors import DegeneratePresentationError, InputError
from arboreal.formats import argv_text, load_presentation, presentation_from_dict
from arboreal.graphs import INFINITY
from arboreal.words import Presentation, format_word, parse_word

from conftest import json_documents


FIXTURE_NAMES = [
    "p4_racg.json",
    "p3_raag.json",
    "fig2_raag.json",
    "c5_raag.json",
    "o2_racg.json",
    "z2_z3.json",
    "z2_z5.json",
]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_classify_path_derives_no_adjacency_or_edges(fixtures_dir, name):
    """Loading and classifying a product reads only the graph's masks: its
    ``adjacency`` and ``edges``, and the presentation's ``_steps``, are first
    built by a word operation, once."""
    pres, _ = presentation_from_dict(json.loads((fixtures_dir / name).read_text()))
    classify(pres).to_dict()
    assert not {"adjacency", "edges"} & vars(pres.graph).keys()
    assert "_steps" not in vars(pres)
    word = [(v, 1) for v in reversed(pres.graph.vertices)]
    pres.canonical(word)
    adjacency, steps = vars(pres.graph)["adjacency"], vars(pres)["_steps"]
    pres.canonical(word)
    assert vars(pres.graph)["adjacency"] is adjacency
    assert vars(pres)["_steps"] is steps
    assert "edges" not in vars(pres.graph)


class Entry(dict):
    """A dict subclass, as a caller may pass for a vertex entry."""


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_round_trip(fixtures_dir, name):
    """The loaded presentation gives back what the file says, and the same
    data loads with each vertex entry a dict subclass and each edge a tuple."""
    path = fixtures_dir / name
    data = json.loads(path.read_text())
    pres, words = load_presentation(path)
    assert list(pres.graph.vertices) == [entry["name"] for entry in data["vertices"]]
    assert [pres.orders[v] for v in pres.graph.vertices] == [
        INFINITY if entry["order"] == "inf" else entry["order"] for entry in data["vertices"]
    ]
    assert len(pres.graph.edges) == len(data.get("edges", []))
    assert words == {
        key: pres.canonical(parse_word(pres, text)) for key, text in data.get("words", {}).items()
    }
    data.update(vertices=[Entry(entry) for entry in data["vertices"]],
                edges=[tuple(pair) for pair in data.get("edges", [])])
    assert presentation_from_dict(data) == (pres, words)


def test_infinite_orders_parse(fixtures_dir):
    pres, _ = load_presentation(fixtures_dir / "p3_raag.json")
    assert all(pres.orders[v] == INFINITY for v in pres.graph.vertices)


def test_named_words_parse():
    pres, words = presentation_from_dict(
        {
            "vertices": [{"name": "a", "order": "inf"}, {"name": "b", "order": "inf"}],
            "edges": [["a", "b"]],
            "words": {"g": "b a^2"},
        }
    )
    assert format_word(words["g"]) == "a^2 b"


def test_bad_order_rejected():
    with pytest.raises(InputError):
        presentation_from_dict(
            {"vertices": [{"name": "a", "order": 2.5}, {"name": "b", "order": 2}]}
        )


@pytest.mark.parametrize("order", [True, False, 2.0, "2", None], ids=repr)
def test_order_that_is_not_an_integer_rejected(order):
    """A JSON true or false is not read as the order 1 or 0, which would make
    the presentation degenerate (exit 3) instead of malformed (exit 2)."""
    with pytest.raises(InputError, match="order must be an integer or \"inf\"") as info:
        presentation_from_dict(
            {"vertices": [{"name": "a", "order": order}, {"name": "b", "order": 2}]}
        )
    assert not isinstance(info.value, DegeneratePresentationError)


def test_argv_text_returns_a_str_the_file_system_encoding_cannot_encode():
    """A lone high surrogate is no byte that argv decoding escaped, so the str
    never came from argv and is returned as it is."""
    assert argv_text("\ud800x", "strict") == "\ud800x"


def test_degenerate_order_has_own_type():
    with pytest.raises(DegeneratePresentationError):
        presentation_from_dict(
            {"vertices": [{"name": "a", "order": 1}, {"name": "b", "order": 2}]}
        )


@pytest.mark.parametrize("name", ["", "1", " a", "a\tb", "a\n", "x^", "^"])
def test_vertex_name_that_cannot_round_trip_rejected(name):
    with pytest.raises(InputError, match="cannot be written in a word"):
        presentation_from_dict(
            {"vertices": [{"name": name, "order": 2}, {"name": "b", "order": 2}]}
        )


@pytest.mark.parametrize("name", [None, True, 1.5, 5, []], ids=repr)
def test_non_string_vertex_name_rejected(name):
    with pytest.raises(InputError, match=r"vertices\[1\]: name must be a JSON string"):
        presentation_from_dict(
            {"vertices": [{"name": "a", "order": 2}, {"name": name, "order": 2}]}
        )


@pytest.mark.parametrize("word", [3, None, ["a"]], ids=repr)
def test_non_string_named_word_rejected(word):
    with pytest.raises(InputError, match=r"^words\['g'\]: expected a word string$"):
        presentation_from_dict(
            {"vertices": [{"name": "a", "order": 2}, {"name": "b", "order": 2}],
             "words": {"g": word}}
        )


@pytest.mark.parametrize("end", [None, True, 1.5, 5, []], ids=repr)
def test_non_string_edge_endpoint_rejected(end):
    """A non-string endpoint, first or second, is rejected, not matched to
    the vertex that its str() names."""
    for pair in [end, "a"], ["a", end]:
        with pytest.raises(InputError, match=r"edges\[1\]: endpoints must be JSON strings, "
                                             f"got {type(end).__name__}$"):
            presentation_from_dict(
                {
                    "vertices": [{"name": v, "order": 2} for v in ("a", "b", "None", "True")],
                    "edges": [["a", "b"], pair],
                }
            )


def test_vertex_names_round_trip_through_words():
    names = ["x1", "11", "-1", "a_b", "é"]
    pres, words = presentation_from_dict(
        {
            "vertices": [{"name": n, "order": "inf"} for n in names],
            "words": {"g": " ".join(f"{n}^2" for n in names)},
        }
    )
    assert parse_word(pres, format_word(words["g"])) == words["g"]
    assert {v for v, _ in words["g"]} == set(names)


def test_missing_vertices_key():
    with pytest.raises(InputError):
        presentation_from_dict({"edges": []})


def test_bad_json_positioned(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(InputError, match=r"bad\.json:2"):
        load_presentation(path)


def test_fig2_counts(fixtures_dir):
    pres, _ = load_presentation(fixtures_dir / "fig2_raag.json")
    assert len(pres.graph.vertices) == 6
    assert len(pres.graph.edges) == 9


@settings(max_examples=300, deadline=None)
@given(json_documents())
def test_any_json_value_loads_or_raises_input_error(data):
    try:
        pres, words = presentation_from_dict(data)
    except InputError:
        return
    assert isinstance(pres, Presentation)
    assert isinstance(words, dict)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_any_bytes_load_or_raise_input_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        path.write_bytes(data)
        try:
            pres, words = load_presentation(path)
        except InputError:
            return
    assert isinstance(pres, Presentation)
    assert isinstance(words, dict)
