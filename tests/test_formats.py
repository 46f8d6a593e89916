import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal.errors import DegeneratePresentationError, InputError
from arboreal.formats import (
    load_presentation,
    presentation_from_dict,
    presentation_to_dict,
    save_presentation,
)
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
def test_fixture_round_trip(fixtures_dir, tmp_path, name):
    pres, words = load_presentation(fixtures_dir / name)
    out = tmp_path / name
    save_presentation(pres, out, words)
    pres2, words2 = load_presentation(out)
    assert pres2 == pres
    assert words2 == words


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


@pytest.mark.parametrize("end", [None, True, 1.5, 5, []], ids=repr)
def test_non_string_edge_endpoint_rejected(end):
    """A non-string endpoint is rejected, not matched to the vertex that its
    str() names."""
    with pytest.raises(InputError, match=r"edges\[1\]: endpoints must be JSON strings"):
        presentation_from_dict(
            {
                "vertices": [{"name": v, "order": 2} for v in ("a", "b", "None", "True")],
                "edges": [["a", "b"], [end, "a"]],
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


def test_serialization_is_deterministic(fixtures_dir):
    pres, words = load_presentation(fixtures_dir / "p4_racg.json")
    a = json.dumps(presentation_to_dict(pres, words), sort_keys=True)
    b = json.dumps(presentation_to_dict(pres, words), sort_keys=True)
    assert a == b


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
