"""Presentation files: JSON serialization of graphs, orders and named words.

Format:

    {
      "vertices": [{"name": "a", "order": 2}, {"name": "b", "order": "inf"}],
      "edges": [["a", "b"]],
      "words": {"g": "a b^-1"}
    }
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import InputError
from .graphs import INFINITY, SimpleGraph
from .words import Presentation, Word, format_word, parse_word


def _parse_order(name: str, raw) -> int | float:
    if raw == "inf":
        return INFINITY
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    raise InputError(f"vertex {name!r}: order must be an integer or \"inf\", got {raw!r}")


def presentation_from_dict(data: dict) -> tuple[Presentation, dict[str, Word]]:
    """Build a presentation (and any named words) from parsed JSON."""
    if not isinstance(data, dict):
        raise InputError("presentation file must be a JSON object")
    if "vertices" not in data:
        raise InputError("missing \"vertices\" key")
    for key, kind, name in (("vertices", list, "array"), ("edges", list, "array"),
                            ("words", dict, "object")):
        if key in data and not isinstance(data[key], kind):
            raise InputError(f"\"{key}\" must be a JSON {name}, got {type(data[key]).__name__}")
    names, orders = [], {}
    for i, entry in enumerate(data["vertices"]):
        if not isinstance(entry, dict) or "name" not in entry or "order" not in entry:
            raise InputError(f"vertices[{i}]: expected {{\"name\", \"order\"}}")
        name = str(entry["name"])
        names.append(name)
        orders[name] = _parse_order(name, entry["order"])
    edges = []
    for i, pair in enumerate(data.get("edges", [])):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InputError(f"edges[{i}]: expected a two-element list")
        edges.append((str(pair[0]), str(pair[1])))
    graph = SimpleGraph(names, edges)
    pres = Presentation(graph, orders)
    words = {}
    for key, text in data.get("words", {}).items():
        if not isinstance(text, str):
            raise InputError(f"words[{key!r}]: expected a word string")
        words[str(key)] = pres.canonical(parse_word(pres, text))
    return pres, words


def presentation_to_dict(pres: Presentation, words: dict[str, Word] | None = None) -> dict:
    out = {
        "vertices": [
            {
                "name": v,
                "order": "inf" if pres.orders[v] == INFINITY else pres.orders[v],
            }
            for v in pres.graph.vertices
        ],
        "edges": sorted(
            (sorted(e, key=pres.graph.sort_key) for e in pres.graph.edges),
            key=lambda e: (pres.graph.index[e[0]], pres.graph.index[e[1]]),
        ),
    }
    if words:
        out["words"] = {k: format_word(w) for k, w in sorted(words.items())}
    return out


def load_presentation(path: str | Path) -> tuple[Presentation, dict[str, Word]]:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        return presentation_from_dict(data)
    except InputError as exc:
        # preserve the subtype so degeneracy keeps its own exit code
        raise type(exc)(f"{path}: {exc}") from exc


def save_presentation(
    pres: Presentation, path: str | Path, words: dict[str, Word] | None = None
) -> None:
    Path(path).write_text(
        json.dumps(presentation_to_dict(pres, words), indent=2, sort_keys=True) + "\n"
    )
