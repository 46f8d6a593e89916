"""Presentation files: loading graphs, orders and named words from JSON.

Format:

    {
      "vertices": [{"name": "a", "order": 2}, {"name": "b", "order": "inf"}],
      "edges": [["a", "b"]],
      "words": {"g": "a b^-1"}
    }
"""

import json
import os
import re

from .errors import InputError
from .graphs import INFINITY, SimpleGraph
from .words import Presentation, Word, parse_word

# Names that parse_word and format_word round-trip and that UTF-8 can
# write: not empty, not the identity "1", and free of whitespace, "^" and
# surrogates (which JSON can spell as escapes such as "\ud800").
_VERTEX_NAME = re.compile(r"(?!1\Z)[^\s^\ud800-\udfff]+")


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
        name, raw = entry["name"], entry["order"]
        if not isinstance(name, str):
            raise InputError(
                f"vertices[{i}]: name must be a JSON string, got {type(name).__name__}"
            )
        # a letter or digit is never whitespace, "^" or a surrogate
        if not (name.isalnum() and name != "1" or _VERTEX_NAME.fullmatch(name)):
            raise InputError(
                f"vertices[{i}]: name {name!r} cannot be written in a word; names must be "
                "non-empty, not \"1\", and contain no whitespace, \"^\" or surrogate"
            )
        names.append(name)
        orders[name] = raw if type(raw) is int else _parse_order(name, raw)
    edges = data.get("edges", [])
    for i, pair in enumerate(edges):
        # two isinstance calls: one with a tuple of types takes twice as long
        if not (isinstance(pair, list) or isinstance(pair, tuple)) or len(pair) != 2:
            raise InputError(f"edges[{i}]: expected a two-element list")
        if not isinstance(end := pair[0], str) or not isinstance(end := pair[1], str):
            raise InputError(
                f"edges[{i}]: endpoints must be JSON strings, got {type(end).__name__}"
            )
    pres = Presentation(SimpleGraph(names, edges), orders)
    words = {}
    for key, text in data.get("words", {}).items():
        try:
            parse_word(pres, str(key))
        except InputError:
            pass
        else:  # the CLI would read the name, not the word it parses as
            raise InputError(f"words[{key!r}]: name {key!r} is itself a word")
        try:
            if not isinstance(text, str):
                raise InputError("expected a word string")
            words[str(key)] = parse_word(pres, text)
        except InputError as exc:
            raise type(exc)(f"words[{key!r}]: {exc}") from exc
    return pres, words


def argv_text(arg: str | os.PathLike, errors: str) -> str:
    """``arg``'s bytes read as UTF-8 with the ``errors`` handler, whatever
    encoding the locale decoded ``sys.argv`` with."""
    try:
        return os.fsencode(arg).decode("utf-8", errors)
    except UnicodeEncodeError:  # a str the locale cannot encode: not from argv
        return str(arg)


def load_presentation(path: str | os.PathLike) -> tuple[Presentation, dict[str, Word]]:
    shown = argv_text(path, "backslashreplace")  # bytes that are not UTF-8 as escapes
    try:
        with open(path, "rb") as file:
            data = json.loads(file.read().decode("utf-8"))  # whatever the locale
    except OSError as exc:
        raise InputError(f"{shown}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{shown}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, nesting deeper than the decoder recurses,
        # or an integer longer than Python converts from a string
        raise InputError(f"{shown}: {exc}") from exc
    try:
        return presentation_from_dict(data)
    except InputError as exc:
        # preserve the subtype so degeneracy keeps its own exit code
        raise type(exc)(f"{shown}: {exc}") from exc
