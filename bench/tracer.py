"""Spans around arboreal's public functions, recorded from outside the package.

``Tracer.install`` replaces each public function of each arboreal module,
and each public ``Presentation`` method, by a wrapper that records a span:
its name, start, end and parent. A module attribute only catches calls made
through that module's globals, so a function is replaced in every arboreal
module that holds it (``classify.py`` imports ``edge_distance`` by name, so
``arboreal.classify.edge_distance`` is replaced as well as
``arboreal.graphs.edge_distance``). ``uninstall`` puts the originals back.

Spans are aggregated as they close, per name: calls, self time (duration
minus the time covered by child spans) and cumulative time (outermost
spans only). Times are integer nanoseconds, so self times are exact. The
first ``keep`` spans are also kept whole, for checking the tree's shape.

Some counters are taken where the work happens, as the change in another
function's call count across a call: the pairs a separated-pair scan
examines are the ``edge_distance`` calls made inside it, so a scan that
skips pairs, or finds distances without a per-pair search, scans fewer.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("graphs", "words", "classify", "tree", "formats", "cli")

# Per-syllable and trivial helpers: a span costs more than their body, so
# wrapping them would mostly measure the tracer.
SKIP = {
    "words.normalize_exponent",
    "words.syllable",
    "words.identity",
    "words.order_is_finite",
    "tree.other_side",
    "tree.side_set",
}


class Tracer:
    def __init__(self, keep: int = 0):
        self.stats: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.spans: list[tuple[int, int, str, int, int]] = []  # id, parent, name, start, end
        self.keep = keep
        self._stack: list[list] = []  # [span id, name, start, child ns]
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []
        self.min_self_ns = 0

    # --- counters measured where the work happens ---------------------------

    def _enter(self, name: str):
        if name in ("words.enumerate_ball_info", "tree.coset_canonical"):
            return self.stats["words.canonical"]["calls"]
        if name == "tree.neighbors":
            return self.stats["words.enumerate_ball_info"]["elements"]
        if name == "classify.separated_pairs":
            return self.stats["graphs.edge_distance"]["calls"]
        return None

    def _exit(self, name: str, args, result, before) -> None:
        s = self.stats[name]
        if name == "words.canonical":
            s["syllables_in"] += len(args[1])
            s["syllables_out"] += len(result)
        elif name == "words.enumerate_ball_info":
            s["elements"] += len(result[0])
            s["canonical_calls"] += self.stats["words.canonical"]["calls"] - before
        elif name == "tree.coset_canonical":
            s["canonical_calls"] += self.stats["words.canonical"]["calls"] - before
        elif name == "classify.separated_pairs":
            s["pairs_scanned"] += self.stats["graphs.edge_distance"]["calls"] - before
            s["found"] += len(result)
        elif name == "tree.neighbors":
            s["edges"] += len(result[0])
            s["reps"] += self.stats["words.enumerate_ball_info"]["elements"] - before
        elif name == "tree.tree_ball":
            s["vertices"] += len(result.vertices)
            s["truncated"] += bool(result.truncated)
        elif name == "tree.audit_acylindricity":
            s["paths_checked"] += result.paths_checked
            s["exhaustive"] += bool(result.exhaustive_elements)

    # --- spans -------------------------------------------------------------------

    def wrap(self, name: str, fn):
        stack, active, stats, clock = self._stack, self._active, self.stats, time.perf_counter_ns

        def traced(*args, **kwargs):
            before = self._enter(name)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            active[name] += 1
            frame = [span_id, name, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                duration = end - frame[2]
                if stack:
                    stack[-1][3] += duration
                self_ns = duration - frame[3]
                s = stats[name]
                s["calls"] += 1
                s["self_ns"] += self_ns
                if not active[name]:
                    s["cum_ns"] += duration
                self.min_self_ns = min(self.min_self_ns, self_ns)
                if len(self.spans) < self.keep:
                    self.spans.append((span_id, parent, name, frame[2], end))
            self._exit(name, args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of the loaded arboreal modules."""
        modules = {layer: sys.modules.get(f"arboreal.{layer}") for layer in LAYERS}
        namespaces = [sys.modules["arboreal"]] + [m for m in modules.values() if m]
        wrappers = {}
        for layer, module in modules.items():
            if module is None:
                continue
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and f"{layer}.{attr}" not in SKIP):
                    wrappers[fn] = self.wrap(f"{layer}.{attr}", fn)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((namespace, attr, value))
                    setattr(namespace, attr, wrappers[value])
        presentation = modules["words"].Presentation
        for attr, fn in list(vars(presentation).items()):
            name = f"words.{attr}"
            if inspect.isfunction(fn) and not attr.startswith("_") and name not in SKIP:
                self._restore.append((presentation, attr, fn))
                setattr(presentation, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._restore):
            setattr(namespace, attr, value)
        self._restore.clear()

    def total_self_ns(self) -> int:
        return sum(s["self_ns"] for s in self.stats.values())


def check_span_tree(spans, wall_ns: int, total_self_ns: int, min_self_ns: int) -> list[str]:
    """Problems with the recorded spans: children inside their parents, self
    times non-negative, self times summing to no more than wall time."""
    problems = []
    by_id = {s[0]: s for s in spans}
    child_ns = defaultdict(int)
    for span_id, parent, name, start, end in spans:
        if end < start:
            problems.append(f"span {span_id} ({name}) ends before it starts")
        if parent and parent in by_id:
            p = by_id[parent]
            if start < p[3] or end > p[4]:
                problems.append(f"span {span_id} ({name}) is outside its parent {p[2]}")
            child_ns[parent] += end - start
    # a span is kept after its children (they close first), so every kept
    # span has all its children kept
    for span_id, parent, name, start, end in spans:
        if end - start - child_ns[span_id] < 0:
            problems.append(f"span {span_id} ({name}) has negative self time")
    if min_self_ns < 0:
        problems.append(f"negative self time {min_self_ns} ns")
    if total_self_ns > wall_ns:
        problems.append(f"self times sum to {total_self_ns} ns > wall {wall_ns} ns")
    return problems
