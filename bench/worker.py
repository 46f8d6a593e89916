"""One fresh process of a workload: set-up only, or set-up then measurement.

Reads a JSON spec on stdin and writes one JSON result on stdout. ``run.py``
starts it; it is not meant to be run by hand.

Set-up time runs from before ``import arboreal`` to the first timed item:
the import, the presentations and splittings the items reuse, and a
warm-up call. Measurement runs a fixed number of passes over the batch, one
item at a time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import calibrate  # noqa: E402
from tracer import Tracer, check_span_tree  # noqa: E402

KEEP_SPANS = 20_000


def import_arboreal(root: str):
    """Import the package from the checkout's src/, and from nowhere else."""
    src = Path(root, "src").resolve()
    sys.path.insert(0, str(src))
    arboreal = importlib.import_module("arboreal")
    if src not in Path(arboreal.__file__).resolve().parents:
        raise SystemExit(f"arboreal was imported from {arboreal.__file__}, not {src}")
    return arboreal


class Modules:
    """The package's modules, looked up at call time so that the tracer's
    wrappers (installed after set-up) are the functions called."""

    def __init__(self, with_cli: bool = False):
        for layer in ("graphs", "words", "classify", "tree", "formats") + (
            ("cli",) if with_cli else ()
        ):
            setattr(self, layer, importlib.import_module(f"arboreal.{layer}"))


# --- runners: set-up, one item, its output text, its checks ------------------------


class Runner:
    def calibration(self):
        """The probe whose speed scales this runner's item times, and its
        nominal duration."""
        return calibrate.probe, calibrate.REFERENCE_NS

    def warm_up(self):
        pass

    def prepare(self, item):
        return None


class ClassifySweep(Runner):
    def __init__(self, root, context, expected):
        self.m = Modules()
        self.expected = expected

    def warm_up(self):
        self.run({"text": '{"vertices": [{"name": "a", "order": 2}, {"name": "b", "order": 2},'
                          ' {"name": "c", "order": "inf"}], "edges": [["a", "b"]]}'}, None)

    def run(self, item, _):
        pres, _ = self.m.formats.presentation_from_dict(json.loads(item["text"]))
        return json.dumps(self.m.classify.classify(pres).to_dict())

    def render(self, item, out):
        return out

    def check(self, item, _, out, text):
        return checks.check_classify(item, text, self.expected)


class LongWords(Runner):
    def __init__(self, root, context, expected):
        m = self.m = Modules()
        self.expected = expected
        self.pres, _ = m.formats.presentation_from_dict(context["product"])
        p4, _ = m.formats.presentation_from_dict(context["p4_raag"])
        self.splitting = m.classify.classify(p4).splitting
        self.x = m.tree.base_vertex(self.splitting)
        self.prepared = {}

    def warm_up(self):
        for op, word in (("canonical", [["a", 1], ["b", 1], ["a", 1]]),
                         ("tree_distance", [["a", 1], ["d", 1]])):
            item = {"id": f"warm-up-{op}", "op": op, "words": [word]}
            self.run(item, self.prepare(item))

    def prepare(self, item):
        """Input words as program words; input preparation, not timed."""
        key = item["id"]
        if key not in self.prepared:
            syllable = self.m.words.Syllable
            self.prepared[key] = [tuple(syllable(v, e) for v, e in w) for w in item["words"]]
        return self.prepared[key]

    def run(self, item, words):
        op, pres, tree = item["op"], self.pres, self.m.tree
        if op == "canonical":
            return pres.canonical(words[0])
        if op == "multiply":
            return pres.multiply(words[0], words[1])
        if op == "inverse":
            return pres.inverse(words[0])
        if op == "tree_distance":
            moved = tree.act(self.splitting, words[0], self.x)
            return tree.tree_distance(self.splitting, self.x, moved)
        return tree.element_action(self.splitting, words[0])

    def render(self, item, out):
        if item["op"] == "tree_distance":
            return str(out)
        if item["op"] == "element_action":
            return f"{out.kind}:{out.translation_length}"
        return self.m.words.format_word(out)

    def check(self, item, words, out, text):
        if item["op"] in ("tree_distance", "element_action"):
            return checks.check_tree_op(
                self.m.tree, self.splitting, item, out, words[0], text, self.expected
            )
        return checks.check_word_op(self.pres, item, out, words, text, self.expected)


class TreeAudit(Runner):
    def __init__(self, root, context, expected):
        m = self.m = Modules()
        self.splittings = {}
        for name, data in context["fixtures"].items():
            pres, _ = m.formats.presentation_from_dict(data)
            for pair in m.classify.separated_pairs(pres):
                self.splittings[(name, pair.a + pair.b)] = m.classify.build_splitting(pres, pair)

    def warm_up(self):
        splitting = next(iter(self.splittings.values()))
        self.m.tree.audit_acylindricity(splitting, k=3, tree_radius=2, element_radius=2)

    def run(self, item, _):
        tree_radius, element_radius = item["radii"]
        splitting = self.splittings[(item["fixture"], "".join(item["pair"]))]
        return self.m.tree.audit_acylindricity(
            splitting, k=3, tree_radius=tree_radius, element_radius=element_radius
        )

    def render(self, item, out):
        return json.dumps(out.to_dict(), sort_keys=True)

    def check(self, item, _, out, text):
        return checks.check_audit(item, json.loads(text))


class Cli(Runner):
    """``python -m arboreal.cli`` in a fresh interpreter per item."""

    def __init__(self, root, context, expected):
        self.root = root
        paths = [str(Path(root, "src"))] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def calibration(self):
        return partial(calibrate.spawn_probe, self.env), calibrate.SPAWN_REFERENCE_NS

    def run(self, item, _):
        proc = subprocess.run(
            [sys.executable, "-m", "arboreal.cli", *item["argv"]],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=60,
        )
        return proc.returncode, proc.stdout

    def render(self, item, out):
        code, stdout = out
        return f"{code}\n{stdout}{self.out_file(item)}"

    def out_file(self, item):
        argv = item["argv"]
        if "--out" not in argv:
            return ""
        return Path(self.root, argv[argv.index("--out") + 1]).read_text()

    def check(self, item, _, out, text):
        code, stdout = out
        return checks.check_cli(item, code, stdout, self.out_file(item) or None)


class CliReplay(Cli):
    """The same argv list through ``arboreal.cli.main`` in this process."""

    def __init__(self, root, context, expected):
        super().__init__(root, context, expected)
        self.m = Modules(with_cli=True)

    calibration = Runner.calibration

    def run(self, item, _):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.m.cli.main(list(item["argv"]))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue()


RUNNERS = {
    "classify-sweep": ClassifySweep,
    "long-words": LongWords,
    "tree-audit": TreeAudit,
    "cli": Cli,
    "cli-replay": CliReplay,
}


# --- measurement --------------------------------------------------------------------


def measure(runner, items, passes: int, check: bool, tracer: Tracer | None) -> dict:
    """Run the batch ``passes`` times, one item at a time.

    An item fails on an attempt that raises, that gives another text than
    the item's first attempt, or whose text the checks rejected (checked once
    per item, on its first text, when ``check`` is set)."""
    clock = time.perf_counter_ns
    latencies, problems = [], []
    first: dict[str, tuple[str, list[str]]] = {}  # id -> first output text, its verdict
    failed_by_id: dict[str, int] = {}
    mismatches = item_ns = 0
    calibrator = calibrate.Calibrator(*runner.calibration())
    if tracer:
        tracer.install()
    wall_start = clock()
    try:
        for _ in range(passes):
            for item in items:
                inputs = runner.prepare(item)
                start = clock()
                try:
                    out = runner.run(item, inputs)
                    error = None
                except Exception as exc:  # counted as a failed item, run goes on
                    error = f"{item['id']}: {type(exc).__name__}: {exc}"
                elapsed = clock() - start
                item_ns += elapsed
                latencies.append(elapsed)
                calibrator.add(elapsed)
                key = item["id"]
                if error is None:
                    if "exit" in item and out[0] != item["exit"]:
                        mismatches += 1
                    text = runner.render(item, out)
                    if key not in first:
                        first[key] = (text, runner.check(item, inputs, out, text) if check else [])
                    first_text, found = first[key]
                    if text != first_text:
                        found = ["output changed between passes"]
                    error = f"{key}: {'; '.join(found)}" if found else None
                if error is not None:
                    failed_by_id[key] = failed_by_id.get(key, 0) + 1
                    if len(problems) < 10:
                        problems.append(error)
    finally:
        wall_ns = clock() - wall_start
        if tracer:
            tracer.uninstall()
    calibrator.flush()
    result = {
        "latencies_ns": calibrator.calibrated,
        "raw_latencies_ns": latencies,
        "buckets": [item["bucket"] for item in items],
        "passes": passes,
        "item_ns": item_ns,
        "wall_ns": wall_ns,
        "attempted": len(latencies),
        "failed": sum(failed_by_id.values()),
        "failed_by_id": failed_by_id,
        "bad_ids": sorted(key for key, (_, found) in first.items() if found),
        "exit_mismatches": mismatches,
        "problems": problems,
        "digests": {key: checks.digest(text) for key, (text, _) in first.items()},
    }
    if tracer:
        stats = {name: dict(s) for name, s in tracer.stats.items()}
        result["trace"] = {
            "stats": stats,
            "span_problems": check_span_tree(
                tracer.spans, wall_ns, tracer.total_self_ns(), tracer.min_self_ns
            ),
        }
    return result


def peak_rss_mb(children: bool) -> float:
    """Peak resident memory in MiB, of this process or of its children.

    Linux carries a process's ru_maxrss across exec, so a child's also
    counts the resident memory its parent had when it started the child.
    This process's own peak is therefore read from VmHWM, which starts
    afresh at exec. The children's peak is their ru_maxrss: at least this
    worker's resident size when it started them."""
    if children:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spec = json.load(sys.stdin)
    runner_name = spec["runner"]
    before = calibrate.probe()
    start = time.perf_counter_ns()
    import_arboreal(spec["root"])
    import_ns = time.perf_counter_ns() - start
    runner = RUNNERS[runner_name](spec["root"], spec["context"], spec["expected"])
    runner.warm_up()
    setup_ns = time.perf_counter_ns() - start
    after = calibrate.probe()
    result = {"setup_s": calibrate.scale(setup_ns, before, after) / 1e9,
              "import_s": calibrate.scale(import_ns, before, after) / 1e9,
              "raw_setup_s": setup_ns / 1e9}
    if spec["role"] == "measure":
        tracer = Tracer(keep=KEEP_SPANS) if spec["traced"] else None
        result.update(measure(runner, spec["items"], spec["passes"], spec["check"], tracer))
        result["peak_rss_mb"] = peak_rss_mb(children=runner_name == "cli")
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
