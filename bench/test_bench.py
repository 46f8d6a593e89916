"""The benchmark's own tests: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, check_span_tree  # noqa: E402

worker.import_arboreal(str(ROOT))


def tiny(workload: str, seed: int = 3) -> dict:
    return workloads.generate(workload, seed, workloads.TINY, "bench/.work/test")


def expected(workload: str) -> dict:
    return json.loads((BENCH / "expected.json").read_text()).get(workload, {})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_every_check(workload):
    result = run.run_workload(ROOT, workload, seed=5, seconds=0, trace=False,
                              size=workloads.TINY)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {name for name, _, _ in run.END_TO_END}
    assert all(v > 0 for v in result["metrics"].values())


def test_tiny_traced_run_reports_every_per_layer_metric():
    result = run.run_workload(ROOT, "tree-audit", seed=5, seconds=0, trace=True,
                              size=workloads.TINY)
    assert result["correct"], result["problems"]
    assert list(result["metrics"]) == [name for name, _, _ in run.PER_LAYER]
    assert result["metrics"]["tree.audit_acylindricity.paths_checked"] > 0
    assert result["metrics"]["words.canonical.calls"] > 0


def test_inputs_depend_only_on_the_seed():
    for workload in ("long-words", "cli"):
        assert tiny(workload, 7) == tiny(workload, 7)
        assert tiny(workload, 7) != tiny(workload, 8)


def test_every_run_has_at_least_100_items():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in workloads.WORKLOADS:
        batch = workloads.generate(workload, 1, workloads.FULL, "bench/.work/test")
        processes = run.process_count(workload, seconds, workloads.FULL, trace=False)
        per_process = len(batch["items"]) * workloads.passes(
            workload, seconds / processes, workloads.FULL)
        assert processes * per_process >= 100, workload


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


# --- wrong outputs are counted as failed ------------------------------------------------


def test_wrong_verdicts_fail_the_classify_checks():
    runner = worker.ClassifySweep(str(ROOT), {}, expected("classify-sweep"))
    items = tiny("classify-sweep")["items"]
    kinds = set()
    for item in items:
        text = runner.run(item, None)
        assert checks.check_classify(item, text, runner.expected) == []
        out = json.loads(text)
        kinds.add(out["certificate"]["kind"])
        wrong = dict(out, diameter=7)
        assert checks.check_classify(item, json.dumps(wrong), {})
        cert = out["certificate"]
        if cert["kind"] == "SeparatedPair":
            bad = dict(out, certificate=dict(cert, link_order=cert["link_order"] + 1))
            assert checks.check_classify(item, json.dumps(bad), {})
        if cert["kind"] == "NoSeparatedPair":
            bad = dict(out, certificate=dict(cert, checked_pair_count=cert[
                "checked_pair_count"] + 1))
            assert checks.check_classify(item, json.dumps(bad), {})
    assert "SeparatedPair" in kinds
    atlas = next(i for i in items if i["bucket"] == "atlas")
    other = next(i for i in items if i["bucket"] == "atlas" and runner.run(i, None) != runner.run(
        atlas, None))
    assert checks.check_classify(atlas, runner.run(other, None), runner.expected)


def _long_words_runner():
    batch = tiny("long-words")
    return worker.LongWords(str(ROOT), batch["context"], expected("long-words")), batch["items"]


def test_non_canonical_word_fails_the_word_checks():
    runner, items = _long_words_runner()
    adjacency = runner.pres.graph.adjacency
    flagged = 0
    for item in (i for i in items if i["op"] in workloads.WORD_OPS):
        words = runner.prepare(item)
        out = runner.run(item, words)
        text = runner.render(item, out)
        assert checks.check_word_op(runner.pres, item, out, words, text, runner.expected) == []
        swap = next((i for i in range(len(out) - 1)
                     if out[i + 1].vertex in adjacency[out[i].vertex]), None)
        if swap is None:
            continue
        wrong = out[:swap] + (out[swap + 1], out[swap]) + out[swap + 2:]
        assert runner.pres.multiply(wrong) == out  # same element, not canonical
        assert checks.check_word_op(runner.pres, item, wrong, words, text, {})
        flagged += 1
    assert flagged


def test_off_by_one_distance_is_counted_as_failed():
    runner, items = _long_words_runner()
    tree_items = [i for i in items if i["op"] == "tree_distance"]

    class OffByOne(worker.LongWords):
        def run(self, item, words):
            out = super().run(item, words)
            return out + 1 if item["op"] == "tree_distance" else out

    wrong = OffByOne(str(ROOT), tiny("long-words")["context"], expected("long-words"))
    result = worker.measure(wrong, tree_items, passes=1, check=True, tracer=None)
    assert result["failed"] == len(tree_items)
    result = worker.measure(runner, tree_items, passes=1, check=True, tracer=None)
    assert result["failed"] == 0


def test_every_attempt_of_a_wrong_output_is_counted_as_failed():
    batch = tiny("long-words")

    class NonCanonical(worker.LongWords):
        def run(self, item, words):
            out = super().run(item, words)
            return out + out[:1] if item["op"] in workloads.WORD_OPS else out + 1

    wrong = NonCanonical(str(ROOT), batch["context"], expected("long-words"))
    items = [i for i in batch["items"] if i["op"] != "element_action"]
    a = worker.measure(wrong, items, passes=2, check=True, tracer=None)
    b = worker.measure(wrong, items, passes=2, check=False, tracer=None)
    assert a["failed"] == a["attempted"] == 2 * len(items)
    assert b["failed"] == 0  # b is not checked; it takes a's verdicts
    assert run.count_failed(a, [b, b]) == a["attempted"] + 2 * b["attempted"]
    good = worker.measure(_long_words_runner()[0], items, passes=2, check=True, tracer=None)
    assert run.count_failed(good, [good]) == 0
    changed = dict(good, digests=dict(good["digests"], **{items[0]["id"]: "other"}))
    assert run.count_failed(good, [good, changed]) == 2


def test_vacuous_audit_and_wrong_exit_code_fail():
    item = {"pair": ["a", "c"]}
    report = {"splitting": {"pair": ["a", "c"]}, "paths_checked": 4, "violations": [],
              "max_stabilizer_size": 2, "bound": 2}
    assert checks.check_audit(item, report) == []
    assert checks.check_audit(item, dict(report, paths_checked=0))
    assert checks.check_audit(item, dict(report, max_stabilizer_size=3))
    cli_item = {"argv": ["classify", "x.json", "--json"], "exit": 0}
    assert checks.check_cli(cli_item, 0, "{}", None) == []
    assert checks.check_cli(cli_item, 2, "", None)
    assert checks.check_cli(cli_item, 0, "not json", None)


# --- tracing ----------------------------------------------------------------------------


def test_traced_span_tree_is_well_formed():
    batch = tiny("tree-audit")
    runner = worker.TreeAudit(str(ROOT), batch["context"], {})
    tracer = Tracer(keep=1_000_000)
    result = worker.measure(runner, batch["items"], passes=1, check=False,
                            tracer=tracer)
    assert result["trace"]["span_problems"] == []
    assert tracer.spans and tracer.min_self_ns >= 0
    assert 0 < tracer.total_self_ns() <= result["wall_ns"]
    names = {name for _, _, name, _, _ in tracer.spans}
    assert {"tree.audit_acylindricity", "words.canonical", "tree.tree_ball"} <= names
    # uninstall puts the original functions back
    import arboreal.tree
    assert not hasattr(arboreal.tree.audit_acylindricity, "__wrapped__")
    assert not hasattr(arboreal.words.Presentation.canonical, "__wrapped__")


def test_span_tree_check_detects_malformed_trees():
    ok = [(2, 1, "child", 10, 20), (1, 0, "parent", 5, 30)]
    assert check_span_tree(ok, wall_ns=25, total_self_ns=25, min_self_ns=0) == []
    outside = [(2, 1, "child", 10, 40), (1, 0, "parent", 5, 30)]
    assert check_span_tree(outside, wall_ns=100, total_self_ns=25, min_self_ns=0)
    assert check_span_tree(ok, wall_ns=20, total_self_ns=25, min_self_ns=0)
    assert check_span_tree(ok, wall_ns=25, total_self_ns=25, min_self_ns=-1)


def test_calls_through_imported_names_are_traced():
    from arboreal.formats import presentation_from_dict

    pres, _ = presentation_from_dict(workloads.FIXTURES["p4_racg"])
    tracer = Tracer()
    tracer.install()
    try:
        sys.modules["arboreal.classify"].classify(pres)
    finally:
        tracer.uninstall()
    assert tracer.stats["graphs.edge_distance"]["calls"] == 6  # via classify's own global
    assert tracer.stats["classify.separated_pairs"]["pairs_scanned"] == 6


def test_pairs_scanned_counts_the_distances_the_scan_computes():
    from arboreal.formats import presentation_from_dict

    pres, _ = presentation_from_dict(workloads.FIXTURES["p4_racg"])
    tracer = Tracer()
    distance = tracer.wrap("graphs.edge_distance", lambda graph, u, v: 2)

    def scan_one_pair(pres):
        distance(pres.graph, "a", "c")
        return []

    tracer.wrap("classify.separated_pairs", scan_one_pair)(pres)
    assert tracer.stats["classify.separated_pairs"]["pairs_scanned"] == 1


# --- the contract: no program, no result --------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
