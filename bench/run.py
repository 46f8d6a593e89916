#!/usr/bin/env python3
"""arboreal benchmark: seeded workloads driven through the public API.

    python3 bench/run.py --workload all                 # every workload, end-to-end metrics
    python3 bench/run.py --workload all --trace 1       # per-layer metrics, tracing overhead
    python3 bench/run.py --workload tree-audit --seed 3 --seconds 10 --trace 0

Run from the root of a checkout; arboreal is imported from its src/.

One caller in a closed loop: each workload runs one item at a time in one
thread (``cli``: one subprocess at a time), in two to four fresh measuring
processes with different PYTHONHASHSEED values. Each runs whole passes over
the same fixed batch, as many as fill its share of --seconds on the machine
the benchmark was sized on, so the work done depends on --seconds only. Their
outputs must agree item by item (outputs are deterministic). Five more fresh
processes only set up, so that set-up time is a median. The first measuring
process checks every distinct output; each item of the others takes the
first's verdict on that item, or fails if its output differs. ``failed`` over
``attempted`` is thus the share of all attempts that failed.

Times are calibrated against a fixed reference loop timed between items,
and every process runs on one CPU (see calibrate.py and pin_to_one_cpu):
on a shared machine raw wall-clock times of identical runs differ by 10-50%.
A calibrated second is a second of a machine on which the reference loop
takes its nominal time, so items_per_s counts items per calibrated second.
The report prints the raw wall-clock figures next to the calibrated ones;
baseline.py records the spreads of both over ten seeds in BASELINE.json.

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1 two measuring processes run, the second with every
public function of arboreal wrapped in a span (see tracer.py), and the JSON
object carries the per-layer metrics. Per-layer counts and times are per pass over the
workload's batch; layers that a workload does not call read 0. For ``cli``
both processes of a traced run replay the argv list in-process through
``arboreal.cli.main``, so its tracing overhead is the replay's. There is no
per-layer wait time: one thread, no queue, no lock, so nothing waits. Lines
before the JSON object are a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import AUDITS, SWEEP_SIZES, TREE_LENGTHS, WORD_LENGTHS, audit_label  # noqa: E402

# Each measuring process has its own PYTHONHASHSEED. Set iteration order,
# and with it how soon a breadth-first search meets its target, moves with
# the hash seed, so classify's speed does too; four processes average that.
MEASURE_PROCESSES = 4
SETUP_PROCESSES = 5
CHILD_TIMEOUT_S = 150

# name, unit, better
END_TO_END = [
    ("items_per_s", "1/s", "higher"),
    ("item_p50_ms", "ms", "lower"),
    ("item_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]


def _per_layer_specs():
    specs = [
        ("graphs.edge_distance.calls", "count", "lower"),
        ("graphs.edge_distance.self_s", "s", "lower"),
        ("graphs.edge_distance.cum_share", "ratio", "lower"),
        ("graphs.diameter.self_s", "s", "lower"),
        ("graphs.is_irreducible.self_s", "s", "lower"),
        ("graphs.link.calls", "count", "lower"),
        ("graphs.link.self_s", "s", "lower"),
        ("classify.classify.self_s", "s", "lower"),
        ("classify.separated_pairs.self_s", "s", "lower"),
        ("classify.separated_pairs.pairs_scanned", "count", "lower"),
        ("classify.separated_pairs.found_per_scanned", "ratio", "higher"),
        ("classify.is_virtually_cyclic.self_s", "s", "lower"),
    ]
    specs += [(f"classify.classify.p50_ms.{b}", "ms", "lower")
              for b in ["atlas"] + [f"n{n}" for n in SWEEP_SIZES]]
    specs += [
        ("words.canonical.calls", "count", "lower"),
        ("words.canonical.self_s", "s", "lower"),
        ("words.canonical.syllables_in", "count", "lower"),
        ("words.canonical.out_per_in", "ratio", "higher"),
        ("words.canonical.cum_share", "ratio", "lower"),
        ("words.reduce.self_s", "s", "lower"),
        ("words.multiply.calls", "count", "lower"),
        ("words.last_vertices.self_s", "s", "lower"),
        ("words.enumerate_ball_info.self_s", "s", "lower"),
        ("words.enumerate_ball_info.canonical_calls", "count", "lower"),
        ("words.enumerate_ball_info.new_per_canonical", "ratio", "higher"),
        ("words.enumerate_ball_info.elements", "count", "lower"),
    ]
    specs += [(f"words.canonical.p50_ms.L{n}", "ms", "lower") for n in WORD_LENGTHS]
    specs += [
        ("tree.coset_canonical.calls", "count", "lower"),
        ("tree.coset_canonical.self_s", "s", "lower"),
        ("tree.coset_canonical.canonical_per_call", "ratio", "lower"),
        ("tree.tree_distance.self_s", "s", "lower"),
        ("tree.element_action.self_s", "s", "lower"),
    ]
    specs += [(f"tree.tree_distance.p50_ms.L{n}", "ms", "lower") for n in TREE_LENGTHS]
    specs += [
        ("tree.tree_ball.self_s", "s", "lower"),
        ("tree.tree_ball.vertices", "count", "higher"),
        ("tree.tree_ball.truncated_frac", "ratio", "lower"),
        ("tree.neighbors.calls", "count", "lower"),
        ("tree.neighbors.self_s", "s", "lower"),
        ("tree.neighbors.edges_per_rep", "ratio", "higher"),
        ("tree.path_pointwise_stabilizer_bounded.calls", "count", "lower"),
        ("tree.path_pointwise_stabilizer_bounded.self_s", "s", "lower"),
        ("tree.audit_acylindricity.paths_checked", "count", "higher"),
        ("tree.audit_acylindricity.exhaustive_frac", "ratio", "higher"),
    ]
    specs += [(f"tree.audit_acylindricity.p50_ms.{audit_label(*a)}", "ms", "lower")
              for a in AUDITS]
    specs += [
        ("formats.presentation_from_dict.self_s", "s", "lower"),
        ("formats.load_presentation.self_s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.exit_code_mismatch", "count", "lower"),
        ("trace.items_per_s_untraced", "1/s", "higher"),
        ("trace.items_per_s_traced", "1/s", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return specs


PER_LAYER = _per_layer_specs()
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


# --- processes ------------------------------------------------------------------------


def run_child(root: Path, spec: dict, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")], input=json.dumps(spec), cwd=root,
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({spec['role']}) exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def quantile(values, q: float) -> float:
    """The q-quantile by statistics.quantiles' default (exclusive) method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def bucket_medians(runs: list[dict]) -> dict[str, float]:
    by_bucket: dict[str, list[float]] = {}
    for r in runs:
        buckets = r["buckets"]
        for i, ns in enumerate(r["latencies_ns"]):
            by_bucket.setdefault(buckets[i % len(buckets)], []).append(ns / 1e6)
    return {b: statistics.median(v) for b, v in sorted(by_bucket.items())}


def latency_metrics(runs: list[dict], key: str = "latencies_ns") -> dict[str, float]:
    latencies = [ns / 1e6 for r in runs for ns in r[key]]
    return {
        "items_per_s": len(latencies) / (sum(latencies) / 1e3),
        "item_p50_ms": statistics.median(latencies),
        "item_p90_ms": quantile(latencies, 0.9),
    }


def end_to_end(runs: list[dict], setup: list[float]) -> dict[str, float]:
    """peak_rss_mb is the median over the measuring processes of each one's
    peak: when the garbage collector runs, and so each peak, moves with the
    order of the items."""
    return dict(latency_metrics(runs), setup_s=statistics.median(setup),
                peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in runs))


def speed_factor(r: dict) -> float:
    """Calibrated over raw time: > 1 when the machine ran fast."""
    return sum(r["latencies_ns"]) / sum(r["raw_latencies_ns"])


def per_layer(a: dict, b: dict, import_s: list[float]) -> dict[str, float]:
    """Per-layer metrics: counts and self times from the traced process b,
    per-bucket medians from the untraced process a."""
    stats, passes = b["trace"]["stats"], b["passes"]
    factor = speed_factor(b)  # self times are calibrated like item times

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def ratio(x, y):
        return x / y if y else 0.0

    out = {}
    for name, unit, _ in PER_LAYER:
        fn, _, measure = name.rpartition(".")
        if measure == "calls":
            out[name] = get(fn, "calls") / passes
        elif measure == "self_s":
            out[name] = get(fn, "self_ns") * factor / 1e9 / passes
        elif measure == "cum_share":
            out[name] = ratio(get(fn, "cum_ns"), b["item_ns"])
        elif measure in ("syllables_in", "pairs_scanned", "canonical_calls", "elements",
                         "vertices", "paths_checked"):
            out[name] = get(fn, measure) / passes
    calls = lambda fn: get(fn, "calls")  # noqa: E731
    out.update({
        "classify.separated_pairs.found_per_scanned": ratio(
            get("classify.separated_pairs", "found"),
            get("classify.separated_pairs", "pairs_scanned")),
        "words.canonical.out_per_in": ratio(
            get("words.canonical", "syllables_out"), get("words.canonical", "syllables_in")),
        "words.enumerate_ball_info.new_per_canonical": ratio(
            get("words.enumerate_ball_info", "elements"),
            get("words.enumerate_ball_info", "canonical_calls")),
        "tree.coset_canonical.canonical_per_call": ratio(
            get("tree.coset_canonical", "canonical_calls"), calls("tree.coset_canonical")),
        "tree.tree_ball.truncated_frac": ratio(
            get("tree.tree_ball", "truncated"), calls("tree.tree_ball")),
        "tree.neighbors.edges_per_rep": ratio(
            get("tree.neighbors", "edges"), get("tree.neighbors", "reps")),
        "tree.audit_acylindricity.exhaustive_frac": ratio(
            get("tree.audit_acylindricity", "exhaustive"), calls("tree.audit_acylindricity")),
        "cli.import_s": statistics.median(import_s),
        "cli.exit_code_mismatch": float(a["exit_mismatches"] + b["exit_mismatches"]),
        "trace.items_per_s_untraced": latency_metrics([a])["items_per_s"],
        "trace.items_per_s_traced": latency_metrics([b])["items_per_s"],
    })
    out["trace.overhead_frac"] = 1 - out["trace.items_per_s_traced"] / out[
        "trace.items_per_s_untraced"]
    medians = bucket_medians([a])
    for bucket, ms in medians.items():
        op, _, size = bucket.partition(".")
        if bucket == "atlas" or bucket.startswith("n") and bucket[1:].isdigit():
            out[f"classify.classify.p50_ms.{bucket}"] = ms
        elif op in ("canonical", "tree_distance"):
            out[f"{'words' if op == 'canonical' else 'tree'}.{op}.p50_ms.{size}"] = ms
        elif op in {a_[0] for a_ in AUDITS}:
            out[f"tree.audit_acylindricity.p50_ms.{bucket}"] = ms
    return {name: out.get(name, 0.0) for name, _, _ in PER_LAYER}


def hash_seeds(seed: int) -> list[int]:
    """PYTHONHASHSEED of each measuring process, then of each set-up process."""
    count = MEASURE_PROCESSES + SETUP_PROCESSES
    return [(count * seed + i) % 2**32 for i in range(count)]


def process_count(workload: str, seconds: float, size: str, trace: bool) -> int:
    """Measuring processes of a run: as many as whole passes over the batch
    fit in --seconds, from 2 to MEASURE_PROCESSES, so that each process runs
    at least one pass. A traced run has one untraced and one traced process."""
    if trace:
        return 2
    return min(MEASURE_PROCESSES, max(2, workloads.passes(workload, seconds, size)))


def differing(a: dict, r: dict) -> list[str]:
    """Items whose outputs differ between processes a and r."""
    return sorted(k for k in a["digests"].keys() | r["digests"].keys()
                  if a["digests"].get(k) != r["digests"].get(k))


def count_failed(a: dict, others: list[dict]) -> int:
    """Failed attempts over all measuring processes. Only a is checked: an
    item of another process whose output matches a's takes a's verdict on
    every pass, and one whose output differs from a's fails on every pass."""
    failed = a["failed"]
    for r in others:
        failed_r = dict(r["failed_by_id"])
        failed_r.update(dict.fromkeys(set(a["bad_ids"]) | set(differing(a, r)), r["passes"]))
        failed += sum(failed_r.values())
    return failed


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    workdir = BENCH / ".work" / f"run-{os.getpid()}-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        batch = workloads.generate(workload, seed, size, str(workdir.relative_to(root)))
        if workload == "cli":
            workloads.write_cli_files(workdir)
        expected = json.loads((BENCH / "expected.json").read_text()).get(workload, {})
        runner = "cli-replay" if workload == "cli" and trace else workload
        spec = {"root": str(root), "runner": runner, "context": batch["context"],
                "expected": expected}
        hashes = hash_seeds(seed)
        setups = [run_child(root, dict(spec, role="setup"), h)
                  for h in hashes[MEASURE_PROCESSES:]]
        measuring = hashes[:process_count(workload, seconds, size, trace)]
        measure = dict(spec, role="measure", items=batch["items"],
                       passes=workloads.passes(workload, seconds / len(measuring), size))
        runs = [run_child(root, dict(measure, traced=trace and i > 0, check=i == 0), h)
                for i, h in enumerate(measuring)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    a, others = runs[0], runs[1:]
    problems = [p for r in runs for p in r["problems"]]
    for h, r in zip(measuring[1:], others):
        problems += [f"{k}: output differs between PYTHONHASHSEED={measuring[0]} and {h}"
                     for k in differing(a, r)[:10]]
    if trace:
        problems += others[0]["trace"]["span_problems"]
    failed = count_failed(a, others)
    setup = [r["setup_s"] for r in setups + runs]
    raw = dict(latency_metrics(runs, "raw_latencies_ns"),
               setup_s=statistics.median(r["raw_setup_s"] for r in setups + runs))
    return {
        "workload": workload,
        "seed": seed,
        "hash_seeds": measuring,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems,
        "digest": checks.digest(json.dumps(sorted(a["digests"].items()))),
        "passes": [r["passes"] for r in runs],
        "raw": raw,
        "speed_factor": [speed_factor(r) for r in runs],
        "buckets": bucket_medians([a] if trace else runs),
        "metrics": per_layer(a, others[0], [r["import_s"] for r in setups])
        if trace else end_to_end(runs, setup),
    }


# --- report ---------------------------------------------------------------------------


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (BENCH.parent / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH.parent,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"commit": commit, "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


def report(result: dict, trace: bool) -> None:
    w = result["workload"]
    print(f"== {w}  seed {result['seed']}  PYTHONHASHSEED {result['hash_seeds']}"
          f"  passes {result['passes']}  digest {result['digest']}")
    print(f"   why: {workloads.WHY[w]}")
    for name, value in result["metrics"].items():
        if not trace or value:
            print(f"   {name:58s} {value:14.6g} {UNITS[name]}")
    print("   raw wall clock: " + "  ".join(f"{k} {v:.6g}" for k, v in result["raw"].items())
          + "  speed factor " + " ".join(f"{f:.3f}" for f in result["speed_factor"]))
    print(f"   {'failed_frac':58s} {result['failed'] / result['attempted']:14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} items)")
    if not trace:
        print(f"   item_p50_ms and item_p90_ms are over {result['attempted']} samples")
    elif w == "cli":
        print("   tracing overhead of cli is measured on the in-process replay of its argv"
              " list through arboreal.cli.main, not on subprocesses")
    print("   per-bucket median item latency (ms):")
    for bucket, ms in result["buckets"].items():
        print(f"     {bucket:40s} {ms:12.4f}")
    for problem in result["problems"]:
        print(f"   PROBLEM {problem}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_to_one_cpu() -> str:
    """Keep this process and every process it starts on one CPU.

    The two CPUs of a shared machine slow down independently; a process
    that migrates between them changes speed, and a subprocess may run on
    the other CPU than the calibration probes. One CPU is enough for one
    caller in a closed loop.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return "unpinned"
    return str(cpu)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = BENCH.parent
    if not (root / "src" / "arboreal" / "__init__.py").is_file():
        print(f"error: no arboreal package under {root / 'src'}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    info = machine()
    print(f"arboreal benchmark  commit {info['commit']}  python {info['python']}  "
          f"nproc {info['nproc']}  cpu {info['cpu']}  pinned to cpu {cpu}")
    results = []
    for name in names:
        result = run_workload(root, name, args.seed, args.seconds, trace, workloads.FULL)
        report(result, trace)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": UNITS[k.split(".", 1)[1] if len(results) > 1 else k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
