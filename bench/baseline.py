#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarize each metric.

For every workload it runs the benchmark once per seed with --trace 0, takes
each end-to-end metric's median, quartiles and spread (the distance between
the quartiles over the median, as ``statistics.quantiles(values, n=4)``
gives them), the same for the raw wall-clock figures beside the calibrated
ones, and runs once traced for the tracing overhead. With --write it stores
the summary and the run metadata in BASELINE.json, replacing the entries of
the workloads it ran. Seeds run from 1.

    python3 bench/baseline.py --seeds 10 --write
    python3 bench/baseline.py --workload long-words --seeds 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    result = run.run_workload(BENCH.parent, workload, seed, seconds, trace, workloads.FULL)
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {result['problems']}")
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--write", action="store_true", help="store the summary in BASELINE.json")
    args = ap.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    seeds = list(range(1, args.seeds + 1))
    run.pin_to_one_cpu()
    summary = {}
    for workload in names:
        runs = [run_once(workload, seed, spec["run_seconds"], False) for seed in seeds]
        metrics = {name: summarize([r["metrics"][name] for r in runs])
                   for name in runs[0]["metrics"]}
        raw = {name: summarize([r["raw"][name] for r in runs]) for name in runs[0]["raw"]}
        traced = run_once(workload, seeds[0], spec["run_seconds"], True)["metrics"]
        summary[workload] = {
            "why": workloads.WHY[workload],
            "metrics": metrics,
            "raw_metrics": raw,
            "speed_factors": [r["speed_factor"] for r in runs],
            # cli's traced run replays its argv list in-process (see run.py)
            "trace_runner": "cli-replay" if workload == "cli" else workload,
            "trace_overhead": {k: traced[f"trace.{k}"] for k in
                               ("items_per_s_untraced", "items_per_s_traced", "overhead_frac")},
        }
        for name, s in metrics.items():
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  <-- wide"
            raw_spread = f"{raw[name]['spread']:.4f}" if name in raw else "   -  "
            print(f"{workload:15s} {name:14s} median {s['median']:12.6g}  spread {s['spread']:.4f}"
                  f"  raw spread {raw_spread}  bound {bounds[name]}{flag}", flush=True)
        print(f"{workload:15s} tracing overhead {summary[workload]['trace_overhead']}", flush=True)
    if args.write:
        path = BENCH / "BASELINE.json"
        kept = json.loads(path.read_text())["workloads"] if path.exists() else {}
        baseline = {"machine": run.machine(), "seeds": seeds,
                    "hash_seeds": {str(s): run.hash_seeds(s) for s in seeds},
                    "run_seconds": spec["run_seconds"], "workloads": {**kept, **summary}}
        path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
