"""Machine-speed calibration: a fixed pure-Python loop timed between items.

On a shared machine the same interpreted code can run at very different
speeds from one second to the next: on a shared 2-vCPU Intel Xeon virtual
machine, one audit took 0.145 s or 0.28 s depending on when it ran, with
process CPU time tracking wall time (the process was not descheduled; it ran
slower), in phases lasting from tens of milliseconds to minutes, and each
vCPU slowed down independently. Raw wall-clock figures then spread by 10-50%
between identical runs. BASELINE.json records, per workload and over ten
seeds, the spread of each raw figure next to the calibrated one
(``raw_metrics``) and each run's speed factor, calibrated over raw time.

So the benchmark's times are calibrated. A reference loop, which is part of
the benchmark and never changes, is timed before the first item and again
whenever ~0.05 s of items has run. Each item's wall-clock latency is scaled
by REFERENCE_NS over the mean of the two probes around it: a calibrated time
is the time the item would take on a machine where the reference loop takes
exactly REFERENCE_NS. The loop does the same kind of work as arboreal (tuples,
dict and set operations on small values), so a change in machine
speed moves both alike, while a change in arboreal moves only the items.
Raw wall-clock figures are printed next to the calibrated ones.

The ``cli`` workload's items are subprocesses, whose cost is mostly process
start-up: exec, loading the interpreter, reading files. The reference loop
tracks that badly, so there the probe is a bare ``python -c pass``
subprocess instead, with its own nominal time SPAWN_REFERENCE_NS.
"""

from __future__ import annotations

import subprocess
import sys
import time

REFERENCE_NS = 2_000_000  # nominal duration of one reference loop
SPAWN_REFERENCE_NS = 30_000_000  # nominal duration of a bare interpreter run
PROBE_EVERY_NS = 50_000_000  # item time between probes


def reference_loop() -> int:
    # int keys only: str hashes change with PYTHONHASHSEED, and with them
    # the dict's collisions and this loop's speed
    seen: dict = {}
    total = 0
    for i in range(3300):
        k = (i * 7919) % 1009
        key = (k % 12, k & 7)
        if key in seen:
            total += seen[key]
        else:
            seen[key] = len(seen)
        block = {k, k + 1, k + 2}
        total += len(block & {k + 1, 5})
    return total


def probe() -> float:
    """Duration of the reference loop in ns: the mean of two runs."""
    start = time.perf_counter_ns()
    reference_loop()
    reference_loop()
    return (time.perf_counter_ns() - start) / 2


def spawn_probe(env: dict) -> float:
    """Duration of a bare interpreter subprocess in ns."""
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, check=True)
    return time.perf_counter_ns() - start


def scale(raw_ns: float, before_ns: float, after_ns: float,
          reference_ns: int = REFERENCE_NS) -> float:
    return raw_ns * reference_ns / ((before_ns + after_ns) / 2)


class Calibrator:
    """Collects raw latencies and scales them, a segment at a time, by the
    probes taken at the segment's two ends."""

    def __init__(self, probe=probe, reference_ns: int = REFERENCE_NS):
        self.probe, self.reference_ns = probe, reference_ns
        self.previous = probe()
        self.pending: list[int] = []
        self.pending_ns = 0
        self.calibrated: list[float] = []

    def add(self, raw_ns: int) -> None:
        self.pending.append(raw_ns)
        self.pending_ns += raw_ns
        if self.pending_ns >= PROBE_EVERY_NS:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        current = self.probe()
        self.calibrated += [
            scale(ns, self.previous, current, self.reference_ns) for ns in self.pending
        ]
        self.previous, self.pending, self.pending_ns = current, [], 0
