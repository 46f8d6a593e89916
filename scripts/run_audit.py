#!/usr/bin/env python3
"""Run the empirical acylindricity audit for every separated pair of a
presentation, not just the first one the classifier picks. Unlike
``arboreal tree-audit``, it also audits the pair of a virtually cyclic product.

Example:

    python3 scripts/run_audit.py fixtures/p4_racg.json --tree-radius 4 --element-radius 5

The audit flags, their defaults and checks, and the exit codes are those of
``arboreal tree-audit``: 0 every audit clean, 1 a violation, 2 limits under
which nothing would be audited or an unreadable or malformed file, 3 a
degenerate presentation, 4 no separated pair, 5 a ball cap hit. Codes 2 to
5 print one ``error:`` line.
"""

import argparse
import json
import sys
import time

from arboreal import cli
from arboreal.classify import build_splitting, separated_pairs
from arboreal.formats import load_presentation
from arboreal.tree import audit_acylindricity


def audit_all(args):
    limits = cli.audit_limits(args)
    pres, _ = load_presentation(args.file)
    pairs = separated_pairs(pres)
    if not pairs:
        print("error: no separated pairs; nothing to audit", file=sys.stderr)
        return cli.EXIT_NO_SPLITTING

    all_ok = True
    for pair in pairs:
        splitting = build_splitting(pres, pair)
        started = time.perf_counter()
        report = audit_acylindricity(splitting, **limits)
        elapsed = time.perf_counter() - started
        status = "ok" if report.passed else "VIOLATION"
        print(
            f"pair ({pair.a}, {pair.b}): {status}  "
            f"max |stab| = {report.max_stabilizer_size} (bound {report.bound}), "
            f"{report.paths_checked} paths, {elapsed:.2f}s"
        )
        if not report.passed:
            all_ok = False
            print(json.dumps(report.to_dict(), indent=2))
    return cli.EXIT_OK if all_ok else cli.EXIT_VIOLATION


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", help="presentation JSON file")
    cli.add_audit_arguments(ap)
    return cli.run(audit_all, ap.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
