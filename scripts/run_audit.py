#!/usr/bin/env python3
"""Run the empirical acylindricity audit for every separated pair of a
presentation, not just the first one the classifier picks.

Example:

    python3 scripts/run_audit.py fixtures/p4_racg.json --tree-radius 5 --element-radius 6

Exit codes are those of ``arboreal tree-audit``: 0 every audit clean, 1 a
violation, 2 limits under which nothing would be audited (any below 1, or
--k above twice --tree-radius) or an unreadable or malformed file, 3 a
degenerate presentation, 4 no separated pair to audit, 5 a ball cap hit.
Codes 2 to 5 print an ``error:`` line.
"""

import argparse
import json
import sys
import time

from arboreal.classify import build_splitting, separated_pairs
from arboreal.cli import (
    AUDIT_FLAGS,
    EXIT_DEGENERATE,
    EXIT_NO_SPLITTING,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_VIOLATION,
)
from arboreal.errors import DegeneratePresentationError, InputError, ResourceCapError
from arboreal.formats import load_presentation
from arboreal.tree import audit_acylindricity, check_audit_limits
from arboreal.words import DEFAULT_BALL_CAP


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", help="presentation JSON file")
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--tree-radius", type=int, default=4)
    ap.add_argument("--element-radius", type=int, default=5)
    ap.add_argument("--local-radius", type=int, default=2)
    ap.add_argument("--ball-cap", type=int, default=DEFAULT_BALL_CAP)
    return ap.parse_args(argv)


def audit_all(args):
    check_audit_limits(
        args.k, args.tree_radius, args.element_radius, args.local_radius, args.ball_cap,
        names=AUDIT_FLAGS,
    )
    pres, _ = load_presentation(args.file)
    pairs = separated_pairs(pres)
    if not pairs:
        print("error: no separated pairs; nothing to audit", file=sys.stderr)
        return EXIT_NO_SPLITTING

    all_ok = True
    for pair in pairs:
        splitting = build_splitting(pres, pair)
        started = time.time()
        report = audit_acylindricity(
            splitting,
            k=args.k,
            tree_radius=args.tree_radius,
            element_radius=args.element_radius,
            local_radius=args.local_radius,
            cap=args.ball_cap,
        )
        elapsed = time.time() - started
        status = "ok" if report.passed else "VIOLATION"
        print(
            f"pair ({pair.a}, {pair.b}): {status}  "
            f"max |stab| = {report.max_stabilizer_size} (bound {report.bound}), "
            f"{report.paths_checked} paths, {elapsed:.2f}s"
        )
        if not report.passed:
            all_ok = False
            print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK if all_ok else EXIT_VIOLATION


def main(argv=None):
    args = parse_args(argv)
    try:
        return audit_all(args)
    except DegeneratePresentationError as exc:
        print(f"error: degenerate presentation: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceCapError as exc:
        print(f"error: resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
