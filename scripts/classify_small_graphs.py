#!/usr/bin/env python3
"""Sweep all connected graphs on up to 6 vertices (up to isomorphism) and
tabulate the arboreality verdicts for a chosen uniform vertex-group order.

Requires networkx (for the graph atlas). Example:

    python3 scripts/classify_small_graphs.py --order inf
    python3 scripts/classify_small_graphs.py --order 2 --max-vertices 5
"""

import argparse
import collections
import json
import sys

import networkx as nx

from arboreal.classify import Arboreality, classify
from arboreal.graphs import INFINITY, SimpleGraph
from arboreal.words import Presentation


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", default="inf",
                    help="uniform vertex group order (integer >= 2 or 'inf')")
    ap.add_argument("--max-vertices", type=int, default=6)
    ap.add_argument("--json", action="store_true", help="emit one JSON line per graph")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    order = INFINITY if args.order == "inf" else int(args.order)

    tally = collections.Counter()
    by_diameter = collections.Counter()
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n < 2 or n > args.max_vertices or not nx.is_connected(g):
            continue
        names = [chr(ord("a") + i) for i in range(n)]
        relabel = dict(zip(sorted(g.nodes()), names))
        graph = SimpleGraph(names, [(relabel[u], relabel[v]) for u, v in g.edges()])
        verdict = classify(Presentation(graph, {v: order for v in names}))
        d = verdict.diameter
        tally[verdict.arboreality.value] += 1
        by_diameter[(d, verdict.arboreality == Arboreality.ACYL_ARBOREAL)] += 1
        if args.json:
            print(json.dumps({
                "vertices": n,
                "edges": sorted(sorted(e) for e in graph.edges),
                "diameter": d,
                "verdict": verdict.arboreality.value,
            }))

    total = sum(tally.values())
    print(f"# graphs checked: {total} (order = {args.order})", file=sys.stderr)
    for name, count in sorted(tally.items()):
        print(f"#   {name}: {count}", file=sys.stderr)
    print("# diameter breakdown (diameter, arboreal) -> count:", file=sys.stderr)
    for key in sorted(by_diameter):
        print(f"#   {key}: {by_diameter[key]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
