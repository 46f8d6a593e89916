"""Seeded inputs for the four benchmark workloads.

Nothing here imports arboreal: inputs are plain JSON-ready data, so the
program under test receives only the generated inputs, and generating them
is never part of a timed region or of the measured set-up.

Every workload is one closed-loop caller: one item at a time, one thread,
and for ``cli`` one subprocess at a time. A batch is the fixed list of items
one pass runs; the seed picks the random parts of the batch and its order.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("classify-sweep", "long-words", "tree-audit", "cli")

# Why each workload exists (mirrored in BENCHMARK.json).
WHY = {
    "classify-sweep": "graph layer: separated-pair search and verdicts on seeded graph "
    "products from n=10 to n=120 plus the small-graph atlas; words and tree idle",
    "long-words": "word layer on long words: canonical, multiply, inverse at L=25..400 "
    "and tree_distance, element_action at L=10..80; graph layer idle",
    "tree-audit": "tree balls, coset representatives and stabilizers over a curated "
    "audit set: hundreds of thousands of short-word canonicalizations",
    "cli": "process start-up, import, file parsing and every documented exit code "
    "through python -m arboreal.cli, one subprocess at a time",
}

INF = "inf"

# Sample presentations, kept here rather than read from the repository's
# fixtures/ so that the benchmark inputs stay fixed when the samples change.
FIXTURES = {
    "p4_racg": {
        "vertices": [{"name": v, "order": 2} for v in "abcd"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
    },
    "z2_z3": {"vertices": [{"name": "a", "order": 2}, {"name": "b", "order": 3}], "edges": []},
    "z2_z5": {"vertices": [{"name": "a", "order": 2}, {"name": "b", "order": 5}], "edges": []},
    "o2_racg": {"vertices": [{"name": "a", "order": 2}, {"name": "b", "order": 2}], "edges": []},
    "p3_raag": {
        "vertices": [{"name": v, "order": INF} for v in "abc"],
        "edges": [["a", "b"], ["b", "c"]],
    },
    "c5_raag": {
        "vertices": [{"name": v, "order": INF} for v in "abcde"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]],
    },
    "fig2_raag": {
        "vertices": [{"name": v, "order": INF} for v in "abcdef"],
        "edges": [
            ["a", "b"], ["a", "c"], ["b", "c"], ["d", "e"], ["a", "e"],
            ["b", "e"], ["d", "f"], ["a", "f"], ["c", "f"],
        ],
    },
    # hand-picked small presentations for the audit
    "z3_z3": {"vertices": [{"name": "a", "order": 3}, {"name": "b", "order": 3}], "edges": []},
    "p3_232": {
        "vertices": [
            {"name": "a", "order": 2}, {"name": "b", "order": 3}, {"name": "c", "order": 2},
        ],
        "edges": [["a", "b"], ["b", "c"]],
    },
    "k13_racg": {
        "vertices": [{"name": v, "order": 2} for v in "abcd"],
        "edges": [["a", "b"], ["a", "c"], ["a", "d"]],
    },
    "p4_3232": {
        "vertices": [
            {"name": "a", "order": 3}, {"name": "b", "order": 2},
            {"name": "c", "order": 3}, {"name": "d", "order": 2},
        ],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
    },
}

# The audit set: every separated pair of the finite-order fixtures at radii
# from (3, 4) to (5, 6), and a few hand-picked presentations. Other radii,
# such as (4, 4) or (6, 6), fill the gaps of the latency distribution, so
# that its median and 90th percentile do not sit on a jump between two audits.
# Random presentations are not used: a single 6-vertex one can run for
# minutes at radii (4, 5).
_AUDIT_RADII = {
    ("p4_racg", "ac"): "33 34 44 45 56",
    ("p4_racg", "ad"): "34 44 45 56",
    ("p4_racg", "bd"): "33 34 44 45 55",
    ("z2_z3", "ab"): "34 44 45 56",
    ("o2_racg", "ab"): "33 34 45 56",
    ("z2_z5", "ab"): "34 44 45 55 56",
    ("z3_z3", "ab"): "34 44 45 55 56",
    ("p3_232", "ac"): "34 45 56",
    ("k13_racg", "bc"): "34 44 45 56 66",
    ("k13_racg", "bd"): "34 44 45 56 66 67",
    ("k13_racg", "cd"): "34 44 45 56 66",
    ("p4_3232", "ac"): "33",
    ("p4_3232", "ad"): "33 34",
    ("p4_3232", "bd"): "33 34",
}
AUDITS = [
    (fixture, pair, (int(r[0]), int(r[1])))
    for (fixture, pair), radii in _AUDIT_RADII.items()
    for r in radii.split()
]

# long-words: word lengths and per-pass counts. Counts fall with length, so
# that no bucket dominates a pass's time, and are set so that the median
# item is an L=50 word and the 90th percentile an L=200 word, each well
# inside its bucket rather than on the jump between two buckets.
WORD_LENGTHS = {25: 60, 50: 70, 100: 30, 200: 25, 400: 4}
TREE_LENGTHS = {10: 40, 20: 16, 40: 6, 80: 4}
ACTION_LENGTHS = {10: 16, 20: 6, 40: 3, 80: 2}
WORD_OPS = ("canonical", "multiply", "inverse")

# classify-sweep: random graph products per pass, by vertex count. With the
# 426 atlas items the median item is an atlas graph and the 90th percentile
# an n=20 graph, inside its bucket.
SWEEP_SIZES = {10: 48, 20: 58, 40: 18, 80: 6, 120: 3}
SWEEP_DEGREES = (1.5, 3.0, 6.0)  # expected vertex degrees: edge densities
SWEEP_ORDERS = (2, 3, INF)

# Golden slices: generated from fixed seeds, whatever --seed is, so that
# their outputs can be compared with the values in expected.json.
GOLDEN_SEED = 20230621
GOLDEN_PER_BUCKET = 1

TINY = "tiny"
FULL = "full"

# Calibrated seconds one pass over a full batch takes (see calibrate.py);
# they fix how many passes fill a measuring process's share of --seconds.
PASS_SECONDS = {"classify-sweep": 2.2, "long-words": 1.0, "tree-audit": 3.0, "cli": 3.3}


def passes(workload: str, seconds: float, size: str) -> int:
    if size == TINY:
        return 1
    return max(1, int(seconds // PASS_SECONDS[workload]))


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# --- classify-sweep -------------------------------------------------------------


def atlas_graphs() -> list[tuple[int, list[str], list[list[str]]]]:
    """Connected graphs on 2 to 6 vertices, up to isomorphism (142 graphs)."""
    import networkx as nx

    out = []
    for index, g in enumerate(nx.graph_atlas_g()):
        n = g.number_of_nodes()
        if n < 2 or n > 6 or not nx.is_connected(g):
            continue
        names = [chr(ord("a") + i) for i in range(n)]
        relabel = dict(zip(sorted(g.nodes()), names))
        edges = sorted(sorted((relabel[u], relabel[v])) for u, v in g.edges())
        out.append((index, names, edges))
    return out


def random_product(rng: random.Random, n: int, degree: float) -> dict:
    p = min(0.5, degree / (n - 1))
    names = [f"v{i}" for i in range(n)]
    edges = [
        [names[i], names[j]] for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    vertices = [{"name": v, "order": SWEEP_ORDERS[rng.randrange(3)]} for v in names]
    return {"vertices": vertices, "edges": edges}


def atlas_items(size: str) -> list[dict]:
    """The atlas at each uniform order; the slice recorded in expected.json."""
    atlas = atlas_graphs()
    if size == TINY:
        atlas = atlas[:: len(atlas) // 6]
    return [
        {"id": f"atlas-{index}-{order}", "bucket": "atlas",
         "text": json.dumps({"vertices": [{"name": v, "order": order} for v in names],
                             "edges": edges})}
        for index, names, edges in atlas
        for order in SWEEP_ORDERS
    ]


def classify_sweep(seed: int, size: str) -> dict:
    from checks import classify_facts

    items = atlas_items(size)
    rng = random.Random(seed)
    sizes = {10: 3, 20: 1} if size == TINY else SWEEP_SIZES
    for n, count in sizes.items():
        for i in range(count):
            data = random_product(rng, n, SWEEP_DEGREES[i % len(SWEEP_DEGREES)])
            items.append({"id": f"n{n}-{i}", "bucket": f"n{n}", "text": json.dumps(data)})
    for item in items:
        item["facts"] = classify_facts(json.loads(item["text"]))
    return {"context": {}, "items": _shuffled(rng, items)}


# --- long-words -----------------------------------------------------------------


def long_words_product() -> dict:
    """The fixed 12-vertex product of mixed orders the word items run on."""
    rng = random.Random(12)
    names = [chr(ord("a") + i) for i in range(12)]
    edges = [
        [names[i], names[j]] for i in range(12) for j in range(i + 1, 12) if rng.random() < 0.35
    ]
    orders = (2, 3, 5, INF)
    return {
        "vertices": [{"name": v, "order": orders[i % 4]} for i, v in enumerate(names)],
        "edges": edges,
    }


P4_RAAG = {
    "vertices": [{"name": v, "order": INF} for v in "abcd"],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
}


def random_word(rng: random.Random, data: dict, length: int) -> list[list]:
    out = []
    vertices = data["vertices"]
    for _ in range(length):
        entry = vertices[rng.randrange(len(vertices))]
        n = entry["order"]
        e = rng.randrange(1, n) if n != INF else rng.choice((1, -1, 2, -2, 3, -3))
        out.append([entry["name"], e])
    return out


def commuting_shuffle(rng: random.Random, data: dict, word: list[list]) -> list[list]:
    """Random swaps of adjacent syllables on distinct, adjacent vertices.

    Each swap is a relation of the group, so the result is the same element.
    """
    edges = {frozenset(e) for e in data["edges"]}
    word = [list(s) for s in word]
    for _ in range(2 * len(word)):
        i = rng.randrange(len(word) - 1) if len(word) > 1 else 0
        if i + 1 < len(word) and frozenset((word[i][0], word[i + 1][0])) in edges:
            word[i], word[i + 1] = word[i + 1], word[i]
    return word


def _word_items(rng: random.Random, prefix: str, word_counts, tree_counts, action_counts):
    product = long_words_product()
    items = []
    for op in WORD_OPS:
        for length, count in word_counts.items():
            for i in range(count):
                item = {"id": f"{prefix}{op}-L{length}-{i}", "bucket": f"{op}.L{length}",
                        "op": op, "L": length}
                if op == "multiply":
                    half = length // 2
                    item["words"] = [random_word(rng, product, half),
                                     random_word(rng, product, length - half)]
                else:
                    item["words"] = [random_word(rng, product, length)]
                if op == "canonical":
                    item["shuffled"] = commuting_shuffle(rng, product, item["words"][0])
                items.append(item)
    for op, counts in (("tree_distance", tree_counts), ("element_action", action_counts)):
        for length, count in counts.items():
            for i in range(count):
                items.append({"id": f"{prefix}{op}-L{length}-{i}", "bucket": f"{op}.L{length}",
                              "op": op, "L": length, "words": [random_word(rng, P4_RAAG, length)]})
    return items


def golden_long_words() -> list[dict]:
    """The fixed slice whose outputs are recorded in expected.json."""
    per = {length: GOLDEN_PER_BUCKET for length in WORD_LENGTHS}
    tree = {length: GOLDEN_PER_BUCKET for length in TREE_LENGTHS}
    action = {length: GOLDEN_PER_BUCKET for length in ACTION_LENGTHS}
    return _word_items(random.Random(GOLDEN_SEED), "golden-", per, tree, action)


def long_words(seed: int, size: str) -> dict:
    rng = random.Random(seed)
    if size == TINY:
        items = _word_items(rng, "", {25: 2, 50: 1}, {10: 2, 20: 1}, {10: 1})
    else:
        items = _word_items(rng, "", WORD_LENGTHS, TREE_LENGTHS, ACTION_LENGTHS)
    items += golden_long_words()
    return {"context": {"product": long_words_product(), "p4_raag": P4_RAAG},
            "items": _shuffled(rng, items)}


# --- tree-audit -----------------------------------------------------------------


def audit_label(fixture: str, pair: str, radii) -> str:
    return f"{fixture}.{pair}.r{radii[0]}{radii[1]}"


def tree_audit(seed: int, size: str) -> dict:
    audits = AUDITS if size == FULL else [a for a in AUDITS if a[2] == (3, 4)][:4]
    items = [
        {"id": audit_label(*a), "bucket": audit_label(*a), "fixture": a[0], "pair": list(a[1]),
         "radii": list(a[2])}
        for a in audits
    ]
    fixtures = {name: FIXTURES[name] for name in sorted({a[0] for a in audits})}
    return {"context": {"fixtures": fixtures}, "items": _shuffled(random.Random(seed), items)}


# --- cli ------------------------------------------------------------------------

EXIT_OK, EXIT_PARSE, EXIT_DEGENERATE, EXIT_NO_SPLITTING, EXIT_RESOURCE = 0, 2, 3, 4, 5

# Malformed and degenerate presentation files, written into the work directory.
BAD_FILES = {
    "bad_json.json": ("text", '{"vertices": [{"name": "a", "order": 2},'),
    "no_vertices.json": ("json", {"edges": []}),
    "bad_order.json": ("json", {"vertices": [{"name": "a", "order": "x"},
                                             {"name": "b", "order": 2}]}),
    "bad_entry.json": ("json", {"vertices": [{"name": "a"}, {"name": "b", "order": 2}]}),
    "bad_edge.json": ("json", {"vertices": [{"name": "a", "order": 2}, {"name": "b", "order": 2}],
                               "edges": [["a", "z"]]}),
    "loop_edge.json": ("json", {"vertices": [{"name": "a", "order": 2},
                                             {"name": "b", "order": 2}],
                                "edges": [["a", "a"]]}),
    "dup_vertex.json": ("json", {"vertices": [{"name": "a", "order": 2},
                                              {"name": "a", "order": 3}]}),
    "order_one.json": ("json", {"vertices": [{"name": "a", "order": 1},
                                             {"name": "b", "order": 2}]}),
    "order_zero.json": ("json", {"vertices": [{"name": "a", "order": 0},
                                              {"name": "b", "order": 2}]}),
    "one_vertex.json": ("json", {"vertices": [{"name": "a", "order": 2}]}),
}


def _format_word(word: list[list]) -> str:
    return " ".join(v if e == 1 else f"{v}^{e}" for v, e in word) or "1"


def cli_cases(rng: random.Random, workdir: str) -> list[tuple[list[str], int]]:
    """(argv, documented exit code) for one pass over the subcommands."""
    def f(name: str) -> str:
        return f"{workdir}/{name}.json"

    def w(name: str, length: int) -> str:
        return _format_word(random_word(rng, FIXTURES[name], length))

    audit = ["--tree-radius", "3", "--element-radius", "4"]
    ok = [["classify", f(name), "--json"] for name in FIXTURES]
    ok += [["classify", f("fig2_raag")], ["classify", f("c5_raag")],
           ["classify", f("p4_racg"), "--json", "--out", f"{workdir}/out_classify.json"]]
    ok += [["export-dot", f("fig2_raag")], ["export-dot", f("c5_raag"), "--target", "complement"],
           ["export-dot", f("p4_racg"), "--target", "tree-ball", "--tree-radius", "2"]]
    for name in ("p3_raag", "p4_racg", "fig2_raag", "z2_z5"):
        ok += [["nf", f(name), w(name, 12), "--json"],
               ["mul", f(name), w(name, 8), w(name, 8), "--json"]]
    ok += [["tree-dist", f("p4_racg"), "1", w("p4_racg", 6), "--json"],
           ["tree-dist", f("z2_z5"), w("z2_z5", 4), w("z2_z5", 4), "--side2", "B", "--json"]]
    ok += [["tree-audit", f("p4_racg"), "--json"] + audit,
           ["tree-audit", f("z2_z3")] + audit, ["tree-audit", f("k13_racg"), "--json"] + audit]
    cases = [(argv, EXIT_OK) for argv in ok]
    parse = [["classify", f(name.removesuffix(".json"))] for name in BAD_FILES
             if not name.startswith(("order_", "one_"))]
    parse += [["classify", f"{workdir}/missing.json"], ["nf", f("p4_racg"), "z"],
              ["nf", f("p4_racg"), "a^0"], ["mul", f("p3_raag"), "a", "q^2"],
              ["tree-dist", f("p4_racg"), "1", "a^x"], ["frobnicate", f("p4_racg")]]
    cases += [(argv, EXIT_PARSE) for argv in parse]
    cases += [(["classify", f(name)], EXIT_DEGENERATE)
              for name in ("order_one", "order_zero", "one_vertex")]
    cases += [(["tree-audit", f(name)] + audit, EXIT_NO_SPLITTING)
              for name in ("c5_raag", "o2_racg")]
    cases += [(["tree-dist", f("p3_raag"), "1", "a"], EXIT_NO_SPLITTING),
              (["export-dot", f("o2_racg"), "--target", "tree-ball"], EXIT_NO_SPLITTING)]
    cases += [(["tree-audit", f("p4_racg"), "--ball-cap", "5"] + audit, EXIT_RESOURCE),
              (["export-dot", f("p4_racg"), "--target", "tree-ball", "--ball-cap", "3"],
               EXIT_RESOURCE)]
    return cases


def write_cli_files(workdir) -> None:
    for name, data in FIXTURES.items():
        (workdir / f"{name}.json").write_text(json.dumps(data))
    for name, (kind, data) in BAD_FILES.items():
        (workdir / name).write_text(data if kind == "text" else json.dumps(data))


def cli(seed: int, size: str, workdir: str) -> dict:
    rng = random.Random(seed)
    cases = cli_cases(rng, workdir)
    if size == TINY:
        by_code = {}
        for argv, code in cases:
            by_code.setdefault(code, (argv, code))
        cases = list(by_code.values())
    items = [
        {"id": f"cli-{i}", "bucket": f"{argv[0]}.exit{code}", "argv": argv, "exit": code}
        for i, (argv, code) in enumerate(cases)
    ]
    return {"context": {}, "items": _shuffled(rng, items)}


def generate(workload: str, seed: int, size: str = FULL, workdir: str = "") -> dict:
    if workload == "classify-sweep":
        return classify_sweep(seed, size)
    if workload == "long-words":
        return long_words(seed, size)
    if workload == "tree-audit":
        return tree_audit(seed, size)
    if workload == "cli":
        return cli(seed, size, workdir)
    raise ValueError(f"unknown workload: {workload}")
