#!/usr/bin/env python3
"""Mutant gate: the tier-1 tests must fail on each of a fixed list of
one-line faults in src/ (mutation analysis: DeMillo, Lipton and Sayward,
*Hints on test data selection*, IEEE Computer 1978).

Each mutant is (file, old text, new text, reason). Every old text must occur
exactly once in its file, which is checked before any test runs, so a
refactor that moves the code fails the gate loudly and the list is updated
with it. Equivalent mutants are not listed.

The repository's src/, tests/, fixtures/ and scripts/ are copied to a
temporary directory once. Each mutant in turn is applied there,

    python3 -m pytest -x -q tests --hypothesis-profile mutants

runs against the copy, and the file is restored. The ``mutants`` profile
(tests/conftest.py) skips hypothesis's shrink phase, so a failing property
is reported as soon as it is found. No bytecode is written, so a mutant as
long as its old text is never shadowed by a cached module.

A mutant is killed when pytest exits 1, a failed test. Any other exit (a
collection or usage error, a run past the timeout) counts as a survival, so
an unknown profile cannot pass the gate. The unmutated tests must pass, as
the tier-1 step checks before this one in CI.

Exit status: 0 if every mutant is killed, 1 naming each survivor, 2 if an
old text is missing or not unique. Run from anywhere:

    python3 scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "fixtures", "scripts")
TIMEOUT_S = 900
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests",
          "--hypothesis-profile", "mutants"]

GRAPHS = "src/arboreal/graphs.py"
WORDS = "src/arboreal/words.py"
TREE = "src/arboreal/tree.py"
CLASSIFY = "src/arboreal/classify.py"
CLI = "src/arboreal/cli.py"
FORMATS = "src/arboreal/formats.py"
PACKAGE = "src/arboreal/__init__.py"

MUTANTS = [
    # graph layer
    (GRAPHS, "spare = balls[:]", "spare = balls",
     "the diameter's rounds write the balls they read, so a ball ORs in neighbours' balls "
     "of the same round"),
    (GRAPHS, "    if everything == 1:\n        return 0\n", "    if everything == 1:\n        return 1\n",
     "a one-vertex graph's ball is taken as full at round 1, not round 0"),
    (GRAPHS, "if balls.count(everything) == len(balls):", "if balls.count(everything):",
     "a graph with a vertex joined to all others is taken as complete, of diameter 1"),
    (GRAPHS, "            near.append(u)\n", "",
     "round 2 lists no neighbours, so each ball it leaves short of everything stops growing"),
    (GRAPHS, "            if ball == before:\n                return INFINITY\n"
     "            if ball != everything:\n                still.append(item)",
     "            if ball == balls[near[0]]:\n                return INFINITY\n"
     "            if ball != everything:\n                still.append(item)",
     "past round 2 the disconnection test compares a ball with its first neighbour's ball "
     "of the round before, not with its own"),
    # word layer
    (WORDS, "if i >= 0 and u == v:", "if i > 0 and u == v:",
     "_extend never joins with the first syllable"),
    (WORDS, "if i >= 0 and u == v:", "if 0 <= i < end - 1 and u == v:",
     "_extend never joins with the last syllable"),
    (WORDS, "while i < end and h[i][0] in below:",
     "while i < end and h[i][0] not in below:",
     "_extend inserts a new sink at the wrong place in Kahn's order"),
    (WORDS, "graph.masks[i] & (1 << i) - 1", "graph.masks[i]",
     "_steps takes the whole link as the part before v, so a new sink goes to the end of "
     "the block that commutes with it"),
    (WORDS, "                e += h[i][1]\n                if n:\n                    e %= n\n",
     "                e += h[i][1]\n",
     "a joined exponent is not reduced mod the order"),
    (WORDS, "steps[v] = (0 if n == INFINITY else n, graph.adjacency[v],",
     "steps[v] = (n, graph.adjacency[v],",
     "_steps keeps INFINITY as an infinite vertex's order, so e %= inf makes 3 a float 3.0"),
    (WORDS, "            if _negate:\n                e = -e\n", "",
     "inverse keeps the exponents' signs: _extend reads its reversed word unnegated"),
    (WORDS, "if type(e) is int and len(made) < _SYLLABLE_TABLE_LIMIT:",
     "if len(made) < _SYLLABLE_TABLE_LIMIT:",
     "the syllable tables keep a bool or float exponent's syllable and hand it to later int calls"),
    (WORDS, "graph, steps = self.graph, {}\n        for i, v in enumerate(graph.vertices):\n"
     "            n, below = self.orders[v], graph.masks[i] & (1 << i) - 1\n"
     "            steps[v] = (0 if n == INFINITY else n, graph.adjacency[v],\n"
     "                        {graph.vertices[j] for j in bit_indices(below)}, {})\n",
     "graph, steps, made = self.graph, {}, {}\n        for i, v in enumerate(graph.vertices):\n"
     "            n, below = self.orders[v], graph.masks[i] & (1 << i) - 1\n"
     "            steps[v] = (0 if n == INFINITY else n, graph.adjacency[v],\n"
     "                        {graph.vertices[j] for j in bit_indices(below)}, made)\n",
     "one syllable table is shared by every vertex"),
    (WORDS, "                e += h[i][1]\n                if n:\n                    e %= n\n",
     "                e += h[i][1]\n                if (s := made.get(e)) is None:\n"
     "                    made[e] = new(syllable, (v, e))\n                if n:\n                    e %= n\n",
     "a join looks its syllable up before e %= n, so the table keeps unreduced exponents"),
    (WORDS, "if type(e) is int and len(made) < _SYLLABLE_TABLE_LIMIT:", "if type(e) is int:",
     "a syllable table has no limit"),
    (WORDS, "if type(e) is int and len(made) < _SYLLABLE_TABLE_LIMIT:",
     "if type(e) is int and len(made) >= _SYLLABLE_TABLE_LIMIT:",
     "the limit test is inverted, so a syllable table never fills"),
    (WORDS, "return [vertices[i] for i in bit_indices(mask)]",
     "return [vertices[i] for i in bit_indices(mask & mask - 1)]",
     "_names drops a sparse mask's lowest vertex"),
    (WORDS, "del names[i := clear.bit_length() - 1]", "del names[i := (clear & -clear).bit_length() - 1]",
     "_names deletes a dense mask's clear bits from the lowest up, so each deletion shifts "
     "the index of the next"),
    (WORDS, "(2, (1, -1)) if n == INFINITY", "(2, (1,)) if n == INFINITY",
     "ball enumeration gives an infinite vertex no generator of exponent -1"),
    (WORDS, "while frontier and depth < radius:", "while frontier and depth <= radius:",
     "ball enumeration builds one layer past its radius"),
    (WORDS, "return mask.bit_count() <= radius and", "return mask.bit_count() < radius and",
     "a finite G_S's ball is saturated only past radius |S|, not at it"),
    (WORDS, " and self._mask_order(mask) != INFINITY", "",
     "any G_S's ball of radius at least |S| is saturated, finite or not"),
    (WORDS, "return sum(1 << index[v] for v in subset)",
     "return sum(1 << index[v] for v in subset if index[v])",
     "a vertex set's mask leaves out the first vertex in vertex order"),
    (WORDS, "if n == INFINITY or mask & ~masks[i] != 1 << i:", "if n == INFINITY:",
     "a full subgroup on finite vertices is finite even when they are not a clique"),
    (WORDS, "((1, 2) if n == INFINITY else", "((1, 1) if n == INFINITY else",
     "the growth series takes an infinite vertex's series as 1 + z, Z2's, not (1 + z)/(1 - z)"),
    (WORDS, "(1, 2) if n == INFINITY", "(2, 1) if n == INFINITY",
     "the cached growth weights swap y_v and x_v at an infinite vertex"),
    (WORDS, "(link := table(rest & masks[i]))", "(link := table(rest))",
     "the growth table joins v to the cliques of S - v, not of S - v ∩ lk v: cliques or not"),
    (WORDS, "for u in bit_indices(rest & ~masks[i]):", "for u in bit_indices(0):",
     "the growth table's cliques with v lack the factor D of S - v outside lk v"),
    (WORDS, " or len(memo) * 2 * (degree + 1) > cap:", ":",
     "the growth table is never cut at the cap"),
    (WORDS, "w = deque(maxlen=len(tail))", "w = deque(maxlen=len(tail) - 1)",
     "the series recurrence keeps one coefficient fewer than the denominator's degree"),
    (WORDS, "raise _ball_cap_error(cap, j)", "raise _ball_cap_error(cap, j + 1)",
     "a cap error read from growth series names the radius after the first past the cap"),
    (WORDS, "if total > cap:", "if total >= cap:",
     "a series total equal to the cap raises, though a ball of exactly cap elements is "
     "within it"),
    (WORDS, 'if text in ("", "1"):', 'if text == "":',
     'parse_word does not read "1" as the identity'),
    (WORDS, 'parts.append(v if e == 1 else f"{v}^{e}")', 'parts.append(f"{v}^{e}")',
     "format_word writes exponent 1"),
    # tree layer
    (TREE, "{_strip(pres, s, c_mask) for s in side_ball}", "set(side_ball)",
     "the tree ball extends by the side ball's elements, not its G_C cosets"),
    (TREE, "for g in sorted(pres._extend(x.rep, t) for t in cosets[x.side] if t or x == base):",
     "for g in (pres._extend(x.rep, t) for t in cosets[x.side] if t or x == base):",
     "the tree ball lists children in coset-set order, not edge order"),
    (TREE, "for t in cosets[x.side] if t or x == base)", "for t in cosets[x.side])",
     "the tree ball never skips a vertex's parent, so it lists the parent again as a child"),
    (TREE, "_strip(pres, pres.canonical(word), splitting.side(side))",
     "_strip(pres, pres.canonical(word), splitting.c_side)",
     "make_vertex strips C instead of the vertex's side"),
    (TREE, "            peelable &= masks[i]\n", "",
     "_peel never narrows its peelable mask, so it peels an S-syllable that a kept one "
     "scanned before it depends on"),
    (TREE, "peelable &= masks[i]", "peelable &= ~(1 << i)",
     "_peel cuts only a kept syllable's own vertex from its peelable mask, not every vertex "
     "outside its link"),
    (TREE, "                kept.extend(sylls)\n", "",
     "_peel drops what follows once nothing more can be peeled"),
    (TREE, "p, rest = _peel(pres, h, c)", "p, rest = [], list(h)",
     "the stabilizer's p is empty, so f is g_1 and q takes what p should"),
    (TREE, "_peel(pres, reversed(rest), c)", "_peel(pres, rest, c)",
     "the stabilizer's q is peeled forward, from the start of what p leaves"),
    (TREE, "reduce(and_, (masks[index[v]] for v, _ in d), c)", "c",
     "the stabilizer's R is C, uncut by the links of d's vertices"),
    (TREE, "h = pres._extend(pres.inverse(v1.rep), v2.rep)",
     "n = next((i for i, (x, y) in enumerate(zip(v1.rep, v2.rep)) if x != y), "
     "min(len(v1.rep), len(v2.rep))); "
     "h = pres._extend(pres.inverse(v1.rep[n:]), v2.rep[n:])",
     "tree_distance cancels a shared prefix of any words unread, so an unknown vertex passes"),
    (TREE, "return last + (sides[last % 2] != side1)", "return last",
     "tree_distance misses the last round when it ends on the other side"),
    (TREE, "r, out = len(held) - 1, ~masks[i]", "r, out = len(held) - 1, masks[i]",
     "tree_distance takes a syllable's round from the vertices in its link, not outside it"),
    (TREE, "r += not on[r % 2] >> i & 1", "r += not on[0] >> i & 1",
     "tree_distance reads every round's side as v2's, so a vertex on the other side only "
     "raises an odd round and one on v2's side only stays in it"),
    (TREE, "if d2 > d1:", "if d2 >= d1:",
     "element_action calls an elliptic element loxodromic"),
    (TREE, "_rounds(splitting, pres._extend(g, g), SIDE_A, SIDE_A)",
     "_rounds(splitting, g, SIDE_A, SIDE_A)",
     "element_action forms g^2 as g, so it calls every element elliptic"),
    (TREE, "for us, size in tops if size > bound]", "for us, size in tops if size >= bound]",
     "the audit names a witness whose stabilizer has exactly |G_N| elements"),
    (TREE, "return [(us, reduce(",
     "return [(tuple({a: b, b: a}[u] for u in us), reduce(",
     "a two-edge witness turns at the other side's vertex, G_C, bG_C for R = C ∩ lk(a)"),
    (TREE, "2: [(a,), (b,)] if tree_radius >= 2 else [(a,)]}", "2: [(a,)]}",
     "the two-edge maximum misses C ∩ lk(b), whose path turns at G_B"),
    (TREE, "if tree_radius >= 2 else [(a,)]}", "if tree_radius >= 1 else [(a,)]}",
     "the two-edge maximum takes C ∩ lk(b) at tree radius 1, where no path turns at G_B"),
    (TREE, ".get(k, [(a, b)])", ".get(k, [(a,)])",
     "the maximum past two edges sizes C ∩ lk(a), not N"),
    (TREE, "count += width * (n * below[k] + n * (n - 1) // 2 * pairs)",
     "count += width * (n * below[k] + n * (n - 1) * pairs)",
     "the path count counts a path with two branches twice, once from each end"),
    (TREE, "        if size > cap:\n            raise ResourceCapError", "        if False:\n            raise ResourceCapError",
     "the tree ball's vertex count, read from its level sizes, is never checked against the cap"),
    (TREE, "truncated = truncated or not pres._saturates(",
     "truncated = not pres._saturates(",
     "side B's saturation overwrites side A's truncation"),
    (TREE, "y = d_s[1] - d_c[1]", "y = 1",
     "the coset series takes the factor 1 + y_u z of S - C = {u} as 1 + z at any order"),
    (TREE, "                cumulative_counts(d_s, p_s, local_radius, cap)"
     "  # the side ball's cap error\n", "",
     "a side ball past the cap is never raised from its series"),
    (TREE, "cumulative_counts(d_s, p_s, local_radius, cap)",
     "cumulative_counts(d_s, p_s, local_radius + 1, cap)",
     "a side ball's series is read one radius past it, so a ball within the cap raises"),
    (TREE, "        if size > cap:\n", "        if size > cap and (d or radius == 1):\n",
     "the tree's depth-0 vertex count is checked only after side B is read, so side B's "
     "cap error comes before the tree ball's"),
    (TREE, "growth_table(max(local_radius, element_radius), cap)",
     "growth_table(element_radius, cap)",
     "the audit's growth table is cut at element_radius, under the side series' degree"),
    (TREE, "(order := pres._mask_order(r)) <= cap:", "(order := pres._mask_order(r)) < cap:",
     "a finite G_R of exactly cap elements is not counted from its vertex set"),
    (TREE, "if r.bit_count() <= element_radius and (order", "if (order",
     "a finite G_R is counted whole from its vertex set at a radius that cuts its ball"),
    # classification layer
    (CLASSIFY, "if not mask_a >> j & 1 and (order := pres._mask_order(common)) != INFINITY:",
     "if (order := pres._mask_order(common)) != INFINITY:",
     "an adjacent pair counts as separated"),
    (CLASSIFY, "orders[v] == 2 for v in _complete_minus_one_edge(pres)",
     "orders[v] <= 3 for v in _complete_minus_one_edge(pres)",
     "complete minus an edge is virtually cyclic with an endpoint of order 3"),
    (CLASSIFY, "every ^ 1 << index[pair.b], every ^ 1 << index[pair.a]",
     "every ^ 1 << index[pair.a], every ^ 1 << index[pair.b]",
     "the splitting swaps a and b: A = V - {a} and B = V - {b}"),
    (CLASSIFY, "    if diam <= 1:", "    if diam < 1:",
     "a complete graph is not given the complete-graph certificate"),
    (CLASSIFY, "return n * (n - 1) // 2 - sum(map(int.bit_count, masks)) // 2",
     "return n * (n - 1) // 2 - sum(map(int.bit_count, masks))",
     "non-adjacent pairs are counted with each edge subtracted twice"),
    # package exports
    (PACKAGE, '"words": ("Presentation", "Syllable", "format_word", "parse_word"),\n'
     '    "classify": (',
     '"words": ("Syllable", "format_word", "parse_word"),\n    "classify": ("Presentation", ',
     "arboreal.Presentation loads the classify layer, which imports the same class"),
    (PACKAGE, "if not (name in _LAYER and isinstance(value, type(sys))):", "if True:",
     "a submodule's first load sets arboreal.classify to the module"),
    # CLI parser, exit mapping and word arguments
    (CLI, "        if name == command:\n", "        if False:\n",
     "the parser adds arguments to no subcommand"),
    (CLI, 'command = next((arg for arg in argv if not arg.startswith("-")), None)',
     "command = argv[0] if argv else None",
     "the parser takes the first argument as the subcommand, so an option before the "
     "subcommand builds no subcommand's arguments"),
    (CLI, 'message, code = f"resource cap exceeded: {exc}", EXIT_RESOURCE',
     'message, code = f"resource cap exceeded: {exc}", EXIT_PARSE',
     "a cap error exits 2, not 5"),
    (CLI, 'message, code = f"degenerate presentation: {exc}", EXIT_DEGENERATE',
     'message, code = f"degenerate presentation: {exc}", EXIT_PARSE',
     "a degenerate presentation exits 2, not 3"),
    (CLI, 'message, code = f"no splitting to audit: {exc}", EXIT_NO_SPLITTING',
     'message, code = f"no splitting to audit: {exc}", EXIT_VIOLATION',
     "no splitting to audit exits 1, not 4"),
    (CLI, "return EXIT_OK if all(report.passed for report in reports) else EXIT_VIOLATION",
     "return EXIT_OK",
     "an audit with violations exits 0"),
    (CLI, "return named[text] if text in named else parse_word(pres, text)",
     "return parse_word(pres, text)",
     "word arguments never resolve the file's named words"),
    # loader
    (FORMATS, 'raise InputError(f"words[{key!r}]: name {key!r} is itself a word")', "pass",
     "a named word may shadow a word"),
    (FORMATS, "if isinstance(raw, int) and not isinstance(raw, bool):", "if isinstance(raw, int):",
     "a JSON true is read as the order 1"),
    (FORMATS, "raw if type(raw) is int else", "raw if isinstance(raw, int) else",
     "the loader's int test, before _parse_order, passes a JSON true as the order 1"),
    (FORMATS, 'name.isalnum() and name != "1" or', "name.isalnum() or",
     'the loader\'s isalnum test, before the regex, passes a vertex named "1", which reads '
     "as the identity"),
    (FORMATS, "if not isinstance(entry, dict) or", "if type(entry) is not dict or",
     "the loader rejects a dict subclass for a vertex entry"),
    (FORMATS, " or isinstance(pair, tuple)", "",
     "the loader rejects a tuple edge"),
    (FORMATS, "not isinstance(end := pair[0], str) or ", "",
     "the loader passes an edge whose first endpoint is not a string"),
    (FORMATS, r'_VERTEX_NAME = r"(?!1\Z)[^\s^\ud800-\udfff]+"',
     r'_VERTEX_NAME = r"[^\s^\ud800-\udfff]+"',
     'a vertex may be named "1", which reads as the identity'),
    (FORMATS, "or not isinstance(end := pair[1], str):", ":",
     "the loader passes an edge whose second endpoint is not a string"),
]


def check_mutants() -> list[str]:
    """A line for each mutant whose old text does not occur exactly once."""
    problems = []
    for path, old, _, reason in MUTANTS:
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            problems.append(f"{path}: old text occurs {count} times ({reason}): {old!r}")
    return problems


def main() -> int:
    problems = check_mutants()
    if problems:
        print("mutant list out of date:", *problems, sep="\n", file=sys.stderr)
        return 2
    survivors = []
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="arboreal-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        env["PYTHONPATH"] = str(copy / "src")
        for n, (path, old, new, reason) in enumerate(MUTANTS, 1):
            target = copy / path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(old, new), encoding="utf-8")
            started = time.perf_counter()
            try:
                code = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True,
                                      timeout=TIMEOUT_S).returncode
                # 1: a test failed; any other code (an error, no tests) kills nothing
                killed = code == 1
                verdict = "killed" if killed else f"SURVIVED (pytest exit {code})"
            except subprocess.TimeoutExpired:
                killed, verdict = False, f"SURVIVED past {TIMEOUT_S} s"
            finally:
                target.write_text(original, encoding="utf-8")
            print(f"{n:2}/{len(MUTANTS)} {verdict} in {time.perf_counter() - started:.1f} s: "
                  f"{path}: {reason}", flush=True)
            if not killed:
                survivors.append(f"{path}: {reason}")
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived the tests:",
              *survivors, sep="\n", file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
