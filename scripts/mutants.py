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

WORDS = "src/arboreal/words.py"
TREE = "src/arboreal/tree.py"
CLASSIFY = "src/arboreal/classify.py"
CLI = "src/arboreal/cli.py"
FORMATS = "src/arboreal/formats.py"

MUTANTS = [
    # word layer
    (WORDS, "if i >= 0 and h[i][0] == v:", "if i > 0 and h[i][0] == v:",
     "_extend never joins with the first syllable"),
    (WORDS, "while j < end and h[j][0] in below:",
     "while j < end and h[j][0] not in below:",
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
    (WORDS, "[(v, -e) for v, e in reversed(tuple(word))]", "[(v, e) for v, e in reversed(tuple(word))]",
     "inverse keeps the exponents' signs"),
    (WORDS, "                        if depth > radius:", "                        if depth > radius + 1:",
     "ball enumeration runs one layer past its radius"),
    (WORDS, "1 if self.orders[v] != INFINITY else abs(e) for v, e in word",
     "1 if self.orders[v] != INFINITY else e for v, e in word",
     "generator length counts a negative power negatively"),
    (WORDS, "return sum(1 << index[v] for v in subset)",
     "return sum(1 << index[v] for v in subset if index[v])",
     "a vertex set's mask leaves out the first vertex in vertex order"),
    (WORDS, "if n == INFINITY or mask & ~masks[i] != 1 << i:", "if n == INFINITY:",
     "a full subgroup on finite vertices is finite even when they are not a clique"),
    (WORDS, "((1, 2) if n == INFINITY else", "((1, 1) if n == INFINITY else",
     "the growth series takes an infinite vertex's series as 1 + z, Z2's, not (1 + z)/(1 - z)"),
    (WORDS, "(link := table(rest & masks[i]))", "(link := table(rest))",
     "the growth table joins v to the cliques of S - v, not of S - v ∩ lk v: cliques or not"),
    (WORDS, "for u in bit_indices(rest & ~masks[i]):", "for u in bit_indices(0):",
     "the growth table's cliques with v lack the factor D of S - v outside lk v"),
    (WORDS, " or len(memo) * 2 * (degree + 1) > cap:", ":",
     "the growth table is never cut at the cap"),
    (WORDS, "w = deque(maxlen=len(tail))", "w = deque(maxlen=len(tail) - 1)",
     "the series recurrence keeps one coefficient fewer than the denominator's degree"),
    (WORDS, "raise _ball_cap_error(cap, reached)", "raise _ball_cap_error(cap, reached + 1)",
     "a cap error read from growth series names the radius after the first past the cap"),
    (WORDS, 'if text in ("", "1"):', 'if text == "":',
     'parse_word does not read "1" as the identity'),
    (WORDS, 'parts.append(v if e == 1 else f"{v}^{e}")', 'parts.append(f"{v}^{e}")',
     "format_word writes exponent 1"),
    # tree layer
    (TREE, "{_strip(pres, s, c_mask) for s in side_ball}", "set(side_ball)",
     "the tree ball extends by the side ball's elements, not its G_C cosets"),
    (TREE, "for g in sorted(pres._extend(reps[x], t) for t in cosets[sides[x]] if t or not x):",
     "for g in (pres._extend(reps[x], t) for t in cosets[sides[x]] if t or not x):",
     "the tree ball lists children in coset-set order, not edge order"),
    (TREE, "for t in cosets[sides[x]] if t or not x)", "for t in cosets[sides[x]])",
     "the tree ball never skips a vertex's parent, so it lists the parent again as a child"),
    (TREE, "stack.append((w, v, edges + (max(v, w),)))", "stack.append((w, v, edges + (min(v, w),)))",
     "the path walk names each step by the edge above the nearer-the-base vertex, not the "
     "edge it crosses"),
    (TREE, "_strip(pres, pres.canonical(word), pres._mask(splitting.side(side)))",
     "_strip(pres, pres.canonical(word), pres._mask(splitting.c_side))",
     "make_vertex strips C instead of the vertex's side"),
    (TREE, "            peelable &= masks[i]\n", "",
     "_peel never narrows its peelable mask, so it peels an S-syllable that a kept one "
     "scanned before it depends on"),
    (TREE, "peelable &= masks[i]", "peelable &= ~(1 << i)",
     "_peel cuts only a kept syllable's own vertex from its peelable mask, not every vertex "
     "outside its link"),
    (TREE, "                kept.extend(sylls)\n", "",
     "_peel drops what follows once nothing more can be peeled"),
    (TREE, "p, rest = _peel(pres, h, c_mask)", "p, rest = [], list(h)",
     "the stabilizer's p is empty, so f is g_1 and q takes what p should"),
    (TREE, "_peel(pres, reversed(rest), c_mask)", "_peel(pres, rest, c_mask)",
     "the stabilizer's q is peeled forward, from the start of what p leaves"),
    (TREE, "while n < m and g1[n] == gk[n]:", "while n < m and g1[n][0] == gk[n][0]:",
     "the shared prefix of g_1 and g_k is cancelled by vertex, blind to exponents"),
    (TREE, "size_of = cache(lambda g1, p, r: counter(r)(pres._extend(g1, p)))",
     "size_of = cache(lambda g1, p, r: counter(r)(g1))",
     "the audit sizes g_1 G_R g_1^-1, dropping p from f = g_1 p"),
    (TREE, "sylls = pres._extend(pres.inverse(v1.rep), v2.rep)",
     "a, b = _relative(v1.rep, v2.rep); sylls = pres._extend(pres.inverse(a), b)",
     "tree_distance cancels a shared prefix of any words unread, so an unknown vertex passes"),
    (TREE, "return last + (sides[last % 2] != v1.side)", "return last",
     "tree_distance misses the last round when it ends on the other side"),
    (TREE, "if d2 > d1:", "if d2 >= d1:",
     "element_action calls an elliptic element loxodromic"),
    (TREE, "bisect_right(ls, radius", "bisect_left(ls, radius",
     "a conjugate count misses the elements of exactly the bound's length"),
    (TREE, "radius - 2 * pres._length(_strip(pres, f, lk))",
     "radius - pres._length(_strip(pres, f, lk))",
     "a conjugate's length counts f once, not twice"),
    (TREE, "if w != prev and level[w] + to_go >= floor:", "if w != prev and level[w] + to_go > floor:",
     "the path walk cuts walks that can still climb back to their start's level"),
    (TREE, "(size := size_of(g1, p, r)) > bound:", "(size := size_of(g1, p, r)) >= bound:",
     "the audit reports a stabilizer of exactly |G_N| as a violation"),
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
    (TREE, "truncated = truncated or ball[0] > local_radius",
     "truncated = truncated or ball[0] >= local_radius",
     "the series reads truncation from the sphere of radius local_radius, not local_radius + 1"),
    (TREE, "y = d_s[1] - d_c[1]", "y = 1",
     "the coset series takes the factor 1 + y_u z of S - C = {u} as 1 + z at any order"),
    (TREE, "            _ball_count(ball, local_radius, cap)\n", "",
     "a side ball past the cap is never raised from its series"),
    (TREE, "_ball_count(ball, local_radius, cap)", "_ball_count(ball, local_radius + 1, cap)",
     "the truncation read at local_radius + 1 raises a cap error for a ball within the cap"),
    (TREE, "        if size > cap:\n", "        if size > cap and (d or radius == 1):\n",
     "the tree's depth-0 vertex count is checked only after side B is read, so side B's "
     "cap error comes before the tree ball's"),
    (TREE, "growth_table(max(local_radius + 1, element_radius), cap)",
     "growth_table(max(local_radius, element_radius), cap)",
     "the audit's growth table is cut at local_radius, under the sphere that shows truncation"),
    # classification layer
    (CLASSIFY, "if not mask_a >> j & 1 and (order := pres._mask_order(common)) != INFINITY:",
     "if (order := pres._mask_order(common)) != INFINITY:",
     "an adjacent pair counts as separated"),
    (CLASSIFY, "orders[v] == 2 for v in _complete_minus_one_edge(pres)",
     "orders[v] <= 3 for v in _complete_minus_one_edge(pres)",
     "complete minus an edge is virtually cyclic with an endpoint of order 3"),
    (CLASSIFY, "    if diam <= 1:", "    if diam < 1:",
     "a complete graph is not given the complete-graph certificate"),
    (CLASSIFY, "return n * (n - 1) // 2 - sum(map(int.bit_count, masks)) // 2",
     "return n * (n - 1) // 2 - sum(map(int.bit_count, masks))",
     "non-adjacent pairs are counted with each edge subtracted twice"),
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
    (FORMATS, r'_VERTEX_NAME = re.compile(r"(?!1\Z)[^\s^\ud800-\udfff]+")',
     r'_VERTEX_NAME = re.compile(r"[^\s^\ud800-\udfff]+")',
     'a vertex may be named "1", which reads as the identity'),
    (FORMATS, "            if not isinstance(end, str):", "            if False:",
     "a non-string edge endpoint is passed on to the graph"),
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
