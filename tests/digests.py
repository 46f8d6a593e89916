#!/usr/bin/env python3
"""Output digests: one sha256 per layer over seeded random graph products.

Product i (seed i) has 4 to 7 vertices, orders drawn from 2, 3, 5 and inf,
and edges drawn with a probability of its own. Each layer hashes, one line
per case, what the public API returns, or the error it raises:

- ``classify``: the verdict's JSON and that of each separated pair's
  splitting, in both orders of the pair;
- ``make_vertex``: both sides' vertices and the edge of raw words, for the
  first order of each of the first three pairs, as in every layer below;
- ``distance``: ``tree_distance`` between vertices with raw representatives,
  and ``element_action`` of raw words;
- ``stabilizer``: ``path_stabilizer`` of paths whose end edges are raw words;
- ``tree_ball``: DOT and truncation of small tree balls, or the cap error;
- ``audit``: the report's ``to_dict()`` (k = 1 to 4) or its error, under
  caps low enough that cap errors and failing audits are common;
- ``words``: ``canonical``, ``multiply`` and ``inverse`` of raw words, and
  ``parse_word`` of raw text, whose zero exponents, unknown vertices and bad
  syntax raise InputError;
- ``ball``: ``enumerate_ball_info``'s size and saturation flag, or its cap
  error, for random vertex subsets at radii 0 to 4 and caps 8, 40 and 400;
- ``cli``: the exit code and stdout and stderr bytes of ``arboreal.cli.main``,
  run in-process from the repository's root on a fixed list of argvs (see
  ``cli_argvs``), the same at every count;
- ``pins``: audits and tree balls of every separated pair of six small
  presentations (see ``pins_lines``), also the same at every count. The
  oracle properties stop at tree radius 3, and ``bench/checks.py:check_audit``
  checks audits only by meaning, so this layer is what fails when a faster
  audit changes one byte of a report, a witness's path label or the order of
  witnesses.

A raw word has up to 120 syllables with exponents from -7 to 7, 0 included.
The ``words`` and ``ball`` cases are drawn from a random stream of their
own, and so are the ``cli`` layer's long words, so that adding them moved
no other layer's cases.
A refactor that keeps every output keeps every digest; ``digests.json``
holds them for the counts that tests/test_digests.py and CI run. It is the
one golden store of the tests; bench/expected.json is the benchmark's own.
Run from the repository's root:

    PYTHONPATH=src python3 tests/digests.py [COUNT] [--record]

prints each layer's digest for products 0..COUNT-1 (default
``FULL_COUNT``) and exits 1 naming the layers that moved: those whose digest
differs from the one recorded for that count, and those recorded there that
``LAYERS`` lacks. ``--record`` writes the digests to ``digests.json``
instead and prints which layers moved, or that none did. A change that
means to alter an output records both counts once, in a commit of its own,
and names the moved layers in CHANGES.md.
"""

import hashlib
import io
import json
import os
import random
import sys
from itertools import chain
from pathlib import Path

from arboreal.cli import main as cli_main
from arboreal.classify import SIDE_A, SIDE_B, build_splitting, classify, separated_pairs
from arboreal.errors import InputError, ResourceCapError
from arboreal.formats import load_presentation
from arboreal.graphs import SimpleGraph
from arboreal.tree import (TreeEdge, TreeVertex, audit_acylindricity, element_action,
                           make_edge, make_vertex, path_stabilizer, tree_ball, tree_ball_to_dot,
                           tree_distance)
from arboreal.words import INFINITY, Presentation, parse_word

RECORDED = Path(__file__).with_name("digests.json")
ROOT = RECORDED.parent.parent
FULL_COUNT = 300
QUICK_COUNT = 40
LAYERS = ("classify", "make_vertex", "distance", "stabilizer", "tree_ball", "audit", "words",
          "ball", "cli", "pins")


def random_product(rng: random.Random) -> Presentation:
    names = "abcdefg"[:rng.randint(4, 7)]
    p = rng.uniform(0.2, 0.7)
    edges = [(u, v) for i, u in enumerate(names) for v in names[i + 1:] if rng.random() < p]
    return Presentation(SimpleGraph(names, edges),
                        {v: rng.choice((2, 3, 5, INFINITY)) for v in names})


def raw_word(rng: random.Random, pres: Presentation, max_len: int = 120):
    vertices = pres.graph.vertices
    return tuple((rng.choice(vertices), rng.randint(-7, 7))
                 for _ in range(rng.randint(0, max_len)))


def outcome(call, *args):
    """repr of ``call(*args)``, or the InputError or ResourceCapError it raises."""
    try:
        return repr(call(*args))
    except (InputError, ResourceCapError) as exc:
        return f"{type(exc).__name__}: {exc}"


def dot_and_truncated(*args):
    ball = tree_ball(*args)
    return tree_ball_to_dot(ball), ball.truncated


def size_and_flag(pres: Presentation, *args):
    ball, saturated = pres.enumerate_ball_info(*args)
    return len(ball), saturated


def product_lines(seed: int):
    """(layer, line) for every case of product ``seed``."""
    rng = random.Random(seed)
    pres = random_product(rng)
    yield "classify", json.dumps(classify(pres).to_dict())
    splittings = []
    for pair in separated_pairs(pres)[:3]:
        for a, b in ((pair.a, pair.b), (pair.b, pair.a)):
            splittings.append(build_splitting(pres, pair._replace(a=a, b=b)))
            yield "classify", json.dumps(splittings[-1].to_dict())
    for sp in splittings[::2]:
        for _ in range(4):
            w1, w2 = raw_word(rng, pres), raw_word(rng, pres)
            s1, s2 = rng.choice((SIDE_A, SIDE_B)), rng.choice((SIDE_A, SIDE_B))
            yield "make_vertex", repr([make_vertex(sp, w1, SIDE_A), make_vertex(sp, w1, SIDE_B),
                                       make_edge(sp, w1)])
            yield "distance", repr(tree_distance(sp, TreeVertex(s1, w1), TreeVertex(s2, w2)))
            yield "distance", repr(element_action(sp, w2[:rng.randint(0, 30)]))
            path = [TreeEdge(w1)] + [TreeEdge(raw_word(rng, pres, 8))] * rng.randint(0, 1)
            yield "stabilizer", repr(path_stabilizer(sp, path + [TreeEdge(w2)]))
        for _ in range(3):
            radius, local, cap = rng.randint(0, 3), rng.randint(1, 3), rng.choice((8, 40, 400))
            yield "tree_ball", outcome(dot_and_truncated, sp, radius, local, cap)
        for k in (1, 2, 3, 4) * 4:
            limits = dict(tree_radius=rng.randint(1, 3), element_radius=rng.randint(1, 5),
                          local_radius=rng.randint(1, 3), cap=rng.choice((10, 100, 2000)))
            yield "audit", outcome(lambda: audit_acylindricity(sp, k, **limits).to_dict())
    yield from word_lines(random.Random(f"{seed} words"), pres)


def word_lines(rng: random.Random, pres: Presentation):
    """(layer, line) for the ``words`` and ``ball`` cases of ``pres``."""
    for _ in range(4):
        w1, w2 = raw_word(rng, pres), raw_word(rng, pres)
        yield "words", repr([pres.canonical(w1), pres.multiply(w1, w2), pres.inverse(w1)])
        tokens = [f"{v}^{e}" for v, e in raw_word(rng, pres, 12)]
        if rng.random() < 0.5:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(("z", "a^x", "^2", "a^-", "1")))
        yield "words", outcome(parse_word, pres, " ".join(tokens))
        cut = rng.randint(0, len(w1))
        yield "words", outcome(pres.canonical, w1[:cut] + (("z", 1),) + w1[cut:])
    for _ in range(6):
        subset = [v for v in pres.graph.vertices if rng.random() < 0.5]
        radius, cap = rng.randint(0, 4), rng.choice((8, 40, 400))
        yield "ball", outcome(size_and_flag, pres, radius, cap, subset)


def cli_argvs():
    """The ``cli`` layer's argvs, paths relative to the repository's root:
    audits, tree-ball DOT, long-word ``nf``, ``mul`` and ``tree-dist``, and
    one run per error exit. No ``-h``, usage error or ``--out``: argparse's
    text differs between Python versions."""
    rng = random.Random("cli")

    def long_word(fixture, length):
        vertices = [v["name"] for v in json.loads((ROOT / fixture).read_text())["vertices"]]
        return " ".join(f"{rng.choice(vertices)}^{rng.choice((-3, -2, -1, 1, 2, 3))}"
                        for _ in range(length))

    fig2, p4, z2_z5 = "fixtures/fig2_raag.json", "fixtures/p4_racg.json", "fixtures/z2_z5.json"
    return [
        ["tree-audit", p4, "--k", "4", "--tree-radius", "4", "--element-radius", "5", "--json"],
        ["tree-audit", p4, "--all-pairs", "--tree-radius", "12", "--json"],
        ["tree-audit", p4, "--all-pairs", "--k", "2", "--tree-radius", "1", "--json"],
        ["tree-audit", p4, "--all-pairs", "--k", "2", "--tree-radius", "2", "--json"],
        ["export-dot", p4, "--target", "tree-ball", "--tree-radius", "3"],
        ["export-dot", p4, "--target", "tree-ball", "--tree-radius", "4", "--local-radius", "3"],
        ["nf", fig2, long_word(fig2, 400), "--json"],
        ["mul", fig2, long_word(fig2, 200), long_word(fig2, 200), "--json"],
        ["tree-dist", p4, "1", long_word(p4, 80), "--json"],
        ["nf", p4, "a z"],
        ["nf", p4, "a^0 b"],
        ["tree-audit", p4, "--k", "5", "--tree-radius", "2"],
        ["tree-audit", z2_z5, "--k", "1", "--tree-radius", "2", "--local-radius", "1",
         "--element-radius", "1", "--ball-cap", "2"],
        ["tree-audit", "fixtures/c5_raag.json"],
        ["classify", "fixtures/missing.json"],
    ]


def cli_lines():
    """(``cli``, line) for each of ``cli_argvs``: the argv, exit code, stdout
    and stderr bytes of ``arboreal.cli.main``, whose ``_print`` writes to
    each stream's byte buffer."""
    cwd, streams = os.getcwd(), (sys.stdout, sys.stderr)
    os.chdir(ROOT)
    try:
        for argv in cli_argvs():
            out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
            sys.stdout, sys.stderr = out, err
            try:
                code = cli_main(argv)
            finally:
                sys.stdout, sys.stderr = streams
            out.flush()
            err.flush()
            yield "cli", repr([argv, code, out.buffer.getvalue(), err.buffer.getvalue()])
    finally:
        os.chdir(cwd)


def pinned_presentations():
    """(name, presentation) for the ``pins`` layer: four fixtures, and the
    right-angled Coxeter group on K_{1,3} and P4 with orders (3, 2, 3, 2)."""
    for name in ("p4_racg", "z2_z3", "z2_z5", "o2_racg"):
        yield name, load_presentation(ROOT / "fixtures" / f"{name}.json")[0]
    yield "k13_racg", Presentation(SimpleGraph("abcd", [("a", "b"), ("a", "c"), ("a", "d")]),
                                   dict.fromkeys("abcd", 2))
    yield "p4_3232", Presentation(SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")]),
                                  {"a": 3, "b": 2, "c": 3, "d": 2})


def pins_lines():
    """(``pins``, line) for each separated pair of each pinned presentation: the
    audit's ``to_dict()`` at element radius 6 and (k, tree radius) = (1..4, 5),
    (3, 6), (3, 8) and (4, 7), then the DOT and truncation of the tree ball at
    (radius, local radius) = (2, 1), (3, 2) and (4, 2)."""
    for name, pres in pinned_presentations():
        for pair in separated_pairs(pres):
            sp, case = build_splitting(pres, pair), [name, pair.a, pair.b]
            for k, radius in ((1, 5), (2, 5), (3, 5), (4, 5), (3, 6), (3, 8), (4, 7)):
                report = audit_acylindricity(sp, k, tree_radius=radius, element_radius=6)
                yield "pins", json.dumps([*case, k, radius, report.to_dict()])
            for radii in ((2, 1), (3, 2), (4, 2)):
                yield "pins", json.dumps([*case, *radii, *dot_and_truncated(sp, *radii)])


def digests(count: int) -> dict[str, str]:
    """Each layer's sha256 over products 0..count-1, and the ``cli`` and
    ``pins`` layers'."""
    hashes = {layer: hashlib.sha256() for layer in LAYERS}
    cases = chain.from_iterable(map(product_lines, range(count)))
    for layer, line in chain(cases, cli_lines(), pins_lines()):
        hashes[layer].update(line.encode() + b"\n")
    return {layer: h.hexdigest() for layer, h in hashes.items()}


def main(argv: list[str]) -> int:
    record = "--record" in argv
    args = [a for a in argv if a != "--record"]
    count = int(args[0]) if args else FULL_COUNT
    found = digests(count)
    for layer, digest in found.items():
        print(f"{layer:12} {digest}")
    recorded = json.loads(RECORDED.read_text()) if RECORDED.exists() else {}
    if not record and str(count) not in recorded:
        print(f"no digests recorded for {count} products", file=sys.stderr)
        return 1
    expected = recorded.get(str(count), {})
    moved = [layer for layer in (*LAYERS, *sorted(set(expected) - set(LAYERS)))
             if found.get(layer) != expected.get(layer)]
    if record:
        recorded[str(count)] = found
        RECORDED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        print(f"moved at {count} products: {', '.join(moved) or 'none'}")
        return 0
    if moved:
        print(f"digests differ from {RECORDED.name}: {', '.join(moved)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
