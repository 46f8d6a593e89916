"""Batch CLI: classify presentations, normalize words, audit tree actions.

Exit codes: 0 success / audit clean, 2 parse or word error, bad option or
unwritable output file, 3 degenerate presentation, 4 no splitting available
to audit, 5 resource cap exceeded. Audit violations also exit nonzero (1).
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import Arboreality, NoSeparatedPair, SeparatedPair, VirtuallyCyclicWitness, classify
from .errors import DegeneratePresentationError, InputError, ResourceCapError
from .formats import load_presentation
from .graphs import complement, to_dot
from .tree import (
    SIDE_A,
    TreeVertex,
    audit_acylindricity,
    coset_canonical,
    side_set,
    tree_ball,
    tree_ball_to_dot,
    tree_distance,
)
from .words import format_word, parse_word

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_NO_SPLITTING = 4
EXIT_RESOURCE = 5


def _write(args, text: str) -> None:
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc.strerror}") from exc


def _emit(args, payload: dict, human: str) -> None:
    _write(args, json.dumps(payload, indent=2, sort_keys=True) + "\n" if args.json else human)


def _describe(verdict) -> str:
    cert = verdict.certificate
    if isinstance(cert, SeparatedPair):
        return (
            f"separated pair ({cert.a}, {cert.b}) found: common link "
            f"{{{', '.join(cert.link_set)}}} generates a finite subgroup of "
            f"order {cert.link_order}; splitting is "
            f"({verdict.splitting.acyl_k}, {verdict.splitting.acyl_c})-acylindrical"
        )
    if isinstance(cert, VirtuallyCyclicWitness):
        u, v = cert.missing_edge
        return (
            f"virtually cyclic: complete graph minus the edge ({u}, {v}), all "
            "vertex groups finite, both endpoints of order 2"
        )
    if isinstance(cert, NoSeparatedPair):
        return (
            f"no separated pair among the {cert.checked_pair_count} "
            "non-adjacent vertex pairs"
        )
    return cert.reason


def cmd_classify(args) -> int:
    pres, _ = load_presentation(args.file)
    verdict = classify(pres)
    human = (
        f"arboreality:      {verdict.arboreality.value}\n"
        f"virtually cyclic: {verdict.virtually_cyclic.value}\n"
        f"AH criterion:     {verdict.ah_criterion.value}\n"
        f"diameter:         {'inf' if verdict.diameter == float('inf') else verdict.diameter}\n"
        f"reason:           {_describe(verdict)}\n"
    )
    _emit(args, verdict.to_dict(), human)
    return EXIT_OK


def cmd_nf(args) -> int:
    pres, named = load_presentation(args.file)
    word = named[args.word] if args.word in named else parse_word(pres, args.word)
    _emit(args, {"canonical": format_word(pres.canonical(word))},
          format_word(pres.canonical(word)) + "\n")
    return EXIT_OK


def cmd_mul(args) -> int:
    pres, named = load_presentation(args.file)
    words = [
        named[w] if w in named else parse_word(pres, w) for w in (args.word1, args.word2)
    ]
    product = pres.multiply(*words)
    _emit(args, {"product": format_word(product)}, format_word(product) + "\n")
    return EXIT_OK


def _require_splitting(pres):
    verdict = classify(pres)
    if verdict.arboreality != Arboreality.ACYL_ARBOREAL:
        sys.stderr.write(
            "no splitting to audit: presentation is not acylindrically "
            f"arboreal ({_describe(verdict)})\n"
        )
        raise SystemExit(EXIT_NO_SPLITTING)
    return verdict.splitting


def cmd_tree_dist(args) -> int:
    pres, named = load_presentation(args.file)
    splitting = _require_splitting(pres)

    def vertex(text: str, side: str) -> TreeVertex:
        word = named[text] if text in named else parse_word(pres, text)
        return TreeVertex(side, coset_canonical(pres, word, side_set(splitting, side)))

    v1 = vertex(args.word1, args.side1)
    v2 = vertex(args.word2, args.side2)
    dist = tree_distance(splitting, v1, v2)
    _emit(
        args,
        {"distance": dist, "v1": v1.label(), "v2": v2.label()},
        f"d({v1.label()}, {v2.label()}) = {dist}\n",
    )
    return EXIT_OK


def cmd_tree_audit(args) -> int:
    for name in ("k", "tree_radius", "element_radius", "local_radius", "ball_cap"):
        value = getattr(args, name)
        if value < 1:
            raise InputError(f"--{name.replace('_', '-')} must be at least 1, got {value}")
    if args.k > 2 * args.tree_radius:
        raise InputError(
            f"--k {args.k} is more than twice --tree-radius {args.tree_radius}: "
            "no path of that many edges fits in the tree ball, so nothing would be audited"
        )
    pres, _ = load_presentation(args.file)
    splitting = _require_splitting(pres)
    report = audit_acylindricity(
        splitting,
        k=args.k,
        tree_radius=args.tree_radius,
        element_radius=args.element_radius,
        local_radius=args.local_radius,
        cap=args.ball_cap,
    )
    human = (
        f"pair:           {report.splitting.pair}\n"
        f"k:              {report.k}\n"
        f"paths checked:  {report.paths_checked}\n"
        f"max stabilizer: {report.max_stabilizer_size}\n"
        f"bound |G_N|:    {report.bound}\n"
        f"truncated:      {report.truncated}\n"
        f"exhaustive:     {report.exhaustive_elements}\n"
        f"violations:     {len(report.violations)}\n"
    )
    _emit(args, report.to_dict(), human)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_export_dot(args) -> int:
    pres, _ = load_presentation(args.file)
    if args.target == "graph":
        text = to_dot(pres.graph)
    elif args.target == "complement":
        text = to_dot(complement(pres.graph))
    else:
        splitting = _require_splitting(pres)
        ball = tree_ball(
            splitting, args.tree_radius, args.local_radius, args.ball_cap
        )
        text = tree_ball_to_dot(ball)
    _write(args, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arboreal",
        description="Acylindrical arboreality of graph products of cyclic groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="presentation JSON file")
        p.add_argument("--json", action="store_true", help="emit JSON output")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("classify", help="run the classification theorem")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("nf", help="canonical normal form of a word")
    common(p)
    p.add_argument("word", help="word in compact syntax, e.g. 'a^2 b c^-1'")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("mul", help="multiply two words")
    common(p)
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("tree-dist", help="distance between two tree vertices")
    common(p)
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--side1", choices="AB", default=SIDE_A)
    p.add_argument("--side2", choices="AB", default=SIDE_A)
    p.set_defaults(func=cmd_tree_dist)

    p = sub.add_parser("tree-audit", help="empirical (k, |G_N|) acylindricity audit")
    common(p)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--tree-radius", type=int, default=5)
    p.add_argument("--element-radius", type=int, default=6)
    p.add_argument("--local-radius", type=int, default=2)
    p.add_argument("--ball-cap", type=int, default=200_000)
    p.set_defaults(func=cmd_tree_audit)

    p = sub.add_parser("export-dot", help="DOT export of graph, complement or tree ball")
    common(p)
    p.add_argument(
        "--target", choices=["graph", "complement", "tree-ball"], default="graph"
    )
    p.add_argument("--tree-radius", type=int, default=2)
    p.add_argument("--local-radius", type=int, default=2)
    p.add_argument("--ball-cap", type=int, default=200_000)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegeneratePresentationError as exc:
        sys.stderr.write(f"degenerate presentation: {exc}\n")
        return EXIT_DEGENERATE
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except ResourceCapError as exc:
        sys.stderr.write(f"resource cap exceeded: {exc}\n")
        return EXIT_RESOURCE
    except SystemExit as exc:
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
