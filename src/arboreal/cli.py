"""Batch CLI: classify presentations, normalize words, audit tree actions.

Exit codes: 0 success / audit clean, 2 parse or word error, bad option or
unwritable output file, 3 degenerate presentation, 4 no splitting available
to audit, 5 resource cap exceeded. Audit violations also exit nonzero (1).
Exits 2 to 5 print one ``error: `` line on stderr, except a usage error (a
missing argument, an unknown command or option, or an option value of the
wrong type): it exits 2 after argparse's usage text and a line such as
``arboreal tree-audit: error: ``. Text is UTF-8 whatever the locale: output,
``error: `` lines and word arguments.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import (
    SIDE_A,
    SIDE_B,
    Arboreality,
    NoSeparatedPair,
    SeparatedPair,
    VirtuallyCyclicWitness,
    build_splitting,
    classify,
    separated_pairs,
)
from .errors import DegeneratePresentationError, InputError, ResourceCapError
from .formats import argv_text, load_presentation
from .graphs import complement, to_dot
from .words import DEFAULT_BALL_CAP, format_word, parse_word

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_NO_SPLITTING = 4
EXIT_RESOURCE = 5

# How audit-limit and tree-ball-limit errors name each parameter: by its
# flag. tree_ball's radius is the tree radius.
AUDIT_FLAGS = {
    "k": "--k",
    "radius": "--tree-radius",
    "tree_radius": "--tree-radius",
    "element_radius": "--element-radius",
    "local_radius": "--local-radius",
    "cap": "--ball-cap",
}


class NoSplittingError(Exception):
    """The presentation has no splitting to audit."""


def _print(stream, text: str) -> None:
    """Write ``text`` as UTF-8 to ``stream``'s byte buffer, whatever the locale
    (a lone surrogate as its escape), or as text to a stream with none, such
    as io.StringIO."""
    if hasattr(stream, "buffer"):
        stream.flush()
        stream, text = stream.buffer, text.encode("utf-8", "backslashreplace")
    stream.write(text)
    stream.flush()


def _write(args, text: str) -> None:
    if not args.out:
        _print(sys.stdout, text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        shown = argv_text(args.out, "backslashreplace")
        raise InputError(f"cannot write {shown}: {exc.strerror}") from exc


def _emit(args, payload, human: str) -> None:
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


def _word(pres, named: dict, arg: str):
    """A named word of the presentation file, or else the word argument parsed,
    its bytes read as UTF-8 whatever encoding ``sys.argv`` decoded them with."""
    try:
        text = argv_text(arg, "strict")
    except UnicodeDecodeError as exc:
        raise InputError(f"word argument is not UTF-8: {exc.object!r}") from None
    return named[text] if text in named else parse_word(pres, text)


def cmd_classify(args) -> int:
    pres, _ = load_presentation(args.file)
    verdict = classify(pres)
    payload = verdict.to_dict()
    human = (
        f"arboreality:      {payload['arboreality']}\n"
        f"virtually cyclic: {payload['virtually_cyclic']}\n"
        f"AH criterion:     {payload['ah_criterion']}\n"
        f"diameter:         {payload['diameter']}\n"
        f"reason:           {_describe(verdict)}\n"
    )
    _emit(args, payload, human)
    return EXIT_OK


def cmd_nf(args) -> int:
    pres, named = load_presentation(args.file)
    text = format_word(_word(pres, named, args.word))
    _emit(args, {"canonical": text}, text + "\n")
    return EXIT_OK


def cmd_mul(args) -> int:
    pres, named = load_presentation(args.file)
    product = pres.multiply(_word(pres, named, args.word1), _word(pres, named, args.word2))
    _emit(args, {"product": format_word(product)}, format_word(product) + "\n")
    return EXIT_OK


def _require_splitting(pres):
    verdict = classify(pres)
    if verdict.arboreality != Arboreality.ACYL_ARBOREAL:
        reason = f"presentation is not acylindrically arboreal ({_describe(verdict)})"
        raise NoSplittingError(reason)
    return verdict.splitting


def cmd_tree_dist(args) -> int:
    from .tree import make_vertex, tree_distance
    pres, named = load_presentation(args.file)
    splitting = _require_splitting(pres)
    v1 = make_vertex(splitting, _word(pres, named, args.word1), args.side1)
    v2 = make_vertex(splitting, _word(pres, named, args.word2), args.side2)
    dist = tree_distance(splitting, v1, v2)
    _emit(
        args,
        {"distance": dist, "v1": v1.label(), "v2": v2.label()},
        f"d({v1.label()}, {v2.label()}) = {dist}\n",
    )
    return EXIT_OK


def cmd_tree_audit(args) -> int:
    from .tree import audit_acylindricity, check_limits
    limits = dict(
        k=args.k, tree_radius=args.tree_radius, element_radius=args.element_radius,
        local_radius=args.local_radius, cap=args.ball_cap,
    )
    check_limits(AUDIT_FLAGS, **limits)
    pres, _ = load_presentation(args.file)
    if args.all_pairs:
        splittings = [build_splitting(pres, p) for p in separated_pairs(pres)]
        if not splittings:
            raise NoSplittingError("no separated pair")
    else:
        splittings = [_require_splitting(pres)]
    reports = [audit_acylindricity(sp, **limits) for sp in splittings]
    human = "\n".join(
        f"pair:           {report.splitting.pair}\n"
        f"k:              {report.k}\n"
        f"paths checked:  {report.paths_checked}\n"
        f"max stabilizer: {report.max_stabilizer_size}\n"
        f"bound |G_N|:    {report.bound}\n"
        f"truncated:      {report.truncated}\n"
        f"exhaustive:     {report.exhaustive_elements}\n"
        f"violations:     {len(report.violations)}\n"
        for report in reports
    )
    payload = [report.to_dict() for report in reports]
    _emit(args, payload if args.all_pairs else payload[0], human)
    return EXIT_OK if all(report.passed for report in reports) else EXIT_VIOLATION


def cmd_export_dot(args) -> int:
    if args.target == "tree-ball":
        from .tree import check_limits, tree_ball, tree_ball_to_dot
        check_limits(AUDIT_FLAGS, radius=args.tree_radius, local_radius=args.local_radius,
                     cap=args.ball_cap)
    pres, _ = load_presentation(args.file)
    if args.target == "graph":
        text = to_dot(pres.graph)
    elif args.target == "complement":
        text = to_dot(complement(pres.graph))
    else:
        splitting = _require_splitting(pres)
        ball = tree_ball(splitting, args.tree_radius, args.local_radius, args.ball_cap)
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

    def tree_limits(p, tree_radius: int):
        p.add_argument("--tree-radius", type=int, default=tree_radius)
        p.add_argument("--local-radius", type=int, default=2)
        p.add_argument(
            "--ball-cap", type=int, default=DEFAULT_BALL_CAP,
            help="most tree-ball vertices and side or G_R ball elements; exit 5 past it",
        )

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
    p.add_argument("--side1", choices=[SIDE_A, SIDE_B], default=SIDE_A)
    p.add_argument("--side2", choices=[SIDE_A, SIDE_B], default=SIDE_A)
    p.set_defaults(func=cmd_tree_dist)

    p = sub.add_parser("tree-audit", help="empirical (k, |G_N|) acylindricity audit")
    common(p)
    p.add_argument("--k", type=int, default=3)
    tree_limits(p, 5)
    p.add_argument(
        "--element-radius", type=int, default=6,
        help="count stabilizer elements up to this length; sizes only the G_R balls",
    )
    p.add_argument(
        "--all-pairs", action="store_true",
        help="audit every separated pair, not just the one classify picks",
    )
    p.set_defaults(func=cmd_tree_audit)

    p = sub.add_parser("export-dot", help="DOT export of graph, complement or tree ball")
    p.add_argument("file", help="presentation JSON file")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--target", choices=["graph", "complement", "tree-ball"], default="graph")
    tree_limits(p, 2)
    p.set_defaults(func=cmd_export_dot)

    for p in sub.choices.values():
        p.set_defaults(subparser=p)
    return parser


def main(argv=None) -> int:
    """The subcommand's exit code, or an error's code and ``error: `` line.
    An argument the subcommand does not know gets the subcommand's usage."""
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.subparser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except DegeneratePresentationError as exc:
        message, code = f"degenerate presentation: {exc}", EXIT_DEGENERATE
    except InputError as exc:
        message, code = str(exc), EXIT_PARSE
    except NoSplittingError as exc:
        message, code = f"no splitting to audit: {exc}", EXIT_NO_SPLITTING
    except ResourceCapError as exc:
        message, code = f"resource cap exceeded: {exc}", EXIT_RESOURCE
    _print(sys.stderr, f"error: {message}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
