import importlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings

from arboreal.classify import build_splitting, separated_pairs
from arboreal.cli import main
from arboreal.formats import load_presentation
from arboreal.tree import audit_acylindricity

from conftest import FIXTURES, json_documents

SMALL_GRAPHS = FIXTURES.parent / "scripts" / "classify_small_graphs.py"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_p4_racg(self, capsys):
        code, out, _ = run(capsys, "classify", FIXTURES / "p4_racg.json", "--json")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["arboreality"] == "AcylArboreal"
        assert verdict["splitting"]["acyl_k"] == 3

    def test_fig2_raag(self, capsys):
        code, out, _ = run(capsys, "classify", FIXTURES / "fig2_raag.json", "--json")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["arboreality"] == "NotAcylArboreal"
        assert verdict["ah_criterion"] == "AHByIrreducibility"

    def test_human_report_names_condition(self, capsys):
        code, out, _ = run(capsys, "classify", FIXTURES / "p4_racg.json")
        assert code == 0
        assert "separated pair" in out

    def test_degenerate_exits_3(self, capsys, tmp_path):
        # a vertex of order 1, one vertex, no vertices
        path = tmp_path / "bad.json"
        for vertices in ([{"name": "a", "order": 1}, {"name": "b", "order": 2}],
                         [{"name": "a", "order": 2}], []):
            path.write_text(json.dumps({"vertices": vertices}))
            code, _, err = run(capsys, "classify", path)
            assert code == 3, vertices
            assert err.startswith("error: degenerate presentation: "), vertices

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        code, _, _ = run(capsys, "classify", path)
        assert code == 2

    def test_unknown_option_gets_the_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", str(FIXTURES / "p4_racg.json"), "--bogus"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage: arboreal classify")
        assert "arboreal classify: error: unrecognized arguments: --bogus" in err

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "classify", FIXTURES / "p4_racg.json", "--json")
        _, out2, _ = run(capsys, "classify", FIXTURES / "p4_racg.json", "--json")
        assert out1 == out2


class TestNf:
    def test_cancellation(self, capsys):
        code, out, _ = run(capsys, "nf", FIXTURES / "p3_raag.json", "a a^-1")
        assert code == 0
        assert out.strip() == "1"

    def test_commuting_sorted(self, capsys):
        code, out, _ = run(capsys, "nf", FIXTURES / "p3_raag.json", "b a")
        assert code == 0
        assert out.strip() == "a b"

    def test_order_two(self, capsys):
        code, out, _ = run(capsys, "nf", FIXTURES / "p4_racg.json", "b b")
        assert code == 0
        assert out.strip() == "1"

    def test_unknown_vertex_exits_2(self, capsys):
        code, _, _ = run(capsys, "nf", FIXTURES / "p3_raag.json", "z")
        assert code == 2

    def test_zero_exponent_exits_2(self, capsys):
        code, _, _ = run(capsys, "nf", FIXTURES / "p3_raag.json", "a^0")
        assert code == 2


class TestMul:
    def test_product(self, capsys):
        code, out, _ = run(capsys, "mul", FIXTURES / "p4_racg.json", "a", "d")
        assert code == 0
        assert out.strip() == "a d"


class TestTreeDist:
    def test_base_to_translate(self, capsys):
        # classify picks the lex-first separated pair (a, c); in that
        # splitting a*c moves the base vertex two edges
        code, out, _ = run(
            capsys, "tree-dist", FIXTURES / "p4_racg.json", "1", "a c", "--json"
        )
        assert code == 0
        assert json.loads(out)["distance"] == 2

    def test_no_splitting_exits_4(self, capsys):
        code, _, err = run(capsys, "tree-dist", FIXTURES / "fig2_raag.json", "1", "a")
        assert code == 4
        assert "no splitting" in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("side", ["AB", ""])
    def test_side_outside_a_and_b_exits_2(self, capsys, side):
        with pytest.raises(SystemExit) as exc:
            main(["tree-dist", str(FIXTURES / "p4_racg.json"), "1", "a", "--side1", side])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "invalid choice" in err
        assert "Traceback" not in err


class TestTreeAudit:
    def test_p4_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "tree-audit",
            FIXTURES / "p4_racg.json",
            "--k", "3",
            "--tree-radius", "4",
            "--element-radius", "5",
            "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["max_stabilizer_size"] <= report["bound"]
        assert report["violations"] == []

    def test_single_edges_exceed_the_bound_exits_1(self, capsys):
        """k = 1 is below the paper's k = 3: an edge's stabilizer is a conjugate
        of G_C, larger than |G_N| = 2."""
        code, out, _ = run(
            capsys,
            "tree-audit",
            FIXTURES / "p4_racg.json",
            "--k", "1",
            "--tree-radius", "2",
            "--element-radius", "3",
            "--json",
        )
        assert code == 1
        report = json.loads(out)
        assert report["violations"]
        assert report["max_stabilizer_size"] > report["bound"]

    def test_fig2_no_splitting_exits_4(self, capsys):
        code, _, _ = run(capsys, "tree-audit", FIXTURES / "fig2_raag.json")
        assert code == 4

    def test_tiny_cap_exits_5(self, capsys):
        code, _, err = run(
            capsys, "tree-audit", FIXTURES / "p4_racg.json", "--ball-cap", "10"
        )
        assert code == 5
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_ball_cap_bounds_the_tree_ball(self, capsys, tmp_path):
        """Z2*Z5*Z3*Z3 without edges, pair (a, b): the radius-2 tree ball at
        local radius 3 has 2,107 vertices, so --ball-cap 3000 stops the audit
        while the ball is built."""
        path = tmp_path / "z2_z5_z3_z3.json"
        orders = {"a": 2, "b": 5, "c": 3, "d": 3}
        path.write_text(json.dumps(
            {"vertices": [{"name": v, "order": n} for v, n in orders.items()]}
        ))
        code, out, err = run(
            capsys, "tree-audit", path, "--ball-cap", "3000", "--local-radius", "3",
            "--tree-radius", "3", "--element-radius", "1", "--k", "2",
        )
        assert code == 5
        assert not out
        assert "tree ball exceeded cap of 3000 vertices" in err

    def test_element_radius_reaches_past_the_ball_cap(self, capsys, tmp_path):
        """Z2*Z2*Z3*Z3*Z3, pair (a, b): the whole group's radius-3 ball has
        more than 300 elements, but no such ball is built, so --ball-cap 300
        prints the report of --ball-cap 3000 and exits 0."""
        path = tmp_path / "z2_z2_z3_z3_z3.json"
        orders = {"a": 2, "b": 2, "c": 3, "d": 3, "e": 3}
        path.write_text(json.dumps(
            {"vertices": [{"name": v, "order": n} for v, n in orders.items()]}
        ))
        audit = ["tree-audit", path, "--k", "3", "--tree-radius", "2", "--local-radius", "1",
                 "--element-radius", "3", "--json", "--ball-cap"]
        code, out, err = run(capsys, *audit, "300")
        assert (code, err) == (0, "")
        assert json.loads(out)["splitting"]["pair"] == ["a", "b"]
        assert run(capsys, *audit, "3000") == (0, out, "")

    def test_huge_element_radius_is_sized_by_the_g_r_balls(self, capsys):
        """P4 RACG: every G_R is finite, so --element-radius 10**9 runs as
        fast as 50, which already counts all of each f G_R f^-1, and prints
        the same reports for all three pairs."""
        audit = ["tree-audit", FIXTURES / "p4_racg.json", "--all-pairs", "--json",
                 "--tree-radius", "4", "--element-radius"]
        results = [run(capsys, *audit, r) for r in (str(10**9), "50")]
        reports = []
        for code, out, err in results:
            assert (code, err) == (0, "")
            reports.append(json.loads(out))
            for report in reports[-1]:
                del report["element_radius"]
        assert len(reports[0]) == 3
        assert reports[0] == reports[1]

    def test_huge_vertex_order_stops_at_the_cap(self, capsys, tmp_path):
        """A vertex of order 10**12, or 2**64 past sys.maxsize: its side ball's
        order - 1 generators are counted, not built, so --ball-cap 100 ends
        the audit at radius 1."""
        path = tmp_path / "huge.json"
        for order in (10**12, 2**64):
            path.write_text(json.dumps(
                {"vertices": [{"name": "a", "order": 2}, {"name": "b", "order": order}]}
            ))
            code, out, err = run(capsys, "tree-audit", path, "--ball-cap", "100")
            assert (code, out) == (5, "")
            assert err == (
                "error: resource cap exceeded: ball exceeded cap of 100 elements at radius 1\n"
            )


class TestExportDot:
    def test_fig2_graph_counts(self, capsys):
        code, out, _ = run(capsys, "export-dot", FIXTURES / "fig2_raag.json")
        assert code == 0
        assert out.count(";") == 6 + 9
        assert out.count("--") == 9

    def test_complement(self, capsys):
        code, out, _ = run(
            capsys, "export-dot", FIXTURES / "fig2_raag.json", "--target", "complement"
        )
        assert code == 0
        assert out.count("--") == 6

    def test_tree_ball(self, capsys):
        code, out, _ = run(
            capsys,
            "export-dot",
            FIXTURES / "p4_racg.json",
            "--target", "tree-ball",
            "--tree-radius", "1",
        )
        assert code == 0
        assert "A:1" in out and "B:1" in out

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--tree-radius", "-1", "--tree-radius must be at least 0, got -1"),
         ("--local-radius", "0", "--local-radius must be at least 1, got 0"),
         ("--ball-cap", "0", "--ball-cap must be at least 1, got 0")],
    )
    def test_tree_ball_out_of_range_exits_2(self, capsys, flag, value, message):
        code, out, err = run(
            capsys, "export-dot", FIXTURES / "p4_racg.json", "--target", "tree-ball", flag, value
        )
        assert code == 2
        assert not out
        assert f"error: {message}" in err

    def test_tree_ball_cap_hit_exits_5(self, capsys):
        code, _, err = run(
            capsys, "export-dot", FIXTURES / "p4_racg.json", "--target", "tree-ball",
            "--ball-cap", "3",
        )
        assert code == 5
        assert "resource cap exceeded" in err

    @pytest.mark.parametrize("target", ["graph", "complement", "tree-ball"])
    def test_quoted_vertex_names_are_escaped(self, capsys, tmp_path, target):
        path = tmp_path / "quoted.json"
        names = ['a"b', "c\\d", "e"]
        path.write_text(json.dumps({
            "vertices": [{"name": n, "order": 2} for n in names],
            "edges": [names[:2]],
        }))
        code, out, _ = run(capsys, "export-dot", path, "--target", target, "--tree-radius", "2")
        assert code == 0
        assert 'a\\"b' in out and "c\\\\d" in out
        # with every well-formed quoted string removed, no quote or backslash is left
        assert not re.search(r'["\\]', re.sub(r'"(?:[^"\\]|\\.)*"', "", out))

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, _ = run(
            capsys, "export-dot", FIXTURES / "p4_racg.json", "--out", target
        )
        assert code == 0
        assert not out
        assert target.read_text().startswith("graph")

    def test_json_is_a_usage_error(self, capsys):
        """DOT is the only output, so there is no --json to ignore."""
        with pytest.raises(SystemExit) as exc:
            main(["export-dot", str(FIXTURES / "p4_racg.json"), "--json"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert not captured.out
        assert captured.err.startswith("usage: ")
        assert "unrecognized arguments: --json" in captured.err


# Each subcommand's help, as the top-level help lists it, and its own
# positionals and options (with -h, --help beside them). Checked by name, not
# by layout, which argparse changes between Python versions.
COMMANDS = {
    "classify": ("run the classification theorem", ["file"], {"--json", "--out"}),
    "nf": ("canonical normal form of a word", ["file", "word"], {"--json", "--out"}),
    "mul": ("multiply two words", ["file", "word1", "word2"], {"--json", "--out"}),
    "tree-dist": ("distance between two tree vertices", ["file", "word1", "word2"],
                  {"--json", "--out", "--side1", "--side2"}),
    "tree-audit": ("empirical (k, |G_N|) acylindricity audit", ["file"],
                   {"--json", "--out", "--k", "--tree-radius", "--local-radius", "--ball-cap",
                    "--element-radius", "--all-pairs"}),
    "export-dot": ("DOT export of graph, complement or tree ball", ["file"],
                   {"--out", "--target", "--tree-radius", "--local-radius", "--ball-cap"}),
}


def help_text(capsys, argv):
    """``arboreal *argv``'s help, which exits 0, with its whitespace runs as
    single spaces."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.err) == (0, "")
    return " ".join(captured.out.split())


def test_top_level_help_lists_every_subcommand(capsys):
    text = help_text(capsys, ["-h"])
    assert text.startswith("usage: arboreal ")
    assert "{" + ",".join(COMMANDS) + "}" in text
    for name, (help_line, _, _) in COMMANDS.items():
        assert f" {name} {help_line} " in f"{text} "


@pytest.mark.parametrize("command", list(COMMANDS))
def test_subcommand_help_lists_its_own_arguments(capsys, command):
    """Only the named subcommand's arguments are built, and those are whole."""
    _, positionals, options = COMMANDS[command]
    text = help_text(capsys, [command, "-h"])
    assert text.startswith(f"usage: arboreal {command} ")
    assert set(re.findall(r"--[a-z][a-z0-9-]*", text)) == options | {"--help"}
    words = text.split()
    assert all(p in words for p in positionals)


@pytest.mark.parametrize("argv, unknown", [
    (["--json", "classify", "FILE"], "--json"),
    (["classify", "FILE", "--json", "--bogus"], "--bogus"),
])
def test_an_argument_out_of_place_gets_the_subcommand_usage(capsys, argv, unknown):
    """An option before the subcommand, which the top-level parser lacks, or
    one the subcommand lacks, is the named subcommand's usage error."""
    with pytest.raises(SystemExit) as exc:
        main([str(FIXTURES / "p4_racg.json") if a == "FILE" else a for a in argv])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.startswith("usage: arboreal classify ")
    assert captured.err.endswith(f"arboreal classify: error: unrecognized arguments: {unknown}\n")


def test_classify_out_file(capsys, tmp_path):
    target = tmp_path / "verdict.json"
    code, out, _ = run(
        capsys, "classify", FIXTURES / "p4_racg.json", "--json", "--out", target
    )
    assert code == 0
    assert json.loads(target.read_text())["arboreality"] == "AcylArboreal"


TWO_VERTICES = [{"name": "a", "order": 2}, {"name": "b", "order": 2}]


@pytest.mark.parametrize(
    "data, message",
    [
        ({"vertices": 5}, '"vertices" must be a JSON array'),
        ({"vertices": TWO_VERTICES, "edges": 7}, '"edges" must be a JSON array'),
        ({"vertices": TWO_VERTICES, "words": ["a"]}, '"words" must be a JSON object'),
        ({"vertices": {"a": 2}}, '"vertices" must be a JSON array'),
        ({"vertices": TWO_VERTICES, "edges": None}, '"edges" must be a JSON array'),
    ],
    ids=["vertices", "edges", "words", "vertices-object", "edges-null"],
)
def test_wrongly_typed_field_exits_2(capsys, tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "classify", path)
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "flag, value",
    [("--k", "-1"), ("--tree-radius", "0"), ("--element-radius", "-3"),
     ("--local-radius", "0"), ("--ball-cap", "0")],
)
def test_tree_audit_rejects_values_below_one(capsys, flag, value):
    code, out, err = run(capsys, "tree-audit", FIXTURES / "p4_racg.json", flag, value)
    assert code == 2
    assert not out
    assert f"error: {flag} must be at least 1, got {value}" in err


def test_tree_audit_rejects_k_longer_than_any_path_in_the_ball(capsys):
    code, out, err = run(
        capsys, "tree-audit", FIXTURES / "p4_racg.json", "--k", "5", "--tree-radius", "2"
    )
    assert code == 2
    assert not out
    assert "more than twice --tree-radius" in err


@pytest.mark.parametrize(
    "argv, message",
    [(["--k", "7", "--tree-radius", "3"], "--k 7 is more than twice --tree-radius 3"),
     (["--ball-cap", "0"], "--ball-cap must be at least 1, got 0")],
    ids=["k-above-twice-tree-radius", "zero-ball-cap"],
)
def test_tree_audit_all_pairs_rejects_vacuous_limits(capsys, argv, message):
    code, out, err = run(capsys, "tree-audit", FIXTURES / "p4_racg.json", "--all-pairs", *argv)
    assert code == 2
    assert not out
    assert f"error: {message}" in err


def test_tree_audit_all_pairs_defaults_are_tree_audits(capsys):
    """With no limit flags, the first report of --all-pairs is the plain
    audit of the classifier's pair (a, c), under the same limits."""
    code, out, _ = run(capsys, "tree-audit", FIXTURES / "p4_racg.json", "--json")
    assert code == 0
    single = json.loads(out)
    code, out, _ = run(capsys, "tree-audit", FIXTURES / "p4_racg.json", "--all-pairs", "--json")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["splitting"]["pair"] == ["a", "c"]
    assert reports[0] == single


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_tree_audit_all_pairs_lists_every_separated_pair(capsys, path):
    """One report per separated pair, in ``separated_pairs`` order, each the
    library's audit of that pair's splitting at the same default limits."""
    pres, _ = load_presentation(path)
    pairs = separated_pairs(pres)
    code, out, err = run(capsys, "tree-audit", path, "--all-pairs", "--json")
    if not pairs:
        assert code == 4
        assert not out
        assert err == "error: no splitting to audit: no separated pair\n"
        return
    reports = [audit_acylindricity(build_splitting(pres, pair)) for pair in pairs]
    assert code == (0 if all(r.passed for r in reports) else 1)
    payload = json.loads(out)
    assert [tuple(entry["splitting"]["pair"]) for entry in payload] == [
        (pair.a, pair.b) for pair in pairs
    ]
    assert payload == [json.loads(json.dumps(r.to_dict())) for r in reports]


def test_tree_audit_all_pairs_audits_a_virtually_cyclic_product(capsys):
    """Z2 * Z2 is virtually cyclic, so classify offers no splitting, but its
    one pair (a, b) is separated and --all-pairs audits it."""
    code, out, _ = run(capsys, "tree-audit", FIXTURES / "o2_racg.json", "--all-pairs")
    assert code == 0
    assert out.startswith("pair:           ('a', 'b')\n")
    code, _, err = run(capsys, "tree-audit", FIXTURES / "o2_racg.json")
    assert code == 4
    assert err.startswith("error: no splitting to audit: ")


def test_tree_audit_all_pairs_human_blocks(capsys):
    """One human block per pair, blank lines between them."""
    code, out, _ = run(
        capsys, "tree-audit", FIXTURES / "p4_racg.json", "--all-pairs",
        "--tree-radius", "3", "--element-radius", "4",
    )
    assert code == 0
    blocks = out.split("\n\n")
    assert [b.splitlines()[0] for b in blocks] == [
        "pair:           ('a', 'c')", "pair:           ('a', 'd')", "pair:           ('b', 'd')",
    ]


def test_tree_audit_all_pairs_exits_1_on_any_violation(capsys):
    code, out, _ = run(
        capsys, "tree-audit", FIXTURES / "p4_racg.json", "--k", "1", "--tree-radius", "2",
        "--element-radius", "3", "--all-pairs", "--json",
    )
    assert code == 1
    assert any(report["violations"] for report in json.loads(out))


@pytest.mark.parametrize(
    "contents, argv, expected_code, message",
    [
        (None, [], 2, "error: "),
        ("not json", [], 2, "error: "),
        (json.dumps({"vertices": [{"name": "a", "order": 1}, TWO_VERTICES[1]]}), [], 3,
         "error: degenerate presentation"),
        (FIXTURES / "p3_raag.json", [], 4, "error: no splitting to audit: no separated pair"),
        (FIXTURES / "p4_racg.json", ["--ball-cap", "5"], 5, "error: resource cap exceeded"),
    ],
    ids=["missing-file", "bad-json", "degenerate", "no-separated-pair", "cap-hit"],
)
def test_tree_audit_all_pairs_exit_codes(capsys, tmp_path, contents, argv, expected_code, message):
    path = tmp_path / "p.json"
    if isinstance(contents, Path):
        path = contents
    elif contents is not None:
        path.write_text(contents)
    code, out, err = run(capsys, "tree-audit", path, "--all-pairs", *argv)
    assert code == expected_code
    assert not out
    assert err.startswith(message)
    assert err.count("\n") == 1
    assert "Traceback" not in err


# "\ud800": a lone surrogate, which JSON spells as an escape and UTF-8 cannot write
@pytest.mark.parametrize("name", ["", "1", "a b", "a^2", "\ud800"])
def test_vertex_name_that_cannot_round_trip_exits_2(capsys, tmp_path, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": [{"name": name, "order": 2}, *TWO_VERTICES]}))
    target = tmp_path / "verdict.txt"
    code, out, err = run(capsys, "classify", path, "--out", target)
    assert code == 2
    assert not out
    assert f"name {name!r} cannot be written in a word" in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_non_string_vertex_names_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vertices": [{"name": None, "order": 2}, {"name": 1.5, "order": 2}],
        "edges": [[None, "True"]],
    }))
    code, out, err = run(capsys, "classify", path)
    assert code == 2
    assert not out
    assert err == f"error: {path}: vertices[0]: name must be a JSON string, got NoneType\n"


@pytest.mark.parametrize("command", ["classify", "export-dot"])
def test_unwritable_out_path_exits_2(capsys, tmp_path, command):
    target = tmp_path / "missing-dir" / "x.json"
    code, out, err = run(capsys, command, FIXTURES / "p4_racg.json", "--out", target)
    assert code == 2
    assert not out
    assert err.startswith(f"error: cannot write {target}")


TINY_AUDIT = ["--k", "1", "--tree-radius", "1", "--element-radius", "1", "--local-radius", "1",
              "--ball-cap", "300"]


@pytest.mark.parametrize(
    "argv, codes",
    [(["classify"], {0, 2, 3}), (["tree-audit", "--all-pairs"] + TINY_AUDIT, {0, 1, 2, 3, 4, 5})],
    ids=["classify", "tree-audit-all-pairs"],
)
@settings(max_examples=100, deadline=None)
@given(data=json_documents())
def test_classify_on_any_json_file_exits_0_2_or_3(argv, codes, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([argv[0], str(path)] + argv[1:])
    assert code in codes
    assert "Traceback" not in err.getvalue()


MALFORMED_FILES = {
    "not-utf8": b"\xff\xfe\x00garbage",
    "deep-nesting": b"[" * 100_000,
    "long-integer": b'{"vertices": [{"name": "a", "order": %s}, {"name": "b", "order": 2}]}'
    % (b"9" * 5000),
}


@pytest.mark.parametrize("contents", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_malformed_file_exits_2(capsys, tmp_path, contents):
    path = tmp_path / "bad.json"
    path.write_bytes(contents)
    code, out, err = run(capsys, "classify", path)
    assert code == 2
    assert not out
    assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("contents", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_tree_audit_all_pairs_malformed_file_exits_2(capsys, tmp_path, contents):
    path = tmp_path / "bad.json"
    path.write_bytes(contents)
    code, out, err = run(capsys, "tree-audit", path, "--all-pairs")
    assert code == 2
    assert not out
    assert err.startswith(f"error: {path}: ")


LONG_EXPONENT = "a^" + "9" * 5000


def test_long_exponent_argument_exits_2(capsys):
    code, out, err = run(capsys, "nf", FIXTURES / "p4_racg.json", LONG_EXPONENT)
    assert code == 2
    assert not out
    assert err.startswith("error: exponent at vertex a is too long")


def test_long_exponent_in_file_exits_2(capsys, tmp_path):
    path = tmp_path / "words.json"
    path.write_text(json.dumps({"vertices": TWO_VERTICES, "words": {"g": LONG_EXPONENT}}))
    code, out, err = run(capsys, "classify", path)
    assert code == 2
    assert not out
    assert err.startswith(f"error: {path}: words['g']: exponent at vertex a is too long")


def test_bad_named_word_is_named_exits_2(capsys, tmp_path):
    """Of two named words, the bad second one is the one the error names."""
    path = tmp_path / "words.json"
    path.write_text(json.dumps({"vertices": TWO_VERTICES, "words": {"g": "a b", "h": "b z"}}))
    code, out, err = run(capsys, "classify", path)
    assert code == 2
    assert not out
    assert err == f"error: {path}: words['h']: unknown vertex: z\n"


def test_non_string_named_word_exits_2(capsys, tmp_path):
    path = tmp_path / "words.json"
    path.write_text(json.dumps({"vertices": TWO_VERTICES, "words": {"g": 3}}))
    assert run(capsys, "nf", path, "g") == (
        2, "", f"error: {path}: words['g']: expected a word string\n")


P4_VERTICES = [{"name": v, "order": 2} for v in "abcd"]
P4_EDGES = [["a", "b"], ["b", "c"], ["c", "d"]]


@pytest.mark.parametrize("name", ["a", "1", "a^2", "b a", "", " b"])
def test_named_word_whose_name_is_a_word_exits_2(capsys, tmp_path, name):
    """A name that parses as a word would shadow that word in every word
    argument, so the file is rejected, after a well-named word."""
    path = tmp_path / "words.json"
    path.write_text(json.dumps({"vertices": P4_VERTICES, "edges": P4_EDGES,
                                "words": {"g": "a", name: "b c"}}))
    code, out, err = run(capsys, "nf", path, name)
    assert code == 2
    assert not out
    assert err == f"error: {path}: words[{name!r}]: name {name!r} is itself a word\n"


def test_named_word_resolves_beside_words(capsys, tmp_path):
    path = tmp_path / "words.json"
    path.write_text(json.dumps({"vertices": P4_VERTICES, "edges": P4_EDGES,
                                "words": {"g": "c b"}}))
    assert run(capsys, "nf", path, "g") == (0, "b c\n", "")
    assert run(capsys, "mul", path, "a^-1", "g") == (0, "a b c\n", "")


HUGE_POWER = "a^" + "9" * 4300


@pytest.mark.parametrize(
    "argv",
    [["nf", HUGE_POWER + " " + HUGE_POWER], ["nf", "--json", HUGE_POWER + " " + HUGE_POWER],
     ["mul", HUGE_POWER, HUGE_POWER]],
    ids=["nf", "nf-json", "mul"],
)
def test_exponent_too_long_to_print_exits_2(capsys, argv):
    # each exponent parses, but the joined one has 4,301 digits
    code, out, err = run(capsys, argv[0], FIXTURES / "p3_raag.json", *argv[1:])
    assert code == 2
    assert not out
    assert err.startswith("error: exponent at vertex a is too long to print")


@pytest.mark.parametrize("order", ["x", "1", "-2", "2.5"])
def test_small_graph_script_rejects_bad_order(capsys, order):
    script_main = runpy.run_path(str(SMALL_GRAPHS))["main"]
    with pytest.raises(SystemExit) as exc:
        script_main(["--order", order, "--max-vertices", "3"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert not captured.out
    assert captured.err.startswith("usage: ")
    assert f"argument --order: must be an integer >= 2 or 'inf', got '{order}'" in captured.err


@pytest.mark.parametrize("value", ["1", "8", "x"])
def test_small_graph_script_rejects_max_vertices_outside_the_atlas(capsys, value):
    script_main = runpy.run_path(str(SMALL_GRAPHS))["main"]
    with pytest.raises(SystemExit) as exc:
        script_main(["--max-vertices", value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert not captured.out
    assert captured.err.startswith("usage: ")
    assert f"argument --max-vertices: must be an integer from 2 to 7, got '{value}'" in captured.err


@pytest.mark.parametrize("order", ["inf", "3"])
def test_small_graph_script_accepts_inf_and_integers(capsys, order):
    code = runpy.run_path(str(SMALL_GRAPHS))["main"](["--order", order, "--max-vertices", "3"])
    assert code == 0
    assert f"# graphs checked: 3 (order = {order})" in capsys.readouterr().err


# The package's exports by the layer that defines them.
LAYER_NAMES = {
    "errors": ("DegeneratePresentationError", "InputError", "ResourceCapError"),
    "graphs": ("INFINITY", "SimpleGraph", "complement", "diameter", "induced_subgraph",
               "is_irreducible", "to_dot"),
    "words": ("Presentation", "Syllable", "format_word", "parse_word"),
    "classify": ("AHCriterion", "Arboreality", "SeparatedPair", "SplittingSpec", "Verdict",
                 "VirtuallyCyclic", "build_splitting", "classify", "is_virtually_cyclic",
                 "separated_pairs"),
    "tree": ("act", "audit_acylindricity", "base_vertex", "element_action",
             "elliptic_generation_check", "path_stabilizer", "tree_ball", "tree_distance"),
}


def test_package_exports_are_pinned():
    import arboreal

    exported = {name for names in LAYER_NAMES.values() for name in names}
    assert len(exported) == 32
    assert len(arboreal.__all__) == len(set(arboreal.__all__))
    assert set(arboreal.__all__) == exported
    deleted = {"SubgroupVerdict", "ah_criterion", "full_subgroup_check", "edge_distance",
               "neighbourhood", "link"}
    assert not deleted & set(vars(arboreal))


def test_package_names_are_their_layers():
    import arboreal

    star = {}
    exec("from arboreal import *", star)
    for layer, names in LAYER_NAMES.items():
        module = importlib.import_module(f"arboreal.{layer}")
        for name in names:
            assert getattr(arboreal, name) is getattr(module, name) is star[name], name
    assert set(arboreal.__all__) <= set(dir(arboreal))
    with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
        arboreal.frobnicate


def test_cli_import_loads_no_dataclasses():
    # -S: no site hooks of the machine running the test can load them either
    code = ("import sys, arboreal.cli, arboreal.formats, arboreal.tree; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_cli_import_loads_no_future_module():
    """No module of the package postpones its annotations, so a process
    compiles no annotation strings and never imports ``__future__``."""
    code = ("import sys, arboreal.cli, arboreal.formats, arboreal.tree; "
            "print('__future__' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    # -S: no site hook of the machine running the test can import it either
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


def _loads(*layers):
    """The modules that loading ``layers`` imports: the package, each layer
    and the layers it imports, and ``typing`` with graphs or words."""
    closure = {"errors": (), "params": ("errors",), "graphs": ("errors",),
               "words": ("graphs", "params"), "classify": ("words",), "tree": ("classify",),
               "formats": ("words",)}
    loaded = {"arboreal"}
    while layers:
        loaded.add(f"arboreal.{layers[0]}")
        layers = layers[1:] + closure[layers[0]]
    return loaded | ({"typing"} if "arboreal.graphs" in loaded else set())


P4 = str(FIXTURES / "p4_racg.json")
# (python arguments, exit code, the arboreal modules and typing it imports)
LOADS = [
    (["-c", "import arboreal"], 0, _loads()),
    *((["-c", f"from arboreal import {', '.join(names)}"], 0, _loads(layer))
      for layer, names in LAYER_NAMES.items()),
    # usage errors import no layer
    (["-m", "arboreal.cli", "-h"], 0, _loads("errors")),
    (["-m", "arboreal.cli", "frobnicate", P4], 2, _loads("errors")),
    # a tree command's usage error or help reads its defaults and choices from params alone
    (["-m", "arboreal.cli", "tree-audit"], 2, _loads("params")),
    (["-m", "arboreal.cli", "tree-dist", "-h"], 0, _loads("params")),
    # a tree command's missing file loads only the loader's layers, as classify's does
    (["-m", "arboreal.cli", "tree-audit", str(FIXTURES / "missing.json")], 2,
     _loads("formats")),
    (["-m", "arboreal.cli", "export-dot", "--target", "tree-ball",
      str(FIXTURES / "missing.json")], 2, _loads("formats")),
    (["-m", "arboreal.cli", "classify", str(FIXTURES / "missing.json")], 2, _loads("formats")),
    (["-m", "arboreal.cli", "nf", P4, "b a c b"], 0, _loads("formats")),
    (["-m", "arboreal.cli", "mul", P4, "a b", "b d"], 0, _loads("formats")),
    (["-m", "arboreal.cli", "export-dot", P4, "--target", "graph"], 0, _loads("formats")),
    (["-m", "arboreal.cli", "export-dot", P4, "--target", "complement"], 0, _loads("formats")),
    (["-m", "arboreal.cli", "classify", P4], 0, _loads("formats", "classify")),
    # tree-dist loads the tree layer only once the file has a splitting
    (["-m", "arboreal.cli", "tree-dist", str(FIXTURES / "fig2_raag.json"), "1", "a"], 4,
     _loads("formats", "classify")),
    (["-m", "arboreal.cli", "tree-dist", P4, "1", "c a"], 0, _loads("formats", "tree")),
    (["-m", "arboreal.cli", "tree-audit", P4, "--tree-radius", "2"], 0,
     _loads("formats", "tree")),
    (["-m", "arboreal.cli", "export-dot", P4, "--target", "tree-ball"], 0,
     _loads("formats", "tree")),
]


# Runs ``python -c CODE`` or ``python -m arboreal.cli ARGS`` (through runpy,
# as -m does) and prints its exit code and the arboreal modules and typing
# that the run imported.
RUN_AND_LIST = """
import runpy, sys
code = 0
try:
    if sys.argv[1] == "-c":
        exec(sys.argv[2])
    else:
        del sys.argv[1:3]
        runpy.run_module("arboreal.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, *sorted(m for m in sys.modules if m == "typing" or m.split(".")[0] == "arboreal"))
"""


def test_each_command_loads_only_its_layers():
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    got, expected = [], []
    for args, code, modules in LOADS:
        # -S: no site hook of the machine running the test imports a module
        run = subprocess.run([sys.executable, "-S", "-c", RUN_AND_LIST, *args], env=env,
                             capture_output=True, text=True, timeout=60)
        got.append((args[1:], run.stdout.splitlines()[-1]))
        expected.append((args[1:], " ".join([str(code), *sorted(modules)])))
    assert got == expected


FIRST_USE_LOADS_TREE = """
import json, sys
import arboreal
out = [sorted(set(arboreal.__all__) - set(vars(arboreal)))]
for name in sys.argv[1:]:
    getattr(arboreal, name)
    out.append([name, "arboreal.tree" in sys.modules])
print(json.dumps(out))
"""


def test_only_tree_names_of_all_are_loaded_on_first_use():
    """``import arboreal`` leaves every name of ``__all__`` unbound, and of
    those only the tree layer's load ``arboreal.tree`` on first use."""
    names = [name for layer, names in LAYER_NAMES.items() if layer != "tree" for name in names]
    names += LAYER_NAMES["tree"]
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    # -S: no site hook of the machine running the test can import the tree layer
    result = subprocess.run([sys.executable, "-S", "-c", FIRST_USE_LOADS_TREE, *names],
                            env=env, capture_output=True, text=True, check=True)
    tree_names = set(LAYER_NAMES["tree"])
    assert json.loads(result.stdout) == [sorted(names)] + [
        [name, name in tree_names] for name in names]


LOADS_TREE = """
import contextlib, io, json, sys
import arboreal
from arboreal.cli import main
out = [(None, "arboreal.tree" in sys.modules)]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    out.append((code, "arboreal.tree" in sys.modules))
print(json.dumps(out))
"""


def test_only_tree_commands_load_the_tree_layer():
    """The same through ``cli.main`` in one process: the tree layer stays
    unloaded until a tree command that has a splitting runs."""
    argvs = [["classify", P4], ["classify", P4, "--json"], ["nf", P4, "b a c b"],
             ["mul", P4, "a b", "b d"], ["export-dot", P4, "--target", "graph"],
             ["export-dot", P4, "--target", "complement"], ["frobnicate", P4],
             # tree-dist loads it only once the file has a splitting
             ["tree-dist", str(FIXTURES / "fig2_raag.json"), "1", "a"], ["tree-dist", "-h"],
             ["tree-audit", P4, "--tree-radius", "2"]]
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    # -S: no site hook of the machine running the test can import it either
    result = subprocess.run([sys.executable, "-S", "-c", LOADS_TREE, json.dumps(argvs)],
                            env=env, capture_output=True, text=True, check=True)
    assert json.loads(result.stdout) == [[None, False]] + [[0, False]] * 6 + [
        [2, False], [4, False], [0, False], [0, True]]


CLASSIFY_FIRST_LOADED = {
    "tree": "import arboreal.tree",
    "classify": "import arboreal.classify",
    "cli": "import contextlib, io\nfrom arboreal.cli import main\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n    main(['classify', sys.argv[1]])",
}


@pytest.mark.parametrize("by", sorted(CLASSIFY_FIRST_LOADED))
def test_arboreal_classify_stays_the_verdict_function(by):
    """The import system sets the submodule ``arboreal.classify`` on the
    package when it first loads; the package's name stays the function."""
    code = (f"import sys\n{CLASSIFY_FIRST_LOADED[by]}\nimport arboreal\n"
            "from arboreal import classify\n"
            "verdict = sys.modules['arboreal.classify'].classify\n"
            "print(arboreal.classify is verdict, classify is verdict)")
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    result = subprocess.run([sys.executable, "-S", "-c", code, P4], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "True True\n"


def test_a_package_name_can_be_monkeypatched(monkeypatch):
    import arboreal
    import arboreal.classify

    verdict = arboreal.classify

    def fake(pres):
        return None

    monkeypatch.setattr(arboreal, "classify", fake)
    from arboreal import classify
    assert arboreal.classify is classify is fake
    monkeypatch.undo()
    assert arboreal.classify is verdict is sys.modules["arboreal.classify"].classify


# A locale whose preferred encoding is ASCII: no coercion to C.UTF-8, no UTF-8 mode.
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


@pytest.fixture
def ascii_env():
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"), **ASCII_LOCALE)
    encoding = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding())"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    if "utf" in encoding.lower():
        pytest.skip(f"the C locale's encoding is {encoding.strip()} here")
    return env


@pytest.fixture
def accent_file(tmp_path):
    path = tmp_path / "accent.json"
    # the path é - b - c - d: the separated pair is (é, c)
    path.write_text(
        '{"vertices": [{"name": "é", "order": 2}, {"name": "b", "order": 2}, '
        '{"name": "c", "order": 2}, {"name": "d", "order": 2}], '
        '"edges": [["é", "b"], ["b", "c"], ["c", "d"]]}',
        encoding="utf-8",
    )
    return path


def test_files_are_utf8_whatever_the_locale(tmp_path, ascii_env, accent_file):
    cli = [sys.executable, "-m", "arboreal.cli", "classify", str(accent_file)]
    result = subprocess.run(cli + ["--json"], env=ascii_env, capture_output=True)
    assert (result.returncode, result.stderr) == (0, b"")
    assert json.loads(result.stdout)["splitting"]["pair"] == ["é", "c"]
    target = tmp_path / "verdict.txt"
    result = subprocess.run(cli + ["--out", str(target)], env=ascii_env, capture_output=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
    assert "separated pair (é, c) found" in target.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["classify"], "reason:           separated pair (é, c) found"),
        (["tree-audit", "--tree-radius", "3"], "pair:           ('é', 'c')\n"),
        (["export-dot", "--target", "tree-ball"], '  v3 [label="B:é"];\n'),
        (["nf", "b é"], "é b\n"),
        (["mul", "b", "é"], "é b\n"),
        (["tree-dist", "1", "é c"], "d(A:1, A:é c) = 2\n"),
    ],
    ids=["classify", "tree-audit", "export-dot", "nf", "mul", "tree-dist"],
)
def test_text_is_utf8_whatever_the_locale(ascii_env, accent_file, argv, expected):
    """Human output and word arguments are UTF-8 under an ASCII locale."""
    cli = [sys.executable, "-m", "arboreal.cli", argv[0], str(accent_file), *argv[1:]]
    result = subprocess.run(cli, env=ascii_env, capture_output=True)
    assert (result.returncode, result.stderr) == (0, b"")
    assert expected in result.stdout.decode("utf-8")


@pytest.mark.parametrize(
    "word, error",
    [("éé", "error: unknown vertex: éé\n"),
     (b"b \xff", "error: word argument is not UTF-8: b'b \\xff'\n")],
    ids=["unknown-vertex", "not-utf8"],
)
def test_error_lines_are_utf8_whatever_the_locale(ascii_env, accent_file, word, error):
    cli = [sys.executable, "-m", "arboreal.cli", "nf", str(accent_file), word]
    result = subprocess.run(cli, env=ascii_env, capture_output=True)
    assert (result.returncode, result.stdout, result.stderr.decode("utf-8")) == (2, b"", error)


@pytest.mark.parametrize(
    "argv, error",
    [(["{dir}/bad.json"], "error: {dir}/bad.json:1:14: Expecting value\n"),
     (["{dir}/accent.json", "--out", "{dir}/missing/x.txt"],
      "error: cannot write {dir}/missing/x.txt: No such file or directory\n"),
     (["{dir}/missing.json"], "error: {dir}/missing.json: No such file or directory\n"),
     (["{dir}"], "error: {dir}: Is a directory\n")],
    ids=["malformed-file", "unwritable-out", "missing-file", "directory"],
)
def test_error_paths_are_utf8_whatever_the_locale(tmp_path, ascii_env, accent_file, argv, error):
    """A path in an ``error:`` line is shown as its UTF-8 bytes, not as the
    surrogates the ASCII locale decoded them to."""
    directory = tmp_path / "é"
    directory.mkdir()
    (directory / "bad.json").write_text('{"vertices": }')
    (directory / "accent.json").write_bytes(accent_file.read_bytes())
    argv = [arg.format(dir=directory) for arg in argv]
    cli = [sys.executable, "-m", "arboreal.cli", "classify", *argv]
    result = subprocess.run(cli, env=ascii_env, capture_output=True)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.decode("utf-8") == error.format(dir=directory)
