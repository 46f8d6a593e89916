import json

import pytest

from arboreal.cli import main

from conftest import FIXTURES


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
        path = tmp_path / "bad.json"
        path.write_text(
            '{"vertices": [{"name": "a", "order": 1}, {"name": "b", "order": 2}]}'
        )
        code, _, err = run(capsys, "classify", path)
        assert code == 3
        assert "degenerate" in err

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        code, _, _ = run(capsys, "classify", path)
        assert code == 2

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

    def test_fig2_no_splitting_exits_4(self, capsys):
        code, _, _ = run(capsys, "tree-audit", FIXTURES / "fig2_raag.json")
        assert code == 4

    def test_tiny_cap_exits_5(self, capsys):
        code, _, _ = run(
            capsys, "tree-audit", FIXTURES / "p4_racg.json", "--ball-cap", "10"
        )
        assert code == 5


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

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, _ = run(
            capsys, "export-dot", FIXTURES / "p4_racg.json", "--out", target
        )
        assert code == 0
        assert not out
        assert target.read_text().startswith("graph")


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


@pytest.mark.parametrize("command", ["classify", "export-dot"])
def test_unwritable_out_path_exits_2(capsys, tmp_path, command):
    target = tmp_path / "missing-dir" / "x.json"
    code, out, err = run(capsys, command, FIXTURES / "p4_racg.json", "--out", target)
    assert code == 2
    assert not out
    assert err.startswith(f"error: cannot write {target}")
