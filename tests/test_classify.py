import json
import random
from itertools import combinations

import pytest

from arboreal.classify import (
    AHCriterion,
    Arboreality,
    CompleteGraphCase,
    NoSeparatedPair,
    SeparatedPair,
    VirtuallyCyclic,
    VirtuallyCyclicWitness,
    build_splitting,
    classify,
    is_virtually_cyclic,
    separated_pairs,
)
from arboreal.cli import main
from arboreal.errors import InputError
from arboreal.formats import load_presentation
from arboreal.graphs import INFINITY, SimpleGraph, diameter
from arboreal.tree import audit_acylindricity
from arboreal.words import Presentation

from conftest import fig2_graph, p4_graph
from oracles import link, random_presentation


def raag(graph):
    return Presentation(graph, {v: INFINITY for v in graph.vertices})


class TestSeparatedPairs:
    def test_p4_racg_contains_distance3_pair(self, p4_racg):
        pairs = {(p.a, p.b) for p in separated_pairs(p4_racg)}
        assert ("a", "d") in pairs

    def test_p4_racg_also_contains_distance2_pairs(self, p4_racg):
        # (a, c) has link {b} of order 2, so it is separated too
        pairs = {(p.a, p.b) for p in separated_pairs(p4_racg)}
        assert ("a", "c") in pairs

    def test_fig2_raag_has_none(self, fig2_raag):
        assert separated_pairs(fig2_raag) == []

    def test_p3_raag_has_none(self, p3_raag):
        assert separated_pairs(p3_raag) == []

    def test_sorted_by_vertex_order(self, p4_racg):
        pairs = separated_pairs(p4_racg)
        keys = [(p4_racg.graph.index[p.a], p4_racg.graph.index[p.b]) for p in pairs]
        assert keys == sorted(keys)

    def test_certificates_revalidate(self, p4_racg):
        for p in separated_pairs(p4_racg):
            # distinct and non-adjacent: edge distance at least 2
            assert p.a != p.b and p.b not in p4_racg.graph.adjacency[p.a]
            assert set(p.link_set) == link(p4_racg.graph, {p.a}) & link(p4_racg.graph, {p.b})
            assert p4_racg.full_subgroup_order(set(p.link_set)) == p.link_order

    def test_adding_edge_never_separates_its_endpoints(self):
        rng = random.Random(41)
        for _ in range(40):
            pres = random_presentation(rng, max_vertices=5)
            non_edges = [
                (u, v)
                for u, v in combinations(pres.graph.vertices, 2)
                if v not in pres.graph.adjacency[u]
            ]
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            bigger = Presentation(
                SimpleGraph(
                    pres.graph.vertices,
                    [tuple(e) for e in pres.graph.edges] + [(u, v)],
                ),
                pres.orders,
            )
            assert (u, v) not in {(p.a, p.b) for p in separated_pairs(bigger)}


class TestVirtuallyCyclic:
    def test_d_infinity(self, o2_racg):
        assert is_virtually_cyclic(o2_racg) == VirtuallyCyclic.YES

    def test_z2_star_z3(self, z2_z3):
        assert is_virtually_cyclic(z2_z3) == VirtuallyCyclic.NO

    def test_p4_racg(self, p4_racg):
        assert is_virtually_cyclic(p4_racg) == VirtuallyCyclic.NO

    def test_complete_minus_edge_with_infinite_endpoint(self):
        pres = Presentation(SimpleGraph("ab"), {"a": INFINITY, "b": 2})
        assert is_virtually_cyclic(pres) == VirtuallyCyclic.NO

    def test_complete_graph_z_times_finite(self):
        pres = Presentation(
            SimpleGraph("ab", [("a", "b")]), {"a": INFINITY, "b": 3}
        )
        assert is_virtually_cyclic(pres) == VirtuallyCyclic.YES

    def test_complete_graph_two_infinite_factors(self):
        pres = Presentation(
            SimpleGraph("ab", [("a", "b")]), {"a": INFINITY, "b": INFINITY}
        )
        assert is_virtually_cyclic(pres) == VirtuallyCyclic.NO

    def test_complete_graph_all_finite(self):
        pres = Presentation(SimpleGraph("ab", [("a", "b")]), {"a": 2, "b": 3})
        assert is_virtually_cyclic(pres) == VirtuallyCyclic.YES

    def test_complete_minus_edge_endpoints_not_z2(self):
        # K4 minus the edge (a, b) with a of order 3
        g = SimpleGraph("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")])
        pres = Presentation(g, {"a": 3, "b": 2, "c": 2, "d": 2})
        assert is_virtually_cyclic(pres) == VirtuallyCyclic.NO


class TestClassify:
    def test_p4_racg(self, p4_racg):
        v = classify(p4_racg)
        assert v.arboreality == Arboreality.ACYL_ARBOREAL
        assert v.virtually_cyclic == VirtuallyCyclic.NO
        assert isinstance(v.certificate, SeparatedPair)
        assert v.splitting is not None
        assert v.splitting.acyl_k == 3
        assert v.splitting.acyl_c == v.certificate.link_order

    def test_fig2_raag(self, fig2_raag):
        v = classify(fig2_raag)
        assert v.arboreality == Arboreality.NOT_ACYL_ARBOREAL
        assert isinstance(v.certificate, NoSeparatedPair)

    def test_o2_racg_virtually_cyclic(self, o2_racg):
        v = classify(o2_racg)
        assert v.arboreality == Arboreality.NOT_ACYL_ARBOREAL
        assert v.virtually_cyclic == VirtuallyCyclic.YES
        assert isinstance(v.certificate, VirtuallyCyclicWitness)
        assert tuple(v.certificate.missing_edge) == ("a", "b")

    def test_z2_star_z3_arboreal(self, z2_z3):
        v = classify(z2_z3)
        assert v.arboreality == Arboreality.ACYL_ARBOREAL
        assert v.splitting.acyl_c == 1

    def test_complete_graph_case(self):
        pres = Presentation(SimpleGraph("ab", [("a", "b")]), {"a": 2, "b": 3})
        v = classify(pres)
        assert v.arboreality == Arboreality.NOT_ACYL_ARBOREAL
        assert isinstance(v.certificate, CompleteGraphCase)
        assert v.splitting is None

    def test_splitting_shape(self, p4_racg):
        sp = classify(p4_racg).splitting
        a, b = sp.pair
        assert set(sp.a_side) | set(sp.b_side) == set(p4_racg.graph.vertices)
        assert set(sp.a_side) & set(sp.b_side) == set(sp.c_side)
        assert a in sp.a_side and a not in sp.c_side
        assert b in sp.b_side and b not in sp.c_side
        assert p4_racg.full_subgroup_order(set(sp.n_set)) == sp.acyl_c

    def test_never_arboreal_and_virtually_cyclic(self):
        rng = random.Random(43)
        for _ in range(120):
            pres = random_presentation(rng, max_vertices=5)
            v = classify(pres)
            if v.arboreality == Arboreality.ACYL_ARBOREAL:
                assert v.virtually_cyclic == VirtuallyCyclic.NO
                assert isinstance(v.certificate, SeparatedPair)

    def test_no_separated_pair_count_is_non_adjacent_pairs(self):
        rng = random.Random(47)
        for _ in range(80):
            pres = random_presentation(rng, max_vertices=5)
            v = classify(pres)
            if isinstance(v.certificate, NoSeparatedPair):
                g = pres.graph
                n = len(g.vertices)
                assert v.certificate.checked_pair_count == n * (n - 1) // 2 - len(g.edges)

    def test_diameter_three_always_separated(self):
        rng = random.Random(53)
        found = 0
        for _ in range(300):
            pres = random_presentation(rng, max_vertices=6)
            d = diameter(pres.graph)
            if d != INFINITY and d >= 3:
                found += 1
                assert separated_pairs(pres)
        assert found > 10

    def test_infinite_vertex_group_corollary_random(self):
        rng = random.Random(59)
        for _ in range(100):
            pres = random_presentation(rng, max_vertices=5, orders=(INFINITY,))
            is_aa = classify(pres).arboreality == Arboreality.ACYL_ARBOREAL
            assert is_aa == (diameter(pres.graph) >= 3)

    def test_disconnected_free_products(self, z2_z3, o2_racg):
        assert classify(z2_z3).arboreality == Arboreality.ACYL_ARBOREAL
        assert classify(o2_racg).arboreality == Arboreality.NOT_ACYL_ARBOREAL


# The exact verdict JSON, key order included: json.dumps without sort_keys,
# as the benchmark hashes it. One case per certificate class.
VERDICT_JSON = {
    "p4_racg.json": (
        '{"arboreality": "AcylArboreal", "virtually_cyclic": "No", "ah_criterion": '
        '"AHByIrreducibility", "certificate": {"kind": "SeparatedPair", "a": "a", "b": "c", '
        '"link_set": ["b"], "link_order": 2}, "splitting": {"pair": ["a", "c"], '
        '"A": ["a", "b", "d"], "B": ["b", "c", "d"], "C": ["b", "d"], "N": ["b"], '
        '"acyl_k": 3, "acyl_C": 2}, "diameter": 3}'
    ),
    "o2_racg.json": (
        '{"arboreality": "NotAcylArboreal", "virtually_cyclic": "Yes", "ah_criterion": '
        '"VirtuallyCyclic", "certificate": {"kind": "VirtuallyCyclicWitness", '
        '"missing_edge": ["a", "b"]}, "splitting": null, "diameter": "inf"}'
    ),
    "c5_raag.json": (
        '{"arboreality": "NotAcylArboreal", "virtually_cyclic": "No", "ah_criterion": '
        '"AHByIrreducibility", "certificate": {"kind": "NoSeparatedPair", '
        '"checked_pair_count": 5}, "splitting": null, "diameter": 2}'
    ),
    "complete": (
        '{"arboreality": "NotAcylArboreal", "virtually_cyclic": "Yes", "ah_criterion": '
        '"VirtuallyCyclic", "certificate": {"kind": "CompleteGraphCase", "reason": '
        '"complete graph of cyclic groups: direct product Z^k x finite is finite, virtually '
        'cyclic, or a product of two infinite groups, none of which act acylindrically '
        'non-elementarily on a tree"}, "splitting": null, "diameter": 1}'
    ),
}


@pytest.mark.parametrize("name", VERDICT_JSON)
def test_verdict_json_is_pinned(fixtures_dir, name):
    if name == "complete":
        pres = Presentation(SimpleGraph("ab", [("a", "b")]), {"a": 2, "b": 3})
    else:
        pres, _ = load_presentation(fixtures_dir / name)
    verdict = classify(pres).to_dict()
    assert json.dumps(verdict) == VERDICT_JSON[name]
    assert verdict == json.loads(VERDICT_JSON[name])  # lists, not tuples


# The exact audit JSON and human block for p4_racg's first splitting at k = 1.
# A single edge's stabilizer is a conjugate of the infinite G_C = <b, d>, so
# the audit has violations and pins their format too.
AUDIT_JSON = (
    '{"splitting": {"pair": ["a", "c"], "A": ["a", "b", "d"], "B": ["b", "c", "d"], '
    '"C": ["b", "d"], "N": ["b"], "acyl_k": 3, "acyl_C": 2}, "k": 1, "tree_radius": 2, '
    '"element_radius": 3, "local_radius": 2, "paths_checked": 6, "max_stabilizer_size": 7, '
    '"bound": 2, "tree_truncated": true, "exhaustive_elements": false, "violations": '
    '[{"path": ["C:a"], "stabilizer_size": 3}, {"path": ["C:1"], "stabilizer_size": 7}, '
    '{"path": ["C:c"], "stabilizer_size": 7}, {"path": ["C:a c"], "stabilizer_size": 3}]}'
)
AUDIT_HUMAN = (
    "pair:           ('a', 'c')\n"
    "k:              1\n"
    "paths checked:  6\n"
    "max stabilizer: 7\n"
    "bound |G_N|:    2\n"
    "truncated:      True\n"
    "exhaustive:     False\n"
    "violations:     4\n"
)


def test_audit_report_is_pinned(fixtures_dir, capsys):
    path = fixtures_dir / "p4_racg.json"
    pres, _ = load_presentation(path)
    report = audit_acylindricity(classify(pres).splitting, k=1, tree_radius=2, element_radius=3)
    assert json.dumps(report.to_dict()) == AUDIT_JSON
    argv = ["tree-audit", str(path), "--k", "1", "--tree-radius", "2", "--element-radius", "3"]
    assert main(argv) == 1
    assert capsys.readouterr().out == AUDIT_HUMAN


def test_splitting_equality_sees_the_group(fixtures_dir):
    racg = Presentation(p4_graph(), {v: 2 for v in "abcd"})
    other = Presentation(p4_graph(), {"a": 3, "b": 2, "c": 3, "d": 2})
    pair = SeparatedPair("a", "c", ("b",), 2)
    assert pair in separated_pairs(racg) and pair in separated_pairs(other)
    # same sides, N and |G_N|, different amalgams
    assert build_splitting(racg, pair) != build_splitting(other, pair)
    checked = 0
    for path in sorted(fixtures_dir.glob("*.json")):
        pres, _ = load_presentation(path)
        verdict = classify(pres)
        if isinstance(verdict.certificate, SeparatedPair):
            assert build_splitting(pres, verdict.certificate) == verdict.splitting, path.name
            checked += 1
    assert checked



@pytest.mark.parametrize(
    "orders, pair",
    [(2, SeparatedPair("a", "b", (), 1)), (2, SeparatedPair("a", "zz", (), 1)),
     (2, SeparatedPair("a", "a", (), 1)), (2, SeparatedPair("a", "d", (), 999)),
     (2, SeparatedPair("a", "c", (), 2)), (INFINITY, SeparatedPair("a", "c", ("b",), INFINITY))],
    ids=["adjacent", "unknown-vertex", "same-vertex", "wrong-order", "wrong-link",
         "infinite-link"],
)
def test_build_splitting_rejects_a_pair_that_is_not_separated(orders, pair):
    """Each would give an audit that passes on a splitting of no separated pair."""
    pres = Presentation(p4_graph(), dict.fromkeys("abcd", orders))
    with pytest.raises(InputError):
        build_splitting(pres, pair)


def test_every_separated_pair_builds(fixtures_dir):
    built = 0
    for path in sorted(fixtures_dir.glob("*.json")):
        pres, _ = load_presentation(path)
        for pair in separated_pairs(pres):
            assert build_splitting(pres, pair).pair == (pair.a, pair.b)
            # and in reverse, such as (c, a) on P4
            assert build_splitting(pres, pair._replace(a=pair.b, b=pair.a)).pair == (pair.b, pair.a)
            built += 1
    assert built == 6


class TestAHCriterion:
    def test_fig2(self, fig2_raag):
        assert classify(fig2_raag).ah_criterion == AHCriterion.AH_BY_IRREDUCIBILITY

    def test_p3_raag_inconclusive(self, p3_raag):
        assert classify(p3_raag).ah_criterion == AHCriterion.INCONCLUSIVE

    def test_o2_racg(self, o2_racg):
        assert classify(o2_racg).ah_criterion == AHCriterion.VIRTUALLY_CYCLIC

    def test_fig2_joint_reproduction(self, fig2_raag):
        v = classify(fig2_raag)
        assert v.ah_criterion == AHCriterion.AH_BY_IRREDUCIBILITY
        assert v.arboreality == Arboreality.NOT_ACYL_ARBOREAL
