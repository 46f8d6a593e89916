"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time
from collections import deque

import networkx as nx

from arboreal.classify import (
    AHCriterion,
    Arboreality,
    SeparatedPair,
    build_splitting,
    classify,
)
from arboreal.graphs import INFINITY, SimpleGraph, diameter
from arboreal.tree import (
    act,
    audit_acylindricity,
    base_vertex,
    element_action,
    path_stabilizer,
    tree_ball,
    tree_distance,
)
from arboreal.words import Presentation, format_word, parse_word

from conftest import FIXTURES
from oracles import (
    coset_canonical,
    enumerate_ball,
    in_full_subgroup,
    lex_min_of_orbit,
    power,
    random_presentation,
    random_word,
    reduce_randomized,
    support,
)
from arboreal.formats import load_presentation


def report(criterion, name, started):
    print(f"ACCEPTANCE {criterion} [{name}]: PASS ({time.time() - started:.2f}s)")


def test_criterion_1_paper_instances():
    started = time.time()
    for fixture, expect_ah in [
        ("fig2_raag.json", AHCriterion.AH_BY_IRREDUCIBILITY),
        ("c5_raag.json", None),
        ("p3_raag.json", None),
    ]:
        t0 = time.time()
        pres, _ = load_presentation(FIXTURES / fixture)
        verdict = classify(pres)
        assert verdict.arboreality == Arboreality.NOT_ACYL_ARBOREAL, fixture
        if expect_ah is not None:
            assert verdict.ah_criterion == expect_ah, fixture
        assert time.time() - t0 < 1.0, f"{fixture} exceeded 1s"
    report(1, "classification of the reference RAAG instances", started)


def test_criterion_2_infinite_vertex_group_corollary():
    started = time.time()
    checked = 0
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n < 2 or n > 6 or not nx.is_connected(g):
            continue
        names = [chr(ord("a") + i) for i in range(n)]
        relabel = dict(zip(sorted(g.nodes()), names))
        graph = SimpleGraph(names, [(relabel[u], relabel[v]) for u, v in g.edges()])
        pres = Presentation(graph, {v: INFINITY for v in names})
        is_aa = classify(pres).arboreality == Arboreality.ACYL_ARBOREAL
        assert is_aa == (diameter(graph) >= 3), graph
        checked += 1
    # connected graphs on 2..6 vertices up to isomorphism: 1 + 2 + 6 + 21 + 112
    assert checked == 142
    elapsed = time.time() - started
    assert elapsed < 30, f"corollary sweep took {elapsed:.1f}s"
    report(2, f"infinite-vertex-group corollary on {checked} connected graphs", started)


def p4_ad_splitting():
    pres, _ = load_presentation(FIXTURES / "p4_racg.json")
    return pres, build_splitting(pres, SeparatedPair("a", "d", (), 1))


def test_criterion_3_quantitative_audit():
    started = time.time()
    _, splitting = p4_ad_splitting()
    report_p4 = audit_acylindricity(
        splitting, k=3, tree_radius=5, element_radius=6, local_radius=2
    )
    assert report_p4.max_stabilizer_size == 1 == report_p4.bound
    assert report_p4.violations == []
    assert report_p4.paths_checked > 0

    z2z5, _ = load_presentation(FIXTURES / "z2_z5.json")
    sp = build_splitting(z2z5, SeparatedPair("a", "b", (), 1))
    report_free = audit_acylindricity(
        sp, k=3, tree_radius=5, element_radius=6, local_radius=3
    )
    assert report_free.bound == 1
    assert report_free.max_stabilizer_size == 1
    assert report_free.violations == []
    elapsed = time.time() - started
    assert elapsed < 60, f"audit took {elapsed:.1f}s"
    report(3, "quantitative (3, |G_N|) acylindricity audit", started)


def test_criterion_4_normal_form_oracle():
    started = time.time()
    rng = random.Random(20240823)
    order_rng = random.Random(4)  # rewriting order only; inputs stay as drawn from rng
    mismatches = 0
    for _ in range(1000):
        pres = random_presentation(rng, max_vertices=5, orders=(2, 3, INFINITY))
        w = random_word(rng, pres, max_len=8)
        if pres.canonical(w) != lex_min_of_orbit(pres, reduce_randomized(pres, w, order_rng)):
            mismatches += 1
    assert mismatches == 0
    elapsed = time.time() - started
    assert elapsed < 60, f"oracle sweep took {elapsed:.1f}s"
    report(4, "normal-form oracle equivalence on 1000 random words", started)


def test_criterion_5_tree_metric_oracle():
    started = time.time()
    _, splitting = p4_ad_splitting()
    ball = tree_ball(splitting, 5, local_radius=2)

    def bfs(src):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for _, w in ball.adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    pairs = 0
    for src in ball.vertices:
        dist = bfs(src)
        assert len(dist) == len(ball.vertices)
        for tgt, d in dist.items():
            assert tree_distance(splitting, src, tgt) == d
            pairs += 1
    elapsed = time.time() - started
    assert elapsed < 60, f"tree-metric sweep took {elapsed:.1f}s"
    report(5, f"tree-metric oracle equivalence on {pairs} vertex pairs", started)


def test_criterion_6_dynamics():
    started = time.time()
    pres, splitting = p4_ad_splitting()
    action = element_action(splitting, parse_word(pres, "a d"))
    assert action.kind == "Loxodromic"
    assert action.translation_length == 2
    # cross-check D1/D2 against the metric directly
    x = base_vertex(splitting)
    g = parse_word(pres, "a d")
    d1 = tree_distance(splitting, x, act(splitting, g, x))
    d2 = tree_distance(splitting, x, act(splitting, power(pres, g, 2), x))
    assert (d1, d2) == (2, 4)
    a_set = set(pres._names(splitting.a_side))
    for g in sorted(enumerate_ball(pres, 5)):
        if support(pres, g) <= a_set:
            assert element_action(splitting, g).kind == "Elliptic"
    report(6, "loxodromic/elliptic dynamics in the P4 splitting", started)


def test_criterion_7_property_suites():
    started = time.time()
    rng = random.Random(97)

    # full-subgroup intersection law on a radius-4 ball
    pres, _ = load_presentation(FIXTURES / "p4_racg.json")
    ball4 = enumerate_ball(pres, 4)
    verts = pres.graph.vertices
    for _ in range(40):
        s = {v for v in verts if rng.random() < 0.5}
        t = {v for v in verts if rng.random() < 0.5}
        for g in ball4:
            both = in_full_subgroup(pres, g, s) and in_full_subgroup(pres, g, t)
            assert both == in_full_subgroup(pres, g, s & t)

    # group axioms on random samples
    for _ in range(200):
        rp = random_presentation(rng, max_vertices=5)
        g, h, k = (rp.canonical(random_word(rng, rp, max_len=5)) for _ in range(3))
        assert rp.multiply(rp.multiply(g, h), k) == rp.multiply(g, rp.multiply(h, k))
        assert rp.multiply(g, rp.inverse(g)) == ()
        assert rp.multiply(g, ()) == g

    # coset canonicalization right-invariance
    for _ in range(100):
        rp = random_presentation(rng, max_vertices=4, orders=(2, 3))
        s_set = {v for v in rp.graph.vertices if rng.random() < 0.5}
        g = rp.canonical(random_word(rng, rp, max_len=5))
        s = rng.choice(sorted(enumerate_ball(rp, 3, subset=s_set, cap=50_000)))
        assert coset_canonical(rp, rp.multiply(g, s), s_set) == coset_canonical(
            rp, g, s_set
        )

    # equivariance of the tree metric
    _, splitting = p4_ad_splitting()
    tball = tree_ball(splitting, 3, local_radius=2)
    elements = sorted(enumerate_ball(pres, 4))
    for _ in range(200):
        g = rng.choice(elements)
        u = rng.choice(tball.vertices)
        v = rng.choice(tball.vertices)
        assert tree_distance(splitting, u, v) == tree_distance(
            splitting, act(splitting, g, u), act(splitting, g, v)
        )
    report(7, "property suites (intersection, axioms, cosets, equivariance)", started)


def test_readme_library_tour():
    # the README's library tour, each result checked against its comment
    graph = SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    pres = Presentation(graph, {v: 2 for v in "abcd"})
    verdict = classify(pres)
    assert verdict.arboreality == Arboreality.ACYL_ARBOREAL
    assert repr(verdict.certificate) == "SeparatedPair(a='a', b='c', link_set=('b',), link_order=2)"
    sp = verdict.splitting
    assert (sp.acyl_k, sp.acyl_c) == (3, 2)
    assert format_word(parse_word(pres, "b a c b")) == "a c"
    assert element_action(sp, parse_word(pres, "a d")).kind in ("Elliptic", "Loxodromic")
    assert audit_acylindricity(sp, k=3, tree_radius=4, element_radius=5).passed
    assert path_stabilizer(sp, tree_ball(sp, 1).edges[:2]) == ((), ("b",))
