"""Property tests of the tree layer against its oracles: the once-per-audit
enumerations against the per-vertex and per-edge ones, the audit's witnesses
against the violations of the oracle's walk over each edge set, each path's
stabilizer formula against the per-edge fixer scan, the length rule behind
the audit's bound against the lengths of canonical conjugates, and the
one-pass tree distance against re-canonicalizing stripping and BFS; that
the tree ball is a tree whose vertices list their children in edge order,
and that no R-syllable ends the f of a path stabilizer f G_R f^-1, also
between end edges far outside any tree ball, where f v f^-1 fixes both ends
iff v is in R; and that a vertex's representative extended by a G_C-coset
representative of its side is already its edge's representative, also far
outside any tree ball; and that the peel behind coset representatives and
stabilizers, forward and in reverse, peels only S-syllables, keeps the
element, and is maximal; that the word joining two canonical words, formed
from what they do not share, is the inverse of one extended by the other;
that each tree-ball vertex extends its parent by a coset representative; and
that the level sizes the audit counts from give the tree ball's vertices and
paths, and that their growth-series form matches the side balls.

Presentations have at most five vertices (six for the child order, seven for
the far end edges, the far edge lemma, the peel, the joining word, the
children and the level sizes), with orders in {2, 3, inf}; every
separated-pair splitting is checked at tree and element radii up to 3 under
a low ball cap, so that cap errors are compared too; the level sizes reach
tree radius 5 under a cap of 1,000 vertices.
"""

from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal.classify import build_splitting, separated_pairs
from arboreal.errors import ResourceCapError
from arboreal.words import Syllable
from arboreal.tree import (
    SIDE_A,
    SIDE_B,
    TreeEdge,
    TreeVertex,
    _levels,
    _path_count,
    _peel,
    audit_acylindricity,
    element_action,
    make_edge,
    make_vertex,
    path_stabilizer,
    tree_ball,
    tree_distance,
)

from conftest import presentations
from oracles import (
    audit_by_scan,
    bfs_distances,
    coset_canonical,
    coset_canonical_by_stripping,
    edge_fixers_by_scan,
    element_action_by_stripping,
    enumerate_ball,
    enumerate_ball_by_canonical,
    first_vertices,
    last_vertices,
    paths_by_edge_set,
    random_word,
    support,
    tree_ball_by_vertex,
    tree_distance_by_stripping,
    word_length,
)

CAP = 300
LEVELS_CAP = 1_000


@st.composite
def ball_radii(draw):
    """(tree_radius, local_radius) up to (3, 1); a local radius of 2 only up
    to tree radius 2, which keeps the balls small."""
    tree_radius = draw(st.integers(1, 3))
    return tree_radius, draw(st.integers(1, 2 if tree_radius <= 2 else 1))


@st.composite
def limits(draw):
    """(k, tree_radius, element_radius, local_radius), the radii from
    ``ball_radii``. k reaches 4, where no audit fails."""
    tree_radius, local_radius = draw(ball_radii())
    k = draw(st.integers(1, min(4, 2 * tree_radius)))
    return k, tree_radius, draw(st.integers(1, 3)), local_radius


def outcome(fn, *args):
    try:
        return fn(*args)
    except ResourceCapError as exc:
        return str(exc)


def ball_shape(ball):
    if isinstance(ball, str):
        return ball
    return (
        ball.vertices,
        [e.rep for e in ball.edges],
        {v: [(e.rep, w) for e, w in nbrs] for v, nbrs in ball.adjacency.items()},
        ball.truncated,
    )


def report_dict(report):
    """A report's ``to_dict()`` but its violations, which the oracle lists
    per path and the audit per witness; a cap error's text."""
    if isinstance(report, str):
        return report
    return {key: value for key, value in report.to_dict().items() if key != "violations"}


@settings(max_examples=60, deadline=None)
@given(presentations(), limits())
def test_tree_ball_and_audit_match_oracles(pres, lims):
    k, tree_radius, element_radius, local_radius = lims
    for pair in separated_pairs(pres):
        sp = build_splitting(pres, pair)
        assert ball_shape(outcome(tree_ball, sp, tree_radius, local_radius, CAP)) == ball_shape(
            outcome(tree_ball_by_vertex, sp, tree_radius, local_radius, CAP)
        )
        args = (sp, k, tree_radius, element_radius, local_radius, CAP)
        assert report_dict(outcome(audit_acylindricity, *args)) == report_dict(
            outcome(audit_by_scan, *args)
        )


@settings(max_examples=60, deadline=None)
@given(presentations(), st.integers(0, 3), st.integers(1, 2))
def test_tree_ball_is_a_tree(pres, radius, local_radius):
    """One edge per vertex but the base, to a vertex listed before it, and no
    edge twice."""
    for pair in separated_pairs(pres):
        try:
            ball = tree_ball(build_splitting(pres, pair), radius, local_radius, CAP)
        except ResourceCapError:
            continue
        assert ball.vertices[0] == ball.base
        assert len(ball.edges) == len(ball.vertices) - 1
        assert len({e.rep for e in ball.edges}) == len(ball.edges)
        order = {v: i for i, v in enumerate(ball.vertices)}
        for v in ball.vertices[1:]:
            assert sum(order[w] < order[v] for _, w in ball.adjacency[v]) == 1


def base_paths(sp, k, tree_radius):
    """(edge set, R) of each base path whose R is an R_k of the audit: the
    edge G_C, R = C, at k = 1; at k = 2, the edges G_C and uG_C, R = C ∩
    lk(u), for u = a, and for u = b, which turns at G_B, from tree radius 2."""
    a, b = sp.pair
    turns = {1: [()], 2: [(a,), (b,)] if tree_radius >= 2 else [(a,)]}.get(k, [])
    pres = sp.presentation
    adjacency, c_set = pres.graph.adjacency, set(pres._names(sp.c_side))
    return [
        (frozenset([()] + [(Syllable(u, 1),) for u in us]),
         tuple(c for c in pres.graph.vertices if c in c_set and adjacency[c].issuperset(us)))
        for us in turns
    ]


@settings(max_examples=60, deadline=None)
@given(presentations(), limits())
def test_audit_witnesses_are_oracle_violations(pres, lims):
    """A failing audit lists, in place of the oracle's violations, its
    witnesses: the base paths, G_C at k = 1 and G_C, aG_C then G_C, bG_C at
    k = 2, that are oracle violations, with the oracle's size, so it has
    witnesses iff the oracle has violations. Each witness's stabilizer is
    G_R, f = (), for its R_k; and no audit with k >= 3 fails."""
    k, tree_radius, element_radius, local_radius = lims
    for pair in separated_pairs(pres):
        sp = build_splitting(pres, pair)
        args = (sp, k, tree_radius, element_radius, local_radius, CAP)
        try:
            report, oracle = audit_acylindricity(*args), audit_by_scan(*args)
        except ResourceCapError:
            continue
        found = {frozenset(e.rep for e in path): size for path, size in oracle.violations}
        paths = base_paths(sp, k, tree_radius)
        assert [(frozenset(e.rep for e in path), size) for path, size in report.violations] == [
            (edges, found[edges]) for edges, _ in paths if edges in found
        ]
        assert bool(report.violations) == bool(oracle.violations)
        assert report.passed or k <= 2
        groups = dict(paths)
        for path, _ in report.violations:
            assert path_stabilizer(sp, path) == ((), groups[frozenset(e.rep for e in path)])


@settings(max_examples=60, deadline=None)
@given(presentations(max_vertices=7), st.integers(1, 3), st.integers(1, 3))
def test_children_extend_their_parent_by_a_coset_representative(pres, radius, local_radius):
    """Each vertex of ``tree_ball`` but the base is listed after its parent,
    its first neighbour, shares its representative with its edge to it, and
    its representative is the parent's extended by t = parent^-1 vertex,
    with no syllable merged or cancelled: t is a canonical, C-stripped
    representative of a G_C coset in the parent's side, nonempty but at
    vertex 1, the base's child across the edge G_C."""
    for pair in separated_pairs(pres):
        sp = build_splitting(pres, pair)
        try:
            ball = tree_ball(sp, radius, local_radius, CAP)
        except ResourceCapError:
            continue
        order = {v: i for i, v in enumerate(ball.vertices)}
        for w in ball.vertices[1:]:
            edge, x = ball.adjacency[w][0]
            assert order[x] < order[w] and (edge, w) in ball.adjacency[x]
            assert edge.rep == w.rep
            t = pres._extend(pres.inverse(x.rep), w.rep)
            assert pres._extend(x.rep, t) == w.rep
            assert len(w.rep) == len(x.rep) + len(t)
            assert bool(t) == (order[w] > 1)
            assert t == pres.canonical(t) == coset_canonical(pres, t, pres._names(sp.c_side))
            assert {v for v, _ in t} <= set(pres._names(sp.side(x.side)))


@settings(max_examples=60, deadline=None)
@given(
    presentations(max_vertices=7), st.integers(1, 4), st.integers(1, 5), st.integers(1, 3)
)
def test_level_sizes_count_vertices_and_paths(pres, k, radius, local_radius):
    """The tree ball's vertex count and its number of k-edge paths, from the
    level sizes of ``_levels`` alone, are the number of vertices ``tree_ball``
    builds and of paths ``paths_by_edge_set`` finds in it."""
    for pair in separated_pairs(pres):
        sp = build_splitting(pres, pair)
        try:
            ball = tree_ball(sp, radius, local_radius, LEVELS_CAP)
        except ResourceCapError:
            continue
        kids = _levels(sp, radius, local_radius, LEVELS_CAP)[1]
        assert sum(prod(kids[:d]) for d in range(radius + 1)) == len(ball.vertices)
        assert _path_count(kids, k) == sum(1 for _ in paths_by_edge_set(ball, k))


@settings(max_examples=60, deadline=None)
@given(presentations(max_vertices=7), st.integers(1, 5), st.integers(1, 3),
       st.sampled_from([30, 300, 3000]))
def test_level_sizes_from_series_are_the_enumerated_ones(pres, radius, local_radius, cap):
    """``_levels`` reads from growth series the child counts and the
    truncation flag it takes from the side balls without them, and raises
    the same cap error, whether a count passes the cap or the table, cut,
    leaves a side to enumeration."""
    def levels(sp, *series):
        try:
            return _levels(sp, radius, local_radius, cap, *series)[1:]
        except ResourceCapError as error:
            return str(error)

    for pair in separated_pairs(pres):
        sp = build_splitting(pres, pair)
        assert levels(sp, pres.growth_table(local_radius, cap)) == levels(sp)


@st.composite
def small_balls(draw):
    """(tree_radius, local_radius): local radius at least 2, so that edge
    representatives carry C-syllables; 3 only on a radius-1 ball."""
    tree_radius = draw(st.integers(1, 2))
    return tree_radius, draw(st.integers(2, 4 - tree_radius))


@settings(max_examples=40, deadline=None)
@given(presentations(), small_balls(), st.integers(1, 3))
def test_path_stabilizer_is_the_conjugate_of_its_parabolic(pres, radii, element_radius):
    """On every k-edge path, k 1 to 3, of a small tree ball, the element-ball
    elements fixing each edge by scan are exactly those s with f^-1 s f
    supported in R, for (f, R) = path_stabilizer."""
    tree_radius, local_radius = radii
    for pair in separated_pairs(pres):
        sp = build_splitting(pres, pair)
        try:
            ball = tree_ball_by_vertex(sp, tree_radius, local_radius, CAP)
            elements = enumerate_ball(pres, element_radius, cap=CAP)
        except ResourceCapError:
            continue
        fixers = {e.rep: edge_fixers_by_scan(sp, e, elements, CAP) for e in ball.edges}
        conjugates = {}
        for k in range(1, min(3, 2 * tree_radius) + 1):
            for path in paths_by_edge_set(ball, k):
                f, r = path_stabilizer(sp, path)
                if (f, r) not in conjugates:
                    f_inv = pres.inverse(f)
                    conjugates[f, r] = {
                        s for s in elements if support(pres, f_inv + s + f) <= set(r)
                    }
                assert set.intersection(*(fixers[e.rep] for e in path)) == conjugates[f, r]


@settings(max_examples=60, deadline=None)
@given(presentations(max_vertices=6), st.sampled_from([(2, 2), (3, 2)]))
def test_tree_ball_lists_children_in_edge_order(pres, radii):
    """On random products, each vertex of a tree ball lists the edge to its
    parent first (the base has none), then the edges to its children, in
    edge-representative order."""
    for pair in separated_pairs(pres):
        try:
            ball = tree_ball(build_splitting(pres, pair), *radii, CAP)
        except ResourceCapError:
            continue
        for v in ball.vertices:
            reps = [e.rep for e, _ in ball.adjacency[v][v != ball.base:]]
            assert reps == sorted(reps)


@settings(max_examples=40, deadline=None)
@given(presentations(), st.integers(0, 3))
def test_word_length_is_the_ball_radius(pres, radius):
    """Reduced words are geodesic: the radius-r ball holds exactly the
    elements of the radius-3 ball of length at most r."""
    try:
        ball = enumerate_ball_by_canonical(pres, 3, CAP, set(pres.graph.vertices))[0]
    except ResourceCapError:
        return
    assert enumerate_ball(pres, radius, cap=CAP) == {
        w for w in ball if word_length(pres, w) <= radius
    }


@settings(max_examples=40, deadline=None)
@given(presentations(), small_balls(), st.integers(1, 4))
def test_conjugate_length_rule(pres, radii, radius):
    """For (f, R) = path_stabilizer on every k-edge path, k 1 to 3, of a small
    tree ball, f is the canonical representative of f G_R (no R-syllable ends
    it), and for x in the G_R ball of radius up to 4:
    |canonical(f x f^-1)| = |x| + 2 |f stripped of lk(supp x)|."""
    tree_radius, local_radius = radii
    adjacency = pres.graph.adjacency
    for pair in separated_pairs(pres):
        sp = build_splitting(pres, pair)
        try:
            ball = tree_ball(sp, tree_radius, local_radius, CAP)
        except ResourceCapError:
            continue
        stabilizers = {
            path_stabilizer(sp, path)
            for k in range(1, min(3, 2 * tree_radius) + 1)
            for path in paths_by_edge_set(ball, k)
        }
        for f, r in stabilizers:
            assert last_vertices(pres, f).isdisjoint(r)
            try:
                xs = enumerate_ball(pres, radius, cap=CAP, subset=r)
            except ResourceCapError:
                continue
            f_inv = pres.inverse(f)
            for x in xs:
                support = {v for v, _ in x}
                lk = [u for u in pres.graph.vertices if support <= adjacency[u]]
                assert word_length(pres, pres.multiply(f, x, f_inv)) == word_length(
                    pres, x
                ) + 2 * word_length(pres, coset_canonical(pres, f, lk))


@settings(max_examples=100, deadline=None)
@given(presentations(max_vertices=7), st.randoms(use_true_random=False))
def test_path_stabilizer_between_far_end_edges(pres, rng):
    """For end edges given by raw words of up to 20 syllables, far outside any
    tree ball, (f, R) = path_stabilizer has R inside C and no R-syllable at
    the end of f, and f v f^-1 fixes both end edges iff v is in R: a vertex
    generator lies in G_R iff it is in R."""
    for pair in separated_pairs(pres):
        sp = build_splitting(pres, pair)
        for _ in range(5):
            ends = [TreeEdge(random_word(rng, pres, max_len=20)) for _ in range(2)]
            f, r = path_stabilizer(sp, ends)
            assert set(r) <= set(pres._names(sp.c_side))
            assert last_vertices(pres, f).isdisjoint(r)
            f_inv = pres.inverse(f)
            for v in pres.graph.vertices:
                conjugate = f + (Syllable(v, 1),) + f_inv
                fixed = [make_edge(sp, conjugate + e.rep) == make_edge(sp, e.rep) for e in ends]
                assert all(fixed) == (v in r)


@settings(max_examples=100, deadline=None)
@given(presentations(max_vertices=7), st.randoms(use_true_random=False))
def test_edge_at_a_far_vertex_is_its_extension(pres, rng):
    """The edge lemma of ``tree_ball``, far outside any tree ball: for a vertex
    rG_S of a raw word of up to 20 syllables and t the C-stripped
    representative of a raw word over S, g = r t as ``_extend`` forms it is
    the canonical representative of its edge gG_C: no C-syllable ends it."""
    for pair in separated_pairs(pres):
        sp = build_splitting(pres, pair)
        c_set = pres._names(sp.c_side)
        for _ in range(5):
            side = rng.choice((SIDE_A, SIDE_B))
            r = make_vertex(sp, random_word(rng, pres, max_len=20), side).rep
            s_set = pres._names(sp.side(side))
            u = [s for s in random_word(rng, pres, max_len=20) if s.vertex in s_set]
            g = pres._extend(r, coset_canonical(pres, u, c_set))
            assert make_edge(sp, g).rep == g
            assert last_vertices(pres, g).isdisjoint(c_set)


@settings(max_examples=60, deadline=None)
@given(presentations(), st.randoms(use_true_random=False))
def test_tree_distance_matches_stripping_and_bfs(pres, rng):
    """On raw, unreduced representatives of up to 20 syllables on either side,
    and of up to 200, whose distances take tens of rounds, the one-pass
    distance and the element action equal the stripping oracles; on a
    radius-2 tree ball, distances equal BFS distances."""
    for pair in separated_pairs(pres):
        sp = build_splitting(pres, pair)
        for max_len in [20] * 5 + [200] * 2:
            v1, v2 = (
                TreeVertex(rng.choice((SIDE_A, SIDE_B)), random_word(rng, pres, max_len=max_len))
                for _ in range(2)
            )
            assert tree_distance(sp, v1, v2) == tree_distance_by_stripping(sp, v1, v2)
            g = random_word(rng, pres, max_len=max_len)
            assert element_action(sp, g) == element_action_by_stripping(sp, g)
        try:
            ball = tree_ball(sp, 2, 1, CAP)
        except ResourceCapError:
            continue
        for src in rng.sample(ball.vertices, min(4, len(ball.vertices))):
            for tgt, d in bfs_distances(ball, src).items():
                assert tree_distance(sp, src, tgt) == d


@settings(max_examples=100, deadline=None)
@given(presentations(max_vertices=7), st.randoms(use_true_random=False))
def test_peel_forward_and_reverse(pres, rng):
    """For a canonical word w of a raw word of up to 20 syllables and a random
    subset S: the forward peel peels only S-syllables, peeled + kept is w
    again, and no S-syllable begins the kept part, so the peel is maximal;
    the reverse peel likewise, mirrored, and what it keeps is the coset
    representative of wG_S that iterated stripping on the oracles finds."""
    for _ in range(5):
        w = pres.canonical(random_word(rng, pres, max_len=20))
        subset = {v for v in pres.graph.vertices if rng.random() < 0.5}
        mask = pres._mask(subset)
        peeled, kept = _peel(pres, w, mask)
        assert all(s.vertex in subset for s in peeled)
        assert pres.canonical(peeled + kept) == w
        assert first_vertices(pres, kept).isdisjoint(subset)
        peeled, kept = (tuple(reversed(part)) for part in _peel(pres, reversed(w), mask))
        assert all(s.vertex in subset for s in peeled)
        assert pres.canonical(kept + peeled) == w
        assert last_vertices(pres, kept).isdisjoint(subset)
        assert kept == coset_canonical_by_stripping(pres, w, subset, rng)
