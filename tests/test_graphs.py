import random
import re
from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arboreal.classify import _non_adjacent_pair_count
from arboreal.errors import InputError
from arboreal.graphs import (
    INFINITY,
    SimpleGraph,
    complement,
    diameter,
    induced_subgraph,
    is_irreducible,
    to_dot,
)
from arboreal.words import Presentation

from conftest import fig2_graph, p3_graph, p4_graph
from oracles import graph_by_edge_sets, graph_distances, is_connected_by_bfs, link


def complete_graph(n):
    names = [chr(ord("a") + i) for i in range(n)]
    return SimpleGraph(names, combinations(names, 2))


def path_graph(n):
    names = [chr(ord("a") + i) for i in range(n)]
    return SimpleGraph(names, zip(names, names[1:]))


def cycle_graph(n):
    names = [chr(ord("a") + i) for i in range(n)]
    return SimpleGraph(names, zip(names, names[1:] + names[:1]))


@st.composite
def graphs(draw, max_vertices=10):
    n = draw(st.integers(1, max_vertices))
    names = [chr(ord("a") + i) for i in range(n)]
    pairs = list(combinations(names, 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(names, [p for p, keep in zip(pairs, mask) if keep])


@st.composite
def sparse_graphs(draw, max_vertices=40):
    """Graphs whose edge probability is drawn first, from sparse to dense, and
    which are at times a random spanning tree plus those edges: connected
    graphs of long diameter as well as many components. The tree hangs each
    vertex from one of the ``reach`` before it, a path at reach 1. Vertex
    order is random, so a ball's neighbours come before and after it."""
    n = draw(st.integers(1, max_vertices))
    rng = draw(st.randoms(use_true_random=False))
    p = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3, 0.7, 0.95]))
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    edges = [e for e in combinations(names, 2) if rng.random() < p]
    if reach := draw(st.sampled_from([0, 1, 2, 4, max_vertices])):
        edges += [(names[i], names[rng.randrange(max(0, i - reach), i)]) for i in range(1, n)]
    return SimpleGraph(names, edges)


def bfs_diameter(g):
    """The diameter from a breadth-first search per vertex, INFINITY if one
    misses a vertex."""
    dists = [graph_distances(g, v) for v in g.vertices]
    if any(len(d) < len(g.vertices) for d in dists):
        return INFINITY
    return max(max(d.values()) for d in dists)


def grid_graph(rows, columns):
    names = [f"{i},{j}" for i in range(rows) for j in range(columns)]
    edges = [(f"{i},{j}", f"{i},{j + 1}") for i in range(rows) for j in range(columns - 1)]
    edges += [(f"{i},{j}", f"{i + 1},{j}") for i in range(rows - 1) for j in range(columns)]
    return SimpleGraph(names, edges)


@st.composite
def edge_lists(draw, max_vertices=7):
    """(vertices, edges): names in any order, at times with a duplicate; edges
    repeated and in either orientation, at times a loop or an endpoint "z"
    outside the vertex list."""
    names = draw(st.permutations("abcdefg"[: draw(st.integers(1, max_vertices))]))
    if draw(st.integers(0, 9)) == 0:
        names = names + [draw(st.sampled_from(names))]
    pairs = [(u, v) for u in names for v in names if u != v]
    edge = st.sampled_from(pairs)
    if draw(st.integers(0, 4)) == 0:
        edge = edge | st.tuples(st.sampled_from(names + ["z"]), st.sampled_from(names + ["z"]))
    return names, draw(st.lists(edge, max_size=25)) if pairs else []


class TestConstruction:
    def test_rejects_loops(self):
        with pytest.raises(InputError):
            SimpleGraph("ab", [("a", "a")])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(InputError):
            SimpleGraph("ab", [("a", "z")])

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(InputError):
            SimpleGraph("aba")

    def test_multi_edges_collapse(self):
        g = SimpleGraph("ab", [("a", "b"), ("b", "a")])
        assert len(g.edges) == 1

    @settings(max_examples=200, deadline=None)
    @given(edge_lists())
    @example((["a", "b", "a"], [("a", "z")]))
    @example((["a", "b"], [("a", "b"), ("a", "z"), ("b", "b")]))
    @example((["a", "b"], [("b", "a"), ("b", "b"), ("z", "a")]))
    @example((["a", "b"], [("a", "b"), ("z", "z")]))  # an outside endpoint before a loop
    def test_matches_edge_sets(self, drawn):
        """The adjacency and edges derived from the masks, ``==`` and ``hash``
        match a graph built straight from the edge list, as does the count of
        non-adjacent pairs, and ``repr`` evaluates to an equal graph; a bad
        input raises the oracle's message."""
        vertices, edges = drawn
        try:
            adjacency, edge_set = graph_by_edge_sets(vertices, edges)
        except InputError as exc:
            with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
                SimpleGraph(vertices, edges)
            return
        g = SimpleGraph(vertices, edges)
        assert g.adjacency == adjacency
        assert g.edges == edge_set
        plain = SimpleGraph(vertices, sorted(tuple(sorted(e)) for e in edge_set))
        assert g == plain and hash(g) == hash(plain)
        assert eval(repr(g), {"SimpleGraph": SimpleGraph}) == g
        fewer = edges[1:]
        same = graph_by_edge_sets(vertices, fewer)[1] == edge_set
        assert (g == SimpleGraph(vertices, fewer)) == same
        if len(vertices) > 1:
            pres = Presentation(g, dict.fromkeys(vertices, 2))
            assert _non_adjacent_pair_count(pres) == sum(
                v not in adjacency[u] for u, v in combinations(vertices, 2)
            )


class TestLink:
    def test_p3_endpoints(self):
        assert link(p3_graph(), {"a", "c"}) == {"b"}

    def test_k3_singleton(self):
        assert link(complete_graph(3), {"a"}) == {"b", "c"}

    def test_p4_distance3_pair_empty(self):
        assert link(p4_graph(), {"a", "d"}) == set()

    def test_empty_subset_rejected(self):
        with pytest.raises(InputError):
            link(p3_graph(), set())

    def test_unknown_vertex_rejected(self):
        with pytest.raises(InputError):
            link(p3_graph(), {"z"})


class TestDiameter:
    def test_c5(self):
        assert diameter(cycle_graph(5)) == 2

    @pytest.mark.parametrize("n,expected", [(1, 0), (2, 1), (5, 1)])
    def test_complete(self, n, expected):
        assert diameter(complete_graph(n)) == expected

    def test_disconnected_is_infinite(self):
        assert diameter(SimpleGraph("ab")) == INFINITY

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError, match="diameter of the empty graph"):
            diameter(SimpleGraph([]))

    def test_p4(self):
        assert diameter(p4_graph()) == 3

    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 127, 128, 129, 130])
    def test_path(self, n):
        # one frontier round per edge, past one and two 64-bit words of mask
        assert diameter(path_graph(n)) == n - 1

    @pytest.mark.parametrize("n", [3, 4, 5, 64, 65, 129, 130])
    def test_cycle(self, n):
        assert diameter(cycle_graph(n)) == n // 2

    def test_path_plus_isolated_vertex_is_infinite(self):
        g = path_graph(130)
        assert diameter(SimpleGraph(g.vertices + ("0",), g.edges)) == INFINITY

    def test_two_disjoint_paths_are_infinite(self):
        # a middle vertex's ball stops growing first, at round 33, a path short of everything
        names = [f"{side}{i}" for side in "xy" for i in range(65)]
        edges = [(f"{side}{i}", f"{side}{i + 1}") for side in "xy" for i in range(64)]
        g = SimpleGraph(names, edges)
        assert diameter(g) == bfs_diameter(g) == INFINITY

    def test_grid(self):
        g = grid_graph(9, 9)
        assert diameter(g) == bfs_diameter(g) == 16

    def test_dense_balls_fill_partway_through_a_round(self):
        # 40 vertices, all joined but for a perfect matching: each round-1 ball
        # misses one vertex, and round 2 fills it at its first neighbour
        names = [f"v{i}" for i in range(40)]
        g = SimpleGraph(names, [(u, v) for (i, u), (j, v) in combinations(enumerate(names), 2)
                                if i // 2 != j // 2])
        assert diameter(g) == bfs_diameter(g) == 2
        rng = random.Random(3)
        g = SimpleGraph(names, [e for e in combinations(names, 2) if rng.random() < 0.7])
        assert diameter(g) == bfs_diameter(g) == 2


class TestIrreducibility:
    def test_fig2_is_irreducible(self):
        assert is_irreducible(fig2_graph())

    def test_k2_not(self):
        assert not is_irreducible(complete_graph(2))

    def test_p3_not(self):
        assert not is_irreducible(p3_graph())

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError, match="connectivity of the empty graph"):
            is_irreducible(SimpleGraph([]))


class TestInducedSubgraph:
    def test_edge(self):
        sub = induced_subgraph(p4_graph(), {"a", "b"})
        assert sub.vertices == ("a", "b")
        assert len(sub.edges) == 1

    def test_o2(self):
        sub = induced_subgraph(p4_graph(), {"a", "d"})
        assert not sub.edges

    def test_full_subset_identity(self):
        g = p4_graph()
        assert induced_subgraph(g, g.vertices) == g


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(graphs(max_vertices=6), st.data())
    def test_link_of_union_is_intersection(self, g, data):
        sets = st.sets(st.sampled_from(list(g.vertices)), min_size=1)
        a = data.draw(sets)
        b = data.draw(sets)
        assert link(g, a | b) == link(g, a) & link(g, b)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_vertices=8), st.data())
    def test_link_disjoint_from_subset(self, g, data):
        s = data.draw(st.sets(st.sampled_from(list(g.vertices)), min_size=1))
        assert not link(g, s) & s

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_vertices=8))
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_vertices=8))
    def test_irreducible_matches_complement_bfs(self, g):
        assert is_irreducible(g) == is_connected_by_bfs(complement(g))

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_vertices=10))
    def test_diameter_matches_bfs_distances(self, g):
        assert diameter(g) == bfs_diameter(g)

    @settings(max_examples=150, deadline=None)
    @given(sparse_graphs(max_vertices=40))
    def test_diameter_matches_bfs_distances_up_to_40_vertices(self, g):
        assert diameter(g) == bfs_diameter(g)

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_vertices=10))
    def test_masks_match_adjacency(self, g):
        n = len(g.vertices)
        for i, u in enumerate(g.vertices):
            assert 0 <= g.masks[i] < 1 << n
            assert not g.masks[i] >> i & 1
            for j, v in enumerate(g.vertices):
                assert bool(g.masks[i] >> j & 1) == (v in g.adjacency[u])
                assert g.masks[i] >> j & 1 == g.masks[j] >> i & 1

    def test_isolated_vertex_gives_infinite_diameter(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 8)
            names = [chr(ord("a") + i) for i in range(n)]
            edges = [
                (u, v)
                for u, v in combinations(names[1:], 2)
                if rng.random() < 0.6
            ]
            g = SimpleGraph(names, edges)  # names[0] stays isolated
            assert diameter(g) == INFINITY


class TestDot:
    def test_counts(self):
        dot = to_dot(fig2_graph())
        assert dot.count(";") == 6 + 9

    def test_complement_of_k3_has_no_edges(self):
        dot = to_dot(complement(complete_graph(3)))
        assert "--" not in dot

    def test_quotes_and_backslashes_in_names_are_escaped(self):
        dot = to_dot(SimpleGraph(['a"b', "c\\d"], [('a"b', "c\\d")]))
        assert dot.splitlines()[1:4] == ['  "a\\"b";', '  "c\\\\d";', '  "a\\"b" -- "c\\\\d";']

    def test_edges_in_vertex_order(self):
        # vertex order not alphabetical; input edges reversed and repeated
        g = SimpleGraph(["c", "a", "d", "b"], [("b", "a"), ("a", "c"), ("d", "c"), ("a", "b")])
        head = 'graph G {\n  "c";\n  "a";\n  "d";\n  "b";\n'
        assert to_dot(g) == head + '  "c" -- "a";\n  "c" -- "d";\n  "a" -- "b";\n}\n'
        assert to_dot(complement(g)) == (
            head + '  "c" -- "b";\n  "a" -- "d";\n  "d" -- "b";\n}\n'
        )
