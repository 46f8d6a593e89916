"""Independent brute-force oracles used to check the fast implementations.

These deliberately avoid the code paths they verify: reduction applies the
rewriting rules in a random order, the shuffle-closure oracle works by
exhaustive BFS over adjacent commuting swaps, the first/last-vertex and
coset oracles read the answer off the whole orbit, and separated pairs come
from BFS distances and induced subgraphs.
"""

import math
import random
from itertools import combinations

from arboreal.classify import SeparatedPair
from arboreal.graphs import SimpleGraph, edge_distance, induced_subgraph, is_complete
from arboreal.words import INFINITY, Presentation, Syllable


def shuffle_closure(pres, word):
    """All words reachable from ``word`` by adjacent commuting swaps."""
    adjacency = pres.graph.adjacency
    word = tuple(word)
    seen = {word}
    frontier = [word]
    while frontier:
        new = []
        for w in frontier:
            for i in range(len(w) - 1):
                u, v = w[i].vertex, w[i + 1].vertex
                if v in adjacency[u]:
                    swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                    if swapped not in seen:
                        seen.add(swapped)
                        new.append(swapped)
        frontier = new
    return seen


def word_key(pres, word):
    return tuple((pres.graph.index[s.vertex], s.exponent) for s in word)


def lex_min_of_orbit(pres, reduced_word):
    """Lexicographically smallest member of the shuffle orbit."""
    return min(shuffle_closure(pres, reduced_word), key=lambda w: word_key(pres, w))


def first_vertices_brute(pres, word, rng: random.Random):
    """First-syllable vertices found by inspecting the whole shuffle orbit."""
    orbit = shuffle_closure(pres, reduce_randomized(pres, word, rng))
    return {w[0].vertex for w in orbit if w}


def last_vertices_brute(pres, word, rng: random.Random):
    orbit = shuffle_closure(pres, reduce_randomized(pres, word, rng))
    return {w[-1].vertex for w in orbit if w}


def coset_canonical_by_stripping(pres, word, subset, rng: random.Random):
    """Coset representative of gG_S by iterated stripping, on the oracles:
    drop the last syllable at the smallest vertex of S that can end the
    word, re-canonicalize, and repeat until no vertex of S can end it."""
    subset = set(subset)
    g = lex_min_of_orbit(pres, reduce_randomized(pres, word, rng))
    while True:
        strippable = last_vertices_brute(pres, g, rng) & subset
        if not strippable:
            return g
        v = min(strippable, key=pres.graph.index.__getitem__)
        i = max(i for i, s in enumerate(g) if s.vertex == v)
        g = lex_min_of_orbit(pres, reduce_randomized(pres, g[:i] + g[i + 1:], rng))


def random_presentation(rng: random.Random, max_vertices=5, orders=(2, 3, INFINITY)):
    n = rng.randint(2, max_vertices)
    names = [chr(ord("a") + i) for i in range(n)]
    edges = [
        (u, v)
        for i, u in enumerate(names)
        for v in names[i + 1:]
        if rng.random() < 0.5
    ]
    return Presentation(
        SimpleGraph(names, edges), {v: rng.choice(orders) for v in names}
    )


def random_word(rng: random.Random, pres, max_len=8, exp_bound=2):
    out = []
    for _ in range(rng.randint(0, max_len)):
        v = rng.choice(pres.graph.vertices)
        n = pres.orders[v]
        if n == INFINITY:
            e = rng.choice([k for k in range(-exp_bound, exp_bound + 1) if k != 0])
        else:
            e = rng.randint(1, n - 1)
        out.append(Syllable(v, e))
    return tuple(out)


def reduce_randomized(pres, word, rng: random.Random):
    """Reduction applying join/delete rules in a random order.

    Independent re-statement of the rewriting system, used to check that the
    deterministic reducer is confluent.
    """
    sylls = [Syllable(v, pres.normalize_exponent(v, e)) for v, e in word]
    sylls = [s for s in sylls if s.exponent != 0]
    adjacency = pres.graph.adjacency
    while True:
        moves = []
        for i in range(len(sylls)):
            v = sylls[i].vertex
            for j in range(i + 1, len(sylls)):
                u = sylls[j].vertex
                if u == v:
                    moves.append((i, j))
                    break
                if u not in adjacency[v]:
                    break
        if not moves:
            return tuple(sylls)
        i, j = rng.choice(moves)
        v = sylls[i].vertex
        e = pres.normalize_exponent(v, sylls[i].exponent + sylls[j].exponent)
        del sylls[j]
        if e == 0:
            del sylls[i]
        else:
            sylls[i] = Syllable(v, e)


def separated_pairs_by_definition(pres):
    """Separated pairs in vertex order, by the definition: BFS edge distance
    >= 2, and a common link inducing a complete graph of finite-order vertices."""
    graph, orders = pres.graph, pres.orders
    out = []
    for a, b in combinations(graph.vertices, 2):
        if edge_distance(graph, a, b) < 2:
            continue
        common = [v for v in graph.vertices if {a, b} <= graph.adjacency[v]]
        finite = all(orders[v] != INFINITY for v in common)
        if finite and is_complete(induced_subgraph(graph, common)):
            out.append(SeparatedPair(a, b, tuple(common), math.prod(orders[v] for v in common)))
    return out
