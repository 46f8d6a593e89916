"""Algebra of graph products of cyclic groups.

Elements are syllable sequences ``(vertex, exponent)``. Graph products have a
complete rewriting system (Hermiller and Meier, J. Algebra 171, 1995): delete
identity syllables, join two syllables at one vertex when everything between
them commutes with it, shuffle adjacent commuting syllables. Two words are the
same element iff their canonical forms are identical sequences.

One engine serves every normal form. ``reduce`` is one left-to-right pass. The
dependency heap of a reduced word has an arc into each syllable from the last
earlier syllable at each vertex outside its link, its own included; its
linearizations are the word's shuffle orbit. ``canonical`` is the one taking
the smallest available vertex first (Kahn's algorithm), the orbit's
lexicographic minimum; ``first_vertices``/``last_vertices`` are the heap's
sources and sinks. Cost for L syllables over |V| vertices: O(L*|V| + L log L),
plus ``reduce``'s backward scans: linear on typical words, O(L^2) at worst.
"""

from __future__ import annotations

import re
from heapq import heapify, heappop, heappush
from typing import Iterable, NamedTuple

from .errors import DegeneratePresentationError, InputError, ResourceCapError
from .graphs import INFINITY, SimpleGraph, induced_subgraph

DEFAULT_BALL_CAP = 200_000


class Syllable(NamedTuple):
    vertex: str
    exponent: int


Word = tuple  # tuple[Syllable, ...]; may be unreduced


class Presentation:
    """A graph of cyclic groups: finite order n >= 2 or INFINITY per vertex.

    Rejects degenerate products (trivial vertex groups, fewer than two
    vertices). All operations are pure; instances are immutable by
    convention.
    """

    def __init__(self, graph: SimpleGraph, orders: dict[str, int | float]):
        if len(graph.vertices) < 2:
            raise DegeneratePresentationError("a graph product needs at least two vertices")
        for v in graph.vertices:
            if v not in orders:
                raise DegeneratePresentationError(f"vertex {v} has no order entry")
            n = orders[v]
            if n != INFINITY and (not isinstance(n, int) or n < 2):
                raise DegeneratePresentationError(
                    f"vertex {v} has order {n}; orders must be integers >= 2 or INFINITY"
                )
        self.graph = graph
        self.orders = {v: orders[v] for v in graph.vertices}

    def __eq__(self, other):
        return (
            isinstance(other, Presentation)
            and self.graph == other.graph
            and self.orders == other.orders
        )

    def __hash__(self):
        return hash((self.graph, tuple(sorted(self.orders.items()))))

    def __repr__(self):
        return f"Presentation({self.graph!r}, {self.orders!r})"

    # --- syllables -------------------------------------------------------

    def normalize_exponent(self, vertex: str, exponent: int) -> int:
        """Exponent reduced into {1,...,n-1} for finite order n; 0 = identity."""
        if vertex not in self.graph.index:
            raise InputError(f"unknown vertex: {vertex}")
        n = self.orders[vertex]
        return exponent % n if n != INFINITY else exponent

    def syllable(self, vertex: str, exponent: int) -> Syllable:
        e = self.normalize_exponent(vertex, exponent)
        if e == 0:
            raise InputError(f"identity syllable at vertex {vertex}")
        return Syllable(vertex, e)

    def make_word(self, pairs: Iterable[tuple[str, int]]) -> Word:
        """Word from (vertex, exponent) pairs, dropping identity syllables."""
        out = []
        for v, e in pairs:
            e = self.normalize_exponent(v, e)
            if e != 0:
                out.append(Syllable(v, e))
        return tuple(out)

    # --- reduction and canonical form -------------------------------------

    def reduce(self, word: Word) -> Word:
        """Reduced word for the same element, in one left-to-right pass: a
        syllable at v scans back over syllables in link(v) and joins a
        v-syllable met there. No join cascades: if P v^e S is reduced and
        S lies in link(v)*, then P S is reduced."""
        adjacency = self.graph.adjacency
        out: list[Syllable] = []
        for s in self.make_word(word):
            v, lk = s.vertex, adjacency[s.vertex]
            i = len(out) - 1
            while i >= 0 and out[i].vertex in lk:
                i -= 1
            if i < 0 or out[i].vertex != v:
                out.append(s)
            elif e := self.normalize_exponent(v, out[i].exponent + s.exponent):
                out[i] = Syllable(v, e)
            else:
                del out[i]
        return tuple(out)

    def _heap(self, sylls: Word) -> tuple[list[list[int]], list[int]]:
        """Successor lists and in-degrees of a reduced word's dependency heap."""
        adjacency = self.graph.adjacency
        last: dict[str, int] = {}
        succ: list[list[int]] = []
        indeg = []
        for j, (v, _) in enumerate(sylls):
            lk = adjacency[v]
            before = [i for u, i in last.items() if u not in lk]
            for i in before:
                succ[i].append(j)
            succ.append([])
            indeg.append(len(before))
            last[v] = j
        return succ, indeg

    def canonical(self, word: Word) -> Word:
        """Lexicographically least linearization of the reduced word's heap; at
        most one syllable per vertex is ready at a time, so vertex index decides."""
        sylls = self.reduce(word)
        succ, indeg = self._heap(sylls)
        index = self.graph.index
        ready = [(index[v], j) for j, (v, _) in enumerate(sylls) if not indeg[j]]
        heapify(ready)
        out = []
        while ready:
            _, i = heappop(ready)
            out.append(sylls[i])
            for j in succ[i]:
                indeg[j] -= 1
                if not indeg[j]:
                    heappush(ready, (index[sylls[j].vertex], j))
        return tuple(out)

    # --- group operations --------------------------------------------------

    def multiply(self, *words: Word) -> Word:
        return self.canonical(tuple(s for w in words for s in w))

    def inverse(self, word: Word) -> Word:
        return self.canonical(tuple(Syllable(v, -e) for v, e in reversed(tuple(word))))

    def power(self, word: Word, n: int) -> Word:
        g = self.canonical(word)
        if n < 0:
            g, n = self.inverse(g), -n
        return self.multiply(*([g] * n)) if n else ()

    def identity(self) -> Word:
        return ()

    # --- supports ------------------------------------------------------------

    def support(self, word: Word) -> set[str]:
        return {s.vertex for s in self.reduce(word)}

    def first_vertices(self, word: Word) -> set[str]:
        """Vertices that can begin a reduced word for the element: heap sources."""
        sylls = self.reduce(word)
        _, indeg = self._heap(sylls)
        return {v for (v, _), d in zip(sylls, indeg) if not d}

    def last_vertices(self, word: Word) -> set[str]:
        """Vertices that can end a reduced word for the element: heap sinks."""
        sylls = self.reduce(word)
        succ, _ = self._heap(sylls)
        return {v for (v, _), after in zip(sylls, succ) if not after}

    # --- full subgroups --------------------------------------------------------

    def in_full_subgroup(self, word: Word, subset: Iterable[str]) -> bool:
        """Membership in G_S, decided by support containment."""
        return self.support(word) <= self.graph.check_vertices(subset)

    def full_subgroup_order(self, subset: Iterable[str]) -> int | float:
        """|G_S|: finite iff S is a clique of finite-order vertices, and then
        the product of their orders. ``S - link(v)`` is ``{v}`` for every v
        of a clique, since no vertex lies in its own link."""
        subset = self.graph.check_vertices(subset)
        adjacency = self.graph.adjacency
        total = 1
        for v in subset:
            n = self.orders[v]
            if n == INFINITY or len(subset - adjacency[v]) > 1:
                return INFINITY
            total *= n
        return total

    def induced(self, subset: Iterable[str]) -> "Presentation":
        """Sub-presentation on ``subset`` with inherited orders."""
        subset = self.graph.check_vertices(subset)
        return Presentation(
            induced_subgraph(self.graph, subset),
            {v: self.orders[v] for v in subset},
        )

    # --- bounded enumeration ------------------------------------------------

    def generators(self, exp_bound: int = 1, subset: Iterable[str] | None = None) -> list[Word]:
        """Single-syllable generators: all nontrivial exponents for finite
        vertices, exponents in {-exp_bound..-1, 1..exp_bound} for infinite ones.

        With ``subset`` given, only generators of the full subgroup G_S.
        """
        allowed = self.graph.check_vertices(subset) if subset is not None else None
        gens = []
        for v in self.graph.vertices:
            if allowed is not None and v not in allowed:
                continue
            n = self.orders[v]
            if n == INFINITY:
                exps = [e for k in range(1, exp_bound + 1) for e in (k, -k)]
            else:
                exps = range(1, n)
            gens.extend((Syllable(v, e),) for e in exps)
        return gens

    def enumerate_ball(
        self,
        radius: int,
        exp_bound: int = 1,
        cap: int = DEFAULT_BALL_CAP,
        subset: Iterable[str] | None = None,
    ) -> set[Word]:
        """Canonical forms reachable in <= radius generator multiplications."""
        return self.enumerate_ball_info(radius, exp_bound=exp_bound, cap=cap, subset=subset)[0]

    def enumerate_ball_info(
        self,
        radius: int,
        exp_bound: int = 1,
        cap: int = DEFAULT_BALL_CAP,
        subset: Iterable[str] | None = None,
    ) -> tuple[set[Word], bool]:
        """Ball plus a saturation flag (True iff the whole subgroup was reached).

        With ``subset`` given, the ball of the full subgroup G_S.
        """
        gens = self.generators(exp_bound, subset=subset)
        seen = {()}
        frontier = [()]
        for depth in range(1, radius + 1):
            new = []
            for g in frontier:
                for s in gens:
                    h = self.canonical(g + s)
                    if h not in seen:
                        seen.add(h)
                        if len(seen) > cap:
                            raise ResourceCapError(
                                f"ball exceeded cap of {cap} elements at radius {depth}"
                            )
                        new.append(h)
            frontier = new
            if not frontier:
                return seen, True
        # saturated iff one more step adds nothing
        for g in frontier:
            for s in gens:
                if self.canonical(g + s) not in seen:
                    return seen, False
        return seen, True


# --- compact word syntax ------------------------------------------------------

_SYLLABLE_RE = re.compile(r"^(?P<vertex>[^\s^]+?)(\^(?P<exp>-?\d+))?$")


def parse_word(pres: Presentation, text: str) -> Word:
    """Parse ``a^2 b c^-1`` style text into a word over ``pres``.

    ``1`` (alone) denotes the identity. Zero exponents are rejected.
    """
    text = text.strip()
    if text in ("", "1"):
        return ()
    pairs = []
    for token in text.split():
        m = _SYLLABLE_RE.match(token)
        if not m:
            raise InputError(f"bad syllable syntax: {token!r}")
        vertex = m.group("vertex")
        exp = int(m.group("exp")) if m.group("exp") is not None else 1
        if exp == 0:
            raise InputError(f"zero exponent in syllable {token!r}")
        if vertex not in pres.graph.index:
            raise InputError(f"unknown vertex: {vertex}")
        pairs.append((vertex, exp))
    return pres.make_word(pairs)


def format_word(word: Word) -> str:
    """Inverse of parse_word on canonical forms; identity prints as ``1``."""
    if not word:
        return "1"
    return " ".join(v if e == 1 else f"{v}^{e}" for v, e in word)


def word_to_json(word: Word) -> list[list]:
    return [[v, e] for v, e in word]


def word_from_json(pres: Presentation, data: list) -> Word:
    try:
        pairs = [(str(v), int(e)) for v, e in data]
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad word JSON: {data!r}") from exc
    if any(e == 0 for _, e in pairs):
        raise InputError("zero exponent in word JSON")
    return pres.make_word(pairs)


__all__ = [
    "DEFAULT_BALL_CAP",
    "INFINITY",
    "Presentation",
    "Syllable",
    "Word",
    "format_word",
    "parse_word",
    "word_from_json",
    "word_to_json",
]
