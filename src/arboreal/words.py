"""Algebra of graph products of cyclic groups.

Elements are syllable sequences ``(vertex, exponent)``. Graph products have a
complete rewriting system (Hermiller and Meier, J. Algebra 171, 1995): delete
identity syllables, join two syllables at one vertex when everything between
them commutes with it, shuffle adjacent commuting syllables. Two words are the
same element iff their canonical forms are identical sequences.

The dependency heap of a reduced word has an arc into each syllable from the
last earlier syllable at each vertex outside its link, its own included; its
linearizations are the word's shuffle orbit, and the canonical form is the one
taking the smallest available vertex first (Kahn's algorithm), the orbit's
lexicographic minimum. The heap is a proof device only and is never built: a
later syllable whose vertex is outside lk(v), or is v, is a descendant of a
v-syllable, so every heap query is a scan with per-vertex state.

One loop gives every normal form: ``_extend(g, pairs)``, canonical(g + pairs)
for a canonical g, normalizes each (vertex, exponent) pair and runs the
insertion step of heaps of pieces (Viennot) on a copy of g. ``canonical`` and
``multiply`` extend the empty word, ``inverse`` canonicalizes the negated
pairs, ball enumeration extends each ball element by one syllable, and the
tree layer extends canonical words instead of canonicalizing their
concatenation again. Cost: O(|pairs|*b) beyond copying g, b the length of the
trailing block that commutes with each new syllable; O(L^2) at worst for L
syllables. ``_extend`` alone joins syllables.
``first_vertices``/``last_vertices`` are the heap's sources and sinks.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, NamedTuple

from .errors import DegeneratePresentationError, InputError, ResourceCapError
from .graphs import INFINITY, SimpleGraph, bit_indices, induced_subgraph

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

    # --- words and canonical form ----------------------------------------

    def make_word(self, pairs: Iterable[tuple[str, int]]) -> Word:
        """Word from (vertex, exponent) pairs, normalized as ``_extend`` does:
        exponents into {1,...,n-1} at a finite order n, identities dropped."""
        orders = self.orders
        out = []
        for v, e in pairs:
            n = orders.get(v)
            if n is None:
                raise InputError(f"unknown vertex: {v}")
            if n != INFINITY:
                e %= n
            if e:
                out.append(Syllable(v, e))
        return tuple(out)

    def canonical(self, word: Word) -> Word:
        """Lexicographically least member of the reduced word's shuffle orbit:
        the syllables inserted one at a time into the empty word (see
        ``_extend``)."""
        return self._extend((), word)

    def _extend(self, g: Word, pairs: Iterable[tuple[str, int]]) -> Word:
        """canonical(g + make_word(pairs)) for a canonical g, O(|pairs|*b)
        beyond copying g: each pair is normalized as ``make_word`` does and
        inserted into a copy of g. The insertion scans back over syllables in
        link(v); a v-syllable met there absorbs the new one, or goes when the
        exponent vanishes: it is a heap sink, so the others keep their order.
        Otherwise the new syllable is a sink whose last predecessor is the
        scan's stop, and Kahn's algorithm takes it at the first later position
        whose vertex index is larger than v's."""
        orders, adjacency, index = self.orders, self.graph.adjacency, self.graph.index
        h = list(g)
        for s in pairs:
            v, e = s
            n = orders.get(v)
            if n is None:
                raise InputError(f"unknown vertex: {v}")
            if n != INFINITY:
                e %= n
            if not e:
                continue
            lk = adjacency[v]
            i = len(h) - 1
            while i >= 0 and h[i][0] in lk:
                i -= 1
            if i >= 0 and h[i][0] == v:
                e += h[i][1]
                if n != INFINITY:
                    e %= n
                if e:
                    h[i] = tuple.__new__(Syllable, (v, e))
                else:
                    del h[i]
                continue
            rank = index[v]
            j = i + 1
            while j < len(h) and index[h[j][0]] < rank:
                j += 1
            if type(s) is not Syllable or e != s[1]:
                s = tuple.__new__(Syllable, (v, e))
            h.insert(j, s)
        return tuple(h)

    # --- group operations --------------------------------------------------

    def multiply(self, *words: Word) -> Word:
        return self._extend((), chain.from_iterable(words))

    def inverse(self, word: Word) -> Word:
        return self.canonical([(v, -e) for v, e in reversed(tuple(word))])

    def power(self, word: Word, n: int) -> Word:
        """word^n by repeated squaring: O(log |n|) products."""
        g = self.canonical(word)
        if n < 0:
            g, n = self.inverse(g), -n
        out: Word = ()
        while n:
            if n & 1:
                out = self._extend(out, g)
            n >>= 1
            if n:
                g = self._extend(g, g)
        return out

    # --- supports ------------------------------------------------------------

    def support(self, word: Word) -> set[str]:
        return {s.vertex for s in self.canonical(word)}

    def first_vertices(self, word: Word) -> set[str]:
        """Vertices that can begin a reduced word for the element: heap sources."""
        return self._sources(self.canonical(word))

    def last_vertices(self, word: Word) -> set[str]:
        """Vertices that can end a reduced word for the element: heap sinks,
        the sources of the reversed word."""
        return self._sources(reversed(self.canonical(word)))

    def _sources(self, sylls: Iterable[Syllable]) -> set[str]:
        """Vertices of the syllables of a reduced word with no earlier
        syllable outside their link: the heap's sources."""
        adjacency = self.graph.adjacency
        seen: set[str] = set()
        out = set()
        for v, _ in sylls:
            if seen <= adjacency[v]:
                out.add(v)
            seen.add(v)
        return out

    # --- full subgroups --------------------------------------------------------

    def in_full_subgroup(self, word: Word, subset: Iterable[str]) -> bool:
        """Membership in G_S, decided by support containment."""
        return self.support(word) <= self.graph.check_vertices(subset)

    def full_subgroup_order(self, subset: Iterable[str]) -> int | float:
        """|G_S|: finite iff S is a clique of finite-order vertices, and then
        the product of their orders (see ``_mask_order``)."""
        index = self.graph.index
        return self._mask_order(sum(1 << index[v] for v in self.graph.check_vertices(subset)))

    def _mask_order(self, mask: int) -> int | float:
        """``full_subgroup_order`` of the vertex set with mask ``mask``. S is
        a clique iff ``S & ~masks[v]`` is v's own bit for every v in S, since
        no vertex lies in its own link."""
        vertices, masks, orders = self.graph.vertices, self.graph.masks, self.orders
        total = 1
        for i in bit_indices(mask):
            n = orders[vertices[i]]
            if n == INFINITY or mask & ~masks[i] != 1 << i:
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

    def enumerate_ball(
        self,
        radius: int,
        cap: int = DEFAULT_BALL_CAP,
        subset: Iterable[str] | None = None,
    ) -> set[Word]:
        """Canonical forms reachable in <= radius generator multiplications."""
        return self.enumerate_ball_info(radius, cap=cap, subset=subset)[0]

    def enumerate_ball_info(
        self,
        radius: int,
        cap: int = DEFAULT_BALL_CAP,
        subset: Iterable[str] | None = None,
    ) -> tuple[set[Word], bool]:
        """Ball plus a saturation flag (True iff the whole subgroup was reached).

        The generators are the single syllables: every nontrivial exponent at a
        finite vertex, exponents +-1 at an infinite one. With ``subset`` given,
        only those of the full subgroup G_S, and the ball is G_S's. Radius 1
        holds them all, so ``cap`` is checked there before any is built.
        """
        allowed = self.graph.check_vertices(self.graph.vertices if subset is None else subset)
        # vertex -> (generator count, exponents); len() fails past sys.maxsize
        exponents = {
            v: (2, (1, -1)) if n == INFINITY else (n - 1, range(1, n))
            for v, n in self.orders.items() if v in allowed
        }
        count = sum(c for c, _ in exponents.values())
        if count and radius < 1:
            return {()}, False
        if count and count >= cap:
            raise ResourceCapError(f"ball exceeded cap of {cap} elements at radius 1")
        gens = [Syllable(v, e) for v, (_, es) in exponents.items() for e in es]

        seen = {()}
        frontier = [()]
        depth = 0
        # a depth that adds nothing ends the loop with the ball saturated; a
        # new element past the radius shows that it is not
        while frontier:
            depth += 1
            new = []
            for g in frontier:
                for s in gens:
                    h = self._extend(g, (s,))
                    if h not in seen:
                        if depth > radius:
                            return seen, False
                        seen.add(h)
                        if len(seen) > cap:
                            raise ResourceCapError(
                                f"ball exceeded cap of {cap} elements at radius {depth}"
                            )
                        new.append(h)
            frontier = new
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
        try:
            exp = int(m.group("exp")) if m.group("exp") is not None else 1
        except ValueError as exc:
            # more digits than Python converts from a string
            raise InputError(f"exponent at vertex {vertex} is too long: {exc}") from exc
        if exp == 0:
            raise InputError(f"zero exponent in syllable {token!r}")
        if vertex not in pres.graph.index:
            raise InputError(f"unknown vertex: {vertex}")
        pairs.append((vertex, exp))
    return pres.make_word(pairs)


def format_word(word: Word) -> str:
    """Inverse of parse_word on canonical forms; identity prints as ``1``.
    Raises InputError for an exponent with more digits than Python prints."""
    if not word:
        return "1"
    parts = []
    for v, e in word:
        try:
            parts.append(v if e == 1 else f"{v}^{e}")
        except ValueError as exc:
            raise InputError(f"exponent at vertex {v} is too long to print: {exc}") from exc
    return " ".join(parts)


__all__ = [
    "DEFAULT_BALL_CAP",
    "INFINITY",
    "Presentation",
    "Syllable",
    "Word",
    "format_word",
    "parse_word",
]
