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
``multiply`` extend the empty word, ``inverse`` extends it by its word read
in reverse, negating each exponent as it is read, ball enumeration extends
each ball element by one syllable, and the tree layer extends canonical words
instead of canonicalizing their concatenation again. Cost: O(|pairs|*b)
beyond copying g, b the length of the trailing block that commutes with each
new syllable; O(L^2) at worst for L syllables. ``_extend`` alone reduces
exponents, joins syllables and makes them: each syllable it writes comes from
its vertex's table, which keeps those of int exponents up to a bound, so a
syllable is built once per presentation. ``make_word`` is ``canonical``, and
``parse_word`` returns the normal form. ``growth_table`` counts each G_S's
elements by length without building any.
"""

import re
from functools import cached_property
from itertools import chain
from operator import mul
from typing import Iterable, NamedTuple

from .errors import DegeneratePresentationError, InputError, ResourceCapError
from .graphs import INFINITY, SimpleGraph, bit_indices, induced_subgraph
from .params import DEFAULT_BALL_CAP
_SYLLABLE_TABLE_LIMIT = 1024  # entries a vertex's syllable table (``_steps``) fills to


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
        self.graph, self.orders = graph, {}
        for v in graph.vertices:
            if v not in orders:
                raise DegeneratePresentationError(f"vertex {v} has no order entry")
            n = self.orders[v] = orders[v]
            if n != INFINITY and (not isinstance(n, int) or n < 2):
                raise DegeneratePresentationError(
                    f"vertex {v} has order {n}; orders must be integers >= 2 or INFINITY"
                )

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

    def canonical(self, word: Word) -> Word:
        """Lexicographically least member of the reduced word's shuffle orbit:
        the (vertex, exponent) pairs normalized and inserted one at a time
        into the empty word (see ``_extend``). Also bound as ``make_word``."""
        return self._extend((), word)

    make_word = canonical

    @cached_property
    def _steps(self) -> dict[str, tuple[int, set[str], set[str], dict[int, Syllable]]]:
        """vertex -> (its order, 0 if infinite; its link; the link's vertices
        before it in vertex order; its syllables by reduced exponent, which
        ``_extend`` fills): what ``_extend`` reads of a syllable's vertex, in
        one lookup."""
        graph, steps = self.graph, {}
        for i, v in enumerate(graph.vertices):
            n, below = self.orders[v], graph.masks[i] & (1 << i) - 1
            steps[v] = (0 if n == INFINITY else n, graph.adjacency[v],
                        {graph.vertices[j] for j in bit_indices(below)}, {})
        return steps

    def _extend(self, g: Word, pairs: Iterable[tuple[str, int]], _negate: bool = False) -> Word:
        """canonical(g + pairs) for a canonical g, O(|pairs|*b) beyond copying
        g; each pair costs one ``_steps`` lookup. With ``_negate`` each
        exponent is negated as it is read, which is how ``inverse`` reads its
        reversed word. Here alone an exponent is reduced into {1,...,n-1} at a
        finite order n, an identity dropped and an unknown vertex rejected;
        each pair is then inserted into a copy of g. The insertion scans back
        over syllables in link(v), reading each once; a v-syllable met there
        absorbs the new one, or goes when the exponent vanishes: it is a heap
        sink, so the others keep their order. Otherwise the new syllable is a
        sink whose last predecessor is the scan's stop, and Kahn's algorithm
        takes it at the first later position whose vertex index is larger
        than v's: as every later syllable is in link(v), the first whose
        vertex is not in the link's part before v. The syllable written, new
        or joined, is v's table entry for its exponent, built on a miss; a
        table stops filling at ``_SYLLABLE_TABLE_LIMIT`` entries, so memory
        stays bounded. An exponent whose type is not int, bool included, is
        an InputError, checked before it is negated: 2.0 and True would find
        the entries of 2 and 1, so their output would depend on earlier
        calls."""
        steps, new, syllable = self._steps, tuple.__new__, Syllable
        h = list(g)
        for v, e in pairs:
            if type(e) is not int:
                raise InputError(f"exponent at vertex {v} must be an int, got {e!r}")
            if _negate:
                e = -e
            try:
                n, lk, below, made = steps[v]
            except KeyError:
                raise InputError(f"unknown vertex: {v}") from None
            if n:
                e %= n
            if not e:
                continue
            end = len(h)
            i = end - 1
            while i >= 0 and (u := h[i][0]) in lk:
                i -= 1
            if i >= 0 and u == v:
                e += h[i][1]
                if n:
                    e %= n
                if not e:
                    del h[i]
                    continue
            else:
                i += 1
                while i < end and h[i][0] in below:
                    i += 1
                h.insert(i, None)
            if (s := made.get(e)) is None:
                s = new(syllable, (v, e))
                if len(made) < _SYLLABLE_TABLE_LIMIT:
                    made[e] = s
            h[i] = s
        return tuple(h)

    # --- group operations --------------------------------------------------

    def multiply(self, *words: Word) -> Word:
        return self._extend((), chain.from_iterable(words))

    def inverse(self, word: Word) -> Word:
        return self._extend((), reversed(tuple(word)), True)

    # --- full subgroups --------------------------------------------------------

    def full_subgroup_order(self, subset: Iterable[str]) -> int | float:
        """|G_S|: finite iff S is a clique of finite-order vertices, and then
        the product of their orders (see ``_mask_order``)."""
        return self._mask_order(self._mask(self.graph.check_vertices(subset)))

    def _mask(self, subset: Iterable[str]) -> int:
        """The int mask of a set of known vertices, bit i for graph.vertices[i]."""
        index = self.graph.index
        return sum(1 << index[v] for v in subset)

    def _names(self, mask: int) -> list[str]:
        """The vertices of the int mask ``mask`` (see ``_mask``), in vertex
        order: those of its set bits if under half are set, else every vertex
        less those of its clear bits, deleted from the highest index down."""
        vertices = self.graph.vertices
        if mask.bit_count() * 2 < len(vertices):
            return [vertices[i] for i in bit_indices(mask)]
        names, clear = list(vertices), (1 << len(vertices)) - 1 & ~mask
        while clear:
            del names[i := clear.bit_length() - 1]
            clear ^= 1 << i
        return names

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

    def _saturates(self, mask: int, radius: int) -> bool:
        """Whether G_S's ball of radius ``radius`` is all of G_S, S the vertex set
        of ``mask``: iff G_S is finite (see ``_mask_order``) and |S| <= radius,
        as its longest element has one syllable, one generator, per vertex."""
        return mask.bit_count() <= radius and self._mask_order(mask) != INFINITY

    def induced(self, subset: Iterable[str]) -> "Presentation":
        """Sub-presentation on ``subset`` with inherited orders."""
        subset = self.graph.check_vertices(subset)
        return Presentation(
            induced_subgraph(self.graph, subset),
            {v: self.orders[v] for v in subset},
        )

    # --- bounded enumeration and growth series -------------------------------

    def _ball(self, mask: int, radius: int, cap: int) -> set[Word]:
        """G_S's ball of radius ``radius``, S the vertex set of ``mask``, in the
        single syllables: every nontrivial exponent at a finite vertex, +-1 at
        an infinite one. Radius 1 holds every generator, so ``cap`` is checked
        there before any is built."""
        if not radius:
            return {()}
        vertices, orders = self.graph.vertices, self.orders
        exponents = {}  # vertex -> (generator count, exponents); len() fails past sys.maxsize
        for i in bit_indices(mask):
            n = orders[v := vertices[i]]
            exponents[v] = (2, (1, -1)) if n == INFINITY else (n - 1, range(1, n))
        count = sum(c for c, _ in exponents.values())
        if count and count >= cap:
            raise _ball_cap_error(cap, 1)
        gens = [(v, e) for v, (_, es) in exponents.items() for e in es]

        seen = {()}
        frontier = [()]
        depth = 0
        while frontier and depth < radius:
            depth += 1
            new = []
            for g in frontier:
                for s in gens:
                    h = self._extend(g, (s,))
                    if h not in seen:
                        seen.add(h)
                        if len(seen) > cap:
                            raise _ball_cap_error(cap, depth)
                        new.append(h)
            frontier = new
        return seen

    @cached_property
    def _weights(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(y_v, x_v) of ``growth_table`` per vertex, as two tuples in vertex order."""
        return tuple(zip(*((1, 2) if n == INFINITY else (n - 1, n - 1)
                           for n in self.orders.values())))

    def growth_table(self, degree: int, cap: int = DEFAULT_BALL_CAP):
        """table(mask, i=None): the int mask of S (see ``_mask``) -> (D, P)
        mod z^(t + 1), t = min(degree, |V|), for any number of vertex sets S;
        None once the table holds more than ``cap`` coefficients.
        G_S's growth series in the generators of ``_ball`` is W_S = D/P
        (Chiswell, Bull. London Math. Soc. 26, 1994): D = prod (1 + y_v z),
        y_v = n - 1 at order n, W_v = 1 + y_v z, and 1 at an infinite vertex,
        W_v = (1 + z)/(1 - z); P sums over the cliques K of S, the empty one
        included, prod_K (-x_v z) prod_{S-K} (1 + y_v z), x_v = y_v or 2 (see
        ``_weights``, computed once per presentation). The series are kept
        per vertex mask, each from that of S' = S - v: D_S = (1 + y_v z) D_S',
        and P_S sums the cliques without v, (1 + y_v z) P_S', and those with
        it, -x_v z P_L D_{S'-L}, L = S' ∩ lk v: 1/W_S = 1/W_S' + (1/W_v -
        1)/W_L. That holds for any v in S, so S is split on vertex index i
        where one is given, as a side S = C + {u} is on u, one step from C,
        and on its last vertex otherwise. Each series is memoized as it is
        met, so no clique sum is done twice, and a link's series is read
        from the memo before the table recurses for it; the memo and its cut
        are this table's alone.
        As D and P have degree <= |S| <= |V|, a cut at |V| cuts nothing."""
        masks, (ys, xs) = self.graph.masks, self._weights
        degree = min(degree, len(ys))
        memo = {0: ([1] + [0] * degree,) * 2}  # mask -> (D, P) mod z^(degree + 1)

        def table(mask, i=None):
            chain, s = [], mask
            if i is not None and s not in memo:
                chain.append((s, i))
                s ^= 1 << i
            while s not in memo:
                chain.append((s, i := s.bit_length() - 1))
                s ^= 1 << i
            for s, i in reversed(chain):
                rest, y = s ^ 1 << i, ys[i]
                link = memo.get(lk := rest & masks[i]) or table(lk)
                if link is None or len(memo) * 2 * (degree + 1) > cap:
                    return None
                (d, p), q = memo[rest], link[1]
                for u in bit_indices(rest & ~masks[i]):  # q = P_L D_{S'-L}
                    q = [a + ys[u] * b for a, b in zip(q, [0] + q)]
                memo[s] = ([a + y * b for a, b in zip(d, [0] + d)],
                           [a + y * b - xs[i] * c for a, b, c in zip(p, [0] + p, [0] + q)])
            return memo[mask]

        return table


def cumulative_counts(numerator: list[int], denominator: list[int], radius: int,
                      cap: int, reps: list[int] = ()) -> tuple[int, int]:
    """(the total w_0 + ... + w_j of the series numerator/denominator, that
    of reps/denominator), denominator[0] = 1, w_j = numerator_j - sum_{i>=1}
    denominator_i w_{j-i}, at j = ``radius`` or the last j before the first
    w_j = 0: in a growth series (see ``Presentation.growth_table``) an empty
    sphere has only empty spheres after it. ``reps`` is the numerator of a
    series whose coefficients are at most the first's, such as the coset
    representatives of a side ball (see tree.py's ``_levels``), so it ends
    there too and one pass gives both totals; with no ``reps`` the second is
    0. Raises ``Presentation._ball``'s error at the first j whose first
    total passes ``cap``. Only the last len(denominator) - 1 coefficients of
    each series are kept."""
    tail = denominator[1:]
    keep = len(tail)
    w, t = [], []  # latest first
    total = reps_total = 0
    for j in range(radius + 1):
        c = (numerator[j] if j < len(numerator) else 0) - sum(map(mul, tail, w))
        if not c:
            break
        total += c
        if total > cap:
            raise _ball_cap_error(cap, j)
        w.insert(0, c)
        if reps:
            r = (reps[j] if j < len(reps) else 0) - sum(map(mul, tail, t))
            t.insert(0, r)
            reps_total += r
        if j >= keep:
            del w[keep:], t[keep:]
    return total, reps_total


def _ball_cap_error(cap: int, radius: int) -> ResourceCapError:
    return ResourceCapError(f"ball exceeded cap of {cap} elements at radius {radius}")


# --- compact word syntax ------------------------------------------------------

_SYLLABLE_RE = r"^(?P<vertex>[^\s^]+?)(\^(?P<exp>-?\d+))?$"  # compiled by re's cache


def parse_word(pres: Presentation, text: str) -> Word:
    """Parse ``a^2 b c^-1`` style text into its normal form over ``pres``.

    ``1`` (alone) denotes the identity. Zero exponents and unknown vertices
    are rejected token by token, so the first bad token is the one reported.
    """
    text = text.strip()
    if text in ("", "1"):
        return ()
    pairs = []
    for token in text.split():
        m = re.match(_SYLLABLE_RE, token)
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
    return pres.canonical(pairs)


def format_word(word: Word) -> str:
    """Inverse of parse_word, whose output is canonical; identity prints as ``1``.
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
