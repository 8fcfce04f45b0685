"""Immutable bitset-backed graphs with exact vertex weights.

Vertices are integers 0..n-1.  Vertex sets are int bitmasks (see
:mod:`holefree.bits`).  Weights are nonnegative :class:`~fractions.Fraction`
values so that totals add and compare exactly; no floating point enters any
comparison.

File format (line oriented, 1-indexed, ``#`` starts a comment line)::

    p mwis <n> <m>
    w <v> <weight>      # optional; omitted weights default to 1
    e <u> <v>           # exactly m edge lines

Emission writes the header, then all weight lines different from 1, then
the edges sorted lexicographically, so that equal graphs serialize to
identical bytes.
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Iterable

from .bits import iter_bits, to_tuple
from .errors import GraphFormatError

# The most vertices a header may declare, as parsing builds a row per vertex.
# One flood of an edgeless graph costs order n^2 bit operations: over a
# second at 2^16 vertices, minutes here, far past any graph a command finishes.
MAX_VERTICES = 1 << 20

# The largest weight exponent |e| a weight string may carry.  Reading it
# builds 10^|e| first, which takes seconds at e = 10^7; the bound is the
# interpreter's default int-to-string limit of 4300 digits.
MAX_EXPONENT = 4300

# Digits per chunk when an int is printed or read: below that limit, so that
# sums of weights and scaled decimals longer than it still print exactly.
_DIGITS = 4000
_BASE = 10**_DIGITS

# A weight's numerator and denominator may reach _MAX_WEIGHT, the range of a
# MAX_EXPONENT-digit mantissa scaled by 10^±MAX_EXPONENT, and its digit runs
# _MAX_RUN digits: the longest run format_weight prints for such a weight is
# the a digits of 1/2^a, and 2^a <= _MAX_WEIGHT gives a < 6.65 * MAX_EXPONENT.
_MAX_WEIGHT = 10 ** (2 * MAX_EXPONENT)
_MAX_RUN = 7 * MAX_EXPONENT


class Graph:
    """A finite simple undirected graph with weighted vertices.

    Instances are immutable after construction and safe to share across
    workers; all operations are pure functions of the inputs.
    """

    __slots__ = ("n", "adj", "weights", "full_mask")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        weights: Iterable | None = None,
    ):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if weights is None:
            ws = (Fraction(1),) * n
        else:
            ws = tuple(Fraction(w) for w in weights)
            if len(ws) != n:
                raise ValueError("need exactly one weight per vertex")
            if any(w < 0 for w in ws):
                raise ValueError("weights must be nonnegative")
        self.n = n
        self.adj = tuple(adj)
        self.weights = ws
        self.full_mask = (1 << n) - 1

    # -- basic structure ---------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v."""
        out = []
        for u in range(self.n):
            later = self.adj[u] >> (u + 1)
            for off in iter_bits(later):
                out.append((u, u + 1 + off))
        return out

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        """Maximum vertex degree; 0 for edgeless graphs."""
        return max((a.bit_count() for a in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    # -- set operations ----------------------------------------------------

    def neighborhood(self, sub: int, closed: bool = False) -> int:
        """N(sub) disjoint from sub, or N[sub] = N(sub) | sub when closed."""
        adj = self.adj
        nb = 0
        rest = sub
        while rest:
            low = rest & -rest
            nb |= adj[low.bit_length() - 1]
            rest ^= low
        return (nb | sub) if closed else (nb & ~sub)

    def flood(self, sub: int) -> list[tuple[int, int]]:
        """(C, N(C)) for each connected component C of the subgraph induced
        on ``sub``, with N(C) taken in the whole graph.

        Each component is flooded from its minimum vertex, so the list is
        sorted by minimum element (canonical order).  The adjacency rows
        ORed while flooding are exactly those of C, so their union minus C
        is N(C) at no extra cost.
        """
        adj = self.adj
        out = []
        rest = sub
        while rest:
            comp = frontier = rest & -rest
            rest ^= comp
            reach = 0
            while frontier:
                while frontier:
                    low = frontier & -frontier
                    reach |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & rest
                rest ^= frontier
                comp |= frontier
            out.append((comp, reach & ~comp))
        return out

    def component_of(self, v: int, sub: int) -> int:
        """The component of the subgraph induced on ``sub`` that holds v,
        for v in ``sub``, flooded from v alone."""
        adj = self.adj
        comp = frontier = 1 << v
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & sub & ~comp
            comp |= frontier
        return comp

    def components(self, sub: int | None = None) -> list[int]:
        """Connected components of the subgraph induced on ``sub``, in the
        canonical order of :meth:`flood`."""
        return [c for c, _ in self.flood(self.full_mask if sub is None else sub)]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def is_independent(self, sub: int) -> bool:
        for v in iter_bits(sub):
            if self.adj[v] & sub:
                return False
        return True

    def is_clique(self, sub: int) -> bool:
        adj = self.adj
        rest = sub
        while rest:
            low = rest & -rest
            if sub & ~adj[low.bit_length() - 1] & ~low:
                return False
            rest ^= low
        return True

    def weight_of(self, sub: int) -> Fraction:
        total = Fraction(0)
        for v in iter_bits(sub):
            total += self.weights[v]
        return total

    def total_weight(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    # -- derived graphs ----------------------------------------------------

    @classmethod
    def from_rows(cls, adj: Iterable[int], weights: tuple[Fraction, ...]) -> "Graph":
        """A graph straight from symmetric, loop-free adjacency rows and one
        weight per row, taken as they are."""
        g = cls.__new__(cls)
        g.adj = tuple(adj)
        g.n = len(g.adj)
        g.full_mask = (1 << g.n) - 1
        g.weights = weights
        return g

    def complement(self) -> "Graph":
        """Weight-preserving complement: uv is an edge iff it was not one."""
        return Graph.from_rows(
            (self.full_mask & ~a & ~(1 << v) for v, a in enumerate(self.adj)), self.weights
        )

    def with_weights(self, weights: Iterable) -> "Graph":
        return Graph(self.n, self.edges(), weights)

    def with_edges(self, extra: Iterable[tuple[int, int]]) -> "Graph":
        """A copy with additional edges (duplicates are merged)."""
        return Graph(self.n, self.edges() + list(extra), self.weights)

    def induced(self, sub: int) -> tuple["Graph", tuple[int, ...]]:
        """Compactly relabeled induced subgraph plus new-to-old vertex map;
        the graph itself when ``sub`` is all of it."""
        vmap = to_tuple(sub)
        if sub == self.full_mask:
            return self, vmap
        bit = {v: 1 << i for i, v in enumerate(vmap)}
        rows = []
        for v in vmap:
            row = 0
            for u in iter_bits(self.adj[v] & sub):
                row |= bit[u]
            rows.append(row)
        return Graph.from_rows(rows, tuple(self.weights[v] for v in vmap)), vmap

    def prefix(self, i: int) -> "Graph":
        """Induced subgraph on vertices 0..i-1, labels preserved."""
        mask = (1 << i) - 1
        return Graph.from_rows((a & mask for a in self.adj[:i]), self.weights[:i])

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.adj == other.adj
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.n, self.adj, self.weights))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- weights ----------------------------------------------------------------


def parse_weight(text: str) -> Fraction:
    """Parse a decimal or p/q weight string into an exact Fraction.

    The grammar is Fraction's with plain digit runs (no underscores), each
    run read :data:`_DIGITS` digits at a time, so runs past the
    interpreter's int-digit limit read too.  An exponent beyond
    ±:data:`MAX_EXPONENT` raises OverflowError before any arithmetic, as
    does a run over :data:`_MAX_RUN` digits; so does a numerator or
    denominator over :data:`_MAX_WEIGHT`."""
    body = text.strip()
    sign = body[:1]
    if sign in ("+", "-"):
        body = body[1:]
    mantissa, e, exponent = body.upper().partition("E")
    if e and abs(int(exponent)) > MAX_EXPONENT:
        raise OverflowError(f"weight exponent {exponent} beyond ±{MAX_EXPONENT}")
    num, slash, den = mantissa.partition("/")
    whole, dot, frac = num.partition(".")
    exp = exponent[1:] if exponent[:1] in ("+", "-") else exponent
    if not (whole + frac + den + exp).isdecimal() or (slash and (dot or e)):
        raise ValueError(f"invalid weight {text!r}")  # an empty run fails in _read
    if len(body) > _MAX_RUN and max(map(len, (whole, frac, den))) > _MAX_RUN:
        raise OverflowError(f"weight digit run beyond {_MAX_RUN} digits")
    if slash:
        w = Fraction(_read(whole), _read(den))
    else:
        shift = int(exponent or 0) - len(frac)
        m = _read(whole + frac)
        w = Fraction(m * 10**shift) if shift >= 0 else Fraction(m, 10**-shift)
    if w.numerator > _MAX_WEIGHT or w.denominator > _MAX_WEIGHT:
        raise OverflowError(f"weight beyond 10^{2 * MAX_EXPONENT}")
    return -w if sign == "-" else w


def _read(digits: str) -> int:
    """int(digits) for a run of decimal digits of any length, converted
    :data:`_DIGITS` digits at a time: the inverse of :func:`_decimal`."""
    if len(digits) <= _DIGITS:
        return int(digits)
    n = 0
    for i in range(0, len(digits), _DIGITS):
        chunk = digits[i : i + _DIGITS]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


def _decimal(n: int) -> str:
    """str(n) for an int n >= 0 of any length, converted :data:`_DIGITS`
    digits at a time, each chunk under the int-to-string limit."""
    chunks = []
    while n >= _BASE:
        n, low = divmod(n, _BASE)
        chunks.append(str(low).zfill(_DIGITS))
    return str(n) + "".join(reversed(chunks))


def format_weight(w: Fraction) -> str:
    """Exact decimal form when the denominator divides a power of ten,
    else p/q form, at any length; round-trips through :func:`parse_weight`
    for every weight that it reads."""
    if w.numerator < 0:
        return "-" + format_weight(-w)
    if w.denominator == 1:
        return _decimal(w.numerator)
    den = w.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{_decimal(w.numerator)}/{_decimal(w.denominator)}"
    shift = max(twos, fives)
    scaled = w.numerator * 10**shift // w.denominator
    digits = _decimal(scaled).rjust(shift + 1, "0")
    return digits[:-shift] + "." + digits[-shift:]


# -- file format --------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format; errors carry line numbers."""
    n = m = None
    edges = 0
    rows: dict[int, int] = {}  # adjacency rows, filled while parsing
    weight_lines: dict[int, Fraction] = {}
    parsed: dict[str, Fraction] = {}  # each distinct weight string, parsed once
    last_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if n is not None:
                raise GraphFormatError("duplicate header", lineno)
            if len(parts) != 4 or parts[1] != "mwis":
                raise GraphFormatError("malformed header, expected 'p mwis <n> <m>'", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError("malformed header, expected integer sizes", lineno) from None
            if n < 0 or m < 0:
                raise GraphFormatError("header sizes must be nonnegative", lineno)
            if n > MAX_VERTICES:
                raise GraphFormatError(f"header declares {n} vertices, limit {MAX_VERTICES}", lineno)
        elif tag == "w":
            if n is None:
                raise GraphFormatError("weight line before header", lineno)
            if len(parts) != 3:
                raise GraphFormatError("malformed weight line, expected 'w <v> <weight>'", lineno)
            try:
                v = int(parts[1])
                w = parsed.get(parts[2])
                if w is None:
                    w = parsed[parts[2]] = parse_weight(parts[2])
            except (ValueError, ZeroDivisionError):
                raise GraphFormatError("malformed weight line", lineno) from None
            except OverflowError as exc:
                raise GraphFormatError(str(exc), lineno) from None
            if not 1 <= v <= n:
                raise GraphFormatError(f"vertex {v} out of range 1..{n}", lineno)
            if w.numerator < 0:
                raise GraphFormatError("negative weight", lineno)
            if v - 1 in weight_lines:
                raise GraphFormatError(f"duplicate weight for vertex {v}", lineno)
            weight_lines[v - 1] = w
        elif tag == "e":
            if n is None:
                raise GraphFormatError("edge line before header", lineno)
            if len(parts) != 3:
                raise GraphFormatError("malformed edge line, expected 'e <u> <v>'", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("malformed edge line", lineno) from None
            for x in (u, v):
                if not 1 <= x <= n:
                    raise GraphFormatError(f"vertex {x} out of range 1..{n}", lineno)
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            row = rows.get(u - 1, 0)
            if row >> (v - 1) & 1:
                raise GraphFormatError(f"duplicate edge {u} {v}", lineno)
            rows[u - 1] = row | 1 << (v - 1)
            rows[v - 1] = rows.get(v - 1, 0) | 1 << (u - 1)
            edges += 1
        else:
            raise GraphFormatError(f"unknown directive {tag!r}", lineno)

    if n is None:
        raise GraphFormatError("missing 'p mwis <n> <m>' header", last_line or None)
    if edges != m:
        raise GraphFormatError(f"header declares {m} edges but {edges} given", last_line)
    one = Fraction(1)
    return Graph.from_rows(
        [rows.get(v, 0) for v in range(n)], tuple(weight_lines.get(v, one) for v in range(n))
    )


def emit_graph(g: Graph, comments: Iterable[str] = ()) -> str:
    """Serialize a graph; identical graphs produce identical bytes."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"p mwis {g.n} {g.m}")
    for v in range(g.n):
        if g.weights[v] != 1:
            lines.append(f"w {v + 1} {format_weight(g.weights[v])}")
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
