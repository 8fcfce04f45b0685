"""Exact MWIS via dynamic programming over blocks and potential maximal cliques.

A block is a pair (D, S) read off a minimal separator record: D a full
component of the minimal separator S, so S = N(D).  Since every minimal
separator is a clique in some chordal completion, an optimum independent
set meets it in at most one vertex; the table is therefore indexed by
the block and a single trace vertex of S (or none).  The value of an
entry is the best weight achievable inside D compatibly with the trace;
caps (PMCs squeezed between S and S | D) split D into strictly smaller
child blocks, the components of g - cap inside D.

Caps come from (PMC, component) pairs (Bouchitté & Todinca, SIAM J.
Comput. 2001): Ω is a cap of (D, S) exactly when a component C of g - Ω
has N(C) = S and D meets Ω.  The DP is rooted at vertex 0: the whole
graph is the top block (V, ∅), whose caps are the PMCs that hold 0, and
only the blocks whose D avoids 0 lie below them.  The table holds plain
ints: the perturbed weights of :func:`perturbed_weights`, whose one
maximum spells both the optimum and the canonical witness, read off once
by :func:`decode`.

Every returned result re-checks its own witness: the set must be
independent and its weight must equal the reported optimum.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .bits import iter_bits, mask_of, to_tuple
from .errors import OracleLimitError, PreconditionError, SolverInvariantError
from .graph import Graph
from .pmc import block_family, enumerate_pmcs
from .separators import Separator, enumerate_minimal_separators

_NONE = -1  # trace marker for "no separator vertex chosen"


@dataclass(frozen=True)
class SolveConfig:
    cap_seps: int = 0  # 0 = unlimited
    cap_pmcs: int = 0


@dataclass
class SolveStats:
    minseps: int = 0
    pmcs: int = 0
    blocks: int = 0
    table_entries: int = 0
    branches: int = 0
    time_ms: float = 0.0

    def merge(self, other: "SolveStats") -> None:
        self.minseps += other.minseps
        self.pmcs += other.pmcs
        self.blocks += other.blocks
        self.table_entries += other.table_entries
        self.branches += other.branches


@dataclass
class SolveResult:
    weight: Fraction
    vertices: tuple[int, ...]
    strategy: str
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def mask(self) -> int:
        return mask_of(self.vertices)


def check_independent_witness(g: Graph, weight: Fraction, witness: int) -> None:
    if not g.is_independent(witness):
        raise SolverInvariantError(f"witness {to_tuple(witness)} is not independent")
    if g.weight_of(witness) != weight:
        raise SolverInvariantError(
            f"witness weight {g.weight_of(witness)} != reported {weight}"
        )


def int_weights(g: Graph) -> tuple[int, list[int]]:
    """The LCM of the weights' denominators, and the weights times it."""
    scale = math.lcm(*(x.denominator for x in g.weights))
    return scale, [x.numerator * (scale // x.denominator) for x in g.weights]


def perturbed_weights(g: Graph) -> tuple[int, list[int]]:
    """The LCM of the weights' denominators, and the perturbed int weights
    w'(v) = w(v)·2^n + 2^(n-1-v) for w(v) > 0 and w'(v) = 0 otherwise, where
    w is the weights times the LCM.

    The bonus 2^(n-1-v) of a vertex exceeds the bonuses of all later
    vertices together, and all bonuses together stay below 2^n.  So no two
    sets of positive-weight vertices have the same sum, and the maximum of
    the sum of w' over the independent sets is reached by one such set
    only: the canonical witness, the lexicographically smallest maximum
    weight independent set with no zero-weight vertex.  Values add and
    compare as plain ints, with no tie-break; :func:`decode` reads the
    weight and the witness off the optimum.
    """
    n = g.n
    scale, w = int_weights(g)
    return scale, [(x << n) + (1 << (n - 1 - v)) if x else 0 for v, x in enumerate(w)]


def decode(n: int, scale: int, value: int) -> tuple[Fraction, int]:
    """The weight and the vertex mask of a sum of perturbed weights of an
    n-vertex graph: the value shifted right by n, over the scale, and the
    low n bits, where bit n-1-v stands for vertex v."""
    low = value & ((1 << n) - 1)
    return Fraction(value >> n, scale), int(f"{low:0{n}b}"[::-1], 2)


def index_caps(pmcs: list[Separator], blocks: list[tuple[int, int]]) -> list[list[int]]:
    """For each block (D, S): ascending indices of the PMCs squeezed
    between S and S | D.

    Built from (PMC, component) pairs (Bouchitté & Todinca, SIAM J. Comput.
    2001): Ω is a cap of (D, S) exactly when some component C of g - Ω has
    N(C) = S and D is the block with N(D) = S that meets Ω.  That takes one
    step per component of g - Ω, whose N(C) the PMC certificate holds,
    instead of testing every PMC on every block.
    """
    by_sep: dict[int, list[int]] = {}
    for j, (_, s) in enumerate(blocks):
        by_sep.setdefault(s, []).append(j)
    caps: list[list[int]] = [[] for _ in blocks]
    for i, p in enumerate(pmcs):
        for nb in p.neighborhoods:
            for j in by_sep.get(nb, ()):
                if blocks[j][0] & p.set:
                    if not caps[j] or caps[j][-1] != i:
                        caps[j].append(i)
                    break
    return caps


def solve_bt(g: Graph, pmcs: list[Separator], blocks: list[tuple[int, int]]) -> SolveResult:
    """Exact MWIS on a connected graph from its complete PMC family.

    ``blocks`` is the block family as (D, N(D)) pairs; cap indexing is
    derived here.  The DP is rooted at vertex 0: it keeps only the blocks
    with 0 not in D, and the top block (V, ∅) takes as caps only the PMCs
    that hold 0.  Its single entry is the answer.  That is exact.  The
    optimum stays independent in some minimal triangulation H of g, which
    the one-trace-vertex table already rests on, and the DP reaches it from
    any maximal clique of H as the top cap, a PMC of g: take one that holds
    0.  Every block below that cap Ω lies in a component of g - Ω, as each
    child lies in its parent, so none holds 0.  (Rooting a clique tree of H
    at Ω, running intersection says the same.)  The kept blocks are closed
    under taking children for the same reason.

    The children of a block D under a cap Ω are the components of g - Ω
    inside D, strictly smaller than D, so a stable sort by size alone
    orders the tables, and the top block's comes last.  The table holds
    sums of :func:`perturbed_weights`, so each entry is the one maximum of
    its choices, whatever the order among blocks of one size, and the
    answer decodes to the canonical witness.  ``stats.table_entries``
    counts the entries of the kept blocks' tables.
    """
    if not g.is_connected():
        raise PreconditionError("solve_bt needs a connected graph")
    t0 = time.perf_counter()

    blocks = sorted((b for b in blocks if not b[0] & 1), key=lambda b: b[0].bit_count())
    stats = SolveStats(
        pmcs=len(pmcs), blocks=len(blocks), table_entries=sum(s.bit_count() + 1 for _, s in blocks)
    )
    caps = index_caps(pmcs, blocks)
    blocks.append((g.full_mask, 0))
    caps.append([i for i, p in enumerate(pmcs) if p.set & 1])
    by_mask = {d: j for j, (d, _) in enumerate(blocks)}
    scale, w = perturbed_weights(g)

    if any(comp not in by_mask for p in pmcs for comp in p.components if not comp & 1):
        raise SolverInvariantError("block family misses a component of g - PMC")

    # tables[block index][trace] = value; a block's table has keys _NONE
    # and its separator's vertices
    tables: list[dict[int, int]] = []
    for (d, s), cap_ids in zip(blocks, caps):
        if not cap_ids:
            raise SolverInvariantError("a block has no cap; PMC family incomplete")
        trace = list(iter_bits(s))
        # the best value with no trace, and with each trace vertex
        best_none = -1
        best = [-1] * len(trace)
        for i in cap_ids:
            p = pmcs[i]
            kids = []
            base = 0
            for c in p.components:
                if c & d:
                    tab = tables[by_mask[c]]
                    none = tab[_NONE]
                    kids.append((tab.get, none))
                    base += none
            # no trace: the cap gives no vertex, or one vertex t of Ω & D
            if base > best_none:
                best_none = base
            own = p.set & d
            while own:
                low = own & -own
                own ^= low
                t = low.bit_length() - 1
                if w[t]:
                    value = w[t]
                    for get, none in kids:
                        value += get(t, none)
                    if value > best_none:
                        best_none = value
            # trace u of S: the cap gives no vertex, and each child follows u
            for k, u in enumerate(trace):
                value = 0
                for get, none in kids:
                    value += get(u, none)
                if value > best[k]:
                    best[k] = value
        table = {_NONE: best_none}
        table.update(zip(trace, best))
        tables.append(table)

    weight, mask = decode(g.n, scale, tables[-1][_NONE])
    check_independent_witness(g, weight, mask)
    stats.time_ms = (time.perf_counter() - t0) * 1000.0
    return SolveResult(weight, to_tuple(mask), "bt", stats)


def solve_mwis(g: Graph, config: SolveConfig | None = None) -> SolveResult:
    """Exact MWIS driver: per connected component, run the full pipeline
    (minimal separators, block family, PMC family, block DP) and combine."""
    cfg = config or SolveConfig()
    t0 = time.perf_counter()
    stats = SolveStats()
    total = Fraction(0)
    chosen: list[int] = []
    for comp in g.components():
        if comp.bit_count() == 1:
            v = comp.bit_length() - 1
            if g.weights[v] > 0:
                total += g.weights[v]
                chosen.append(v)
            continue
        sub, vmap = g.induced(comp)
        minseps = enumerate_minimal_separators(sub, cap=cfg.cap_seps)
        pmcs = enumerate_pmcs(sub, minseps, cap=cfg.cap_pmcs)
        blocks = block_family(minseps)
        res = solve_bt(sub, pmcs, blocks)
        stats.merge(res.stats)
        stats.minseps += len(minseps)
        total += res.weight
        chosen.extend(vmap[v] for v in res.vertices)
    witness = tuple(sorted(chosen))
    check_independent_witness(g, total, mask_of(witness))
    stats.time_ms = (time.perf_counter() - t0) * 1000.0
    return SolveResult(total, witness, "bt", stats)


def brute_force_mwis(g: Graph, limit: int = 20) -> SolveResult:
    """Oracle: memoized include/exclude search on the minimum-index vertex,
    on the perturbed weights of :func:`perturbed_weights`.

    Returns the canonical witness: the lexicographically smallest maximum
    weight independent set among those avoiding zero-weight vertices.
    """
    if g.n > limit:
        raise OracleLimitError(f"n={g.n} above oracle limit {limit}")
    t0 = time.perf_counter()
    scale, w = perturbed_weights(g)
    adj = g.adj
    memo = {0: 0}

    def best(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        v = low.bit_length() - 1
        res = best(mask ^ low)
        if w[v]:
            res = max(res, best(mask & ~(adj[v] | low)) + w[v])
        memo[mask] = res
        return res

    weight, witness = decode(g.n, scale, best(g.full_mask))
    check_independent_witness(g, weight, witness)
    stats = SolveStats(time_ms=(time.perf_counter() - t0) * 1000.0)
    return SolveResult(weight, to_tuple(witness), "brute", stats)
