"""Exact MWIS by clique-separator elimination and a block DP per atom.

:func:`solve_mwis` splits each connected component along its clique
minimal separators into atoms, read off one MCS-M pass
(:func:`~holefree.recognition.clique_atoms`; Berry, Pogorelcnik &
Simonet, "An introduction to clique minimal separator decomposition",
Algorithms 2010), and eliminates them bottom-up (Tarjan, "Decomposition
by clique separators", Discrete Math. 1985).  Only the atoms that are
not cliques run the block DP below, each on its own induced graph; a
graph with no clique separator, such as every k-prism with k >= 3, is
one atom and runs it on itself.  A component that is not chordal is first
shrunk by exact reductions (:func:`reduce_graph`), after its minimal
separators are counted against the cap.

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
has N(C) = S and D meets Ω.  The DP is rooted at a clique R of the atom:
its parent separator, or the root atom's lowest vertex.  The top block is
(V - R, R), whose caps are the PMCs that hold R, and only the blocks whose
D avoids R lie below them.  The tables hold plain ints: sums of the
perturbed weights of :func:`perturbed_weights`, whose one maximum spells
both the optimum and the canonical witness, read off once by
:func:`decode`.

Every exact solver is an int core run by :func:`solve_exact`, which checks
the witness once per public call: independent, and of the optimum weight.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from .bits import iter_bits, mask_of, to_tuple
from .errors import (
    CapacityExceededError,
    OracleLimitError,
    PreconditionError,
    SolverInvariantError,
)
from .graph import Graph
from .pmc import block_family, enumerate_pmcs
from .recognition import clique_atoms
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


def solve_exact(g: Graph, strategy: str, best: Callable[..., int], *args) -> SolveResult:
    """Time ``best(g, w, stats, *args)``, the best sum of the perturbed
    weights w over the independent sets of g, then decode and check it."""
    t0 = time.perf_counter()
    stats = SolveStats()
    scale, w = perturbed_weights(g)
    weight, mask = decode(g.n, scale, best(g, w, stats, *args))
    check_independent_witness(g, weight, mask)
    stats.time_ms = (time.perf_counter() - t0) * 1000.0
    return SolveResult(weight, to_tuple(mask), strategy, stats)


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


@dataclass
class RootTable:
    """The top table of the block DP under its root clique S: at ``_NONE``
    the best over the independent sets of g - S, at s in S the best over
    those with no neighbour of s."""

    values: dict[int, int]
    stats: SolveStats


def solve_bt(
    g: Graph, pmcs: list[Separator], blocks: list[tuple[int, int]], w: list[int], root: int = 1
) -> RootTable:
    """The block DP of a connected graph from its complete PMC family, on
    int weights ``w``, under the clique ``root`` = S (vertex 0 by default).
    S must not be a PMC: no vertex alone is one, and nor is the parent
    separator of an atom, as the rest of the atom is a component that sees
    all of it.

    ``blocks`` is the block family as (D, N(D)) pairs; cap indexing is
    derived here.  The DP keeps only the blocks with D disjoint from S, and
    the top block (V - S, S) takes as caps only the PMCs that hold S.  That
    is exact.  An independent set stays independent in some minimal
    triangulation H of g, which the one-trace-vertex table already rests
    on, and the DP reaches it from any maximal clique of H as the top cap,
    a PMC of g: take one that holds the clique S.  Every block below that
    cap Ω lies in a component of g - Ω, as each child lies in its parent,
    so none meets S.  (Rooting a clique tree of H at Ω, running
    intersection says the same.)  The kept blocks are closed under taking
    children for the same reason.  As S is not a PMC, no cap of the top
    block leaves V - S whole.

    The children of a block D under a cap Ω are the components of g - Ω
    inside D, strictly smaller than D, so a stable sort by size alone
    orders the tables, and the top block's comes last.  A vertex is taken
    only when its weight is positive.  With sums of
    :func:`perturbed_weights`, or of weights that the atom elimination of
    :func:`_eliminate` adjusts from them, each entry is the one maximum of
    its choices, whatever the order among blocks of one size.
    ``stats.table_entries`` counts the entries of the kept blocks' tables.
    """
    if not g.is_connected():
        raise PreconditionError("solve_bt needs a connected graph")
    if not g.is_clique(root) or any(p.set == root for p in pmcs):
        raise PreconditionError("solve_bt needs a root clique that is not a PMC")

    blocks = sorted((b for b in blocks if not b[0] & root), key=lambda b: b[0].bit_count())
    stats = SolveStats(
        pmcs=len(pmcs), blocks=len(blocks), table_entries=sum(s.bit_count() + 1 for _, s in blocks)
    )
    caps = index_caps(pmcs, blocks)
    blocks.append((g.full_mask & ~root, root))
    caps.append([i for i, p in enumerate(pmcs) if p.set & root == root])
    by_mask = {d: j for j, (d, _) in enumerate(blocks)}

    if any(comp not in by_mask for p in pmcs for comp in p.components if not comp & root):
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
                if w[t] > 0:
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

    return RootTable(tables[-1], stats)


def solve_mwis(g: Graph, config: SolveConfig | None = None) -> SolveResult:
    """Exact MWIS by :func:`best_mwis`, under :func:`solve_exact`."""
    return solve_exact(g, "bt", best_mwis, config or SolveConfig())


def best_mwis(g: Graph, w: list[int], stats: SolveStats, cfg: SolveConfig) -> int:
    """The best sum of int weights ``w`` over the independent sets of g, one
    connected component at a time.

    A component's atoms and minimal separators come first, from
    :func:`atom_separators`, so the separator cap counts the component as
    given.  A chordal component, all of whose atoms are cliques, goes
    straight to :func:`_eliminate`.  Any other one is first shrunk by
    :func:`reduce_graph`; when a rule removed a vertex, what is left is
    solved again by this same function, with the value of the taken
    vertices added.  Δ never grows on an induced subgraph, so that second
    round cannot trip the separator cap, and the counts in ``stats`` are
    those of the graph the DP runs on.
    """
    value = 0
    for comp in g.components():
        if comp.bit_count() == 1:
            value += w[comp.bit_length() - 1]
            continue
        sub, vmap = g.induced(comp)
        value += _solve_component(sub, [w[v] for v in vmap], cfg, stats)
    return value


def _solve_component(g: Graph, w: list[int], cfg: SolveConfig, stats: SolveStats) -> int:
    """:func:`best_mwis` on a connected g with at least two vertices."""
    atoms, seps = atom_separators(g, cfg)
    if any(part is not None for _, _, part in atoms):
        kept, taken = reduce_graph(g, w)
        if kept != g.full_mask:
            sub, vmap = g.induced(kept)
            rest = best_mwis(sub, [w[v] for v in vmap], stats, cfg)
            return rest + sum(w[v] for v in iter_bits(taken))
    atoms, pmcs = atom_pmcs(atoms, cfg)
    stats.minseps += seps
    stats.pmcs += pmcs
    return _eliminate(atoms, w, stats)


def reduce_graph(g: Graph, w: list[int]) -> tuple[int, int]:
    """The vertices of g that three exact rules on nonnegative int weights
    ``w`` leave, and those they take.

    The rules run in ascending vertex order, pass after pass, until one
    pass fires none; each reads the graph that is left (Lamm, Schulz,
    Strash, Williger & Zhang, "Exactly solving the maximum weight
    independent set problem on large real-world graphs", ALENEX 2019;
    domination also in Fomin, Grandoni & Kratsch, J. ACM 2009):

    - a vertex v of weight 0 goes;
    - domination: v goes when a neighbour u has N[u] ⊆ N[v] and
      w(u) >= w(v), as an independent set that holds v stays one, and
      weighs no less, with u for v;
    - neighbourhood removal: v is taken and N[v] goes when w(v) >= w(N(v)),
      as an independent set that misses v stays one, and weighs no less,
      with N(v) traded for v.

    So the best sum over the independent sets of g is that of the taken
    vertices plus the best over what is left.  On the perturbed weights of
    :func:`perturbed_weights` that maximum is reached once, so no rule
    drops a vertex of the canonical witness or takes one outside it.  Both
    rules only delete vertices: what is left is an induced subgraph, still
    free of long holes and of k-prisms when g is.
    """
    adj = g.adj
    kept, taken = g.full_mask, 0
    fired = True
    while fired:
        fired = False
        for v in iter_bits(kept):
            bit = 1 << v
            if not kept & bit:
                continue
            nbrs = adj[v] & kept
            if w[v]:
                # the weight of N(v), unless a neighbour u dominates v first
                closed, rest, total = nbrs | bit, nbrs, 0
                while rest:
                    low = rest & -rest
                    rest ^= low
                    u = low.bit_length() - 1
                    if w[u] >= w[v] and not adj[u] & kept & ~closed:
                        break
                    total += w[u]
                else:
                    if total > w[v]:
                        continue
                    taken |= bit
                    kept &= ~nbrs
            kept &= ~bit
            fired = True
    return kept, taken


def atom_separators(g: Graph, cfg: SolveConfig) -> tuple[list[tuple], int]:
    """The atoms of g, each with its minimal separators, and |Δ(g)|.

    One (atom A, parent separator S, part) triple per atom of
    :func:`~holefree.recognition.clique_atoms`, in split order, the root
    last with S = ∅; the empty graph has none.  The part is None for a
    clique atom, and otherwise (h, hmap, minseps): h = g[A], its labels in
    g, and its minimal separators.  So g is chordal exactly when every part
    is None.

    Δ(g) is the distinct clique minimal separators and Δ of each atom
    (Berry, Pogorelcnik & Simonet 2010); the separator cap counts those,
    and trips at the count it would reach if g were enumerated whole.
    """
    if not g.n:
        return [], 0
    pieces, chordal = clique_atoms(g)
    seps = len({sep for _, sep in pieces[:-1]})
    if cfg.cap_seps and seps > cfg.cap_seps:
        raise CapacityExceededError("minimal separators", cfg.cap_seps, seps)
    atoms = []
    for atom, sep in pieces:
        if chordal or g.is_clique(atom):
            atoms.append((atom, sep, None))
            continue
        h, hmap = g.induced(atom)
        minseps = enumerate_minimal_separators(h, cap=cfg.cap_seps, counted=seps)
        seps += len(minseps)
        atoms.append((atom, sep, (h, hmap, minseps)))
    return atoms, seps


def atom_pmcs(atoms: list[tuple], cfg: SolveConfig) -> tuple[list[tuple], int]:
    """The atoms of :func:`atom_separators` with each part that is not None
    extended to (h, hmap, minseps, pmcs), and |Π(g)|.

    Π(g) is the clique atoms, each its own one PMC, and Π of each other
    atom (by Leimer's theorem the minimal triangulations of g are the
    unions of those of its atoms); the PMC cap counts those.
    """
    pmcs = sum(part is None for _, _, part in atoms)
    if cfg.cap_pmcs and pmcs > cfg.cap_pmcs:
        raise CapacityExceededError("potential maximal cliques", cfg.cap_pmcs, pmcs)
    out = []
    for atom, sep, part in atoms:
        if part is not None:
            h, hmap, minseps = part
            family = enumerate_pmcs(h, minseps, cap=cfg.cap_pmcs, counted=pmcs)
            pmcs += len(family)
            part = (h, hmap, minseps, family)
        out.append((atom, sep, part))
    return out, pmcs


def atom_families(g: Graph, cfg: SolveConfig) -> tuple[list[tuple], int, int]:
    """The atoms of g with their families (:func:`atom_separators`, then
    :func:`atom_pmcs`), |Δ(g)| and |Π(g)|.  Every atom's separators are
    counted before any PMC, so g trips the caps, and at the same counts,
    that it would trip if enumerated whole."""
    atoms, seps = atom_separators(g, cfg)
    atoms, pmcs = atom_pmcs(atoms, cfg)
    return atoms, seps, pmcs


def _eliminate(atoms: list[tuple], w: list[int], stats: SolveStats) -> int:
    """The best sum of ``w`` over the independent sets of a connected graph
    from its :func:`atom_families`, atom by atom, bottom-up; ``w`` is
    adjusted in place.

    The atoms come in split order, so the parent separator S of an atom A
    lies in an atom still to come.  A - S hands up T: its best with no
    vertex of S taken, and with each s of S taken.  T[none] goes into a
    constant and T[s] - T[none] onto the weight of s, so what is left
    weighs exactly what g did; an adjusted weight can be 0 or less, and
    then its vertex is never taken.  A clique atom's T needs no DP: one
    vertex of A - S at most, and none beside a vertex of S.  Any other
    atom runs the block DP (:func:`solve_bt`) on g[A] rooted at S, from its
    own minimal separators and PMCs; the root atom is rooted at its lowest
    vertex, which is then taken when its adjusted weight is positive.
    Every value is a sum of perturbed weights over one independent set of
    g, so the total is still the one maximum, and decodes to the canonical
    witness.
    """
    root = atoms[-1][0]
    v0 = (root & -root).bit_length() - 1
    atoms[-1] = (root, 1 << v0, atoms[-1][2])
    value = 0
    for atom, sep, part in atoms:
        if part is None:
            none = max([0] + [w[v] for v in iter_bits(atom & ~sep)])
            table = {v: 0 for v in iter_bits(sep)}
        else:
            h, hmap, minseps, family = part
            top = mask_of(i for i, v in enumerate(hmap) if sep >> v & 1)
            res = solve_bt(h, family, block_family(minseps), [w[v] for v in hmap], top)
            stats.blocks += res.stats.blocks
            stats.table_entries += res.stats.table_entries
            none = res.values[_NONE]
            table = {hmap[i]: res.values[i] for i in iter_bits(top)}
        value += none
        for v, best in table.items():
            w[v] += best - none
    return value + max(0, w[v0])


def brute_force_mwis(g: Graph, limit: int = 20) -> SolveResult:
    """Oracle: :func:`best_brute` under :func:`solve_exact`, for n up to
    ``limit``.

    Returns the canonical witness: the lexicographically smallest maximum
    weight independent set among those avoiding zero-weight vertices.
    """
    if g.n > limit:
        raise OracleLimitError(f"n={g.n} above oracle limit {limit}")
    return solve_exact(g, "brute", best_brute)


def best_brute(g: Graph, w: list[int], stats: SolveStats) -> int:
    """The best sum of int weights ``w`` over the independent sets of g, by
    memoized include/exclude search on the minimum-index vertex."""
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

    return best(g.full_mask)
