"""Top-level solving strategies.

The polynomial pipeline (separator enumeration + block DP), the prism
branching driver, the degree-threshold driver with tree-decomposition DP,
balanced separators from dominated potential maximal cliques, and maximum
weight clique via complementation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .bits import iter_bits, mask_of, to_tuple
from .errors import (
    NoDominationError,
    PreconditionError,
    SolverInvariantError,
    WidthLimitError,
)
from .engine import (
    SolveConfig,
    SolveResult,
    SolveStats,
    brute_force_mwis,
    check_independent_witness,
    solve_mwis,
)
from .graph import Graph
from .pmc import dominate_pmc, is_pmc
from .recognition import CliqueTree, clique_tree, find_k_prism, minimal_triangulation

BRUTE_FLOOR = 25  # below this size the prism branching just uses the oracle


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((b.bit_count() for b in self.bags), default=1) - 1

    def validate(self, g: Graph) -> None:
        """Check the three decomposition axioms and that the edges form a tree."""
        nodes = len(self.bags)
        if nodes == 0:
            raise SolverInvariantError("decomposition has no nodes")
        if len(self.edges) != nodes - 1:
            raise SolverInvariantError("decomposition edges do not form a tree")
        nbr: dict[int, list[int]] = {i: [] for i in range(nodes)}
        for i, j in self.edges:
            nbr[i].append(j)
            nbr[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in nbr[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != nodes:
            raise SolverInvariantError("decomposition tree is disconnected")
        cover = 0
        for b in self.bags:
            cover |= b
        if cover != g.full_mask:
            raise SolverInvariantError("some vertex is missing from every bag")
        for u, v in g.edges():
            need = (1 << u) | (1 << v)
            if not any(b & need == need for b in self.bags):
                raise SolverInvariantError(f"edge ({u}, {v}) is inside no bag")
        for v in range(g.n):
            holders = {i for i, b in enumerate(self.bags) if b >> v & 1}
            start = next(iter(holders))
            seen_h = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in nbr[x]:
                    if y in holders and y not in seen_h:
                        seen_h.add(y)
                        stack.append(y)
            if seen_h != holders:
                raise SolverInvariantError(f"bags containing {v} are not connected")


def clique_tree_decomposition(tree: CliqueTree) -> TreeDecomposition:
    """A clique tree as a TreeDecomposition; forest components get chained."""
    nodes = len(tree.bags)
    parent = list(range(nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = list(tree.edges)
    for i, j in tree.edges:
        parent[find(j)] = find(i)
    roots = sorted({find(i) for i in range(nodes)})
    for a, b in zip(roots, roots[1:]):
        edges.append((a, b))
        parent[find(b)] = find(a)
    return TreeDecomposition(tree.bags, tuple(edges))


@dataclass(frozen=True)
class BalancedSeparatorResult:
    bag: int  # the chosen potential maximal clique
    z: tuple[int, ...]  # dominating set, size <= 3 (empty when degraded)
    separator: int  # N[z], or the bag itself when degraded
    max_component_weight: Fraction
    degraded: bool = False


def balanced_separator(g: Graph) -> BalancedSeparatorResult:
    """A balanced separator of size at most 3 * (max degree + 1).

    Builds a clique tree of a minimal triangulation, orients every tree
    edge toward the side whose bag union weighs more (ties toward the side
    holding the smaller node index), and takes the bag at a node with no
    outgoing edge: that bag is balanced.  Dominating the bag by at most
    three vertices turns it into the degree-bounded separator N[Z].
    """
    if g.n == 0 or not g.is_connected():
        raise PreconditionError("balanced_separator needs a connected nonempty graph")
    total = g.total_weight()
    if total <= 0:
        raise PreconditionError("total weight must be positive")

    tree = clique_tree(g, minimal_triangulation(g))
    nodes = len(tree.bags)
    nbr: dict[int, list[int]] = {i: [] for i in range(nodes)}
    for i, j in tree.edges:
        nbr[i].append(j)
        nbr[j].append(i)

    def side_nodes(start: int, banned: int) -> list[int]:
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in nbr[x]:
                if y != banned and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return sorted(seen)

    outdeg = [0] * nodes
    for i, j in tree.edges:
        side_i = side_nodes(i, j)
        side_j = side_nodes(j, i)
        union_i = 0
        for x in side_i:
            union_i |= tree.bags[x]
        union_j = 0
        for x in side_j:
            union_j |= tree.bags[x]
        w_i, w_j = g.weight_of(union_i), g.weight_of(union_j)
        if w_i > w_j:
            outdeg[j] += 1
        elif w_j > w_i:
            outdeg[i] += 1
        elif min(side_i) < min(side_j):
            outdeg[j] += 1
        else:
            outdeg[i] += 1

    t = next(i for i in range(nodes) if outdeg[i] == 0)
    bag = tree.bags[t]
    pmc = is_pmc(g, bag)
    if pmc is None:
        raise SolverInvariantError("clique tree bag failed the PMC test")
    try:
        dom = dominate_pmc(g, pmc)
        z = dom.z
        separator = g.neighborhood(mask_of(z), closed=True)
        degraded = False
    except NoDominationError:
        z = ()
        separator = bag
        degraded = True

    half = Fraction(total, 2)
    max_comp = Fraction(0)
    for comp in g.components(g.full_mask & ~separator):
        w = g.weight_of(comp)
        if w > max_comp:
            max_comp = w
    if max_comp > half:
        raise SolverInvariantError("chosen bag is not a balanced separator")
    return BalancedSeparatorResult(bag, z, separator, max_comp, degraded)


def build_tree_decomposition(g: Graph) -> TreeDecomposition:
    """Recursive balanced-separator decomposition, validated before return.

    Each part is split with unit weights; the separator joins the bag
    together with the boundary inherited from above, trimmed to the
    neighborhood of each child part.  Width on long-hole-free inputs stays
    within a small multiple of 3 * (max degree + 1); validity is enforced
    unconditionally.
    """
    if g.n == 0:
        return TreeDecomposition((0,), ())
    bags: list[int] = []
    edges: list[tuple[int, int]] = []

    def rec(part: int, boundary: int) -> int:
        if part.bit_count() <= 2:
            bags.append(boundary | part)
            return len(bags) - 1
        sub, vmap = g.induced(part)
        res = balanced_separator(sub.with_weights([1] * sub.n))
        sep = mask_of(vmap[v] for v in iter_bits(res.separator))
        node = len(bags)
        bags.append(boundary | sep)
        inherited = boundary | sep
        for comp in g.components(part & ~sep):
            child = rec(comp, inherited & g.neighborhood(comp))
            edges.append((node, child))
        return node

    roots = [rec(comp, 0) for comp in g.components()]
    for a, b in zip(roots, roots[1:]):
        edges.append((a, b))
    td = TreeDecomposition(tuple(bags), tuple(edges))
    td.validate(g)
    return td


def solve_treewidth_dp(
    g: Graph, td: TreeDecomposition, bag_limit: int = 25
) -> SolveResult:
    """Standard MWIS dynamic program over a rooted tree decomposition.

    Tables range over independent, zero-weight-free subsets of each bag;
    child tables are merged through their projection onto the shared
    vertices.  Witnesses are rebuilt by walking the stored choices.
    """
    td.validate(g)
    t0 = time.perf_counter()
    for b in td.bags:
        if b.bit_count() > bag_limit:
            raise WidthLimitError(f"bag of size {b.bit_count()} above limit {bag_limit}")

    nbr: dict[int, list[int]] = {i: [] for i in range(len(td.bags))}
    for i, j in td.edges:
        nbr[i].append(j)
        nbr[j].append(i)

    # rooted post-order from node 0
    order = []
    parent = {0: -1}
    stack = [0]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in nbr[x]:
            if y != parent[x]:
                parent[y] = x
                stack.append(y)
    order.reverse()
    children = {i: [y for y in nbr[i] if parent.get(y) == i] for i in range(len(td.bags))}

    usable = mask_of(v for v in range(g.n) if g.weights[v] > 0)

    def independent_subsets(bag: int) -> list[int]:
        subs = [0]
        for v in iter_bits(bag & usable):
            grown = [s | (1 << v) for s in subs if not s & g.adj[v]]
            subs.extend(grown)
        return subs

    entries = 0
    tables: dict[int, dict[int, tuple[Fraction, tuple]]] = {}
    for node in order:
        bag = td.bags[node]
        table: dict[int, tuple[Fraction, tuple]] = {}
        projections = []
        for c in children[node]:
            shared = bag & td.bags[c]
            proj: dict[int, tuple[Fraction, int]] = {}
            for sub, (val, _) in tables[c].items():
                key = sub & shared
                adj_val = val - g.weight_of(key)
                cur = proj.get(key)
                if cur is None or adj_val > cur[0]:
                    proj[key] = (adj_val, sub)
            projections.append((c, shared, proj))
        for sub in independent_subsets(bag):
            value = g.weight_of(sub)
            choice = []
            feasible = True
            for c, shared, proj in projections:
                hit = proj.get(sub & shared)
                if hit is None:
                    feasible = False
                    break
                value += hit[0]
                choice.append((c, hit[1]))
            if feasible:
                table[sub] = (value, tuple(choice))
                entries += 1
        tables[node] = table

    root_table = tables[order[-1]]
    best_sub, (best_val, _) = max(
        root_table.items(), key=lambda kv: (kv[1][0], [-v for v in to_tuple(kv[0])])
    )

    witness = 0
    stack2 = [(order[-1], best_sub)]
    while stack2:
        node, sub = stack2.pop()
        witness |= sub
        for c, csub in tables[node][sub][1]:
            stack2.append((c, csub))

    check_independent_witness(g, best_val, witness)
    stats = SolveStats(
        table_entries=entries, time_ms=(time.perf_counter() - t0) * 1000.0
    )
    return SolveResult(best_val, to_tuple(witness), "treewidth", stats)


def solve_kprism_alg(g: Graph, config: SolveConfig | None = None) -> SolveResult:
    """The polynomial pipeline: separator enumeration feeds the block DP.

    Runtime is polynomial whenever induced prisms are bounded in size (the
    separator count then is); the caps in ``config`` guard hostile inputs.
    """
    return solve_mwis(g, config)


def _branch_max(current, candidate):
    if current is None:
        return candidate
    if candidate[0] != current[0]:
        return candidate if candidate[0] > current[0] else current
    return current


def solve_subexp1(g: Graph, config: SolveConfig | None = None) -> SolveResult:
    """Prism branching: while a sqrt(n)-prism exists, guess its trace.

    An independent set meets the prism's two cliques in at most two
    vertices, so the admissible traces are the empty set, singletons, and
    nonadjacent cross pairs; each branch deletes the prism plus the trace's
    neighborhood and recurses.  Prism-free residues go to the pipeline;
    tiny residues go to the oracle.
    """
    t0 = time.perf_counter()
    stats = SolveStats()

    def rec(h: Graph) -> tuple[Fraction, tuple[int, ...]]:
        if h.n == 0:
            return Fraction(0), ()
        if h.n < BRUTE_FLOOR:
            res = brute_force_mwis(h, limit=max(BRUTE_FLOOR, h.n))
            return res.weight, res.vertices
        k = math.isqrt(h.n)
        prism = find_k_prism(h, k)
        if prism is None:
            res = solve_kprism_alg(h, config)
            stats.merge(res.stats)
            return res.weight, res.vertices
        pv = prism.vertex_mask()
        members = to_tuple(pv)
        traces: list[tuple[int, ...]] = [()]
        traces.extend((v,) for v in members if h.weights[v] > 0)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if not h.has_edge(a, b) and h.weights[a] > 0 and h.weights[b] > 0:
                    traces.append((a, b))
        best = None
        for trace in traces:
            stats.branches += 1
            tmask = mask_of(trace)
            removed = pv | h.neighborhood(tmask, closed=True)
            rest, vmap = h.induced(h.full_mask & ~removed)
            val, wit = rec(rest)
            val += h.weight_of(tmask)
            mapped = tuple(sorted(trace + tuple(vmap[v] for v in wit)))
            best = _branch_max(best, (val, mapped))
        return best

    weight, witness = rec(g)
    check_independent_witness(g, weight, mask_of(witness))
    stats.time_ms = (time.perf_counter() - t0) * 1000.0
    return SolveResult(weight, witness, "subexp1", stats)


def solve_subexp2(g: Graph, config: SolveConfig | None = None) -> SolveResult:
    """Degree-threshold branching, then tree-decomposition DP on the rest.

    While a vertex of degree at least ceil(sqrt(n ln n)) exists, branch on
    taking it (delete its closed neighborhood) or not (delete it); leaves
    of the branching are decomposed and solved by the subset DP.
    """
    t0 = time.perf_counter()
    stats = SolveStats()

    def rec(h: Graph) -> tuple[Fraction, tuple[int, ...]]:
        if h.n <= 2:
            res = brute_force_mwis(h, limit=2)
            return res.weight, res.vertices
        tau = math.ceil(math.sqrt(h.n * math.log(h.n)))
        v = max(range(h.n), key=lambda u: (h.degree(u), -u))
        if h.degree(v) >= tau:
            stats.branches += 1
            rest_ex, vmap_ex = h.induced(h.full_mask & ~(1 << v))
            val_ex, wit_ex = rec(rest_ex)
            best = (val_ex, tuple(sorted(vmap_ex[u] for u in wit_ex)))
            if h.weights[v] > 0:
                rest_in, vmap_in = h.induced(h.full_mask & ~(h.adj[v] | (1 << v)))
                val_in, wit_in = rec(rest_in)
                val_in += h.weights[v]
                cand = (val_in, tuple(sorted((v,) + tuple(vmap_in[u] for u in wit_in))))
                best = _branch_max(best, cand)
            return best
        try:
            td = build_tree_decomposition(h)
            res = solve_treewidth_dp(h, td)
            stats.table_entries += res.stats.table_entries
            return res.weight, res.vertices
        except WidthLimitError:
            res = brute_force_mwis(h)
            return res.weight, res.vertices

    weight, witness = rec(g)
    check_independent_witness(g, weight, mask_of(witness))
    stats.time_ms = (time.perf_counter() - t0) * 1000.0
    return SolveResult(weight, witness, "subexp2", stats)


def solve_mwc_complement(g: Graph, config: SolveConfig | None = None) -> SolveResult:
    """Maximum weight clique via MWIS on the complement graph."""
    res = solve(g.complement(), strategy="auto", config=config)
    witness = res.mask
    if not g.is_clique(witness):
        raise SolverInvariantError("complement witness is not a clique")
    if g.weight_of(witness) != res.weight:
        raise SolverInvariantError("clique weight mismatch")
    return SolveResult(res.weight, res.vertices, f"mwc:{res.strategy}", res.stats)


STRATEGIES = ("bt", "subexp1", "subexp2", "brute", "auto")


def solve(g: Graph, strategy: str = "auto", config: SolveConfig | None = None) -> SolveResult:
    """Strategy dispatch: auto runs the pipeline and falls back to prism
    branching when a capacity cap trips.

    When the graph is too large for the oracle and has no sqrt(n)-prism,
    prism branching would hand it straight back to the same pipeline, which
    trips the same cap again; auto then re-raises the first trip.
    """
    from .errors import CapacityExceededError

    if strategy == "bt":
        return solve_kprism_alg(g, config)
    if strategy == "subexp1":
        return solve_subexp1(g, config)
    if strategy == "subexp2":
        return solve_subexp2(g, config)
    if strategy == "brute":
        return brute_force_mwis(g)
    if strategy == "auto":
        try:
            return solve_kprism_alg(g, config)
        except CapacityExceededError:
            if g.n >= BRUTE_FLOOR and find_k_prism(g, math.isqrt(g.n)) is None:
                raise
            return solve_subexp1(g, config)
    raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
