"""Top-level solving strategies.

The polynomial pipeline (separator enumeration + block DP), the prism
branching driver, the degree-threshold driver with tree-decomposition DP,
balanced separators from dominated potential maximal cliques, and maximum
weight clique via complementation.  Every exact strategy is an int core
run by :func:`~holefree.engine.solve_exact`, whose one maximum of the
perturbed weights decodes to the canonical witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bits import iter_bits, mask_of
from .errors import (
    CapacityExceededError,
    NoDominationError,
    PreconditionError,
    SolverInvariantError,
    WidthLimitError,
)
from .engine import (
    SolveConfig,
    SolveResult,
    SolveStats,
    best_brute,
    best_mwis,
    brute_force_mwis,
    check_independent_witness,  # noqa: F401  (wrapped by perfbench/tracer.py)
    int_weights,
    solve_exact,
    solve_mwis,
)
from .graph import Graph
from .pmc import dominate_pmc, is_pmc
from .recognition import TreeDecomposition, clique_tree, find_k_prism, minimal_triangulation

BRUTE_FLOOR = 25  # below this size the prism branching just uses the oracle
BAG_LIMIT = 25  # the largest bag the tree-decomposition DP accepts


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
    holding node 0), and takes the bag at a node with no outgoing edge:
    that bag is balanced.  Dominating the bag by at most three vertices
    turns it into the degree-bounded separator N[Z].
    """
    if g.n == 0 or not g.is_connected():
        raise PreconditionError("balanced_separator needs a connected nonempty graph")
    scale, w = int_weights(g)  # every side is weighed in ints

    def weight_of(sub: int) -> int:
        return sum(w[v] for v in iter_bits(sub))

    total = sum(w)
    if total <= 0:
        raise PreconditionError("total weight must be positive")

    tree = clique_tree(g, minimal_triangulation(g))
    bags = tree.bags
    # below[x]: weight of the union of the bags in x's subtree.  By running
    # intersection a child's union meets the rest only in its bag & bags[x],
    # and the rest of the tree weighs total - below[x] plus the weight of
    # bags[x] & bags[parent]; a post-order pass finishes below[x] first
    below = [weight_of(bag) for bag in bags]
    outdeg = [0] * len(bags)
    for x, parent in reversed(tree.walk()[1:]):
        shared = weight_of(bags[x] & bags[parent])
        below[parent] += below[x] - shared
        if below[x] > total - below[x] + shared:
            outdeg[parent] += 1
        else:  # ties point toward node 0's side
            outdeg[x] += 1

    bag = bags[outdeg.index(0)]
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

    max_comp = max(map(weight_of, g.components(g.full_mask & ~separator)), default=0)
    if 2 * max_comp > total:
        raise SolverInvariantError("chosen bag is not a balanced separator")
    return BalancedSeparatorResult(bag, z, separator, Fraction(max_comp, scale), degraded)


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
        res = balanced_separator(Graph.from_rows(sub.adj, (Fraction(1),) * sub.n))
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


def solve_treewidth_dp(g: Graph, td: TreeDecomposition) -> SolveResult:
    """Exact MWIS by :func:`best_treewidth` on a validated decomposition
    ``td``, under :func:`~holefree.engine.solve_exact`."""
    td.validate(g)
    return solve_exact(g, "treewidth", best_treewidth, td)


def best_treewidth(g: Graph, w: list[int], stats: SolveStats, td: TreeDecomposition) -> int:
    """The best sum of int weights ``w`` over the independent sets of g, by
    the standard dynamic program over ``td`` rooted at node 0.

    Tables map the independent, zero-weight-free subsets of each bag to
    their best value; child tables are merged through their projection
    onto the shared vertices.
    """
    for b in td.bags:
        if b.bit_count() > BAG_LIMIT:
            raise WidthLimitError(f"bag of size {b.bit_count()} above limit {BAG_LIMIT}")

    usable = mask_of(v for v in range(g.n) if w[v])
    walk = td.walk()
    children: list[list[int]] = [[] for _ in td.bags]
    for x, parent in walk[1:]:
        children[parent].append(x)

    entries = 0
    tables: list[dict[int, int]] = [{} for _ in td.bags]
    for node, _ in reversed(walk):
        bag = td.bags[node]
        own = {0: 0}  # independent subset -> its weight
        for v in iter_bits(bag & usable):
            own.update([(s | 1 << v, x + w[v]) for s, x in own.items() if not s & g.adj[v]])
        # a child entry adds its value less its trace on the shared vertices,
        # which own counts; every independent subset of a bag has an entry,
        # so every lookup below finds one
        projections = []
        for c in children[node]:
            shared = bag & td.bags[c]
            proj: dict[int, int] = {}
            for sub, value in tables[c].items():
                key = sub & shared
                proj[key] = max(value - own[key], proj.get(key, -1))
            projections.append((shared, proj))
        table = tables[node]
        for sub, value in own.items():
            for shared, proj in projections:
                value += proj[sub & shared]
            table[sub] = value
        entries += len(table)

    stats.table_entries += entries
    return max(tables[0].values())


def solve_kprism_alg(g: Graph, config: SolveConfig | None = None) -> SolveResult:
    """The polynomial pipeline: separator enumeration feeds the block DP.

    Runtime is polynomial whenever induced prisms are bounded in size (the
    separator count then is); the caps in ``config`` guard hostile inputs.
    """
    return solve_mwis(g, config)


def solve_subexp1(g: Graph, config: SolveConfig | None = None) -> SolveResult:
    """Prism branching: while a sqrt(n)-prism exists, guess its trace.

    An independent set meets the prism's two cliques in at most two
    vertices, so the admissible traces are the empty set, singletons, and
    nonadjacent cross pairs; each branch deletes the prism plus the trace's
    neighborhood and recurses.  Prism-free residues go to the int core of
    the pipeline, tiny residues to the oracle's.  The recursion carries
    (graph, int weights): the perturbed weights of g, read through each
    induced subgraph's vertex map, so the best branch is the one maximum
    and :func:`~holefree.engine.solve_exact` decodes the canonical witness.
    """
    cfg = config or SolveConfig()

    def rec(h: Graph, w: list[int], stats: SolveStats) -> int:
        if h.n < BRUTE_FLOOR:
            return best_brute(h, w, stats)
        prism = find_k_prism(h, math.isqrt(h.n))
        if prism is None:
            return best_mwis(h, w, stats, cfg)
        pv = prism.vertex_mask()
        members = [v for v in iter_bits(pv) if w[v] > 0]
        traces = [0] + [1 << v for v in members]
        for i, a in enumerate(members):
            traces += [1 << a | 1 << b for b in members[i + 1 :] if not h.has_edge(a, b)]
        best = -1
        for trace in traces:
            stats.branches += 1
            sub, vmap = h.induced(h.full_mask & ~(pv | h.neighborhood(trace, closed=True)))
            taken = sum(w[v] for v in iter_bits(trace))
            best = max(best, rec(sub, [w[v] for v in vmap], stats) + taken)
        return best

    return solve_exact(g, "subexp1", rec)


def solve_subexp2(g: Graph, config: SolveConfig | None = None) -> SolveResult:
    """Degree-threshold branching, then tree-decomposition DP on the rest.

    While a vertex of degree at least ceil(sqrt(n ln n)) exists, branch on
    taking it (delete its closed neighborhood) or not (delete it); leaves
    of the branching are decomposed and solved by :func:`best_treewidth`.
    A leaf whose decomposition has a bag too large for the DP goes to the
    int core of the pipeline under ``config``, which may trip a cap.  The
    recursion carries (graph, int weights) as in :func:`solve_subexp1`.
    """
    cfg = config or SolveConfig()

    def rec(h: Graph, w: list[int], stats: SolveStats) -> int:
        if h.n <= 2:
            return best_brute(h, w, stats)
        tau = math.ceil(math.sqrt(h.n * math.log(h.n)))
        v = max(range(h.n), key=lambda u: (h.degree(u), -u))
        if h.degree(v) >= tau:
            stats.branches += 1
            sub, vmap = h.induced(h.full_mask & ~(1 << v))
            best = rec(sub, [w[u] for u in vmap], stats)
            if w[v] > 0:
                sub, vmap = h.induced(h.full_mask & ~(h.adj[v] | 1 << v))
                best = max(best, rec(sub, [w[u] for u in vmap], stats) + w[v])
            return best
        try:
            return best_treewidth(h, w, stats, build_tree_decomposition(h))
        except WidthLimitError:
            return best_mwis(h, w, stats, cfg)

    return solve_exact(g, "subexp2", rec)


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
