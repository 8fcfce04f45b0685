"""Independent brute-force oracles and named fixtures for the test suite.

The oracles are deliberately naive: subset scans and exhaustive
enumeration only, so they share no code path with the algorithms they
judge.  The separator witness construction is here because only the
tests run it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from holefree.bits import canonical_key, iter_bits, mask_of, to_tuple
from holefree.errors import (
    CapacityExceededError,
    OracleLimitError,
    PreconditionError,
    WitnessNotFoundError,
)
from holefree.graph import Graph
from holefree.separators import Separator, analyze_separator


# -- named fixtures -----------------------------------------------------------

def c4() -> Graph:
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def p4() -> Graph:
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


def path_graph(t: int) -> Graph:
    return Graph(t, [(i, i + 1) for i in range(t - 1)])


def cycle_graph(t: int) -> Graph:
    if t < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(t, [(i, (i + 1) % t) for i in range(t)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Center 0 joined to vertices 1..leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# -- subset scans -------------------------------------------------------------

def exhaustive_mwis(g: Graph) -> tuple[Fraction, tuple[int, ...]]:
    """Max weight independent set by scanning all subsets.

    Canonical witness: lexicographically smallest maximum-weight set among
    those avoiding zero-weight vertices.
    """
    best_w = Fraction(0)
    best: tuple[int, ...] = ()
    for mask in range(1 << g.n):
        if not g.is_independent(mask):
            continue
        if any(g.weights[v] == 0 for v in iter_bits(mask)):
            continue
        w = g.weight_of(mask)
        tup = to_tuple(mask)
        if w > best_w or (w == best_w and tup < best):
            best_w, best = w, tup
    return best_w, best


def tree_decomposition_mwis(g: Graph) -> Fraction:
    """Max weight of an independent set by a subset DP over the tree
    decomposition that networkx's min-fill-in heuristic builds; for graphs
    of small treewidth only, as each bag's table has one entry per
    independent subset of the bag."""
    import networkx as nx
    from networkx.algorithms.approximation import treewidth_min_fill_in

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    tree = treewidth_min_fill_in(h)[1]
    root = next(iter(tree))
    tables: dict[frozenset, dict[frozenset, Fraction]] = {}
    for bag in nx.dfs_postorder_nodes(tree, root):
        kids = [c for c in tree[bag] if c in tables]  # the parent comes later
        subsets = [frozenset()]
        for v in bag:
            subsets += [s | {v} for s in subsets if not any(g.has_edge(u, v) for u in s)]
        table = {}
        for sub in subsets:
            value = sum((g.weights[v] for v in sub), Fraction(0))
            for c in kids:
                shared = bag & c
                value += max(
                    x - sum((g.weights[v] for v in t & shared), Fraction(0))
                    for t, x in tables[c].items()
                    if t & shared == sub & shared
                )
            table[sub] = value
        tables[bag] = table
    return max(tables[root].values())


def frank_chordal_mwis(g: Graph) -> tuple[Fraction, tuple[int, ...]]:
    """Max weight independent set of a chordal graph by Frank's algorithm
    (A. Frank, "Some polynomial algorithms for certain graphs and
    hypergraphs", 1976), here in quadratic rather than linear time.

    Along a perfect elimination order, each vertex with positive residual
    weight is marked, and its residual weight is taken off its later
    neighbors, which form a clique.  The marked vertices are then taken
    greedily in reverse order.  The order comes from ``is_chordal`` and is
    checked here.  The witness is a maximum one, not the canonical one.
    """
    from holefree.recognition import is_chordal

    order = is_chordal(g).elimination_order
    if order is None:
        raise ValueError("graph is not chordal")
    pos = {v: i for i, v in enumerate(order)}
    later = {v: [u for u in range(g.n) if g.has_edge(u, v) and pos[u] > pos[v]] for v in order}
    for v in order:
        if not all(g.has_edge(x, y) for x, y in combinations(later[v], 2)):
            raise ValueError("not a perfect elimination order")
    residual = list(g.weights)
    marked = []
    for v in order:
        if residual[v] > 0:
            marked.append(v)
            for u in later[v]:
                residual[u] = max(residual[u] - residual[v], Fraction(0))
    chosen: list[int] = []
    for v in reversed(marked):
        if not any(g.has_edge(v, u) for u in chosen):
            chosen.append(v)
    return sum((g.weights[v] for v in chosen), Fraction(0)), tuple(sorted(chosen))


def _is_minimal_separator(g: Graph, sep: int) -> bool:
    return sum(nb == sep for _, nb in g.flood(g.full_mask & ~sep)) >= 2


def brute_force_minimal_separators(g: Graph, limit: int = 14) -> list[Separator]:
    """Scan all vertex subsets for two or more full components."""
    if g.n > limit:
        raise OracleLimitError(f"n={g.n} above oracle limit {limit}")
    out = []
    for mask in range(1 << g.n):
        if _is_minimal_separator(g, mask):
            out.append(analyze_separator(g, mask))
    out.sort(key=lambda s: to_tuple(s.set))
    return out


def brute_force_pmcs(g: Graph, limit: int = 14) -> list:
    """The certified PMCs of g by testing every nonempty vertex subset,
    canonically sorted."""
    from holefree.pmc import is_pmc

    if g.n > limit:
        raise OracleLimitError(f"n={g.n} above oracle limit {limit}")
    out = [p for cand in range(1, 1 << g.n) if (p := is_pmc(g, cand)) is not None]
    return sorted(out, key=lambda p: to_tuple(p.set))


def cover_of(pmc, x: int, y: int) -> int:
    """Index of the first component of a PMC certificate whose
    neighborhood holds x and y."""
    need = (1 << x) | (1 << y)
    for idx, nb in enumerate(pmc.neighborhoods):
        if nb & need == need:
            return idx
    raise KeyError((min(x, y), max(x, y)))


def excess_full(sep: Separator) -> int:
    """Number of full components beyond the first; positive iff minimal."""
    return max(0, len(sep.full) - 1)


def exhaustive_mwc(g: Graph) -> Fraction:
    best = Fraction(0)
    for mask in range(1 << g.n):
        if g.is_clique(mask):
            best = max(best, g.weight_of(mask))
    return best


def has_induced_cycle(g: Graph, min_len: int, max_len: int | None = None) -> bool:
    """Scan all vertex subsets for one inducing a cycle of the given length."""
    max_len = g.n if max_len is None else max_len
    for size in range(min_len, max_len + 1):
        for combo in combinations(range(g.n), size):
            sub = mask_of(combo)
            if all(
                (g.adj[v] & sub).bit_count() == 2 for v in combo
            ) and len(g.components(sub)) == 1:
                return True
    return False


def prism_exists_bruteforce(g: Graph, k: int) -> bool:
    """Exhaustive induced k-prism test over vertex subsets and matchings."""
    verts = range(g.n)
    for left in combinations(verts, k):
        lm = mask_of(left)
        if not g.is_clique(lm):
            continue
        rest = [v for v in verts if v not in left]
        for right in combinations(rest, k):
            rm = mask_of(right)
            if not g.is_clique(rm):
                continue
            for perm in _permutations(right):
                if _is_prism_matching(g, left, perm):
                    return True
    return False


def _permutations(items):
    if len(items) <= 1:
        yield tuple(items)
        return
    for i, head in enumerate(items):
        for tail in _permutations(items[:i] + items[i + 1 :]):
            yield (head,) + tail


def _is_prism_matching(g: Graph, left, right) -> bool:
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            if g.has_edge(a, b) != (i == j):
                return False
    return True


def minimal_fillins(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """All inclusion-minimal chordal fill-ins by scanning nonedge subsets."""
    from holefree.recognition import is_chordal

    nonedges = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    ]
    chordal_sets = []
    for size in range(len(nonedges) + 1):
        for combo in combinations(nonedges, size):
            if is_chordal(g.with_edges(combo)).chordal:
                chordal_sets.append(frozenset(combo))
    minimal = [
        f for f in chordal_sets if not any(o < f for o in chordal_sets)
    ]
    return sorted(tuple(sorted(f)) for f in minimal)


# -- separator witnesses ------------------------------------------------------

def component_cover_witness(
    g: Graph,
    sep: Separator,
    comp_index: int,
    v: int,
    size_bound: int | None = None,
) -> int:
    """A small set Z inside one full component A with S contained in N(Z).

    Requires v in A, A full along with at least one other component, and
    every component of g[A] - {v} missing some separator vertex.  The
    construction keeps v, takes the component of g[A] - {v} with the
    largest neighborhood trace on S - N(v), and greedily shrinks its
    N(v)-boundary to an inclusion-minimal cover of that trace.

    On long-hole-free inputs the witness always exists; when the needed
    structure is absent (so the input has a long hole) or ``size_bound``
    is exceeded, WitnessNotFoundError carries diagnostics.
    """
    if not (0 <= comp_index < len(sep.components)):
        raise PreconditionError("component index out of range")
    comp = sep.components[comp_index]
    if comp_index not in sep.full:
        raise PreconditionError("chosen component is not full for the separator")
    if len(sep.full) < 2:
        raise PreconditionError("separator lacks a second full component")
    if not comp >> v & 1:
        raise PreconditionError(f"vertex {v} is not in the chosen component")

    sub_comps = g.components(comp & ~(1 << v))
    for sub in sub_comps:
        if sep.set & ~g.neighborhood(sub) == 0:
            raise PreconditionError(
                "a component of the punctured side already sees the whole separator"
            )

    uncovered = sep.set & ~g.adj[v]  # separator vertices v does not see
    if uncovered == 0:
        return 1 << v

    traces = [g.neighborhood(sub) & uncovered for sub in sub_comps]
    if not traces:
        raise WitnessNotFoundError(
            "no sub-component can cover the unseen separator vertices",
            {"separator": to_tuple(sep.set), "vertex": v},
        )
    best = max(range(len(traces)), key=lambda i: (traces[i].bit_count(), -i))
    if any(t & ~traces[best] for t in traces):
        raise WitnessNotFoundError(
            "sub-component traces are not nested; input has a long hole",
            {"separator": to_tuple(sep.set), "vertex": v},
        )
    boundary = sub_comps[best] & g.adj[v]
    if uncovered & ~g.neighborhood(boundary):
        raise WitnessNotFoundError(
            "near boundary cannot cover the separator; input has a long hole",
            {"separator": to_tuple(sep.set), "vertex": v},
        )
    cover = boundary
    for z in iter_bits(boundary):
        trial = cover & ~(1 << z)
        if uncovered & ~g.neighborhood(trial) == 0:
            cover = trial
    witness = cover | (1 << v)
    if sep.set & ~g.neighborhood(witness):
        raise WitnessNotFoundError(
            "constructed witness misses separator vertices",
            {"separator": to_tuple(sep.set), "witness": to_tuple(witness)},
        )
    if size_bound is not None and witness.bit_count() > size_bound:
        raise WitnessNotFoundError(
            f"witness larger than bound {size_bound}; input has a large prism",
            {"witness": to_tuple(witness), "bound": size_bound},
        )
    return witness


# -- corpus builders ----------------------------------------------------------

def random_graph(rng: random.Random, n: int, p: float, style: str = "int") -> Graph:
    from holefree.families import er_graph, random_weights

    return random_weights(er_graph(n, p, rng), rng, style)


def lhf_instance(rng: random.Random, n: int, style: str = "int") -> Graph:
    """A certified long-hole-free instance: random chordal plus grown edges."""
    from holefree.families import grow_lhf, random_chordal, random_weights
    from holefree.recognition import find_long_hole

    base = random_chordal(n, rng.randint(n, 3 * n), rng)
    g = grow_lhf(base, rng.randint(0, max(1, n // 2)), rng)
    assert find_long_hole(g) is None
    return random_weights(g, rng, style)


def reference_grow_lhf(
    g: Graph,
    extra_edges: int,
    rng: random.Random,
    forbid_prism: int | None = None,
    max_tries: int = 400,
) -> Graph:
    """``families.grow_lhf`` with its earlier loop: each candidate edge is
    added by rebuilding the graph, and the prism search runs on all of it."""
    from holefree.recognition import find_k_prism, long_hole_through

    nonedges = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    ]
    rng.shuffle(nonedges)
    added = 0
    for e in nonedges[:max_tries]:
        if added >= extra_edges:
            break
        cand = g.with_edges([e])
        if long_hole_through(cand, *e) is not None:
            continue
        if forbid_prism is not None and find_k_prism(cand, forbid_prism) is not None:
            continue
        g = cand
        added += 1
    return g


def reference_find_long_hole(g: Graph) -> tuple[int, ...] | None:
    """``recognition.find_long_hole`` with its earlier scan: every edge of
    g in canonical (x2, x3) order, with no atom in sight."""
    from holefree.recognition import long_hole_through

    for x2 in range(g.n):
        for x3 in iter_bits(g.adj[x2]):
            cycle = long_hole_through(g, x2, x3)
            if cycle is not None:
                return cycle
    return None


def reference_largest_prism(g: Graph, max_k: int) -> int:
    """``recognition.largest_prism`` with its earlier sweep: k = 1, 2, ...
    searched on the whole graph up to the first miss."""
    from holefree.recognition import find_k_prism

    best = 0
    for k in range(1, max_k + 1):
        if find_k_prism(g, k) is None:
            break
        best = k
    return best


# -- reference enumerators ----------------------------------------------------

def reference_minimal_separators(g: Graph, cap: int = 0, counted: int = 0) -> list[Separator]:
    """The Berry-Bordat-Cogis closure of
    :func:`holefree.separators.enumerate_minimal_separators`, as a
    generator of regions flooded with Graph.flood, and each record taken
    from a flood of all of g minus its set.

    Same seeds, stack order and skipped repeats, so the same records or
    the same cap trip at the same count.
    """
    found: dict[int, int] = {}
    stack: list[int] = []
    flooded: set[int] = set()

    def regions():
        for v in range(g.n):
            yield g.full_mask & ~(g.adj[v] | (1 << v))
        while stack:
            s = stack.pop()
            for x in iter_bits(s):
                yield g.full_mask & ~(s | g.adj[x] | (1 << x))

    for region in regions():
        if region in flooded:
            continue
        flooded.add(region)
        for comp, nb in g.flood(region):
            if nb not in found:
                found[nb] = comp
                if cap and counted + len(found) > cap:
                    raise CapacityExceededError("minimal separators", cap, counted + len(found))
                stack.append(nb)
    out = [analyze_separator(g, nb) for nb in sorted(found, key=canonical_key)]
    assert all(sep.is_minimal for sep in out)
    return out


def reference_pmcs(g: Graph) -> list[int]:
    """PMC masks of g by the all-pairs rule, canonically sorted.

    Sweeps prefix graphs G_1..G_n; the candidates for G_i are the previous
    family, its members plus the new vertex, S plus the new vertex, and
    S | (T & C) for every pair of minimal separators S != T of G_i and every
    component C of G_i - S.  Slower than the library's one-more-vertex rule
    but with no theorem-specific pruning, so it reaches graphs far beyond
    the subset-scan oracle.
    """
    from holefree.pmc import is_pmc
    from holefree.separators import enumerate_minimal_separators

    family = [1] if g.n else []
    for i in range(2, g.n + 1):
        gi = g.prefix(i)
        vbit = 1 << (i - 1)
        candidates = {c for prev in family for c in (prev, prev | vbit)}
        seps = enumerate_minimal_separators(gi)
        for s in seps:
            candidates.add(s.set | vbit)
            for t in seps:
                if t.set == s.set:
                    continue
                for comp in s.components:
                    inter = t.set & comp
                    if inter:
                        candidates.add(s.set | inter)
        family = [c for c in candidates if is_pmc(gi, c) is not None]
    return sorted(family, key=to_tuple)


def atom_pmc_sets(g: Graph) -> list[int]:
    """The PMCs of g as read off :func:`holefree.engine.atom_families`:
    each clique atom, and each PMC of every other atom in g's labels,
    canonically sorted."""
    from holefree.engine import SolveConfig, atom_families

    sets = []
    for atom, _, part in atom_families(g, SolveConfig())[0]:
        if part is None:
            sets.append(atom)
        else:
            _, hmap, _, pmcs = part
            sets += [mask_of(hmap[v] for v in iter_bits(p.set)) for p in pmcs]
    return sorted(sets, key=to_tuple)


def reference_atoms(g: Graph, minseps) -> list[int]:
    """The atoms of g: the parts left by splitting it along its clique
    minimal separators, the members of ``minseps`` = Δ(g) that are cliques.

    A part P that holds such an S, with S a minimal separator of g[P] (two
    or more components of g[P] - S see all of S), is replaced by C | N(C)
    for each component C of g[P] - S, N(C) taken inside P: the
    decomposition step of Berry, Pogorelcnik & Simonet (Algorithms 2010).
    A clique minimal separator of a part is one of g, so one pass over
    ``minseps`` leaves parts without any, and splitting only at minimal
    separators leaves no part inside another.
    """
    parts = [g.full_mask]
    for sep in minseps:
        s = sep.set
        if not g.is_clique(s):
            continue
        split = []
        for part in parts:
            if s & ~part == 0:
                pairs = g.flood(part & ~s)
                if sum(nb & s == s for _, nb in pairs) >= 2:
                    split.extend(c | nb & part for c, nb in pairs)
                    continue
            split.append(part)
        parts = split
    return parts


def reference_caps(pmcs, blocks) -> list[list[int]]:
    """For each block (D, S): ascending indices of the PMCs Ω with
    S <= Ω <= S | D, by testing every PMC against every block."""
    caps = []
    for d, s in blocks:
        hull = s | d
        caps.append(
            [i for i, p in enumerate(pmcs) if p.set & ~hull == 0 and s & ~p.set == 0]
        )
    return caps


def naive_components(g: Graph, sub: int) -> list[int]:
    """Components of g[sub] by breadth-first search over vertex lists."""
    left = set(iter_bits(sub))
    comps = []
    for start in sorted(left):
        if start not in left:
            continue
        left.discard(start)
        comp, queue = {start}, [start]
        while queue:
            v = queue.pop()
            for u in iter_bits(g.adj[v]):
                if u in left:
                    left.discard(u)
                    comp.add(u)
                    queue.append(u)
        comps.append(mask_of(comp))
    return comps


def naive_neighborhood(g: Graph, sub: int) -> int:
    nb = 0
    for v in iter_bits(sub):
        nb |= g.adj[v]
    return nb & ~sub


def reference_certify_pmc(g: Graph, cand: int):
    """The PMC test with the per-nonedge certificate, pair by pair.

    Returns ``((components, covers), None)`` on success, where ``covers``
    maps each internal nonedge (x, y), x < y, to the first component whose
    neighborhood holds both ends, or ``(None, reason)`` naming the first
    violated condition.
    """
    if cand == 0:
        return None, "empty set"
    comps = naive_components(g, g.full_mask & ~cand)
    nbrs = []
    for comp in comps:
        nb = naive_neighborhood(g, comp)
        if nb == cand:
            return None, "a component sees the whole set"
        nbrs.append(nb)
    covers = []
    for x in iter_bits(cand):
        for y in iter_bits(cand & ~g.adj[x] & ~((1 << (x + 1)) - 1)):
            need = (1 << x) | (1 << y)
            for idx, nb in enumerate(nbrs):
                if nb & need == need:
                    covers.append(((x, y), idx))
                    break
            else:
                return None, f"nonedge ({x}, {y}) not covered by any component"
    return (tuple(comps), tuple(covers)), None


def reference_solve_bt(g: Graph, pmcs, blocks) -> tuple[Fraction, tuple[int, ...]]:
    """The block DP of ``engine.solve_bt`` with its earlier loop: for each
    trace u and each cap, a list of (trace, value, witness) choices, each
    summed over the cap's children, on LCM-scaled weights with an explicit
    witness mask per entry and the lexicographic tie-break.  Returns the
    weight and the witness."""
    from holefree.engine import _NONE, index_caps

    assert all(s == naive_neighborhood(g, d) for d, s in blocks)
    ordered = sorted((d for d, _ in blocks), key=lambda d: (d.bit_count(), to_tuple(d)))
    blocks_ = [(d, naive_neighborhood(g, d)) for d in ordered]
    by_mask = {d: j for j, (d, _) in enumerate(blocks_)}
    caps = index_caps(pmcs, blocks_)
    scale = math.lcm(*(x.denominator for x in g.weights))
    w = [x.numerator * (scale // x.denominator) for x in g.weights]
    tables: list[dict[int, tuple[int, int]]] = []
    for (d, s), cap_ids in zip(blocks_ + [(g.full_mask, 0)], caps + [range(len(pmcs))]):
        cap_kids = [
            (pmcs[i].set, [tables[by_mask[c]] for c in pmcs[i].components if c & d])
            for i in cap_ids
        ]
        table: dict[int, tuple[int, int]] = {}
        for u in [_NONE, *iter_bits(s)]:
            best = (-1, 0)
            for cap, kids in cap_kids:
                if u == _NONE:
                    own = [(_NONE, 0, 0)] + [
                        (t, w[t], 1 << t) for t in iter_bits(cap & d) if w[t] > 0
                    ]
                else:
                    own = [(u, 0, 0)]
                for t, value, witness in own:
                    for tab in kids:
                        sub = tab[t] if t in tab else tab[_NONE]
                        value += sub[0]
                        witness |= sub[1]
                    if value > best[0] or value == best[0] and _lex_first(witness, best[1]):
                        best = (value, witness)
            table[u] = best
        tables.append(table)
    value, mask = tables[-1][_NONE]
    return Fraction(value, scale), to_tuple(mask)


def _lex_first(a: int, b: int) -> bool:
    """Whether vertex set a sorts before b, for two sets neither inside the
    other: the smallest vertex in exactly one of them is in a."""
    diff = a ^ b
    return bool(diff & -diff & a)


# -- reference chordality -----------------------------------------------------

def reference_mcs_order(g: Graph) -> list[int]:
    """Maximum cardinality search visit order (ties broken by index), by a
    scan over all vertices at every step."""
    visited = 0
    score = [0] * g.n
    order = []
    for _ in range(g.n):
        best = -1
        for v in range(g.n):
            if not (visited >> v & 1) and (best == -1 or score[v] > score[best]):
                best = v
        order.append(best)
        visited |= 1 << best
        for u in iter_bits(g.adj[best] & ~visited):
            score[u] += 1
    return order


def reference_is_chordal(g: Graph):
    """``recognition.is_chordal`` by testing the MCS order for perfect
    elimination."""
    from holefree.recognition import ChordalityResult

    order = reference_mcs_order(g)
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        if not g.is_clique(mask_of(u for u in iter_bits(g.adj[v]) if pos[u] < pos[v])):
            return ChordalityResult(False, None)
    return ChordalityResult(True, tuple(reversed(order)))


def reference_minimal_triangulation(g: Graph) -> tuple[tuple[int, int], ...]:
    """MCS-M with a fresh path search for every unnumbered vertex at every
    step: y is bumped iff it sees z or reaches z through unnumbered
    vertices of lower score, and a bumped non-neighbour of z is filled."""
    n = g.n
    score = [0] * n
    numbered = 0
    fill: set[tuple[int, int]] = set()
    for _ in range(n):
        z = -1
        for v in range(n):
            if not (numbered >> v & 1) and (z == -1 or score[v] > score[z]):
                z = v
        numbered |= 1 << z
        bump = []
        unnumbered = g.full_mask & ~numbered
        for y in iter_bits(unnumbered):
            if g.has_edge(y, z):
                bump.append(y)
                continue
            allowed = mask_of(
                x for x in iter_bits(unnumbered & ~(1 << y)) if score[x] < score[y]
            )
            reach = frontier = 1 << y
            while frontier:
                nxt = 0
                for x in iter_bits(frontier):
                    nxt |= g.adj[x]
                if nxt >> z & 1:
                    bump.append(y)
                    fill.add((min(y, z), max(y, z)))
                    break
                frontier = nxt & allowed & ~reach
                reach |= frontier
        for y in bump:
            score[y] += 1
    return tuple(sorted(fill))


def reference_clique_tree(g: Graph, fill=()) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Bags and edges of ``recognition.clique_tree``: every vertex with its
    later neighbours along the reference elimination order, kept unless a
    larger candidate contains it, then Kruskal on the canonically sorted
    bag pairs by descending overlap."""
    h = g.with_edges(fill)
    order = reference_is_chordal(h).elimination_order
    assert order is not None, "graph plus fill-in is not chordal"
    pos = {v: i for i, v in enumerate(order)}
    candidates = sorted(
        (mask_of(u for u in iter_bits(h.adj[v]) if pos[u] > pos[v]) | 1 << v for v in range(h.n)),
        key=lambda m: -m.bit_count(),
    )
    bags: list[int] = []
    for c in candidates:
        if not any(c & ~k == 0 for k in bags):
            bags.append(c)
    bags = sorted(bags, key=to_tuple) or [0]
    root = list(range(len(bags)))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    edges = []
    for _, i, j in sorted(
        (-(a & b).bit_count(), i, j)
        for i, a in enumerate(bags)
        for j, b in enumerate(bags)
        if i < j
    ):
        if find(i) != find(j):
            root[find(j)] = find(i)
            edges.append((i, j))
    return tuple(bags), tuple(edges)


def reference_balanced_separator(g: Graph):
    """``solvers.balanced_separator`` with its earlier side sums: the union
    of the bags below each tree edge and of the rest are built as masks
    and weighed vertex by vertex."""
    from holefree.engine import int_weights
    from holefree.errors import NoDominationError
    from holefree.pmc import dominate_pmc, is_pmc
    from holefree.recognition import clique_tree, minimal_triangulation
    from holefree.solvers import BalancedSeparatorResult

    scale, w = int_weights(g)

    def weight_of(sub: int) -> int:
        return sum(w[v] for v in iter_bits(sub))

    total = sum(w)
    tree = clique_tree(g, minimal_triangulation(g))
    walk = tree.walk()
    below = list(tree.bags)
    for x, parent in reversed(walk):
        if parent >= 0:
            below[parent] |= below[x]
    outdeg = [0] * len(tree.bags)
    for x, parent in walk[1:]:
        rest = g.full_mask & ~below[x] | tree.bags[x] & tree.bags[parent]
        if weight_of(below[x]) > weight_of(rest):
            outdeg[parent] += 1
        else:
            outdeg[x] += 1
    bag = tree.bags[outdeg.index(0)]
    try:
        z = dominate_pmc(g, is_pmc(g, bag)).z
        separator, degraded = g.neighborhood(mask_of(z), closed=True), False
    except NoDominationError:
        z, separator, degraded = (), bag, True
    max_comp = max(map(weight_of, g.components(g.full_mask & ~separator)), default=0)
    assert 2 * max_comp <= total
    return BalancedSeparatorResult(bag, z, separator, Fraction(max_comp, scale), degraded)


def reference_dominate_pmc(g: Graph, pmc: Separator):
    """``pmc.dominate_pmc`` with its earlier fallback: every 1-, 2- and
    3-subset of all n vertices in ``combinations`` order, each weighed by a
    fresh closed neighbourhood."""
    from holefree.errors import NoDominationError
    from holefree.pmc import (
        DominationResult,
        find_covering_component,
        find_separator_cover_pair,
    )

    target = pmc.set
    for v in iter_bits(target):
        if target & ~(g.adj[v] | (1 << v)) == 0:
            return DominationResult((v,), "single-vertex")
    for v in iter_bits(target):
        try:
            comp = find_covering_component(pmc, target & ~g.adj[v])
            sep = analyze_separator(g, pmc.neighborhoods[pmc.components.index(comp)])
            d_index = sep.components.index(comp)
            b_index = next(i for i in sep.full if i != d_index)
            x, y = find_separator_cover_pair(g, sep, d_index, b_index, v)
            z = (1 << v) | (1 << x) | (1 << y)
            if target & ~g.neighborhood(z, closed=True) == 0:
                return DominationResult(tuple(sorted((v, x, y))), "lemma-chain")
        except WitnessNotFoundError:
            continue
    for size in (1, 2, 3):
        for combo in combinations(range(g.n), size):
            if target & ~g.neighborhood(mask_of(combo), closed=True) == 0:
                return DominationResult(combo, "brute-fallback")
    raise NoDominationError(f"no 3-set dominates {to_tuple(target)}")
