"""Block dynamic program and the brute-force oracle."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

import holefree.engine as engine
from holefree.bits import iter_bits, mask_of, to_tuple
from holefree.engine import (
    _NONE,
    SolveConfig,
    SolveResult,
    atom_families,
    brute_force_mwis,
    decode,
    index_caps,
    perturbed_weights,
    solve_bt,
    solve_mwis,
)
from holefree.errors import CapacityExceededError, OracleLimitError, PreconditionError
from holefree.families import (
    WEIGHT_STYLES,
    er_graph,
    grow_lhf,
    prism_graph,
    random_chordal,
    random_weights,
)
from holefree.graph import Graph
from holefree.pmc import block_family, enumerate_pmcs
from holefree.recognition import clique_atoms
from holefree.separators import enumerate_minimal_separators

from oracles import (
    c4,
    complete_graph,
    cycle_graph,
    exhaustive_mwis,
    frank_chordal_mwis,
    p4,
    reference_caps,
    reference_solve_bt,
    tree_decomposition_mwis,
)


def _pipeline(g):
    seps = enumerate_minimal_separators(g)
    return enumerate_pmcs(g, seps), block_family(seps)


def _solve_bt(g, pmcs, blocks):
    """The MWIS of a connected g from solve_bt rooted at vertex 0, on the
    perturbed weights: the best of the table's entry with vertex 0 left
    out and, when it weighs something, with vertex 0 taken."""
    scale, w = perturbed_weights(g)
    res = solve_bt(g, pmcs, blocks, w)
    best = max(res.values[_NONE], w[0] + res.values[0] if w[0] > 0 else 0)
    weight, mask = decode(g.n, scale, best)
    return SolveResult(weight, to_tuple(mask), "bt", res.stats)


def _indexed_blocks(g):
    pmcs, blocks = _pipeline(g)
    assert all(s == g.neighborhood(d) for d, s in blocks)
    return pmcs, sorted(blocks, key=lambda b: (b[0].bit_count(), to_tuple(b[0])))


def test_index_caps_c4():
    g = c4()
    pmcs, blk = _indexed_blocks(g)
    caps = index_caps(pmcs, blk)
    b1 = blk.index((1 << 1, mask_of([0, 2])))  # block ({1}, S={0,2})
    assert [pmcs[i].set for i in caps[b1]] == [mask_of([0, 1, 2])]


def test_index_caps_p4_chordal():
    g = p4()
    pmcs, blk = _indexed_blocks(g)
    caps = index_caps(pmcs, blk)
    b_a = blk.index((1 << 0, 1 << 1))  # block ({0}, S={1})
    assert [pmcs[i].set for i in caps[b_a]] == [mask_of([0, 1])]


def _assert_caps_match_scan(g):
    pmcs, blk = _indexed_blocks(g)
    assert index_caps(pmcs, blk) == reference_caps(pmcs, blk)


def test_index_caps_matches_scan_on_random_graphs():
    rng = random.Random(34)
    checked = 0
    while checked < 200:
        g = er_graph(rng.randint(2, 12), rng.uniform(0.15, 0.8), rng)
        if g.is_connected():
            _assert_caps_match_scan(g)
            checked += 1


@pytest.mark.parametrize("n", [20, 30, 40])
def test_index_caps_matches_scan_on_lhf(n):
    rng = random.Random(n)
    _assert_caps_match_scan(random_chordal(n, 2 * n, rng))
    _assert_caps_match_scan(grow_lhf(random_chordal(n, 2 * n, rng), n // 2, rng))


@pytest.mark.parametrize("k", range(3, 8))
def test_index_caps_matches_scan_on_prisms(k):
    _assert_caps_match_scan(prism_graph(k))


def test_index_caps_k4_no_blocks():
    g = complete_graph(4)
    pmcs, blocks = _pipeline(g)
    assert blocks == [] and index_caps(pmcs, []) == []


def test_solve_bt_c4_unit():
    g = c4()
    pmcs, blocks = _pipeline(g)
    res = _solve_bt(g, pmcs, blocks)
    assert res.weight == 2
    assert res.vertices in ((0, 2), (1, 3))


def test_solve_bt_weighted_prism():
    g = prism_graph(3).with_weights([3, 1, 1, 1, 1, 3])
    assert exhaustive_mwis(g) == (Fraction(6), (0, 5))  # oracle over 64 subsets
    pmcs, blocks = _pipeline(g)
    res = _solve_bt(g, pmcs, blocks)
    assert res.weight == 6 and res.vertices == (0, 5)


def test_solve_bt_p4_weighted():
    g = p4().with_weights([1, 5, 5, 1])
    assert exhaustive_mwis(g)[0] == Fraction(6)  # oracle over 16 subsets
    pmcs, blocks = _pipeline(g)
    res = _solve_bt(g, pmcs, blocks)
    assert res.weight == 6 and res.vertices in ((0, 2), (1, 3))


def test_solve_bt_on_the_8_prism_fills_the_blocks_without_vertex_0(monkeypatch):
    """The DP is rooted at vertex 0: of the 8-prism's 508 blocks it keeps the
    381 whose D avoids 0 and fills their 3,429 entries (4,572 for all)."""
    seen = []
    real = engine.index_caps

    def spy(pmcs, blocks):
        seen.extend(blocks)
        return real(pmcs, blocks)

    monkeypatch.setattr(engine, "index_caps", spy)
    g = prism_graph(8)
    pmcs, blocks = _pipeline(g)
    res = _solve_bt(g, pmcs, blocks)
    assert len(blocks) == 508
    assert (res.stats.table_entries, res.stats.blocks, len(seen)) == (3429, 381, 381)
    assert not any(d & 1 for d, _ in seen)


def _assert_dp_matches_reference(g):
    pmcs, blocks = _pipeline(g)
    res = _solve_bt(g, pmcs, blocks)
    assert (res.weight, res.vertices) == reference_solve_bt(g, pmcs, blocks)


@pytest.mark.parametrize("style", WEIGHT_STYLES)
def test_solve_bt_matches_reference_loop_on_random_graphs(style):
    rng = random.Random(f"dp-{style}")
    checked = 0
    while checked < 60:
        g = er_graph(rng.randint(2, 14), rng.uniform(0.15, 0.8), rng)
        if g.is_connected():
            _assert_dp_matches_reference(random_weights(g, rng, style))
            checked += 1


@pytest.mark.parametrize("k", range(3, 9))
def test_solve_bt_matches_reference_loop_on_prisms(k):
    rng = random.Random(k)
    for style in WEIGHT_STYLES:
        _assert_dp_matches_reference(random_weights(prism_graph(k), rng, style))


EXACT_WEIGHTS = {
    "mixed-denominators": [Fraction(1, 3), Fraction(2, 7), Fraction(5, 12)],
    "zeros": [0, 0, 1, 2],
    "huge": [10**30, 10**30 + 1, 3 * 10**30 - 7],
    "decimal-and-int": [Fraction("0.1"), Fraction("2.75"), 1, 3],
}


@pytest.mark.parametrize("palette", sorted(EXACT_WEIGHTS))
def test_exact_weights_match_subset_scan(palette):
    rng = random.Random(35)
    for _ in range(25):
        n = rng.randint(2, 10)
        g = er_graph(n, rng.uniform(0.2, 0.7), rng).with_weights(
            [rng.choice(EXACT_WEIGHTS[palette]) for _ in range(n)]
        )
        expect = exhaustive_mwis(g)
        results = [solve_mwis(g)]
        if g.is_connected():
            results.append(_solve_bt(g, *_pipeline(g)))
        for res in results:
            assert isinstance(res.weight, Fraction)
            assert (res.weight, res.vertices) == expect


def _networkx_mwis_weight(g):
    """Max weight of an independent set: networkx's max weight clique of the
    complement, with the weights scaled to integers by their LCM."""
    nx = pytest.importorskip("networkx")
    scale = math.lcm(*(w.denominator for w in g.weights))
    h = nx.Graph()
    h.add_nodes_from((v, {"weight": int(w * scale)}) for v, w in enumerate(g.weights))
    h.add_edges_from(g.edges())
    comp = nx.complement(h)
    comp.add_nodes_from(h.nodes(data=True))
    return Fraction(nx.max_weight_clique(comp, weight="weight")[1], scale)


def _canonical_by_oracle(g, oracle_weight):
    """The weight and the canonical witness mask of g, decoded from the
    optimum that one call of an exact weight oracle finds on the perturbed
    weights."""
    scale, w = perturbed_weights(g)
    return decode(g.n, scale, int(oracle_weight(g.with_weights(w))))


def test_frank_oracle_matches_exhaustive(chordal_corpus_50):
    rng = random.Random(7)
    for g in chordal_corpus_50:
        g = random_weights(g, rng, "zeros")
        weight, witness = frank_chordal_mwis(g)
        assert weight == exhaustive_mwis(g)[0]
        assert g.is_independent(mask_of(witness)) and g.weight_of(mask_of(witness)) == weight


def test_tree_decomposition_oracle_matches_exhaustive(random_corpus_12):
    pytest.importorskip("networkx")
    for g in random_corpus_12[:60]:
        assert tree_decomposition_mwis(g) == exhaustive_mwis(g)[0]


@pytest.mark.parametrize("n", [200, 240])
def test_matches_frank_on_large_chordal(n):
    rng = random.Random(n)
    g = random_weights(random_chordal(n, 2 * n, rng), rng, "int")
    res = solve_mwis(g)
    assert (res.weight, res.mask) == _canonical_by_oracle(g, lambda h: frank_chordal_mwis(h)[0])
    assert not any(g.has_edge(u, v) for u, v in combinations(res.vertices, 2))
    assert sum(g.weights[v] for v in res.vertices) == res.weight


@pytest.mark.parametrize("style", ["decimal", "skew"])
@pytest.mark.parametrize(
    "family,n",
    [("chordal", 40), ("chordal", 60), ("chordal", 80), ("grow_lhf", 30), ("grow_lhf", 40)],
)
def test_matches_networkx_beyond_brute_force_reach(family, n, style):
    rng = random.Random(f"{family}:{n}:{style}")
    g = random_chordal(n, 2 * n, rng)
    if family == "grow_lhf":
        g = grow_lhf(g, n // 2, rng)
    g = random_weights(g, rng, style)
    res = solve_mwis(g)
    assert (res.weight, res.mask) == _canonical_by_oracle(g, _networkx_mwis_weight)


def test_elimination_matches_brute_force_on_multi_atom_graphs():
    # the atom elimination adjusts weights, down to 0 or below, and keeps
    # the canonical witness: connected ER graphs with n <= 13 and two or
    # more atoms, in every weight style
    rng = random.Random(2301)
    checked = swept = 0
    while checked < 100:
        g = er_graph(rng.randint(4, 13), rng.uniform(0.15, 0.6), rng)
        pieces = clique_atoms(g)[0]
        if not g.is_connected() or len(pieces) < 2:
            continue
        for style in WEIGHT_STYLES:
            h = random_weights(g, rng, style)
            res, ref = solve_mwis(h), brute_force_mwis(h)
            assert (res.weight, res.vertices) == (ref.weight, ref.vertices), (h.adj, h.weights)
        swept += any(not g.is_clique(a) for a, _ in pieces)
        checked += 1
    assert swept > 30


def test_elimination_runs_the_dp_only_on_atoms_that_are_not_cliques(monkeypatch):
    # three 4-cycles chained at the cut vertices 11 and 6, and a triangle
    # hung on vertex 9: three DPs, each on a 4-cycle, rooted at its lowest
    # vertex or at its parent separator, which is vertex 11, the last of
    # {4, 5, 6, 11}, in one of them; none on the triangle
    cycles = [(0, 1, 2, 11), (11, 4, 5, 6), (6, 7, 8, 9)]
    edges = [(c[i], c[i - 1]) for c in cycles for i in range(4)] + [(9, 10), (10, 3), (3, 9)]
    g = Graph(12, edges).with_weights([1, 2, 3, 7, 5, 6, 7, 8, 9, 1, 7, 4])
    roots = []
    real = engine.solve_bt

    def spy(h, pmcs, blocks, w, root=1):
        roots.append((h.n, root))
        return real(h, pmcs, blocks, w, root)

    monkeypatch.setattr(engine, "solve_bt", spy)
    res = solve_mwis(g)
    assert (res.weight, res.vertices) == exhaustive_mwis(g)
    assert sorted(roots) == [(4, 1), (4, 1), (4, 8)]
    assert (res.stats.minseps, res.stats.pmcs) == (9, 13)


def test_atom_walk_tests_no_atom_for_a_clique_on_chordal_graphs(monkeypatch):
    # with no fill every atom is a clique, so the walk tests none; on a
    # graph with fill it tests each atom once
    calls = 0
    real = Graph.is_clique

    def spy(self, mask):
        nonlocal calls
        calls += 1
        return real(self, mask)

    monkeypatch.setattr(Graph, "is_clique", spy)
    rng = random.Random(28)
    for n in (10, 40, 70):
        g = random_chordal(n, 2 * n, rng)
        atoms = atom_families(g, SolveConfig())[0]
        assert calls == 0 and all(part is None for _, _, part in atoms)
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
    assert len(atom_families(g, SolveConfig())[0]) == 2 and calls >= 2


@pytest.mark.parametrize(
    "family,n",
    [("chordal", 100), ("chordal", 300), ("grow_lhf", 100), ("grow_lhf", 200), ("grow_lhf", 300)],
)
def test_matches_networkx_tree_decomposition_at_n_100_to_300(family, n):
    # far beyond the subset oracles: the canonical witness decoded from a
    # subset DP over networkx's min-fill-in tree decomposition
    pytest.importorskip("networkx")
    rng = random.Random(f"td:{family}:{n}")
    g = random_chordal(n, 2 * n, rng)
    if family == "grow_lhf":
        g = grow_lhf(g, n // 2, rng)
    g = random_weights(g, rng, "skew")
    res = solve_mwis(g)
    assert (res.weight, res.mask) == _canonical_by_oracle(g, tree_decomposition_mwis)


def test_solve_bt_rejects_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(PreconditionError):
        solve_bt(g, [], [], [1] * g.n)


def test_solve_mwis_edgeless():
    res = solve_mwis(Graph(3, [], weights=[1, 2, 3]))
    assert res.weight == 6 and res.vertices == (0, 1, 2)


def test_solve_mwis_disjoint_union():
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)])
    res = solve_mwis(g)
    assert res.weight == 3


def test_solve_mwis_zero_weight_vertex_excluded():
    res = solve_mwis(Graph(1, [], weights=[0]))
    assert res.weight == 0 and res.vertices == ()


def test_brute_examples():
    assert brute_force_mwis(cycle_graph(5)).weight == 2
    assert brute_force_mwis(complete_graph(4).with_weights([1, 2, 3, 4])).weight == 4
    assert brute_force_mwis(cycle_graph(6)).weight == 3


def test_brute_canonical_witness_matches_subset_scan():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = er_graph(n, rng.random(), rng).with_weights(
            [rng.choice([0, 1, 2, 3, 5]) for _ in range(n)]
        )
        expect = exhaustive_mwis(g)
        got = brute_force_mwis(g)
        assert (got.weight, got.vertices) == expect


def test_decode_round_trip_at_n_above_200():
    rng = random.Random(41)
    n = 211
    g = Graph(n, weights=[Fraction(rng.randint(0, 9), rng.choice([1, 3, 10])) for _ in range(n)])
    scale, w = perturbed_weights(g)
    positive = mask_of(v for v in range(n) if g.weights[v])
    masks = [0, g.full_mask, 1, 1 << (n - 1), *(rng.getrandbits(n) for _ in range(40))]
    for mask in masks:
        value = sum(w[v] for v in iter_bits(mask))
        # zero-weight vertices carry no bonus, so they drop out of the witness
        assert decode(n, scale, value) == (g.weight_of(mask), mask & positive)


def test_brute_limit():
    with pytest.raises(OracleLimitError):
        brute_force_mwis(Graph(21), limit=20)


def test_engine_matches_oracle(random_corpus_12):
    for g in random_corpus_12[:80]:
        assert solve_mwis(g).weight == brute_force_mwis(g).weight


def test_witness_is_always_independent(random_corpus_12):
    for g in random_corpus_12[:40]:
        res = solve_mwis(g)
        assert g.is_independent(res.mask)
        assert g.weight_of(res.mask) == res.weight


def test_monotone_under_isolated_vertex():
    rng = random.Random(32)
    for _ in range(15):
        n = rng.randint(2, 9)
        g = er_graph(n, 0.4, rng).with_weights([rng.randint(1, 9) for _ in range(n)])
        w = Fraction(rng.randint(1, 7))
        g2 = Graph(n + 1, g.edges(), list(g.weights) + [w])
        assert solve_mwis(g2).weight == solve_mwis(g).weight + w


def test_scale_equivariance():
    rng = random.Random(33)
    for _ in range(15):
        n = rng.randint(2, 9)
        g = er_graph(n, 0.5, rng).with_weights([rng.randint(1, 9) for _ in range(n)])
        res = solve_mwis(g)
        scaled = solve_mwis(g.with_weights([w * 7 for w in g.weights]))
        assert scaled.weight == res.weight * 7
        assert scaled.vertices == res.vertices


def test_chordal_dual_route(chordal_corpus_50):
    from holefree.recognition import clique_tree
    from holefree.solvers import solve_treewidth_dp

    for g in chordal_corpus_50[:20]:
        assert solve_mwis(g).weight == solve_treewidth_dp(g, clique_tree(g)).weight


def test_determinism_same_bytes():
    g = prism_graph(3).with_weights([2, 1, 1, 1, 2, 2])
    a = solve_mwis(g)
    b = solve_mwis(g)
    assert (a.weight, a.vertices) == (b.weight, b.vertices)


def test_capacity_cap_propagates():
    g = prism_graph(5)
    with pytest.raises(CapacityExceededError):
        solve_mwis(g, SolveConfig(cap_seps=5))
