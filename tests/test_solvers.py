"""Top-level strategies: pipeline, branching drivers, balanced separators."""

import random
from fractions import Fraction

import pytest

import holefree.solvers as solvers
from holefree.bits import mask_of
from holefree.engine import SolveConfig, brute_force_mwis, solve_mwis
from holefree.errors import (
    CapacityExceededError,
    PreconditionError,
    SolverInvariantError,
    WidthLimitError,
)
from holefree.families import (
    er_graph,
    grow_lhf,
    prism_graph,
    random_chordal,
    WEIGHT_STYLES,
    random_weights,
)
from holefree.graph import Graph
from holefree.recognition import find_k_prism, find_long_hole
from holefree.solvers import (
    TreeDecomposition,
    balanced_separator,
    build_tree_decomposition,
    solve,
    solve_kprism_alg,
    solve_mwc_complement,
    solve_subexp1,
    solve_subexp2,
    solve_treewidth_dp,
)

from oracles import (
    complete_graph,
    cycle_graph,
    exhaustive_mwc,
    path_graph,
    reference_balanced_separator,
    star_graph,
)


# -- pipeline -----------------------------------------------------------------

def test_kprism_alg_c6():
    assert solve_kprism_alg(cycle_graph(6)).weight == 3


def test_kprism_alg_weighted_prism():
    g = prism_graph(3).with_weights([3, 1, 1, 1, 1, 3])
    assert solve_kprism_alg(g).weight == 6


def test_kprism_alg_certified_n30_vs_oracle():
    rng = random.Random(30)
    g = grow_lhf(random_chordal(30, 70, rng), 8, rng)
    assert find_long_hole(g) is None
    g = random_weights(g, rng, "int")
    res = solve_kprism_alg(g)
    oracle = brute_force_mwis(g, limit=30)
    assert res.weight == oracle.weight


# -- prism branching ----------------------------------------------------------

def test_subexp1_prism_unit():
    assert solve_subexp1(prism_graph(3)).weight == 2


def test_subexp1_c4():
    assert solve_subexp1(cycle_graph(4)).weight == 2


def test_subexp1_branches_on_large_prism():
    # prism of size sqrt(n) present: the driver must branch, stay exact
    g = prism_graph(13)  # n = 26 >= the brute floor, isqrt(26) = 5
    res = solve_subexp1(g)
    assert res.weight == 2
    assert res.stats.branches > 0


def test_subexp1_runs_the_pipeline_on_a_prism_free_residue():
    rng = random.Random(1)
    g = random_chordal(30, 60, rng)
    g = g.with_weights([rng.randint(0, 9) for _ in range(g.n)])
    assert find_k_prism(g, 5) is None  # so the first leaf is the pipeline
    got = solve_subexp1(g)
    want = solve_kprism_alg(g)
    assert (got.weight, got.vertices) == (want.weight, want.vertices)
    assert got.stats.branches == 0 and got.stats.pmcs > 0


def test_subexp1_oracle_sweep(lhf_corpus_16):
    # both strategies return the canonical witness, not just the weight
    for g in lhf_corpus_16[:25]:
        oracle = brute_force_mwis(g)
        td = build_tree_decomposition(g)
        for res in (solve_subexp1(g), solve_treewidth_dp(g, td)):
            assert (res.weight, res.vertices) == (oracle.weight, oracle.vertices)


def test_branching_witness_on_skew_13_prism():
    # n = 26 is above the brute floor, so subexp1 branches on a 5-prism
    g = random_weights(prism_graph(13), random.Random(1), "skew")
    oracle = brute_force_mwis(g, limit=26)
    for res in (solve_subexp1(g), solve_subexp2(g)):
        assert (res.weight, res.vertices) == (oracle.weight, oracle.vertices)


@pytest.mark.parametrize("delta", [1, -1, 1 << 40])
def test_subexp1_catches_a_faulty_leaf(monkeypatch, delta):
    # leaves return bare ints with no witness check of their own, so the
    # one check of the public call must catch an off leaf value
    best_brute = solvers.best_brute
    monkeypatch.setattr(solvers, "best_brute", lambda h, w, stats: best_brute(h, w, stats) + delta)
    with pytest.raises(SolverInvariantError):
        solve_subexp1(prism_graph(13))


def _lhf30():
    rng = random.Random(30)
    return random_weights(grow_lhf(random_chordal(30, 60, rng), 30, rng, forbid_prism=3), rng, "int")


@pytest.mark.parametrize("k, witness", [(13, (0, 14)), (16, (0, 17))])
def test_subexp1_branch_count_on_prisms(k, witness):
    res = solve_subexp1(prism_graph(k), SolveConfig(5000, 50000))
    assert (res.weight, res.vertices, res.stats.branches) == (2, witness, 31)


def test_subexp1_counts_the_pipeline_leaf():
    s = solve_subexp1(_lhf30(), SolveConfig(5000, 50000)).stats
    assert (s.minseps, s.pmcs, s.blocks, s.table_entries, s.branches) == (8, 11, 0, 0, 0)


# -- the separator cap counts the input -----------------------------------------

TRIP = "minimal separators: cap 5000 exceeded (5001 found so far)"


def _fallback_er(seed: int, slot: int) -> Graph:
    # the unweighted ER graph of the fallback benchmark workload's slot
    rng = random.Random(f"fallback:{seed}:{slot}")
    return er_graph({20: 50, 21: 55, 22: 60}[slot], 0.08, rng)


@pytest.mark.parametrize("style", WEIGHT_STYLES)
def test_separator_trip_does_not_depend_on_the_weights(style):
    # the cap counts the separators of each component as given, before any
    # reduction, so bt trips at 5001 on the 13- to 16-prisms and on the
    # fallback ER graphs whatever the weights; auto then solves the prisms
    # by subexp1 and re-raises the trip on the ER graphs
    rng = random.Random(style)
    cfg = SolveConfig(5000, 50000)
    for k in (13, 14, 15, 16):
        g = random_weights(prism_graph(k), rng, style)
        with pytest.raises(CapacityExceededError) as trip:
            solve(g, "bt", cfg)
        assert str(trip.value) == TRIP
        assert solve(g, "auto", cfg).strategy == "subexp1"
    for seed in (1, 2):
        for slot in (20, 21, 22):
            g = random_weights(_fallback_er(seed, slot), rng, style)
            for strategy in ("bt", "auto"):
                with pytest.raises(CapacityExceededError) as trip:
                    solve(g, strategy, cfg)
                assert str(trip.value) == TRIP


# -- balanced separators ------------------------------------------------------

def test_balanced_separator_p5():
    res = balanced_separator(path_graph(5))
    assert res.bag in (mask_of([1, 2]), mask_of([2, 3]))  # a middle edge
    assert len(res.z) == 1
    assert res.max_component_weight <= Fraction(5, 2)


def test_balanced_separator_star():
    res = balanced_separator(star_graph(5))
    assert res.bag.bit_count() == 2 and res.bag & 1  # center plus one leaf
    assert res.max_component_weight <= 3


def test_balanced_separator_c4():
    g = cycle_graph(4)
    res = balanced_separator(g)
    assert res.bag.bit_count() == 3 and len(res.z) == 1
    assert res.separator.bit_count() == 3 <= 3 * (g.max_degree() + 1)


def test_balanced_separator_preconditions():
    with pytest.raises(PreconditionError):
        balanced_separator(Graph(4, [(0, 1), (2, 3)]))  # disconnected
    with pytest.raises(PreconditionError):
        balanced_separator(Graph(2, [(0, 1)], weights=[0, 0]))  # zero total


def test_balanced_separator_properties(lhf_corpus_12):
    rng = random.Random(71)
    for g in lhf_corpus_12[:15]:
        if not g.is_connected():
            continue
        for style in ("unit", "int", "decimal"):
            h = random_weights(g, rng, style)
            if h.total_weight() == 0:
                continue
            res = balanced_separator(h)
            assert not res.degraded
            assert len(res.z) <= 3
            assert res.separator.bit_count() <= 3 * (h.max_degree() + 1)
            half = h.total_weight() / 2
            for comp in h.components(h.full_mask & ~res.separator):
                assert h.weight_of(comp) <= half


def test_balanced_separator_matches_the_bitwise_side_sums():
    # the one-pass side weights pick the bag, z, separator and component
    # weight that weighing both sides of each tree edge vertex by vertex did
    rng = random.Random(1515)
    corpus = []
    while len(corpus) < 60:
        g = er_graph(rng.randint(2, 30), rng.uniform(0.1, 0.6), rng)
        if g.is_connected():
            corpus.append(g)
    corpus = [random_weights(g, rng, style) for g in corpus for style in WEIGHT_STYLES]
    for n in (100, 300):
        base = random_chordal(n, 2 * n, random.Random(n))
        corpus.append(random_weights(base, rng, "int"))
        corpus.append(random_weights(grow_lhf(base, n, random.Random(n), forbid_prism=3), rng, "decimal"))
    checked = 0
    for g in corpus:
        if g.total_weight() == 0:
            continue
        assert balanced_separator(g) == reference_balanced_separator(g), g.adj
        checked += 1
    assert checked > 250


# -- tree decompositions ------------------------------------------------------

def test_build_td_p8_width_two():
    g = path_graph(8)
    td = build_tree_decomposition(g)
    td.validate(g)
    assert td.width <= 2


def test_build_td_c6_width_bound():
    g = cycle_graph(6)
    td = build_tree_decomposition(g)
    td.validate(g)
    assert td.width <= 3 * (g.max_degree() + 1) - 1


def test_build_td_k5_single_bag():
    td = build_tree_decomposition(complete_graph(5))
    assert td.width == 4 and len(td.bags) == 1


def test_build_td_valid_on_random_graphs():
    rng = random.Random(72)
    for _ in range(20):
        g = er_graph(rng.randint(1, 12), rng.random(), rng)
        td = build_tree_decomposition(g)
        td.validate(g)  # raises on any axiom violation


def test_build_td_width_metric_on_lhf(lhf_corpus_14):
    # engineering regression metric: small multiple of the separator bound
    for g in lhf_corpus_14[:20]:
        td = build_tree_decomposition(g)
        td.validate(g)
        assert td.width <= 9 * (g.max_degree() + 1)


@pytest.mark.parametrize(
    "bags, edges, message",
    [
        ((0b011, 0b110), (), "do not form a tree"),
        ((0b011, 0b110, 0b010, 0b100), ((0, 1), (1, 2), (2, 0)), "disconnected"),
        ((0b011,), (), "missing from every bag"),
        ((0b011, 0b100), ((0, 1),), r"edge \(1, 2\) is inside no bag"),
        ((0b011, 0b100, 0b110), ((0, 1), (1, 2)), "bags containing 1 are not connected"),
    ],
    ids=["edge-count", "cycle-and-unreached", "missing-vertex", "edge-in-no-bag", "split-holders"],
)
def test_validate_rejects_each_broken_axiom(bags, edges, message):
    with pytest.raises(SolverInvariantError, match=message):
        TreeDecomposition(bags, edges).validate(path_graph(3))


def test_treewidth_dp_p4_weighted():
    g = path_graph(4).with_weights([1, 5, 5, 1])
    td = TreeDecomposition(
        (mask_of([0, 1]), mask_of([1, 2]), mask_of([2, 3])), ((0, 1), (1, 2))
    )
    assert solve_treewidth_dp(g, td).weight == 6


def test_treewidth_dp_c4():
    g = cycle_graph(4)
    td = build_tree_decomposition(g)
    assert solve_treewidth_dp(g, td).weight == 2


def test_treewidth_dp_k4_single_bag():
    g = complete_graph(4).with_weights([1, 2, 3, 4])
    td = TreeDecomposition((g.full_mask,), ())
    assert solve_treewidth_dp(g, td).weight == 4


def test_treewidth_dp_bag_limit(monkeypatch):
    g = complete_graph(5)
    td = TreeDecomposition((g.full_mask,), ())
    monkeypatch.setattr(solvers, "BAG_LIMIT", 4)
    with pytest.raises(WidthLimitError):
        solve_treewidth_dp(g, td)


def test_treewidth_dp_random_sweep():
    rng = random.Random(73)
    for _ in range(25):
        n = rng.randint(2, 11)
        g = er_graph(n, rng.uniform(0.2, 0.7), rng).with_weights(
            [rng.randint(0, 9) for _ in range(n)]
        )
        td = build_tree_decomposition(g)
        assert solve_treewidth_dp(g, td).weight == brute_force_mwis(g).weight


# -- degree threshold driver --------------------------------------------------

def test_subexp2_star_branches_on_center():
    res = solve_subexp2(star_graph(8))
    assert res.weight == 8 and res.stats.branches > 0


def test_subexp2_c6():
    assert solve_subexp2(cycle_graph(6)).weight == 3


def test_subexp2_oracle_sweep(lhf_corpus_16):
    for g in lhf_corpus_16[:25]:
        oracle = brute_force_mwis(g)
        res = solve_subexp2(g)
        assert (res.weight, res.vertices) == (oracle.weight, oracle.vertices)


@pytest.mark.parametrize("seed, weight, entries", [(1, 119, 766), (2, 121, 1250), (3, 129, 858)])
def test_subexp2_counts_on_er35(seed, weight, entries):
    g = random_weights(er_graph(35, 0.08, random.Random(seed)), random.Random(seed), "int")
    res = solve_subexp2(g, SolveConfig(5000, 50000))
    assert (res.weight, res.stats.table_entries, res.stats.branches) == (weight, entries, 0)


def test_subexp2_counts_on_the_grown_lhf30():
    res = solve_subexp2(_lhf30(), SolveConfig(5000, 50000))
    assert (res.weight, res.stats.branches, res.stats.table_entries) == (77, 4, 304)


def test_subexp2_width_fallback_runs_the_pipeline():
    # a bag over the DP's limit goes to the pipeline under the caller's caps,
    # which trips here, instead of to an oracle that cannot take the graph
    rng = random.Random(60)
    g = random_weights(er_graph(60, 0.08, rng), rng, "int")
    with pytest.raises(CapacityExceededError):
        solve_subexp2(g, SolveConfig(5000, 50000))


# -- clique via complement ----------------------------------------------------

def test_mwc_prism_is_triangle():
    res = solve_mwc_complement(prism_graph(3))
    assert res.weight == 3
    assert solve_mwis(cycle_graph(6)).weight == 3  # complement of the 3-prism


def test_mwc_k4():
    res = solve_mwc_complement(complete_graph(4).with_weights([1, 2, 3, 4]))
    assert res.weight == 10 and res.vertices == (0, 1, 2, 3)


def test_mwc_c5():
    assert solve_mwc_complement(cycle_graph(5)).weight == 2


def test_mwc_matches_clique_oracle():
    rng = random.Random(74)
    for _ in range(25):
        n = rng.randint(2, 10)
        g = er_graph(n, rng.uniform(0.2, 0.8), rng).with_weights(
            [rng.randint(1, 9) for _ in range(n)]
        )
        res = solve_mwc_complement(g)
        assert res.weight == exhaustive_mwc(g)
        assert g.is_clique(res.mask)


# -- dispatch -----------------------------------------------------------------

def test_strategy_dispatch_agrees():
    rng = random.Random(75)
    for _ in range(10):
        n = rng.randint(4, 10)
        g = er_graph(n, 0.4, rng).with_weights([rng.randint(1, 9) for _ in range(n)])
        values = {
            solve(g, strategy=s).weight for s in ("bt", "subexp1", "subexp2", "brute", "auto")
        }
        assert len(values) == 1


def test_auto_falls_back_on_capacity():
    from holefree.engine import SolveConfig

    g = prism_graph(6)
    res = solve(g, strategy="auto", config=SolveConfig(cap_seps=10))
    assert res.weight == 2 and res.strategy == "subexp1"


def test_auto_reraises_when_the_fallback_would_rerun_the_pipeline(monkeypatch):
    # a prism-free graph too large for the oracle: prism branching would hand
    # it straight back to the pipeline and trip the same cap again
    import holefree.engine as engine
    from holefree.engine import SolveConfig
    from holefree.errors import CapacityExceededError
    from holefree.solvers import BRUTE_FLOOR

    g = er_graph(30, 0.15, random.Random(30))
    assert g.n >= BRUTE_FLOOR and find_k_prism(g, 5) is None
    config = SolveConfig(cap_seps=10)
    with pytest.raises(CapacityExceededError) as direct:
        solve(g, strategy="bt", config=config)

    calls = []
    original = engine.enumerate_minimal_separators

    def counted(*args, **kwargs):
        calls.append(args[0].n)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "enumerate_minimal_separators", counted)
    with pytest.raises(CapacityExceededError) as auto:
        solve(g, strategy="auto", config=config)
    assert len(calls) == 1
    assert str(auto.value) == str(direct.value)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        solve(cycle_graph(4), strategy="magic")


def test_solvers_handle_prism_freeness_certificates():
    g = prism_graph(4)
    assert find_long_hole(g) is None
    assert find_k_prism(g, 5) is None
