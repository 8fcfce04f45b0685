"""Potential maximal cliques: testing, enumeration, blocks, domination."""

import functools
import random
from itertools import combinations

import pytest

import holefree.pmc
from holefree.bits import iter_bits, mask_of, to_tuple
from holefree.errors import CapacityExceededError, PreconditionError
from holefree.families import (
    er_graph,
    grow_lhf,
    prism_graph,
    random_chordal,
)
from holefree.graph import Graph
from holefree.pmc import (
    block_family,
    dominate_pmc,
    enumerate_pmcs,
    find_covering_component,
    find_separator_cover_pair,
    is_pmc,
    lift_pmc,
    lift_separator,
    may_be_pmc,
)
from holefree.recognition import clique_atoms, clique_tree, find_long_hole, is_chordal
from holefree.separators import (
    Separator,
    analyze_separator,
    enumerate_minimal_separators,
    prefix_separators,
)

from oracles import (
    atom_pmc_sets,
    brute_force_pmcs,
    c4,
    complete_bipartite,
    complete_graph,
    cover_of,
    naive_neighborhood,
    p4,
    reference_atoms,
    reference_certify_pmc,
    reference_pmcs,
)


def test_is_pmc_c4_triple():
    pmc = is_pmc(c4(), mask_of([0, 1, 2]))
    assert pmc is not None
    assert pmc.components == (1 << 3,)
    assert cover_of(pmc, 0, 2) == 0  # the nonedge is covered by component {3}


def test_is_pmc_k3_whole():
    assert is_pmc(complete_graph(3), 0b111) is not None


def test_is_pmc_c4_edge_fails_condition_one():
    g, cand = c4(), mask_of([0, 1])
    assert is_pmc(g, cand) is None and "whole set" in reference_certify_pmc(g, cand)[1]


def test_is_pmc_uncovered_nonedge():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # K4 minus (2, 3)
    cand = g.full_mask  # no component covers the nonedge
    assert is_pmc(g, cand) is None and "not covered" in reference_certify_pmc(g, cand)[1]


def _certify_cases():
    """Random graphs with n <= 12 and candidate sets: every subset when
    n <= 6, else random subsets, closed neighborhoods, minimal separators
    plus a vertex, and known PMCs."""
    rng = random.Random(61)
    for i in range(150):
        n = rng.randint(1, 12)
        g = er_graph(n, 0.1 + 0.8 * (i % 9) / 8, rng)
        cands = set(range(1 << n)) if n <= 6 else {0, g.full_mask}
        cands.update(rng.getrandbits(n) for _ in range(12))
        cands.update(g.adj[v] | (1 << v) for v in range(n))
        for s in enumerate_minimal_separators(g):
            cands.update(s.set | (1 << v) for v in range(n))
        cands.update(p.set for p in enumerate_pmcs(g, enumerate_minimal_separators(g)))
        for cand in sorted(cands):
            yield g, cand


def test_certify_matches_pairwise_reference():
    verdicts = {"pmc": 0, "fail": 0}
    for g, cand in _certify_cases():
        pmc = is_pmc(g, cand)
        ref, _ = reference_certify_pmc(g, cand)
        assert (pmc is None) == (ref is None)
        if ref is None:
            verdicts["fail"] += 1
            continue
        comps, covers = ref
        assert pmc.set == cand and pmc.components == comps
        assert pmc.neighborhoods == tuple(naive_neighborhood(g, c) for c in comps)
        for (x, y), idx in covers:
            assert cover_of(pmc, x, y) == idx == cover_of(pmc, y, x)
        verdicts["pmc"] += 1
    assert verdicts["pmc"] > 500 and verdicts["fail"] > 500


def test_enumerated_certificates_are_those_of_the_full_graph(random_corpus_12):
    graphs = [Graph(1), Graph(2), Graph(2, [(0, 1)]), *random_corpus_12[:40]]
    for g in graphs:
        pmcs = enumerate_pmcs(g, enumerate_minimal_separators(g))
        assert pmcs == [is_pmc(g, p.set) for p in pmcs]
    assert enumerate_pmcs(Graph(1), []) == [Separator(1, (), ())]


def test_enumerate_p4_chordal():
    g = p4()
    pmcs = enumerate_pmcs(g, enumerate_minimal_separators(g))
    assert [to_tuple(p.set) for p in pmcs] == [(0, 1), (1, 2), (2, 3)]


def test_enumerate_c4_four_triples():
    g = c4()
    expected = {p.set for p in brute_force_pmcs(g)}
    assert expected == {
        mask_of([0, 1, 2]),
        mask_of([1, 2, 3]),
        mask_of([0, 2, 3]),
        mask_of([0, 1, 3]),
    }
    got = {p.set for p in enumerate_pmcs(g, enumerate_minimal_separators(g))}
    assert got == expected


def test_enumerate_k4_single():
    g = complete_graph(4)
    pmcs = enumerate_pmcs(g, enumerate_minimal_separators(g))
    assert [p.set for p in pmcs] == [g.full_mask]


def test_incremental_matches_bruteforce(random_corpus_12):
    for g in random_corpus_12[:60]:
        inc = {p.set for p in enumerate_pmcs(g, enumerate_minimal_separators(g))}
        brute = {p.set for p in brute_force_pmcs(g)}
        assert inc == brute


def _incremental_sets(g):
    return [p.set for p in enumerate_pmcs(g, enumerate_minimal_separators(g))]


# vertex orders whose prefix graphs are disconnected or edgeless
EDGE_CASE_GRAPHS = {
    "edgeless": Graph(4),
    "isolated-first-and-last": Graph(7, [(1, 2), (2, 3), (3, 4), (4, 1), (2, 5)]),
    "c6-independent-half-first": Graph(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)]),
    "star-leaves-first": Graph(5, [(i, 4) for i in range(4)]),
    "two-paths-interleaved": Graph(6, [(0, 2), (2, 4), (1, 3), (3, 5)]),
    "k1,4": complete_bipartite(1, 4),
    "k2,3": complete_bipartite(2, 3),
    "k3,3": complete_bipartite(3, 3),
    "k3,4": complete_bipartite(3, 4),
    "prism3": prism_graph(3),
    "prism4": prism_graph(4),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASE_GRAPHS))
def test_incremental_edge_cases_match_bruteforce(name):
    g = EDGE_CASE_GRAPHS[name]
    got = enumerate_pmcs(g, enumerate_minimal_separators(g))
    assert got == brute_force_pmcs(g)


# -- the clique minimal separator decomposition --------------------------------


def _multi_atom_corpus():
    """200 ER graphs with n <= 13 and two or more atoms."""
    rng = random.Random(97)
    out = []
    while len(out) < 200:
        g = er_graph(rng.randint(2, 13), rng.uniform(0.1, 0.6), rng)
        if len(clique_atoms(g)[0]) > 1:
            out.append(g)
    return out


def test_atom_family_matches_bruteforce_on_multi_atom_graphs():
    # both the sweep of the whole graph and the families of its atoms
    disconnected = swept = 0
    for g in _multi_atom_corpus():
        seps = enumerate_minimal_separators(g)
        brute = brute_force_pmcs(g)
        assert enumerate_pmcs(g, seps) == brute, g.adj
        assert atom_pmc_sets(g) == [p.set for p in brute], g.adj
        disconnected += not g.is_connected()  # the empty set is a clique separator
        swept += any(not g.is_clique(a) for a, _ in clique_atoms(g)[0])
    assert disconnected > 50 and swept > 50


@functools.cache
def _lhf_and_chordal():
    """Chordal graphs with n = 20..100, and long-hole-free graphs grown
    from those with n <= 60 (growing is slow on larger ones)."""
    rng = random.Random(300)
    out = []
    for n in (20, 40, 60, 80, 100):
        chordal = random_chordal(n, rng.randint(n, 3 * n), rng)
        out.append(chordal)
        if n <= 60:
            out.append(grow_lhf(chordal, n // 2, rng, forbid_prism=3))
    return tuple(out)


def test_atom_family_matches_whole_graph_sweep():
    # the families of the atoms, certified on g, are the sweep's records of
    # the whole graph: the same sets, components and neighborhoods
    swept = 0
    for g in _lhf_and_chordal():
        seps = enumerate_minimal_separators(g)
        whole = sorted(enumerate_pmcs(g, seps), key=lambda p: to_tuple(p.set))
        assert [is_pmc(g, s) for s in atom_pmc_sets(g)] == whole, g.adj
        swept += sum(not g.is_clique(a) for a, _ in clique_atoms(g)[0])
    assert swept >= 10


def _assert_atom_laws(g):
    seps = enumerate_minimal_separators(g)
    pieces, chordal = clique_atoms(g)
    parts = [a for a, _ in pieces]
    assert sorted(parts) == sorted(reference_atoms(g, seps)), g.adj
    assert len(set(parts)) == len(parts)
    # the flag is the chordality verdict, and then every atom is a clique
    assert chordal == is_chordal(g).chordal, g.adj
    assert not chordal or all(g.is_clique(a) for a in parts), g.adj
    # split order: each parent separator is a clique inside a later atom,
    # and the root comes last with the empty one
    assert pieces[-1][1] == 0
    for i, (a, s) in enumerate(pieces[:-1]):
        assert s & ~a == 0 and g.is_clique(s), g.adj
        assert any(s & ~b == 0 for b, _ in pieces[i + 1 :]), g.adj
    for a in parts:
        assert not any(a != b and a & ~b == 0 for b in parts), g.adj
        h = g.induced(a)[0]
        assert not any(h.is_clique(s.set) for s in enumerate_minimal_separators(h)), g.adj
    for u, v in g.edges():
        need = 1 << u | 1 << v
        assert any(a & need == need for a in parts), (g.adj, u, v)
    assert all(any(a >> v & 1 for a in parts) for v in range(g.n))
    return parts


def test_atom_laws():
    graphs = [*_multi_atom_corpus(), *_lhf_and_chordal(), *EDGE_CASE_GRAPHS.values()]
    for g in graphs:
        _assert_atom_laws(g)
    for k in (3, 4, 5):
        assert _assert_atom_laws(prism_graph(k)) == [prism_graph(k).full_mask]


def test_chordal_atoms_are_networkx_maximal_cliques(chordal_corpus_50):
    nx = pytest.importorskip("networkx")
    graphs = [*chordal_corpus_50, *(g for g in _lhf_and_chordal() if is_chordal(g).chordal)]
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        cliques = sorted(mask_of(c) for c in nx.chordal_graph_cliques(h))
        assert sorted(_assert_atom_laws(g)) == cliques, g.adj


@pytest.mark.parametrize("n", [20, 30, 40])
def test_incremental_matches_reference_rule_on_lhf(n):
    rng = random.Random(n)
    for _ in range(2):
        chordal = random_chordal(n, rng.randint(n, 3 * n), rng)
        for g in (chordal, grow_lhf(chordal, rng.randint(1, n // 2), rng)):
            assert _incremental_sets(g) == reference_pmcs(g)


@pytest.mark.parametrize("k", [5, 6, 7])
def test_incremental_matches_reference_rule_on_prisms(k):
    g = prism_graph(k)
    assert _incremental_sets(g) == reference_pmcs(g)


# -- prefix steps: Δ(G_i) and the rule-1 certificates carried from G_{i-1} --


def _prefix_steps(g):
    """(G_i, Δ(G_i) read off Δ(g) by the prefix chain) for i = 1..n."""
    chain = prefix_separators(g, enumerate_minimal_separators(g))
    for i in range(1, g.n + 1):
        yield g.prefix(i), chain[i - 1]


def _assert_prefix_separators(g):
    for gi, seps in _prefix_steps(g):
        assert seps == enumerate_minimal_separators(gi), (g.adj, gi.n)


def _assert_rule_one_certificates(g):
    family = []
    for gi, seps in _prefix_steps(g):
        a = 1 << (gi.n - 1)
        for prev in family:
            expected = is_pmc(gi, prev.set) or is_pmc(gi, prev.set | a)
            assert expected is not None, (g.adj, gi.n, to_tuple(prev.set))
            assert lift_pmc(gi, prev) == expected, (g.adj, gi.n, to_tuple(prev.set))
        family = enumerate_pmcs(gi, seps)


def _assert_rule_two_certificates(g):
    """lift_separator gives is_pmc's verdict on S | a, with the same
    components and neighborhoods in order, for every S in Δ(G_{i-1}); the
    carried S are among them.  Returns the number of PMCs it accepted."""
    accepted = 0
    prev = []
    for gi, seps in _prefix_steps(g):
        a = 1 << (gi.n - 1)
        for old in prev:
            expected = is_pmc(gi, old.set | a)
            assert lift_separator(gi, old) == expected, (g.adj, gi.n, to_tuple(old.set))
            accepted += expected is not None
        prev = seps
    return accepted


# adjacency whose prefix G_3 is edgeless: Δ(G_4) = {∅, {3}}, both lifts of ∅,
# and both drop to ∅ in G_3
DISCONNECTED_PREFIX = Graph(4, [(0, 3), (1, 3)])


def test_prefix_separators_keep_both_lifts_of_one_separator():
    steps = list(_prefix_steps(DISCONNECTED_PREFIX))
    assert [s.set for s in steps[2][1]] == [0]
    assert [s.set for s in steps[3][1]] == [0, 1 << 3]
    _assert_prefix_separators(DISCONNECTED_PREFIX)


def _random_prefix_corpus():
    """320 ER graphs with n <= 14, sparse enough that many prefixes are
    disconnected, and the edge-case orders above."""
    rng = random.Random(53)
    graphs = [er_graph(rng.randint(1, 14), 0.05 + 0.9 * (i % 10) / 9, rng) for i in range(320)]
    return graphs + list(EDGE_CASE_GRAPHS.values()) + [DISCONNECTED_PREFIX]


def test_prefix_separators_match_enumeration_on_random_graphs():
    disconnected = 0
    for g in _random_prefix_corpus():
        _assert_prefix_separators(g)
        disconnected += sum(not g.prefix(i).is_connected() for i in range(2, g.n + 1))
    assert disconnected > 300


def test_rule_one_certificates_match_certify_on_random_graphs():
    for g in _random_prefix_corpus()[::4]:
        _assert_rule_one_certificates(g)


def test_rule_two_certificates_match_certify_on_random_graphs():
    assert sum(_assert_rule_two_certificates(g) for g in _random_prefix_corpus()) > 100


def test_sweep_never_tests_a_minimal_separator(monkeypatch):
    """A minimal separator is never a PMC, so the sweep must not spend a
    certificate on one; S | a is one for each minimal separator S that
    holds a."""
    calls = []
    real = holefree.pmc.cut_pmc

    def spy(g, sep, comp, x):
        calls.append((g, sep.set | x))
        return real(g, sep, comp, x)

    monkeypatch.setattr(holefree.pmc, "cut_pmc", spy)
    graphs = [*_lhf_graphs(20), *_lhf_graphs(30), prism_graph(5), *_random_prefix_corpus()[::4]]
    for g in graphs:
        enumerate_pmcs(g, enumerate_minimal_separators(g))
    monkeypatch.undo()
    assert len(calls) > 1000
    seps_of = {}
    for gi, cand in calls:
        if gi.adj not in seps_of:
            seps_of[gi.adj] = {s.set for s in enumerate_minimal_separators(gi)}
        assert cand not in seps_of[gi.adj], (gi.adj, to_tuple(cand))


def test_rule_three_pretest_keeps_every_pmc(random_corpus_12):
    """Ω = S | X with X = Ω - S inside a full component C of a minimal
    separator S: the adjacency pre-test of rule 3 must pass on every PMC."""
    checked = 0
    for g in random_corpus_12:
        seps = enumerate_minimal_separators(g)
        for pmc in brute_force_pmcs(g):
            for sep in seps:
                x = pmc.set & ~sep.set
                if sep.set & ~pmc.set or not x:
                    continue
                for idx in sep.full:
                    comp = sep.components[idx]
                    if x & ~comp == 0:
                        assert may_be_pmc(g.adj, pmc.set, x, comp & ~x), (g.adj, to_tuple(pmc.set))
                        checked += 1
    assert checked > 2000


@pytest.mark.parametrize("k", range(4, 9))
def test_sweep_floods_no_failing_candidate_on_prisms(monkeypatch, k):
    """On prisms the rule-3 pre-test rejects every candidate that is not a
    PMC, so every certificate that floods a component accepts."""
    verdicts = []
    real = holefree.pmc.cut_pmc

    def spy(g, sep, comp, x):
        pmc = real(g, sep, comp, x)
        verdicts.append(pmc is not None)
        return pmc

    monkeypatch.setattr(holefree.pmc, "cut_pmc", spy)
    g = prism_graph(k)
    enumerate_pmcs(g, enumerate_minimal_separators(g))
    assert len(verdicts) > 10 and all(verdicts)


def _lhf_graphs(n):
    rng = random.Random(n)
    chordal = random_chordal(n, rng.randint(n, 3 * n), rng)
    return chordal, grow_lhf(chordal, rng.randint(1, n // 2), rng)


@pytest.mark.parametrize("n", [20, 30, 40])
def test_prefix_steps_match_on_lhf(n):
    for g in _lhf_graphs(n):
        _assert_prefix_separators(g)
        _assert_rule_one_certificates(g)
    assert sum(_assert_rule_two_certificates(g) for g in _lhf_graphs(n)) > 0


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_prefix_steps_match_on_prisms(k):
    g = prism_graph(k)
    _assert_prefix_separators(g)
    _assert_rule_one_certificates(g)
    _assert_rule_two_certificates(g)


def test_pmc_cap_trips_at_a_prefix_step():
    # the 6-prism is one atom with 192 PMCs, and its prefix families pass
    # 80 at 81 PMCs, so a cap of 80 trips inside the sweep
    g = prism_graph(6)
    minseps = enumerate_minimal_separators(g)
    with pytest.raises(CapacityExceededError) as err:
        enumerate_pmcs(g, minseps, cap=80)
    assert str(err.value) == "potential maximal cliques: cap 80 exceeded (81 found so far)"
    assert len(enumerate_pmcs(g, minseps, cap=192)) == 192


def test_every_emitted_pmc_passes_test(random_corpus_12):
    for g in random_corpus_12[:25]:
        for p in enumerate_pmcs(g, enumerate_minimal_separators(g)):
            assert is_pmc(g, p.set) is not None


def test_pmc_components_are_full_blocks(random_corpus_12):
    # every component left by a PMC is a full component of its own neighborhood
    for g in random_corpus_12[:25]:
        for p in enumerate_pmcs(g, enumerate_minimal_separators(g)):
            for comp in p.components:
                sep = analyze_separator(g, g.neighborhood(comp))
                assert sep.is_minimal
                idx = sep.components.index(comp)
                assert idx in sep.full


def test_chordal_pmcs_equal_clique_tree_bags(chordal_corpus_50):
    for g in chordal_corpus_50[:20]:
        pmcs = {p.set for p in enumerate_pmcs(g, enumerate_minimal_separators(g))}
        assert pmcs == set(clique_tree(g).bags)


def test_block_family_c4():
    g = c4()
    blocks = block_family(enumerate_minimal_separators(g))
    assert sorted(d for d, _ in blocks) == [1 << 0, 1 << 1, 1 << 2, 1 << 3]
    assert blocks == [
        (1 << 1, mask_of([0, 2])),
        (1 << 3, mask_of([0, 2])),
        (1 << 0, mask_of([1, 3])),
        (1 << 2, mask_of([1, 3])),
    ]


def test_block_family_p4():
    g = p4()
    blocks = block_family(enumerate_minimal_separators(g))
    assert {d for d, _ in blocks} == {1 << 0, mask_of([2, 3]), mask_of([0, 1]), 1 << 3}
    assert set(blocks) == {
        (1 << 0, 1 << 1),
        (mask_of([2, 3]), 1 << 1),
        (mask_of([0, 1]), 1 << 2),
        (1 << 3, 1 << 2),
    }
    assert len(blocks) == 4


def test_block_family_k4_empty():
    g = complete_graph(4)
    assert block_family(enumerate_minimal_separators(g)) == []


def test_covering_component_c4():
    g = c4()
    pmc = is_pmc(g, mask_of([0, 1, 2]))
    assert find_covering_component(pmc, mask_of([0, 2])) == 1 << 3


def test_covering_component_requires_subset():
    g = c4()
    pmc = is_pmc(g, mask_of([0, 1, 2]))
    with pytest.raises(PreconditionError):
        find_covering_component(pmc, 1 << 3)


def test_covering_component_independent_sets(lhf_corpus_10):
    for g in lhf_corpus_10:
        for pmc in enumerate_pmcs(g, enumerate_minimal_separators(g)):
            members = to_tuple(pmc.set)
            for r in range(2, len(members) + 1):
                for sub in combinations(members, r):
                    m = mask_of(sub)
                    if not g.is_independent(m):
                        continue
                    comp = find_covering_component(pmc, m)
                    assert m & ~g.neighborhood(comp) == 0


def test_cover_pair_c4():
    g = c4()
    s = analyze_separator(g, mask_of([0, 2]))
    a_idx = s.components.index(1 << 1)
    b_idx = s.components.index(1 << 3)
    a, b = find_separator_cover_pair(g, s, a_idx, b_idx, 0)
    assert (a, b) == (1, 3)
    covered = (g.adj[0] | 1) | g.adj[a] | g.adj[b]
    assert s.set & ~covered == 0


def test_cover_pair_k23():
    g = complete_bipartite(2, 3)
    assert find_long_hole(g) is None  # K2,3 only has 4-cycles
    s = analyze_separator(g, mask_of([0, 1]))
    assert s.is_minimal
    a, b = find_separator_cover_pair(g, s, s.full[0], s.full[1], 0)
    assert a == 2 and b == 3


def test_cover_pair_sweep(lhf_corpus_10):
    for g in lhf_corpus_10:
        for s in enumerate_minimal_separators(g):
            for ai in s.full:
                for bi in s.full:
                    if ai == bi:
                        continue
                    for x in iter_bits(s.set):
                        a, b = find_separator_cover_pair(g, s, ai, bi, x)
                        covered = g.adj[x] | (1 << x) | g.adj[a] | g.adj[b]
                        assert s.set & ~covered == 0
                        assert (1 << a) & s.components[ai] and g.has_edge(x, a)
                        assert (1 << b) & s.components[bi] and g.has_edge(x, b)


def test_dominate_clique_is_single_vertex(chordal_corpus_50):
    for g in chordal_corpus_50[:10]:
        for p in enumerate_pmcs(g, enumerate_minimal_separators(g)):
            dom = dominate_pmc(g, p)
            assert dom.method == "single-vertex" and len(dom.z) == 1


def test_dominate_c4_triple_by_middle_vertex():
    g = c4()
    dom = dominate_pmc(g, is_pmc(g, mask_of([0, 1, 2])))
    assert dom.z == (1,) and dom.method == "single-vertex"


def test_dominate_prism_never_falls_back():
    g = prism_graph(3)
    for p in brute_force_pmcs(g):
        dom = dominate_pmc(g, p)
        assert len(dom.z) <= 3
        assert dom.method != "brute-fallback"
        covered = g.neighborhood(mask_of(dom.z), closed=True)
        assert p.set & ~covered == 0


def test_dominate_lhf_corpus(lhf_corpus_12):
    for g in lhf_corpus_12[:20]:
        for p in enumerate_pmcs(g, enumerate_minimal_separators(g)):
            dom = dominate_pmc(g, p)
            assert len(dom.z) <= 3 and dom.method != "brute-fallback"
            assert p.set & ~g.neighborhood(mask_of(dom.z), closed=True) == 0


def test_lemma_full_component_dominates_independent_subsets(lhf_corpus_10):
    # every independent subset of a minimal separator is seen from one
    # vertex of each full component
    for g in lhf_corpus_10:
        for s in enumerate_minimal_separators(g):
            members = to_tuple(s.set)
            for idx in s.full:
                comp = s.components[idx]
                for r in range(1, len(members) + 1):
                    for sub in combinations(members, r):
                        m = mask_of(sub)
                        if not g.is_independent(m):
                            continue
                        assert any(
                            m & ~g.adj[a] == 0 for a in iter_bits(comp)
                        )


def test_incomplete_separator_input_detected():
    g = c4()
    seps = enumerate_minimal_separators(g)
    with pytest.raises(PreconditionError):
        enumerate_pmcs(g, seps[:1])
