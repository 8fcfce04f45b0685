"""Minimal separators: analysis, enumeration vs oracle, cover witnesses."""

import random

import pytest

from holefree.bits import iter_bits, mask_of, to_tuple
from holefree.errors import CapacityExceededError, OracleLimitError, PreconditionError
from holefree.families import er_graph, prism_graph, random_chordal
from holefree import separators
from holefree.graph import Graph
from holefree.recognition import largest_prism
from holefree.separators import (
    analyze_separator,
    enumerate_minimal_separators,
    prefix_separators,
)

from oracles import (
    brute_force_minimal_separators,
    c4,
    complete_graph,
    component_cover_witness,
    excess_full,
    p4,
    reference_minimal_separators,
)


def test_analyze_c4():
    s = analyze_separator(c4(), mask_of([0, 2]))
    assert s.components == (1 << 1, 1 << 3)
    assert s.full == (0, 1) and s.is_minimal and excess_full(s) == 1


def test_analyze_p4_endpoint():
    s = analyze_separator(p4(), 1 << 0)
    assert len(s.components) == 1 and not s.is_minimal and excess_full(s) == 0


def test_analyze_prism_mixed_set_is_minimal():
    # {a1, b2, b3} is one of the mixed sets, hence a minimal separator
    s = analyze_separator(prism_graph(3), mask_of([0, 4, 5]))
    assert s.is_minimal and len(s.full) == 2


def test_analyze_prism_matched_pair_not_minimal():
    # a set containing a matched pair leaves only one full component
    s = analyze_separator(prism_graph(3), mask_of([0, 3, 4]))
    assert not s.is_minimal and len(s.full) == 1


def test_enumerate_p4():
    seps = enumerate_minimal_separators(p4())
    assert [s.set for s in seps] == [1 << 1, 1 << 2]


def test_enumerate_c4():
    seps = enumerate_minimal_separators(c4())
    assert [to_tuple(s.set) for s in seps] == [(0, 2), (1, 3)]


def test_prism_separator_count_small():
    for k in (2, 3, 4, 5):
        seps = enumerate_minimal_separators(prism_graph(k))
        assert len(seps) == 2**k - 2


def test_prism_separators_are_the_mixed_sets():
    k = 3
    seps = {s.set for s in enumerate_minimal_separators(prism_graph(k))}
    mixed = set()
    for j in range(1, 2**k - 1):
        m = 0
        for i in range(k):
            m |= (1 << i) if j >> i & 1 else (1 << (k + i))
        mixed.add(m)
    assert seps == mixed


def test_enumeration_matches_bruteforce(random_corpus_12):
    for g in random_corpus_12[:60]:
        enum = {s.set for s in enumerate_minimal_separators(g)}
        brute = {s.set for s in brute_force_minimal_separators(g)}
        assert enum == brute


def test_every_emitted_separator_has_two_full_components(random_corpus_12):
    rng = random.Random(4070)
    corpus = random_corpus_12[:30] + [prism_graph(k) for k in range(3, 9)]
    corpus += [random_chordal(n, 3 * n, rng) for n in (40, 70)]
    for g in corpus:
        for s in enumerate_minimal_separators(g):
            assert len(s.full) >= 2
            assert s == analyze_separator(g, s.set)


def test_bruteforce_k4_empty():
    assert brute_force_minimal_separators(complete_graph(4)) == []


def test_bruteforce_2prism_is_c4():
    assert len(brute_force_minimal_separators(prism_graph(2))) == 2**2 - 2


def test_capacity_cap_trips():
    # a trip happens iff |Δ| > cap, always at count cap + 1, so the
    # visiting order cannot show in it
    rng = random.Random(1212)
    corpus = [prism_graph(4), prism_graph(5)]
    corpus += [er_graph(rng.randint(8, 12), 0.3, rng) for _ in range(4)]
    for g in corpus:
        total = len(enumerate_minimal_separators(g))
        assert total >= 2
        for cap in range(1, total):
            with pytest.raises(CapacityExceededError) as err:
                enumerate_minimal_separators(g, cap=cap)
            assert str(err.value) == f"minimal separators: cap {cap} exceeded ({cap + 1} found so far)"
            assert err.value.count == cap + 1
        assert len(enumerate_minimal_separators(g, cap=total)) == total


def test_capacity_cap_counts_separators_found_elsewhere():
    # with ``counted`` more found elsewhere, a trip happens iff
    # counted + |Δ| > cap, still at count cap + 1, also when counted alone
    # uses the whole budget
    g = prism_graph(4)
    for counted in range(1, 15):
        with pytest.raises(CapacityExceededError) as err:
            enumerate_minimal_separators(g, cap=14, counted=counted)
        assert err.value.count == 15
    assert len(enumerate_minimal_separators(g, cap=17, counted=3)) == 14


def test_records_are_built_only_after_the_closure(monkeypatch):
    # a cap trip builds no separator record; a complete run builds one per
    # minimal separator
    built = 0
    real = separators._separator_of_component

    def counted(g, comp, sep):
        nonlocal built
        built += 1
        return real(g, comp, sep)

    monkeypatch.setattr(separators, "_separator_of_component", counted)
    with pytest.raises(CapacityExceededError) as err:
        enumerate_minimal_separators(prism_graph(13), cap=5000)
    assert err.value.count == 5001 and built == 0
    for g in (prism_graph(6), random_chordal(40, 120, random.Random(12))):
        built = 0
        seps = enumerate_minimal_separators(g)
        assert built == len(seps) > 0


def _spy_floods(monkeypatch) -> tuple[list[int], list[int]]:
    """Record every region flooded, and apart from that the closure's own
    ones: those of its kernel, ``separators._flood_region``.  The others
    are Graph.flood calls, by the record builder and the prefix chain."""
    every: list[int] = []
    closure: list[int] = []
    real_flood = Graph.flood
    real_kernel = separators._flood_region

    def flood(self, sub):
        every.append(sub)
        return real_flood(self, sub)

    def kernel(adj, tables, region, *rest):
        every.append(region)
        closure.append(region)
        return real_kernel(adj, tables, region, *rest)

    monkeypatch.setattr(Graph, "flood", flood)
    monkeypatch.setattr(separators, "_flood_region", kernel)
    return every, closure


def test_each_closure_floods_a_region_once(monkeypatch):
    every, closure = _spy_floods(monkeypatch)
    rng = random.Random(13)
    corpus = [prism_graph(k) for k in range(3, 9)]
    corpus += [er_graph(rng.randint(8, 14), rng.uniform(0.2, 0.5), rng) for _ in range(6)]
    corpus += [random_chordal(30, 60, rng)]
    # the prefix chain floods each component that holds the vertex it drops
    # once per level, however many separators share it: on the 8-prism once
    # per separator that avoids that vertex, 2^(k-1) - 1 of the 2^k - 2 at
    # each level (176 floods on the chordal graph and 96 on the ER graph
    # with n = 13 when each separator flooded its own)
    prefix_floods = {prism_graph(8): 254, corpus[10]: 85, corpus[12]: 132}
    assert (corpus[10].n, corpus[12].n) == (13, 30)
    for g in corpus:
        closure.clear()
        seps = enumerate_minimal_separators(g)
        assert len(closure) == len(set(closure)) > 0
        if g in prefix_floods:
            every.clear()
            prefix_separators(g, seps)
            assert len(every) == prefix_floods[g]


def test_cap_trip_cost(monkeypatch):
    # depth-first expansion that floods each region once reaches cap + 1
    # separators of the 13-prism in 6,768 floods (breadth-first order took
    # 34,648, and flooding every region 12,266); a complete run on the
    # 9-prism takes 1,531: 1,021 regions and a record for each of its 510
    # separators (5,118 when every region was flooded)
    every, closure = _spy_floods(monkeypatch)
    with pytest.raises(CapacityExceededError) as err:
        enumerate_minimal_separators(prism_graph(13), cap=5000)
    assert str(err.value) == "minimal separators: cap 5000 exceeded (5001 found so far)"
    assert len(every) == 6768
    every.clear()
    closure.clear()
    assert len(enumerate_minimal_separators(prism_graph(9))) == 510
    assert len(every) == 1531 and len(closure) == 1021


def _closure_outcome(closure, g, cap, counted=0):
    """The record list of one closure run, or its cap trip message."""
    try:
        return closure(g, cap=cap, counted=counted)
    except CapacityExceededError as err:
        return str(err)


def test_closure_matches_the_reference_on_prisms():
    # caps 0, |Δ| and |Δ| - 1 on the 2- to 12-prisms (|Δ| = 2^k - 2), and
    # the trip of the 13- to 16-prisms at the default cap
    for k in range(2, 17):
        g = prism_graph(k)
        d = 2**k - 2
        for cap in (0, d, d - 1) if k <= 12 else (5000,):
            got = _closure_outcome(enumerate_minimal_separators, g, cap)
            assert got == _closure_outcome(reference_minimal_separators, g, cap), (k, cap)
            assert (len(got) == d) if cap in (0, d) else got.endswith(f"({cap + 1} found so far)")


def test_closure_matches_the_reference_on_random_graphs():
    # with separators counted elsewhere: no cap, caps |Δ| and |Δ| - 1,
    # which trip before the last separator, and the same shifted by
    # ``counted``, which run complete or trip at the last one
    rng = random.Random(2800)
    trips = 0
    for _ in range(300):
        g = er_graph(rng.randint(1, 16), rng.uniform(0.1, 0.6), rng)
        d = len(reference_minimal_separators(g))
        counted = rng.randint(1, 4)
        for cap in {0, d, max(d - 1, 0), counted + d, counted + d - 1}:
            got = _closure_outcome(enumerate_minimal_separators, g, cap, counted)
            assert got == _closure_outcome(reference_minimal_separators, g, cap, counted)
            trips += isinstance(got, str)
    assert trips > 300


def test_closure_matches_the_reference_on_the_fallback_er_graphs():
    # the ER graphs of the benchmark's fallback workload (slots 20-22,
    # n = 50 / 55 / 60, p = 0.08) trip the default cap at the same count
    for seed in (1, 2):
        for slot, n in ((20, 50), (21, 55), (22, 60)):
            g = er_graph(n, 0.08, random.Random(f"fallback:{seed}:{slot}"))
            got = _closure_outcome(enumerate_minimal_separators, g, 5000)
            assert got == "minimal separators: cap 5000 exceeded (5001 found so far)"
            assert got == _closure_outcome(reference_minimal_separators, g, 5000)


def test_oracle_limit():
    with pytest.raises(OracleLimitError):
        brute_force_minimal_separators(er_graph(15, 0.4, random.Random(0)), limit=14)


def test_oracle_limit_override():
    g = er_graph(15, 0.2, random.Random(1))
    assert brute_force_minimal_separators(g, limit=15)


def test_separator_count_bound_when_prisms_small(lhf_corpus_14):
    # long-hole-free and (k0+1)-prism-free: separator count <= n^(k0+3)
    for g in lhf_corpus_14[:25]:
        k0 = largest_prism(g, 6)
        count = len(enumerate_minimal_separators(g))
        assert count <= g.n ** (k0 + 3)


# -- component cover witness --------------------------------------------------

def test_witness_c4_single_vertex_component():
    g = c4()
    s = analyze_separator(g, mask_of([1, 3]))
    idx = s.components.index(1 << 0)
    z = component_cover_witness(g, s, idx, 0)
    assert z == 1 << 0


def test_witness_star_plus_apex():
    # star center 0 with leaves 1,2,3 plus apex 4 adjacent to the leaves
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    s = analyze_separator(g, mask_of([1, 2, 3]))
    assert s.is_minimal
    idx = s.components.index(1 << 0)
    z = component_cover_witness(g, s, idx, 0)
    assert z == 1 << 0  # the center alone sees every leaf


def test_witness_precondition_violations():
    g = p4()
    s = analyze_separator(g, 1 << 0)  # endpoint: only one full component
    with pytest.raises(PreconditionError):
        component_cover_witness(g, s, 0, 1)
    s2 = analyze_separator(g, 1 << 1)
    with pytest.raises(PreconditionError):
        component_cover_witness(g, s2, 0, 3)  # vertex outside the component


def test_witness_properties_on_lhf_corpus(lhf_corpus_12):
    for g in lhf_corpus_12[:20]:
        bound = largest_prism(g, 6) + 1
        for s in enumerate_minimal_separators(g):
            for idx in s.full:
                comp = s.components[idx]
                for v in iter_bits(comp):
                    subs = g.components(comp & ~(1 << v))
                    if any(s.set & ~g.neighborhood(x) == 0 for x in subs):
                        continue  # precondition absent for this v
                    z = component_cover_witness(g, s, idx, v, size_bound=bound)
                    assert z >> v & 1
                    assert z & ~(comp & (g.adj[v] | (1 << v))) == 0
                    assert s.set & ~g.neighborhood(z) == 0
                    assert z.bit_count() <= bound
