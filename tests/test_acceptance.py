"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
All tolerances and counts are pinned here; corpora come from conftest.
"""

import random
import time
from itertools import combinations

from holefree.bits import iter_bits, mask_of, to_tuple
from holefree.engine import brute_force_mwis, solve_mwis
from holefree.families import grow_lhf, prism_graph, random_chordal, random_weights
from holefree.pmc import (
    dominate_pmc,
    enumerate_pmcs,
    find_covering_component,
    find_separator_cover_pair,
)
from holefree.recognition import find_k_prism, find_long_hole, largest_prism
from holefree.separators import enumerate_minimal_separators
from holefree.solvers import balanced_separator, solve, solve_kprism_alg

from oracles import brute_force_minimal_separators, brute_force_pmcs, component_cover_witness

WEIGHT_STYLES = ("unit", "int", "decimal", "skew", "zeros")


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok


def test_criterion_1_prism_separator_law():
    t0 = time.perf_counter()
    counts = {}
    for k in range(2, 11):
        counts[k] = len(enumerate_minimal_separators(prism_graph(k)))
    elapsed = time.perf_counter() - t0
    ok = all(counts[k] == 2**k - 2 for k in range(2, 11)) and elapsed < 10.0
    _verdict(
        1, ok, f"k-prism counts equal 2^k-2 for k=2..10 in {elapsed:.2f}s (<10s)"
    )


def test_criterion_2_separator_oracle_equivalence(random_corpus_12):
    mismatches = 0
    for g in random_corpus_12:
        enum = {s.set for s in enumerate_minimal_separators(g)}
        brute = {s.set for s in brute_force_minimal_separators(g)}
        if enum != brute:
            mismatches += 1
    _verdict(
        2,
        mismatches == 0,
        f"separator enumeration equals brute force on {len(random_corpus_12)} "
        f"graphs, {mismatches} mismatches",
    )


def test_criterion_3_pmc_oracle_equivalence(random_corpus_12, chordal_corpus_50):
    from holefree.recognition import clique_tree

    mismatches = 0
    for g in random_corpus_12:
        inc = {p.set for p in enumerate_pmcs(g, enumerate_minimal_separators(g))}
        brute = {p.set for p in brute_force_pmcs(g)}
        if inc != brute:
            mismatches += 1
    bag_mismatches = 0
    for g in chordal_corpus_50:
        pmcs = {p.set for p in enumerate_pmcs(g, enumerate_minimal_separators(g))}
        if pmcs != set(clique_tree(g).bags):
            bag_mismatches += 1
    _verdict(
        3,
        mismatches == 0 and bag_mismatches == 0,
        f"incremental PMCs equal the subset oracle on {len(random_corpus_12)} graphs "
        f"({mismatches} mismatches); chordal PMCs equal clique-tree bags on "
        f"{len(chordal_corpus_50)} instances ({bag_mismatches} mismatches)",
    )


def test_criterion_4_separator_count_bound(lhf_corpus_14):
    violations = 0
    for g in lhf_corpus_14:
        assert find_long_hole(g) is None
        k0 = largest_prism(g, 6)
        free_k = k0 + 1  # the instance is (k0+1)-prism-free
        if len(enumerate_minimal_separators(g)) > g.n ** (free_k + 2):
            violations += 1
    _verdict(
        4,
        violations == 0,
        f"separator count within n^(k+2) on {len(lhf_corpus_14)} certified "
        f"instances, {violations} violations",
    )


def test_criterion_5_engine_exactness(random_corpus_14, lhf_corpus_16):
    t0 = time.perf_counter()
    mismatches = 0
    for g in list(random_corpus_14) + list(lhf_corpus_16):
        res = solve_mwis(g)
        oracle = brute_force_mwis(g)
        if res.weight != oracle.weight or not g.is_independent(res.mask):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 300.0
    _verdict(
        5,
        ok,
        f"engine equals oracle on {len(random_corpus_14)} random + "
        f"{len(lhf_corpus_16)} certified instances in {elapsed:.1f}s (<300s), "
        f"{mismatches} mismatches",
    )


def test_criterion_6_three_domination(lhf_corpus_12):
    fallbacks = 0
    oversize = 0
    pmcs_seen = 0
    for g in lhf_corpus_12:
        for p in enumerate_pmcs(g, enumerate_minimal_separators(g)):
            pmcs_seen += 1
            dom = dominate_pmc(g, p)
            if dom.method == "brute-fallback":
                fallbacks += 1
            if len(dom.z) > 3:
                oversize += 1
    _verdict(
        6,
        fallbacks == 0 and oversize == 0,
        f"{pmcs_seen} PMCs dominated with |Z|<=3, {fallbacks} fallbacks",
    )


def test_criterion_7_balanced_separators(lhf_corpus_16):
    rng = random.Random(7007)
    instances = 0
    violations = 0
    for g in lhf_corpus_16:
        if not g.is_connected():
            continue
        if instances >= 100:
            break
        instances += 1
        for style in WEIGHT_STYLES:
            h = random_weights(g, rng, style)
            if h.total_weight() == 0:
                continue
            res = balanced_separator(h)
            bound = 3 * (h.max_degree() + 1)
            half = h.total_weight() / 2
            if res.degraded or res.separator.bit_count() > bound:
                violations += 1
            for comp in h.components(h.full_mask & ~res.separator):
                if h.weight_of(comp) > half:
                    violations += 1
    # corpus holds fewer than 100 connected graphs; cover the difference
    while instances < 100:
        instances += 1
        g = grow_lhf(random_chordal(12, 24, rng), 3, rng)
        assert find_long_hole(g) is None
        for style in WEIGHT_STYLES:
            h = random_weights(g, rng, style)
            if h.total_weight() == 0 or not h.is_connected():
                continue
            res = balanced_separator(h)
            bound = 3 * (h.max_degree() + 1)
            half = h.total_weight() / 2
            if res.degraded or res.separator.bit_count() > bound:
                violations += 1
            for comp in h.components(h.full_mask & ~res.separator):
                if h.weight_of(comp) > half:
                    violations += 1
    _verdict(
        7,
        violations == 0,
        f"balanced separators within 3*(max degree+1) and half-weight on "
        f"{instances} instances x {len(WEIGHT_STYLES)} weight functions, "
        f"{violations} violations",
    )


def test_criterion_8_lemma_suite(lhf_corpus_10):
    failures = 0
    checks = 0
    for g in lhf_corpus_10:
        seps = enumerate_minimal_separators(g)
        pmcs = enumerate_pmcs(g, seps)
        kbound = largest_prism(g, 6) + 1
        for s in seps:
            members = to_tuple(s.set)
            # independent subsets of S are dominated from each full component
            for idx in s.full:
                comp = s.components[idx]
                for r in range(1, len(members) + 1):
                    for sub in combinations(members, r):
                        m = mask_of(sub)
                        if not g.is_independent(m):
                            continue
                        checks += 1
                        if not any(m & ~g.adj[a] == 0 for a in iter_bits(comp)):
                            failures += 1
            # anchored cover pairs across full components
            for ai in s.full:
                for bi in s.full:
                    if ai >= bi:
                        continue
                    for x in iter_bits(s.set):
                        checks += 1
                        try:
                            find_separator_cover_pair(g, s, ai, bi, x)
                        except Exception:
                            failures += 1
            # bounded witness inside each full component
            for idx in s.full:
                comp = s.components[idx]
                for v in iter_bits(comp):
                    subs = g.components(comp & ~(1 << v))
                    if any(s.set & ~g.neighborhood(x) == 0 for x in subs):
                        continue
                    checks += 1
                    try:
                        component_cover_witness(g, s, idx, v, size_bound=kbound)
                    except Exception:
                        failures += 1
        # covering components inside each PMC
        for p in pmcs:
            members = to_tuple(p.set)
            for v in iter_bits(p.set):
                missing = p.set & ~g.adj[v]
                if missing == 1 << v:
                    continue  # v dominates the PMC; dominate_pmc never asks
                checks += 1
                try:
                    comp = find_covering_component(p, missing)
                    if missing & ~g.neighborhood(comp):
                        failures += 1
                except Exception:
                    failures += 1
            for r in range(2, len(members) + 1):
                for sub in combinations(members, r):
                    m = mask_of(sub)
                    if not g.is_independent(m):
                        continue
                    checks += 1
                    try:
                        if m & ~g.neighborhood(find_covering_component(p, m)):
                            failures += 1
                    except Exception:
                        failures += 1
    _verdict(
        8,
        failures == 0,
        f"lemma suite: {checks} exhaustive witness checks, {failures} failures",
    )


def test_criterion_9_cross_solver_agreement(lhf_corpus_14, random_corpus_12):
    corpus = list(lhf_corpus_14) + list(random_corpus_12)[:40]
    disagreements = 0
    for g in corpus:
        results = [solve(g, strategy=s) for s in ("bt", "subexp1", "subexp2", "brute")]
        if len({(r.weight, r.vertices) for r in results}) != 1:
            disagreements += 1
    _verdict(
        9,
        disagreements == 0,
        f"bt/subexp1/subexp2/brute witnesses agree on {len(corpus)} instances, "
        f"{disagreements} disagreements",
    )


def test_criterion_10_desk_scale_smoke():
    rng = random.Random(4040)
    base = random_chordal(40, 100, rng)
    g = grow_lhf(base, 12, rng, forbid_prism=3)
    assert find_long_hole(g) is None
    assert find_k_prism(g, 3) is None
    g = random_weights(g, rng, "int")
    t0 = time.perf_counter()
    res = solve_kprism_alg(g)  # raises on capacity-exceeded; none configured
    elapsed = time.perf_counter() - t0
    assert g.is_independent(res.mask)
    _verdict(
        10,
        True,
        f"n=40 certified instance solved (weight {res.weight}) in "
        f"{elapsed:.1f}s; soft target 120s",
    )
