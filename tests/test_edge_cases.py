"""Degenerate inputs and oracle size limits."""

import random

from holefree.engine import brute_force_mwis, solve_mwis
from holefree.families import er_graph, prism_graph
from holefree.graph import Graph, emit_graph, parse_graph
from holefree.recognition import find_long_hole, is_chordal
from holefree.solvers import build_tree_decomposition, solve_subexp1, solve_subexp2


def test_empty_graph_roundtrip_and_solve():
    g = Graph(0)
    assert parse_graph(emit_graph(g)) == g
    assert solve_mwis(g).weight == 0
    assert brute_force_mwis(g).vertices == ()
    assert find_long_hole(g) is None
    assert is_chordal(g).chordal
    td = build_tree_decomposition(g)
    td.validate(g)


def test_single_vertex():
    g = Graph(1, [], weights=[7])
    assert solve_mwis(g).vertices == (0,)
    assert solve_subexp1(g).weight == 7
    assert solve_subexp2(g).weight == 7


def test_brute_limit_override():
    g = er_graph(22, 0.5, random.Random(9))
    res = brute_force_mwis(g, limit=22)
    assert g.is_independent(res.mask)


def test_branching_witnesses_map_back():
    # a large prism is hostile to the uncapped pipeline (exponentially many
    # separators) but easy for both branching drivers; the optimum is the
    # best single vertex or nonadjacent cross pair, computed directly here
    rng = random.Random(10)
    k = 13
    g = prism_graph(k).with_weights([rng.randint(1, 9) for _ in range(2 * k)])
    expected = max(
        max(g.weights),
        max(g.weights[i] + g.weights[k + j] for i in range(k) for j in range(k) if i != j),
    )
    for res in (solve_subexp1(g), solve_subexp2(g)):
        assert g.is_independent(res.mask)
        assert g.weight_of(res.mask) == res.weight == expected


def test_two_isolated_vertices_have_empty_separator():
    from holefree.separators import enumerate_minimal_separators

    g = Graph(2)
    seps = enumerate_minimal_separators(g)
    assert [s.set for s in seps] == [0]
    assert seps[0].is_minimal  # both singletons are full for the empty set
