"""Recognition toolkit: long holes, prisms, chordality, triangulations."""

import random
from itertools import combinations

import pytest

from holefree.bits import mask_of
from holefree.errors import CapacityExceededError, PreconditionError
from holefree.families import (
    er_graph,
    prism_graph,
    grow_lhf,
    random_chordal,
)
from holefree import recognition
from holefree.graph import Graph
from holefree.recognition import (
    _mcs_m,
    clique_tree,
    find_k_prism,
    find_long_hole,
    is_chordal,
    is_induced_cycle,
    largest_prism,
    long_hole_through,
    minimal_triangulation,
)
from holefree.pmc import enumerate_pmcs
from holefree.separators import enumerate_minimal_separators

from oracles import (
    c4,
    complete_graph,
    cycle_graph,
    has_induced_cycle,
    minimal_fillins,
    path_graph,
    prism_exists_bruteforce,
    reference_clique_tree,
    reference_find_long_hole,
    reference_grow_lhf,
    reference_is_chordal,
    reference_mcs_order,
    reference_minimal_triangulation,
    star_graph,
)


# -- long holes ---------------------------------------------------------------

def test_long_hole_c5():
    hole = find_long_hole(cycle_graph(5))
    assert hole is not None and len(hole) == 5
    assert is_induced_cycle(cycle_graph(5), hole)


def test_long_hole_c4_none():
    assert find_long_hole(c4()) is None


def test_long_hole_prism_none():
    assert find_long_hole(prism_graph(3)) is None


def test_long_hole_matches_exhaustive_oracle():
    rng = random.Random(21)
    for _ in range(60):
        g = er_graph(rng.randint(4, 9), rng.uniform(0.2, 0.8), rng)
        found = find_long_hole(g)
        expect = has_induced_cycle(g, 5)
        assert (found is not None) == expect
        if found is not None:
            assert len(found) >= 5 and is_induced_cycle(g, found)


@pytest.mark.parametrize("n", [12, 24, 36])
def test_long_hole_through_new_edge_matches_full_search(n):
    """g is long-hole-free, so g + e has a long hole iff one passes
    through e, and the one-edge search finds it."""
    rng = random.Random(n)
    g = grow_lhf(random_chordal(n, 2 * n, rng), n, rng, forbid_prism=3)
    assert find_long_hole(g) is None
    found = 0
    for u, v in combinations(range(n), 2):
        if g.has_edge(u, v):
            continue
        h = g.with_edges([(u, v)])
        hole = long_hole_through(h, u, v)
        assert (hole is None) == (find_long_hole(h) is None), (u, v)
        if hole is not None:
            assert {u, v} <= set(hole) and is_induced_cycle(h, hole)
            found += 1
    assert found > 0


def test_grow_lhf_rejects_a_graph_with_a_long_hole():
    with pytest.raises(PreconditionError):
        grow_lhf(cycle_graph(5), 1, random.Random(0))


def test_grow_lhf_rejects_a_graph_with_the_forbidden_prism():
    with pytest.raises(PreconditionError, match="no 3-prism"):
        grow_lhf(prism_graph(3), 1, random.Random(0), forbid_prism=3)
    grow_lhf(prism_graph(3), 1, random.Random(0), forbid_prism=4)


@pytest.mark.parametrize("seed", [1, 2, 3, 17])
@pytest.mark.parametrize("forbid_prism", [None, 2, 3])
def test_grow_lhf_matches_the_whole_graph_loop(seed, forbid_prism):
    """The prism search on the ball around the new edge accepts exactly the
    edges that the search on the whole graph accepts."""
    for n in (12, 24, 36):
        base = random_chordal(n, 2 * n, random.Random(seed * n))
        got = grow_lhf(base, n, random.Random(seed), forbid_prism=forbid_prism)
        want = reference_grow_lhf(base, n, random.Random(seed), forbid_prism=forbid_prism)
        assert got == want, (seed, n)


def test_long_hole_deterministic():
    g = cycle_graph(7)
    assert find_long_hole(g) == find_long_hole(g)


def test_chordal_graphs_search_no_edge_and_no_prism(monkeypatch):
    """A chordal graph has no non-clique atom, so neither search runs."""
    g = random_chordal(300, 600, random.Random(3))
    calls = []
    monkeypatch.setattr(recognition, "long_hole_through", lambda *args: calls.append(args))
    monkeypatch.setattr(recognition, "find_k_prism", lambda *args: calls.append(args))
    assert find_long_hole(g) is None
    assert largest_prism(g, 4) == 1
    assert calls == []


def test_searches_see_only_the_atom_of_a_c5_hung_off_a_chordal_graph(monkeypatch):
    chordal = random_chordal(30, 60, random.Random(5))
    g = Graph(35, [*chordal.edges(), *((30 + i, 30 + (i + 1) % 5) for i in range(5)), (7, 32)])
    want = reference_find_long_hole(g)
    edges, prisms = [], []
    through, search = recognition.long_hole_through, recognition.find_k_prism

    def spy_through(h, x2, x3):
        edges.append((x2, x3))
        return through(h, x2, x3)

    def spy_search(h, k):
        prisms.append((h.adj, k))
        return search(h, k)

    monkeypatch.setattr(recognition, "long_hole_through", spy_through)
    monkeypatch.setattr(recognition, "find_k_prism", spy_search)
    assert find_long_hole(g) == want == (31, 30, 34, 33, 32)
    assert edges == [(30, 31)]
    assert largest_prism(g, 4) == 1
    assert prisms == [(cycle_graph(5).adj, 2)]


# -- prisms -------------------------------------------------------------------

def test_prism_finds_itself():
    w = find_k_prism(prism_graph(3), 3)
    assert w is not None and w.k == 3 and w.vertex_mask() == (1 << 6) - 1


def test_c6_has_no_2prism():
    g = cycle_graph(6)
    assert not prism_exists_bruteforce(g, 2)  # oracle: C6 has no induced C4
    assert find_k_prism(g, 2) is None


def test_k4_has_no_2prism():
    assert find_k_prism(complete_graph(4), 2) is None


def test_prism_matches_bruteforce():
    rng = random.Random(22)
    for _ in range(30):
        g = er_graph(rng.randint(4, 9), rng.uniform(0.3, 0.8), rng)
        for k in (1, 2, 3):
            assert (find_k_prism(g, k) is not None) == prism_exists_bruteforce(g, k)


def test_prism_matches_bruteforce_k4_n12():
    rng = random.Random(23)
    for _ in range(4):
        g = er_graph(12, 0.6, rng)
        assert (find_k_prism(g, 4) is not None) == prism_exists_bruteforce(g, 4)


def test_largest_prism_on_prisms():
    assert largest_prism(prism_graph(4), 6) == 4
    assert largest_prism(cycle_graph(6), 4) == 1  # an edge, nothing more


def test_prism_rejects_bad_k():
    with pytest.raises(ValueError):
        find_k_prism(c4(), 0)


# -- chordality ---------------------------------------------------------------

def test_tree_is_chordal():
    res = is_chordal(path_graph(6))
    assert res.chordal and res.elimination_order is not None


def test_c4_not_chordal_with_certificate():
    res = is_chordal(c4())
    assert not res.chordal and res.elimination_order is None


def test_c4_plus_diagonal_chordal():
    assert is_chordal(c4().with_edges([(0, 2)])).chordal


def _check_peo(g, order):
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = mask_of(u for u in range(g.n) if g.has_edge(u, v) and pos[u] > pos[v])
        assert g.is_clique(later)


def test_chordality_random_sweep():
    rng = random.Random(24)
    for _ in range(50):
        g = er_graph(rng.randint(3, 10), rng.uniform(0.2, 0.9), rng)
        res = is_chordal(g)
        assert res.chordal == (not has_induced_cycle(g, 4))
        if res.chordal:
            _check_peo(g, res.elimination_order)


# -- minimal triangulation ----------------------------------------------------

def test_triangulation_of_chordal_is_empty():
    assert minimal_triangulation(path_graph(5)) == ()
    assert minimal_triangulation(complete_graph(4)) == ()


def test_triangulation_c4_is_one_diagonal():
    fills = minimal_fillins(c4())  # oracle: both minimal fill-ins of C4
    assert fills == [(((0, 2)),), (((1, 3)),)]
    got = minimal_triangulation(c4())
    assert got in fills


def test_triangulation_c5_two_chords_sharing_endpoint():
    for fill in minimal_fillins(cycle_graph(5)):  # oracle over all fill-ins
        assert len(fill) == 2
        assert set(fill[0]) & set(fill[1])
    got = minimal_triangulation(cycle_graph(5))
    assert got in minimal_fillins(cycle_graph(5))


def test_triangulation_minimal_on_random_graphs():
    # MCS-M alone must give an inclusion-minimal fill of nonedges
    rng = random.Random(25)
    fills = 0
    for i in range(300):
        g = er_graph(rng.randint(4, 10 if i < 30 else 24), rng.uniform(0.1, 0.7), rng)
        fill = minimal_triangulation(g)
        assert not any(g.has_edge(u, v) for u, v in fill)
        h = g.with_edges(fill)
        assert is_chordal(h).chordal
        fills += len(fill)
        for skip in fill:
            rest = [e for e in fill if e != skip]
            assert not is_chordal(g.with_edges(rest)).chordal
    assert fills > 1000


def _networkx_graph(nx, g, extra=()):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    h.add_edges_from(extra)
    return h


def test_chordality_and_triangulation_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(30)
    chordal = 0
    for i in range(200):
        g = er_graph(rng.randint(1, 30), 0.02 + 0.9 * (i % 10) / 9, rng)
        res = is_chordal(g)
        assert res.chordal == nx.is_chordal(_networkx_graph(nx, g))
        chordal += res.chordal
        assert nx.is_chordal(_networkx_graph(nx, g, minimal_triangulation(g)))
    assert 20 < chordal < 180


def _assert_triangulations_against_networkx(nx, g, cap_seps=0):
    """minimal_triangulation's fill is chordal by networkx's test, and
    inclusion-minimal: removing any one fill edge uv breaks chordality,
    which for a chordal H holds iff two common neighbors of u and v are
    nonadjacent in H (Rose, Tarjan & Lueker, SIAM J. Comput. 1976).  The
    maximal cliques of both minimal triangulations, networkx's
    ``complete_to_chordal_graph`` and ours, are PMCs of g, so each must be
    in the enumerated family.  Returns False, checking no PMCs, when g has
    more than ``cap_seps`` minimal separators."""
    fill = minimal_triangulation(g)
    h = _networkx_graph(nx, g, fill)
    assert nx.is_chordal(h)
    for u, v in fill:
        common = set(h[u]) & set(h[v])
        assert any(not h.has_edge(x, y) for x, y in combinations(common, 2)), (g.adj, u, v)
    try:
        seps = enumerate_minimal_separators(g, cap=cap_seps)
    except CapacityExceededError:
        return False
    family = {p.set for p in enumerate_pmcs(g, seps)}
    completion, _ = nx.complete_to_chordal_graph(_networkx_graph(nx, g))
    cliques = {mask_of(c) for c in nx.chordal_graph_cliques(completion)}
    assert cliques <= family, g.adj
    assert set(clique_tree(g, fill).bags) <= family, g.adj
    return True


def test_triangulations_and_pmcs_against_networkx_completion():
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    checked = 0
    for i in range(200):
        g = er_graph(rng.randint(1, 30), 0.02 + 0.9 * (i % 10) / 9, rng)
        # dense-enough ER graphs have thousands of separators; past 200 only
        # the fill is checked, to keep the run short
        checked += _assert_triangulations_against_networkx(nx, g, cap_seps=200)
    assert checked > 150
    for n in (50, 75, 100):
        base = random_chordal(n, 2 * n, rng)
        assert _assert_triangulations_against_networkx(nx, grow_lhf(base, n // 5, rng))


# -- one MCS-M search against the reference searches ---------------------------

def _assert_mcs_m_matches_reference(g):
    fill = minimal_triangulation(g)
    assert fill == reference_minimal_triangulation(g), g.adj
    assert is_chordal(g) == reference_is_chordal(g), g.adj
    t = clique_tree(g, fill)
    assert (t.bags, t.edges) == reference_clique_tree(g, fill), g.adj
    return not fill


def test_mcs_m_matches_reference_on_small_graphs(random_corpus_12):
    rng = random.Random(40)
    er = [er_graph(rng.randint(1, 30), 0.02 + 0.9 * (i % 10) / 9, rng) for i in range(300)]
    prisms = [prism_graph(k) for k in range(1, 11)]
    cycles = [cycle_graph(k) for k in range(3, 13)]
    corpus = [*random_corpus_12, *er, Graph(0), *prisms, *cycles]
    chordal = sum(_assert_mcs_m_matches_reference(g) for g in corpus)
    assert 100 < chordal < 400


def test_mcs_m_matches_reference_on_chordal_and_lhf_graphs():
    for n in (10, 25, 50, 100, 200):
        assert _assert_mcs_m_matches_reference(random_chordal(n, 2 * n, random.Random(n)))
    for n in (50, 100):
        rng = random.Random(n)
        _assert_mcs_m_matches_reference(grow_lhf(random_chordal(n, 2 * n, rng), n // 5, rng))


def _union(*graphs: Graph) -> Graph:
    """The disjoint union, each graph's labels shifted past the ones before."""
    edges, shift = [], 0
    for g in graphs:
        edges += [(u + shift, v + shift) for u, v in g.edges()]
        shift += g.n
    return Graph(shift, edges)


def _random_tree(n: int, rng: random.Random) -> Graph:
    return Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])


def _chordal_corpus() -> list[Graph]:
    rng = random.Random(27)
    trees = [_random_tree(n, rng) for n in range(1, 40, 3)]
    trees += [path_graph(9), star_graph(7)]
    cliques = [complete_graph(k) for k in range(1, 9)]
    unions = [
        _union(complete_graph(3), path_graph(4)),
        _union(Graph(2), star_graph(3), complete_graph(4)),
        _union(random_chordal(12, 24, rng), _random_tree(8, rng), random_chordal(9, 14, rng)),
        _union(*(random_chordal(6, 9, rng) for _ in range(4))),
    ]
    return [Graph(0), *trees, *cliques, *unions]


def test_mcs_m_matches_reference_on_trees_cliques_and_unions():
    assert all(_assert_mcs_m_matches_reference(g) for g in _chordal_corpus())


def test_mcs_m_is_the_reference_mcs_order_on_large_chordal_graphs():
    # A chordal graph is its own minimal triangulation, so the reference
    # MCS-M, seconds per graph here, would pick the MCS order and fill nothing
    for n in (320, 640, 1280):
        g = random_chordal(n, 2 * n, random.Random(n))
        assert _mcs_m(g) == (reference_mcs_order(g), ())
        assert is_chordal(g) == reference_is_chordal(g)
        t = clique_tree(g)
        assert (t.bags, t.edges) == reference_clique_tree(g)


def _first_failed_pick(g: Graph) -> int | None:
    """The first step of the reference MCS order whose vertex has earlier
    neighbours that are not a clique."""
    numbered = 0
    for i, v in enumerate(reference_mcs_order(g)):
        if not g.is_clique(g.adj[v] & numbered):
            return i
        numbered |= 1 << v
    return None


def test_mcs_m_matches_reference_when_only_the_last_pick_fails():
    cycles = [cycle_graph(k) for k in range(4, 13)]
    # K_t minus the edge 0(t-1) with x = t hung on t - 1, plus the edge 0x:
    # MCS picks 0..t-1 and then x, whose earlier neighbours 0 and t-1 close
    # the 4-cycles x-0-j-(t-1)
    closed = []
    for t in range(4, 10):
        edges = [(u, v) for u, v in combinations(range(t), 2) if (u, v) != (0, t - 1)]
        closed.append(Graph(t + 1, edges + [(t - 1, t), (0, t)]))
    closed.append(random_chordal(13, 26, random.Random(13)).with_edges([(2, 11)]))
    for g in cycles + closed:
        assert _first_failed_pick(g) == g.n - 1, g.adj
        assert not _assert_mcs_m_matches_reference(g)
    for g in closed:
        assert minimal_triangulation(g) and has_induced_cycle(g, 4, 4)
        assert not has_induced_cycle(g, 5), g.adj


def test_mcs_m_grows_no_reach_set_on_chordal_graphs(monkeypatch):
    calls = []
    neighborhood = Graph.neighborhood

    def spy(self, sub, closed=False):
        calls.append(sub)
        return neighborhood(self, sub, closed)

    monkeypatch.setattr(Graph, "neighborhood", spy)
    chordal = _chordal_corpus() + [random_chordal(n, 2 * n, random.Random(n)) for n in (70, 320)]
    for g in chordal:
        assert not _mcs_m(g)[1]
    assert calls == []
    assert _mcs_m(cycle_graph(5))[1] and calls


# -- clique trees -------------------------------------------------------------

def test_clique_tree_p4():
    t = clique_tree(path_graph(4))
    assert list(t.bags) == [mask_of([0, 1]), mask_of([1, 2]), mask_of([2, 3])]
    assert len(t.edges) == 2


def test_clique_tree_c4_with_diagonal():
    t = clique_tree(c4(), (((0, 2)),))
    assert set(t.bags) == {mask_of([0, 1, 2]), mask_of([0, 2, 3])}
    assert len(t.edges) == 1


def test_clique_tree_k4_single_bag():
    t = clique_tree(complete_graph(4))
    assert t.bags == ((1 << 4) - 1,) and t.edges == ()


def test_clique_tree_joins_components_into_one_tree():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])  # vertex 5 is isolated
    t = clique_tree(g)
    assert len(t.bags) == 4 and len(t.edges) == 3
    t.validate(g)
    empty = clique_tree(Graph(0))
    assert (empty.bags, empty.edges) == ((0,), ())


def test_clique_tree_rejects_nonchordal():
    with pytest.raises(PreconditionError):
        clique_tree(c4())


def test_clique_tree_properties_random():
    rng = random.Random(26)
    for _ in range(25):
        g = random_chordal(rng.randint(3, 12), rng.randint(4, 24), rng)
        t = clique_tree(g)
        assert len(t.edges) == len(t.bags) - 1
        t.validate(g)
        for u, v in g.edges():
            need = (1 << u) | (1 << v)
            assert any(b & need == need for b in t.bags)
        for b in t.bags:  # bags are maximal cliques
            assert g.is_clique(b)
            assert not any(b & ~other == 0 for other in t.bags if other != b)


def test_clique_tree_bags_are_pmcs_for_chordal(chordal_corpus_50):
    from holefree.pmc import enumerate_pmcs
    from holefree.separators import enumerate_minimal_separators

    for g in chordal_corpus_50[:15]:
        bags = set(clique_tree(g).bags)
        pmcs = {p.set for p in enumerate_pmcs(g, enumerate_minimal_separators(g))}
        assert bags == pmcs
