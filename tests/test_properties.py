"""Property tests: incremental PMC enumeration against the subset scan, the
candidate law of the separator enumeration, the block family, and laws of
the file format and of the solver."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from holefree.bits import canonical_key, iter_bits, mask_of, to_tuple  # noqa: E402
from holefree.engine import (  # noqa: E402
    SolveConfig,
    atom_families,
    brute_force_mwis,
    decode,
    perturbed_weights,
    reduce_graph,
    solve_mwis,
)
from holefree.errors import NoDominationError  # noqa: E402
from holefree.families import (  # noqa: E402
    WEIGHT_STYLES,
    er_graph,
    grow_lhf,
    random_chordal,
    random_weights,
)
from holefree.graph import (  # noqa: E402
    MAX_EXPONENT,
    Graph,
    emit_graph,
    format_weight,
    parse_graph,
    parse_weight,
)
from holefree.pmc import block_family, cut_pmc, dominate_pmc, enumerate_pmcs, is_pmc  # noqa: E402
from holefree.recognition import clique_atoms, find_long_hole, largest_prism  # noqa: E402
from holefree.separators import (  # noqa: E402
    absorb_last_vertex,
    add_last_vertex,
    analyze_separator,
    drop_last_vertex,
    enumerate_minimal_separators,
)
from holefree.solvers import solve  # noqa: E402

from oracles import (  # noqa: E402
    atom_pmc_sets,
    brute_force_minimal_separators,
    brute_force_pmcs,
    exhaustive_mwis,
    reference_atoms,
    reference_dominate_pmc,
    reference_find_long_hole,
    reference_largest_prism,
)

derandomized = hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, present) if keep])


@st.composite
def weighted_graphs(draw, weights=st.integers(min_value=0, max_value=9)):
    g = draw(graphs())
    return g.with_weights(draw(st.lists(weights, min_size=g.n, max_size=g.n)))


@derandomized
@hypothesis.given(graphs())
def test_incremental_pmcs_equal_bruteforce_with_certificates(g):
    incremental = enumerate_pmcs(g, enumerate_minimal_separators(g))
    assert incremental == brute_force_pmcs(g)


@derandomized
@hypothesis.given(graphs())
def test_no_prefix_or_atom_has_more_minimal_separators_than_g(g):
    # why a cap on Δ(g) bounds every separator family of the PMC sweep:
    # |Δ(G_i)| never falls as i grows (each S of G_{i-1} lifts to S or
    # S + a in Δ(G_i), injectively), and Δ of an atom lies in Δ(g)
    sizes = [len(enumerate_minimal_separators(g.prefix(i))) for i in range(g.n + 1)]
    assert sizes == sorted(sizes)
    minseps = enumerate_minimal_separators(g)
    known = {s.set for s in minseps}
    for atom, _ in clique_atoms(g)[0]:
        if not g.is_clique(atom):
            h, vmap = g.induced(atom)
            for s in enumerate_minimal_separators(h):
                assert mask_of(vmap[v] for v in iter_bits(s.set)) in known


@derandomized
@hypothesis.given(graphs(max_n=12))
def test_clique_atoms_match_the_reference_split_and_count_g(g):
    # the one-pass atoms are those of the split along Δ(g), on connected and
    # disconnected graphs alike; the distinct clique minimal separators and
    # the minimal separators of the other atoms are Δ(g), and the clique
    # atoms and the PMCs of the other atoms are Π(g)
    minseps = enumerate_minimal_separators(g)
    assert sorted(a for a, _ in clique_atoms(g)[0]) == sorted(reference_atoms(g, minseps))
    _, seps, pmcs = atom_families(g, SolveConfig())
    family = enumerate_pmcs(g, minseps)
    assert (seps, pmcs) == (len(minseps), len(family))
    assert atom_pmc_sets(g) == sorted((p.set for p in family), key=to_tuple)


@derandomized
@hypothesis.given(graphs())
def test_every_seed_and_move_candidate_is_a_minimal_separator(g):
    # the lemma that lets enumerate_minimal_separators keep every N(C) it
    # generates: from g - N[v], and from g - (S | N[x]) for S in Δ(g), x in S
    regions = [g.full_mask & ~(g.adj[v] | 1 << v) for v in range(g.n)]
    for s in brute_force_minimal_separators(g):
        regions += [g.full_mask & ~(s.set | g.adj[x] | 1 << x) for x in iter_bits(s.set)]
    for region in regions:
        for comp in g.components(region):
            assert len(analyze_separator(g, g.neighborhood(comp)).full) >= 2


@derandomized
@hypothesis.given(graphs(), st.data())
def test_lifted_records_equal_the_flooded_ones(g, data):
    # the record of X in g - a, a the last vertex and X any set avoiding it,
    # lifts without a flood to the records of X and of X + a in g
    hypothesis.assume(g.n >= 1)
    a = 1 << (g.n - 1)
    x = data.draw(st.integers(0, a - 1))
    rec = analyze_separator(g.prefix(g.n - 1), x)
    assert absorb_last_vertex(g, rec) == analyze_separator(g, x)
    assert add_last_vertex(g, rec) == analyze_separator(g, x | a)


@derandomized
@hypothesis.given(graphs(), st.data())
def test_dropped_records_equal_the_flooded_ones(g, data):
    # the record of any X in g gives that of X - a in g - a, a the last vertex
    hypothesis.assume(g.n >= 1)
    x = data.draw(st.integers(0, g.full_mask))
    rec = drop_last_vertex(g, analyze_separator(g, x), g.flood)
    assert rec == analyze_separator(g.prefix(g.n - 1), x & ~(1 << (g.n - 1)))


@derandomized
@hypothesis.given(graphs(), st.data())
def test_cut_certificates_equal_the_flooded_ones(g, data):
    # S | X from S's record, for S in Δ(g), X a nonempty subset of one
    # component of g - S: the same verdict and record as a whole-graph flood
    hypothesis.assume(g.is_connected())
    for sep in enumerate_minimal_separators(g):
        for comp in sep.components:
            members = to_tuple(comp)
            pick = data.draw(st.integers(1, (1 << len(members)) - 1))
            x = sum(1 << v for i, v in enumerate(members) if pick >> i & 1)
            assert cut_pmc(g, sep, comp, x) == is_pmc(g, sep.set | x)


def _hole_hung_off_a_chordal_graph(rng: random.Random) -> Graph:
    """A random chordal graph joined by 1-3 edges to an ER graph with a long
    hole, relabelled at random: the hole sits inside one atom of many."""
    chordal = random_chordal(rng.randint(5, 30), rng.randint(5, 60), rng)
    er = er_graph(rng.randint(5, 12), rng.uniform(0.2, 0.5), rng)
    while reference_find_long_hole(er) is None:
        er = er_graph(er.n, rng.uniform(0.2, 0.5), rng)
    a = chordal.n
    joins = {(rng.randrange(a), a + rng.randrange(er.n)) for _ in range(rng.randint(1, 3))}
    edges = [*chordal.edges(), *((a + u, a + v) for u, v in er.edges()), *joins]
    perm = list(range(a + er.n))
    rng.shuffle(perm)
    return Graph(len(perm), [(perm[u], perm[v]) for u, v in edges])


@st.composite
def hole_and_prism_inputs(draw):
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    kind = draw(st.sampled_from(("er", "lhf", "joined")))
    if kind == "er":
        return er_graph(rng.randint(0, 16), rng.uniform(0.1, 0.8), rng)
    if kind == "lhf":
        n = rng.randint(5, 30)
        return grow_lhf(random_chordal(n, 2 * n, rng), n, rng)
    return _hole_hung_off_a_chordal_graph(rng)


@derandomized
@hypothesis.given(hole_and_prism_inputs())
def test_atom_searches_match_the_whole_graph_scans(g):
    # a hole or a k-prism with k >= 2 lies inside one non-clique atom, so the
    # first hole in canonical edge order and every prism count stay the same
    assert find_long_hole(g) == reference_find_long_hole(g)
    for max_k in (1, 2, 4):
        assert largest_prism(g, max_k) == reference_largest_prism(g, max_k)


@derandomized
@hypothesis.given(
    st.lists(st.one_of(st.integers(0, 64), st.integers(0, 1 << 12), st.integers(0, 1 << 310)))
)
def test_canonical_key_sorts_as_to_tuple(masks):
    # both keys are one-to-one, so the sorted lists agree only if the orders do
    assert sorted(masks + [0], key=canonical_key) == sorted(masks + [0], key=to_tuple)


@derandomized
@hypothesis.given(graphs())
def test_blocks_are_all_components_with_their_neighborhoods(g):
    # every component of g - S, S in Δ(g), is a full component of N(C), so
    # the full components with N(D) = S from the records are all of them
    blocks = block_family(enumerate_minimal_separators(g))
    every = {c for s in brute_force_minimal_separators(g) for c in s.components}
    assert {d for d, _ in blocks} == every and len(blocks) == len(every)
    assert all(s == g.neighborhood(d) for d, s in blocks)


@derandomized
@hypothesis.given(
    weighted_graphs(st.builds(Fraction, st.integers(0, 999), st.sampled_from((1, 2, 3, 8, 10, 12))))
)
def test_emit_parse_round_trip(g):
    text = emit_graph(g)
    back = parse_graph(text)
    assert (back.n, back.adj, back.weights) == (g.n, g.adj, g.weights)
    assert emit_graph(back) == text


@derandomized
@hypothesis.given(weighted_graphs())
def test_witness_is_independent_with_the_reported_weight(g):
    res = solve_mwis(g)
    assert not any(g.has_edge(u, v) for u, v in combinations(res.vertices, 2))
    assert sum((g.weights[v] for v in res.vertices), Fraction(0)) == res.weight


@derandomized
@hypothesis.given(weighted_graphs(st.builds(Fraction, st.integers(0, 6), st.sampled_from((1, 2, 3)))))
def test_the_perturbed_optimum_decodes_to_the_canonical_witness(g):
    # the maximum of the perturbed sum over all independent sets, by a subset
    # scan, spells the canonical witness: zero and fractional weights, ties
    scale, w = perturbed_weights(g)
    independent = (s for s in range(1 << g.n) if g.is_independent(s))
    weight, mask = decode(g.n, scale, max(sum(w[v] for v in iter_bits(s)) for s in independent))
    assert (weight, to_tuple(mask)) == exhaustive_mwis(g)


@derandomized
@hypothesis.given(weighted_graphs(), st.integers(min_value=1, max_value=7))
def test_scaling_the_weights_scales_the_weight_and_keeps_the_witness(g, c):
    res = solve_mwis(g)
    scaled = solve_mwis(g.with_weights([c * w for w in g.weights]))
    assert scaled.weight == c * res.weight
    assert scaled.vertices == res.vertices


@derandomized
@hypothesis.given(weighted_graphs(), st.integers(min_value=1, max_value=9))
def test_an_isolated_vertex_adds_its_weight(g, w):
    grown = solve_mwis(Graph(g.n + 1, g.edges(), [*g.weights, w]))
    assert grown.weight == solve_mwis(g).weight + w
    assert g.n in grown.vertices


# digit runs: short ones, long ones across the 4000-digit chunks and the
# interpreter's 4300-digit limit, and the digits of 2^a 5^b, whose inverses
# print as the longest decimals
digit_runs = st.one_of(
    st.from_regex(r"[0-9]{0,6}", fullmatch=True),
    st.builds(
        lambda d, k, tail: d * k + tail,
        st.sampled_from("0123456789"),
        st.integers(3990, 9000),
        st.from_regex(r"[0-9]{0,6}", fullmatch=True),
    ),
    st.builds(lambda a, b: format_weight(Fraction(2**a * 5**b)), st.integers(0, 29000), st.integers(0, 13000)),
)


@st.composite
def weight_strings(draw):
    sign = draw(st.sampled_from(("", "+", "-")))
    whole = draw(digit_runs)
    if draw(st.booleans()):
        return f"{sign}{whole}/{draw(digit_runs)}"
    frac = draw(st.none() | digit_runs)
    exp = draw(st.none() | st.integers(-4400, 4400))
    return sign + whole + ("" if frac is None else "." + frac) + ("" if exp is None else f"e{exp}")


@hypothesis.settings(derandomized, max_examples=100)  # strings up to 30,000 digits
@hypothesis.given(weight_strings())
@hypothesis.example("1" + "0" * 4300)  # the complement of a graph with a 1e4300 weight
@hypothesis.example("1/" + format_weight(Fraction(2**28568)))  # 28,568 decimals
@hypothesis.example("9" * 4300 + "." + "9" * 4300 + "e4300")
def test_every_weight_parse_weight_reads_prints_back_to_itself(text):
    try:
        w = parse_weight(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        hypothesis.reject()
    assert parse_weight(format_weight(w)) == w


@derandomized
@hypothesis.given(
    st.text("0123456789.+-/eE _", max_size=12)
    | st.from_regex(r"\s?[+-]?\d{0,3}(/\d{0,3}|(\.\d{0,3})?([eE][+-]?\d{1,3})?)\s?", fullmatch=True)
)
@hypothesis.example("1_0")
@hypothesis.example(" 1/2 ")
@hypothesis.example("1.e5")
@hypothesis.example("1e99_999")
@hypothesis.example("1/2e5")
@hypothesis.example("1.5/2")
@hypothesis.example("/2")
@hypothesis.example("1/")
@hypothesis.example("e5")
@hypothesis.example(".")
def test_parse_weight_reads_fractions_grammar_without_underscores(text):
    # one reader for every length and Python version
    def outcome(read):
        try:
            return read(text)
        except (ValueError, ZeroDivisionError):
            return "refused"
        except OverflowError:
            return "overflow"

    got = outcome(parse_weight)
    if got == "overflow":  # only an exponent past the bound, read before any arithmetic
        assert abs(int(text.upper().partition("E")[2])) > MAX_EXPONENT
    elif "_" in text:  # Fraction reads "1_0" from Python 3.11 on
        assert got == "refused"
    else:
        assert got == outcome(Fraction)


@st.composite
def er_and_lhf_graphs(draw, max_n=16):
    """An ER or a grown long-hole-free graph with n <= ``max_n``, in one of
    the five weight styles."""
    style = draw(st.sampled_from(WEIGHT_STYLES))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    n = rng.randint(1, max_n)  # uniform, where a drawn size leans to 1
    if draw(st.booleans()):
        g = er_graph(n, rng.uniform(0.05, 0.6), rng)
    else:
        g = grow_lhf(random_chordal(n, 2 * n, rng), n, rng, forbid_prism=3)
    return random_weights(g, rng, style)


@derandomized
@hypothesis.given(er_and_lhf_graphs())
def test_reductions_keep_the_canonical_witness(g):
    # the reductions keep the one maximum of the perturbed weights: each
    # vertex they take is in the canonical witness, each they drop is not
    want = brute_force_mwis(g)
    for res in (solve_mwis(g), solve(g, strategy="bt")):
        assert (res.weight, res.vertices) == (want.weight, want.vertices)
    kept, taken = reduce_graph(g, perturbed_weights(g)[1])
    assert not kept & taken
    assert taken & ~want.mask == 0
    assert want.mask & ~(kept | taken) == 0


def _domination(dominate, g, pmc):
    try:
        return dominate(g, pmc)
    except NoDominationError:
        return None


@derandomized
@hypothesis.given(er_and_lhf_graphs(max_n=14))
def test_domination_equals_the_scan_over_all_vertices(g):
    # the fallback scans only N[PMC], with the third vertex drawn from N[t],
    # and finds the same first dominating set as the scan over all subsets
    for _, _, part in atom_families(g, SolveConfig())[0]:
        if part is not None:
            h, _, _, family = part
            for p in family:
                assert _domination(dominate_pmc, h, p) == _domination(reference_dominate_pmc, h, p)
