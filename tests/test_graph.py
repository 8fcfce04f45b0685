"""Graph core: set algebra, connectivity, complement, file round trips."""

import random
from fractions import Fraction

import pytest

from holefree.bits import iter_bits, mask_of, to_tuple
from holefree.errors import GraphFormatError
from holefree.families import er_graph, random_weights
from holefree.graph import MAX_VERTICES, Graph, emit_graph, format_weight, parse_graph

from oracles import (
    c4,
    complete_graph,
    cycle_graph,
    naive_components,
    naive_neighborhood,
    p4,
    star_graph,
)


def test_components_c4_opposite_pair():
    g = c4()
    assert g.components(mask_of([0, 2])) == [1 << 0, 1 << 2]


def test_components_p4_cut_vertex():
    g = p4()
    assert g.components(g.full_mask & ~(1 << 1)) == [1 << 0, mask_of([2, 3])]


def test_components_empty():
    assert c4().components(0) == []


def test_components_partition_and_no_cross_edges():
    rng = random.Random(3)
    for _ in range(40):
        g = er_graph(rng.randint(1, 11), rng.random(), rng)
        sub = rng.getrandbits(g.n)
        comps = g.components(sub)
        union = 0
        for comp in comps:
            assert union & comp == 0
            union |= comp
            assert g.neighborhood(comp) & sub & ~comp == 0
        assert union == sub


def test_flood_pairs_components_with_their_neighborhoods():
    rng = random.Random(5)
    graphs = [Graph(0), Graph(1), Graph(5), c4(), p4()]
    graphs += [er_graph(rng.randint(1, 14), rng.random(), rng) for _ in range(150)]
    # disconnected: two random graphs side by side
    for _ in range(30):
        a, b = (er_graph(rng.randint(1, 7), rng.random(), rng) for _ in range(2))
        shifted = [(u + a.n, v + a.n) for u, v in b.edges()]
        graphs.append(Graph(a.n + b.n, a.edges() + shifted))
    for g in graphs:
        subs = {0, g.full_mask, g.full_mask & rng.getrandbits(g.n)}
        subs.update(g.full_mask & ~(1 << v) for v in range(g.n))  # strict subsets
        for sub in subs:
            pairs = g.flood(sub)
            assert pairs == [(c, g.neighborhood(c)) for c in g.components(sub)]
            assert pairs == [(c, naive_neighborhood(g, c)) for c in naive_components(g, sub)]
    assert c4().flood(mask_of([0, 2])) == [(1 << 0, mask_of([1, 3])), (1 << 2, mask_of([1, 3]))]
    assert p4().flood(0) == []


def test_neighborhood_examples():
    g = p4()
    assert g.neighborhood(1 << 1) == mask_of([0, 2])
    assert g.neighborhood(1 << 1, closed=True) == mask_of([0, 1, 2])
    assert c4().neighborhood(mask_of([0, 2])) == mask_of([1, 3])


def test_neighborhood_disjoint_and_monotone():
    rng = random.Random(4)
    for _ in range(40):
        g = er_graph(rng.randint(1, 10), rng.random(), rng)
        x = rng.getrandbits(g.n)
        y = x | rng.getrandbits(g.n)
        assert g.neighborhood(x) & x == 0
        nx, ny = g.neighborhood(x, closed=True), g.neighborhood(y, closed=True)
        assert nx & ~ny == 0


def test_complement_c6_is_3prism():
    from holefree.recognition import find_k_prism

    h = cycle_graph(6).complement()
    assert h.m == 9
    w = find_k_prism(h, 3)
    assert w is not None and w.vertex_mask() == h.full_mask


def test_complement_k4_edgeless():
    assert complete_graph(4).complement().m == 0


def test_complement_involution_and_edge_split():
    rng = random.Random(5)
    for _ in range(30):
        g = er_graph(rng.randint(1, 12), rng.random(), rng)
        assert g.complement().complement() == g
        assert g.m + g.complement().m == g.n * (g.n - 1) // 2
    assert p4().complement().complement() == p4()


def test_max_degree():
    assert star_graph(5).max_degree() == 5
    assert cycle_graph(6).max_degree() == 2
    assert Graph(1).max_degree() == 0


def test_parse_k2():
    g = parse_graph("p mwis 2 1\ne 1 2\n")
    assert g.n == 2 and g.has_edge(0, 1) and g.weights == (Fraction(1), Fraction(1))


def test_parse_weight_line():
    g = parse_graph("p mwis 1 0\nw 1 2.5\n")
    assert g.weights == (Fraction(5, 2),)


def test_parse_out_of_range_reports_line():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("p mwis 2 1\ne 1 3\n")
    assert err.value.line == 2


# text -> (message, line), one case per GraphFormatError branch
MALFORMED = {
    "p mwis 1 0\np mwis 1 0\n": ("duplicate header", 2),
    "p mwis 1\n": ("malformed header, expected 'p mwis <n> <m>'", 1),
    "p mwis x 1\n": ("malformed header, expected integer sizes", 1),
    "p mwis -1 0\n": ("header sizes must be nonnegative", 1),
    "w 1 2\n": ("weight line before header", 1),
    "p mwis 1 0\nw 1\n": ("malformed weight line, expected 'w <v> <weight>'", 2),
    "p mwis 1 0\nw 1 x\n": ("malformed weight line", 2),
    "p mwis 1 0\nw 1 1/0\n": ("malformed weight line", 2),
    "p mwis 1 0\nw 2 1\n": ("vertex 2 out of range 1..1", 2),
    "p mwis 1 0\nw 1 -2\n": ("negative weight", 2),
    "p mwis 1 0\nw 1 1e10000000\n": ("weight exponent 10000000 beyond ±4300", 2),
    "p mwis 1 0\nw 1 2.5E-4301\n": ("weight exponent -4301 beyond ±4300", 2),
    "p mwis 1 0\nw 1 1_0\n": ("malformed weight line", 2),
    "p mwis 1 0\nw 1 1/2e5\n": ("malformed weight line", 2),
    "p mwis 1 0\nw 1 1\nw 1 2\n": ("duplicate weight for vertex 1", 3),
    "e 1 2\n": ("edge line before header", 1),
    "p mwis 2 1\ne 1\n": ("malformed edge line, expected 'e <u> <v>'", 2),
    "p mwis 2 1\ne 1 x\n": ("malformed edge line", 2),
    "p mwis 2 1\ne 0 1\n": ("vertex 0 out of range 1..2", 2),
    "p mwis 2 1\ne 1 1\n": ("self-loop at vertex 1", 2),
    "p mwis 2 2\ne 1 2\ne 2 1\n": ("duplicate edge 2 1", 3),
    "p mwis 1 0\nx 1\n": ("unknown directive 'x'", 2),
    "# no header\n": ("missing 'p mwis <n> <m>' header", 1),
    "": ("missing 'p mwis <n> <m>' header", None),
    "p mwis 2 0\ne 1 2\n": ("header declares 0 edges but 1 given", 2),
}


@pytest.mark.parametrize("text", MALFORMED)
def test_parse_rejects_malformed(text):
    message, line = MALFORMED[text]
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


def test_parse_reads_exponents_up_to_the_limit():
    g = parse_graph("p mwis 3 0\nw 1 1e4300\nw 2 25E-4300\nw 3 0e+17\n")
    assert g.weights == (Fraction(10**4300), Fraction(25, 10**4300), Fraction(0))


def test_parse_reads_weights_up_to_the_digit_bounds():
    # a numerator or denominator up to 10^8600 and a digit run up to 30,100
    # digits, each past the interpreter's 4300-digit limit
    g = parse_graph(f"p mwis 2 0\nw 1 1{'0' * 8600}\nw 2 1/{'0' * 30099}1\n")
    assert g.weights == (Fraction(10**8600), Fraction(1))
    for weight, message in [
        ("1" + "0" * 8601, "weight beyond 10^8600"),
        ("1/1" + "0" * 8601, "weight beyond 10^8600"),
        ("0." + "0" * 30101, "weight digit run beyond 30100 digits"),
    ]:
        with pytest.raises(GraphFormatError) as err:
            parse_graph(f"p mwis 1 0\nw 1 {weight}\n")
        assert str(err.value) == f"line 2: {message}"


@pytest.mark.parametrize(
    "lines, message, line",
    [
        (["w 1 -3", "w 2 -3"], "negative weight", 2),
        (["w 1 2", "w 2 -3", "w 3 -3"], "negative weight", 3),
        (["w 1 1/0", "w 2 1/0"], "malformed weight line", 2),
        (["w 1 7", "w 2 7", "w 3 1/0", "w 4 1/0"], "malformed weight line", 4),
        (["w 1 7", "w 5 7"], "vertex 5 out of range 1..4", 3),
        (["w 1 7", "w 1 7"], "duplicate weight for vertex 1", 3),
    ],
)
def test_parse_checks_every_line_of_a_repeated_weight(lines, message, line):
    # each distinct weight string is parsed once; every line is still checked
    with pytest.raises(GraphFormatError) as err:
        parse_graph("\n".join(["p mwis 4 0", *lines]) + "\n")
    assert str(err.value) == f"line {line}: {message}"


def test_parse_gives_equal_strings_equal_weights():
    g = parse_graph("p mwis 5 0\nw 1 2.5\nw 2 5/2\nw 3 2.5\nw 4 0\nw 5 0\n")
    assert g.weights == (Fraction(5, 2),) * 3 + (Fraction(0),) * 2


@pytest.mark.parametrize("style", ["unit", "int", "decimal", "skew", "zeros"])
def test_roundtrip_in_every_weight_style(style):
    rng = random.Random(style)
    for n in (0, 1, 12, 40):
        g = random_weights(er_graph(n, 0.3, rng), rng, style)
        assert parse_graph(emit_graph(g)) == g


def test_parse_rejects_a_vertex_count_above_the_limit():
    # rejected on the header line, before any per-vertex row is built
    n = MAX_VERTICES + 1
    with pytest.raises(GraphFormatError) as err:
        parse_graph(f"p mwis {n} 0\n")
    assert str(err.value) == f"line 1: header declares {n} vertices, limit {MAX_VERTICES}"


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, [(0, 2)]), "edge (0, 2) out of range for n=2"),
        ((2, [(1, 1)]), "self-loop at vertex 1"),
        ((2, [], [1]), "need exactly one weight per vertex"),
        ((2, [], [1, -1]), "weights must be nonnegative"),
    ],
)
def test_graph_rejects_bad_arguments(args, message):
    with pytest.raises(ValueError) as err:
        Graph(*args)
    assert str(err.value) == message


def test_roundtrip_corpus():
    rng = random.Random(6)
    for i in range(110):
        n = rng.randint(0, 13)
        g = er_graph(n, rng.random(), rng)
        if i % 3 == 0:
            g = g.with_weights([Fraction(rng.randint(0, 50), 10) for _ in range(n)])
        assert parse_graph(emit_graph(g)) == g


def test_emit_deterministic_bytes():
    g = c4().with_weights([1, Fraction(5, 2), 1, 3])
    assert emit_graph(g) == emit_graph(parse_graph(emit_graph(g)))


def test_format_weight_exact():
    assert format_weight(Fraction(5, 2)) == "2.5"
    assert format_weight(Fraction(3)) == "3"
    assert format_weight(Fraction(1, 3)) == "1/3"
    assert parse_graph("p mwis 1 0\nw 1 1/3\n").weights == (Fraction(1, 3),)


def test_format_weight_past_the_int_digit_limit():
    # ints, decimals and p/q forms of more than 4300 digits, and the chunk
    # boundaries of the conversion
    big = 9 * 10**4299
    assert format_weight(Fraction(2 * big)) == "18" + "0" * 4299
    assert format_weight(big + Fraction(1, 10**4300)) == "9" + "0" * 4299 + "." + "0" * 4299 + "1"
    assert format_weight(big + Fraction(1, 3)) == "27" + "0" * 4298 + "1/3"
    assert format_weight(-Fraction(10**8000)) == "-1" + "0" * 8000
    assert format_weight(Fraction(10**8000 - 1)) == "9" * 8000
    assert format_weight(Fraction(10**4000 + 7)) == "1" + "0" * 3999 + "7"


def test_weights_exact_sums():
    g = Graph(3, [], weights=["0.1", "0.2", "0.3"])
    assert g.total_weight() == Fraction(6, 10)
    assert g.weight_of(mask_of([0, 1])) == Fraction(3, 10)


def test_immutability_helpers():
    g = c4()
    h = g.with_weights([2, 2, 2, 2])
    assert g.weights[0] == 1 and h.weights[0] == 2
    sub, vmap = g.induced(mask_of([1, 2, 3]))
    assert sub.n == 3 and vmap == (1, 2, 3)
    assert sub.has_edge(0, 1) and sub.has_edge(1, 2) and not sub.has_edge(0, 2)


def test_prefix_graph():
    g = c4()
    h = g.prefix(3)
    assert h.n == 3 and h.has_edge(0, 1) and h.has_edge(1, 2) and not h.has_edge(0, 2)
    assert to_tuple(h.full_mask) == (0, 1, 2)
    assert list(iter_bits(h.adj[0])) == [1]
