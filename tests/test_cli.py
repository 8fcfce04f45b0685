"""Command-line interface: outputs, exit codes, JSON determinism."""

import json
import random
from collections import Counter

import pytest

from holefree import cli, engine
from holefree.cli import main
from holefree.errors import CapacityExceededError, NoDominationError, PreconditionError
from holefree.families import er_graph, grow_lhf, prism_graph, random_chordal
from holefree.graph import Graph, emit_graph, parse_graph
from holefree.pmc import dominate_pmc, enumerate_pmcs
from holefree.recognition import clique_atoms
from holefree.separators import enumerate_minimal_separators

from oracles import complete_graph, cycle_graph, path_graph


@pytest.fixture()
def c4_file(tmp_path):
    f = tmp_path / "c4.gr"
    f.write_text(emit_graph(cycle_graph(4)))
    return str(f)


@pytest.fixture()
def prism3_file(tmp_path):
    f = tmp_path / "prism3.gr"
    f.write_text(emit_graph(prism_graph(3)))
    return str(f)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_solve_c4_human(c4_file, capsys):
    assert main(["solve", c4_file]) == 0
    out = capsys.readouterr().out
    assert "weight 2" in out
    assert "witness: 1 3" in out


def test_solve_prism_json(prism3_file, capsys):
    assert main(["solve", prism3_file, "--json"]) == 0
    report = _json_out(capsys)
    assert report["result"]["weight"] == "2"
    assert report["stats"]["minseps"] == 6
    assert report["command"] == "solve"


def test_solve_malformed_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p mwis 2 1\ne 1 3\n")
    assert main(["solve", str(bad)]) == 2


@pytest.mark.parametrize(
    "text,weight,witness",
    [
        # a weight at the exponent limit, and a sum past the interpreter's
        # 4300-digit int-to-string limit, print exactly
        ("p mwis 1 0\nw 1 1e4300\n", "1" + "0" * 4300, [1]),
        ("p mwis 2 0\nw 1 9e4299\nw 2 9e4299\n", "18" + "0" * 4299, [1, 2]),
    ],
)
def test_solve_prints_weights_past_the_int_digit_limit(tmp_path, capsys, text, weight, witness):
    f = tmp_path / "big.gr"
    f.write_text(text)
    assert main(["solve", str(f)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:2] == [f"weight {weight}", "witness: " + " ".join(map(str, witness))]
    assert main(["solve", str(f), "--json"]) == 0
    assert _json_out(capsys)["result"] == {"weight": weight, "vertices": witness, "strategy": "bt"}


def test_a_complement_past_the_int_digit_limit_solves(tmp_path, capsys):
    # generate writes the 1e4300 weight as 4301 digits; solve reads them back
    src, out = tmp_path / "big.gr", tmp_path / "complement.gr"
    src.write_text("p mwis 2 0\nw 1 1e4300\n")
    assert main(["generate", "complement-of", str(src), "--out", str(out)]) == 0
    assert main(["solve", str(out), "--json"]) == 0
    assert _json_out(capsys)["result"] == {"weight": "1" + "0" * 4300, "vertices": [1], "strategy": "bt"}


def test_solve_missing_file_exits_2(capsys):
    assert main(["solve", "/nonexistent/nowhere.gr"]) == 2


def test_solve_capacity_exits_3(prism3_file, capsys):
    assert main(["solve", prism3_file, "--strategy", "bt", "--cap-seps", "2"]) == 3


def test_pmc_cap_trips_on_the_union_of_atoms(tmp_path, capsys):
    # three 4-cycles chained at cut vertices: three atoms with 4 PMCs each,
    # and no prefix family of an atom's sweep holds more than 4.  Both
    # commands count the atoms' families the same way, so a cap that the
    # first atoms use up trips inside the next one's sweep
    edges = [(i, i + 1) for i in range(9)] + [(0, 3), (3, 6), (6, 9)]
    f = tmp_path / "c4-chain.gr"
    f.write_text(emit_graph(Graph(10, edges)))
    for command in (["solve", str(f), "--strategy", "bt"], ["analyze", str(f)]):
        for cap, found in ((5, 6), (8, 9), (11, 12)):
            assert main([*command, "--cap-pmcs", str(cap)]) == 3
            err = capsys.readouterr().err
            assert err == f"error: potential maximal cliques: cap {cap} exceeded ({found} found so far)\n"
        assert main([*command, "--cap-pmcs", "12"]) == 0


def test_separator_cap_counts_every_atom(tmp_path, capsys, monkeypatch):
    # the same chain: clique minimal separators {3} and {6}, and two minimal
    # separators in each 4-cycle, 8 in all, no atom holding more than 2.  At
    # cap 2 the clique separators use the budget up and the first atom trips
    # at its first separator; at cap 6 the clique separators and two atoms
    # use it up exactly, and the third atom trips at its first separator; at
    # cap 7 it trips at its second.  Each trip raises out of the separator
    # enumeration, in solve and analyze alike.
    edges = [(i, i + 1) for i in range(9)] + [(0, 3), (3, 6), (6, 9)]
    f = tmp_path / "c4-chain.gr"
    f.write_text(emit_graph(Graph(10, edges)))
    trips = []
    real = engine.enumerate_minimal_separators

    def spy(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except CapacityExceededError:
            trips.append(args[0].n)
            raise

    monkeypatch.setattr(engine, "enumerate_minimal_separators", spy)
    for command in (["solve", str(f), "--strategy", "bt"], ["analyze", str(f)]):
        for cap in (2, 6, 7):
            assert main([*command, "--cap-seps", str(cap)]) == 3
            err = capsys.readouterr().err
            assert err == f"error: minimal separators: cap {cap} exceeded ({cap + 1} found so far)\n"
        assert main([*command, "--cap-seps", "8", "--json"]) == 0
        report = _json_out(capsys)
        assert (report["stats"] if command[0] == "solve" else report["analysis"])["minseps"] == 8
    assert trips == [4] * 6


def test_separator_cap_counts_clique_separators_with_no_enumeration(tmp_path, capsys):
    # a path on 5 vertices: 3 clique minimal separators and only clique atoms
    f = tmp_path / "p5.gr"
    f.write_text(emit_graph(path_graph(5)))
    assert main(["solve", str(f), "--strategy", "bt", "--cap-seps", "2"]) == 3
    assert capsys.readouterr().err == "error: minimal separators: cap 2 exceeded (3 found so far)\n"
    assert main(["solve", str(f), "--strategy", "bt", "--cap-seps", "3", "--cap-pmcs", "3"]) == 3
    assert "potential maximal cliques: cap 3 exceeded (4 found so far)" in capsys.readouterr().err
    assert main(["solve", str(f), "--strategy", "bt", "--cap-seps", "3", "--cap-pmcs", "4"]) == 0


@pytest.mark.parametrize(
    "command, option",
    [
        (["solve", "--strategy", "bt"], "--cap-seps"),
        (["solve"], "--cap-pmcs"),
        (["analyze"], "--cap-seps"),
        (["analyze"], "--cap-pmcs"),
    ],
)
def test_negative_cap_exits_2(c4_file, capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main([command[0], c4_file, *command[1:], option, "-1"])
    assert exc.value.code == 2
    assert f"argument {option}: cap must be 0 or more, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "C4", "--max-k", "-1"],
        ["analyze", "C4", "--max-k", "0"],
        ["generate", "lhf-filter", "5", "1.5"],
        ["generate", "chordal", "5", "-1"],
        ["generate", "lhf-filter", "5", "0.3", "--max-tries", "-1"],
    ],
)
def test_out_of_range_number_exits_2(c4_file, capsys, argv):
    argv = [c4_file if a == "C4" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "must" in capsys.readouterr().err


def test_solve_brute_above_oracle_limit_exits_3(tmp_path, capsys):
    f = tmp_path / "p21.gr"
    f.write_text(emit_graph(path_graph(21)))
    assert main(["solve", str(f), "--strategy", "brute"]) == 3
    assert "oracle limit" in capsys.readouterr().err


def test_solve_precondition_failure_exits_4(c4_file, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise PreconditionError("internal invariant broke")

    monkeypatch.setattr(cli, "solve", broken)
    assert main(["solve", c4_file]) == 4
    assert "internal invariant broke" in capsys.readouterr().err


def test_verify_c5(tmp_path, capsys):
    f = tmp_path / "c5.gr"
    f.write_text(emit_graph(cycle_graph(5)))
    assert main(["verify", str(f), "--json"]) == 0
    report = _json_out(capsys)
    assert report["verdicts"]["long_hole_free"] is False
    assert len(report["verdicts"]["certificate"]) == 5


def test_verify_prism3(prism3_file, capsys):
    assert main(["verify", prism3_file, "--max-k", "4", "--json"]) == 0
    report = _json_out(capsys)
    assert report["verdicts"]["long_hole_free"] is True
    assert report["verdicts"]["largest_prism"] == 3


def test_verify_p4_chordal(tmp_path, capsys):
    f = tmp_path / "p4.gr"
    f.write_text(emit_graph(path_graph(4)))
    assert main(["verify", str(f), "--json"]) == 0
    assert _json_out(capsys)["verdicts"]["chordal"] is True


def test_analyze_prism3(prism3_file, capsys):
    assert main(["analyze", prism3_file, "--json"]) == 0
    report = _json_out(capsys)
    analysis = report["analysis"]
    assert analysis["minseps"] == 6
    assert analysis["minsep_bound_ok"] is True
    assert analysis["dom_histogram"]["brute-fallback"] == 0


def test_analyze_c4(c4_file, capsys):
    assert main(["analyze", c4_file, "--json"]) == 0
    analysis = _json_out(capsys)["analysis"]
    assert analysis["pmcs"] == 4
    assert analysis["dom_histogram"]["single-vertex"] == 4


def test_analyze_k4(tmp_path, capsys):
    f = tmp_path / "k4.gr"
    f.write_text(emit_graph(complete_graph(4)))
    assert main(["analyze", str(f), "--json"]) == 0
    analysis = _json_out(capsys)["analysis"]
    assert analysis["minseps"] == 0 and analysis["pmcs"] == 1


def test_analyze_counts_pmcs_with_no_3_set_dominator(tmp_path, capsys):
    # this graph has a long hole, and 2 of its 248 PMCs have no dominating
    # set of three vertices: data for the histogram, not an internal failure
    f = tmp_path / "er96.gr"
    f.write_text(emit_graph(er_graph(15, 0.25, random.Random(96))))
    assert main(["analyze", str(f), "--json"]) == 0
    histogram = _json_out(capsys)["analysis"]["dom_histogram"]
    assert histogram == {"single-vertex": 15, "lemma-chain": 59, "brute-fallback": 172, "none": 2}
    assert main(["analyze", str(f)]) == 0
    assert "brute-fallback=172  none=2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "g, counts", [(Graph(0), (0, 0, 0)), (Graph(1), (0, 1, 1)), (Graph(3), (1, 3, 3))]
)
def test_analyze_counts_on_graphs_with_no_edge(tmp_path, capsys, g, counts):
    # (minseps, pmcs, single-vertex): the empty graph has no atom and no
    # PMC; three isolated vertices are three clique atoms split along the
    # one minimal separator, the empty set
    f = tmp_path / "g.gr"
    f.write_text(emit_graph(g))
    assert main(["analyze", str(f), "--json"]) == 0
    a = _json_out(capsys)["analysis"]
    assert (a["minseps"], a["pmcs"], a["dom_histogram"]["single-vertex"]) == counts


def _whole_graph_analysis(g):
    """analyze's counts from the whole graph: Δ(g), the sweep of all of g,
    and each PMC dominated on g from its certificate in g."""
    minseps = enumerate_minimal_separators(g)
    pmcs = enumerate_pmcs(g, minseps)
    histogram = {"single-vertex": 0, "lemma-chain": 0, "brute-fallback": 0, "none": 0}
    for p in pmcs:
        try:
            histogram[dominate_pmc(g, p).method] += 1
        except NoDominationError:
            histogram["none"] += 1
    sizes = Counter(p.set.bit_count() for p in pmcs)
    return {
        "minseps": len(minseps),
        "pmcs": len(pmcs),
        "pmc_sizes": {str(k): sizes[k] for k in sorted(sizes)},
        "dom_histogram": histogram,
    }


def _multi_atom_graphs():
    rng = random.Random(2401)
    out = []
    for _ in range(2):
        out.append(grow_lhf(random_chordal(120, 240, rng), 120, rng, forbid_prism=3))
    while len(out) < 42:
        g = er_graph(rng.randint(8, 15), rng.uniform(0.15, 0.5), rng)
        if len(clique_atoms(g)[0]) > 1:
            out.append(g)
    # ER n = 15 seed 96 is one atom with 2 PMCs that no 3-set dominates;
    # hang a path on it, or add a 4-cycle beside it
    er96 = er_graph(15, 0.25, random.Random(96))
    out.append(Graph(17, [*er96.edges(), (0, 15), (15, 16)]))
    out.append(Graph(19, [*er96.edges(), (15, 16), (16, 17), (17, 18), (18, 15)]))
    for _ in range(6):
        a, b = er_graph(rng.randint(4, 9), 0.4, rng), random_chordal(rng.randint(3, 12), 15, rng)
        out.append(Graph(a.n + b.n, [*a.edges(), *((u + a.n, v + a.n) for u, v in b.edges())]))
    return out


def test_analyze_dominates_each_pmc_on_its_atom_as_on_g(tmp_path, capsys):
    """analyze dominates each PMC Ω of an atom A on g[A]; the counts must be
    those of g.  The single-vertex test reads only Ω's rows, which g[A]
    keeps.  A 3-set of g that dominates Ω stays one when each of its
    vertices outside A, in a piece D of g - A, is swapped for a vertex of
    N(D), which is a clique that holds all of that vertex's neighbours in A
    (or dropped when N(D) is empty), so the none count is the same.  On
    long-hole-free input the lemma chain succeeds on g[A] as on g; on
    other input the split between lemma-chain and brute-fallback is
    checked here on data only."""
    seen = Counter()
    for i, g in enumerate(_multi_atom_graphs()):
        assert len(clique_atoms(g)[0]) > 1
        f = tmp_path / f"g{i}.gr"
        f.write_text(emit_graph(g))
        assert main(["analyze", str(f), "--json"]) == 0
        analysis = _json_out(capsys)["analysis"]
        want = _whole_graph_analysis(g)
        assert {k: analysis[k] for k in want} == want, g.adj
        seen.update(k for k, v in want["dom_histogram"].items() if v)
    assert min(seen.values()) >= 1 and len(seen) == 4


def test_analyze_cap_seps_is_exact_on_the_8_prism(tmp_path, capsys):
    # the 8-prism has 2^8 - 2 = 254 minimal separators; the cap is checked
    # on those of the whole graph only, as no prefix graph has more
    f = tmp_path / "p8.gr"
    f.write_text(emit_graph(prism_graph(8)))
    assert main(["analyze", str(f), "--cap-seps", "254", "--json"]) == 0
    assert _json_out(capsys)["analysis"]["minseps"] == 254
    assert main(["analyze", str(f), "--cap-seps", "253", "--json"]) == 3
    assert capsys.readouterr().err == "error: minimal separators: cap 253 exceeded (254 found so far)\n"


def test_analyze_ends_under_its_default_caps(tmp_path, capsys):
    # solve's default caps hold for analyze too: this graph has more than
    # 5000 minimal separators, and ran past 20 s with no cap
    f = tmp_path / "er100.gr"
    f.write_text(emit_graph(er_graph(100, 0.3, random.Random(5))))
    assert main(["analyze", str(f)]) == 3
    assert capsys.readouterr().err == "error: minimal separators: cap 5000 exceeded (5001 found so far)\n"


def test_solve_cap_pmcs_is_exact_on_the_6_prism(tmp_path, capsys):
    f = tmp_path / "p6.gr"
    f.write_text(emit_graph(prism_graph(6)))
    assert main(["solve", str(f), "--strategy", "bt", "--cap-pmcs", "191"]) == 3
    assert main(["solve", str(f), "--strategy", "bt", "--cap-pmcs", "192", "--json"]) == 0
    assert _json_out(capsys)["stats"]["pmcs"] == 192


def test_solve_rejects_a_header_above_the_vertex_limit(tmp_path, capsys, monkeypatch):
    import holefree.graph

    monkeypatch.setattr(holefree.graph, "MAX_VERTICES", 3)
    f = tmp_path / "big.gr"
    f.write_text("p mwis 4 0\n")
    assert main(["solve", str(f)]) == 2
    assert capsys.readouterr().err == "error: line 1: header declares 4 vertices, limit 3\n"
    f.write_text("p mwis 3 0\n")
    assert main(["solve", str(f)]) == 0


def test_generate_prism4(tmp_path, capsys):
    out = tmp_path / "p4.gr"
    assert main(["generate", "prism", "4", "--out", str(out)]) == 0
    g = parse_graph(out.read_text())
    assert g.n == 8 and g.m == 16


def test_generate_chordal_is_long_hole_free(tmp_path, capsys):
    out = tmp_path / "ch.gr"
    assert main(["generate", "chordal", "12", "20", "--seed", "7", "--out", str(out)]) == 0
    assert main(["verify", str(out), "--json"]) == 0
    report = _json_out(capsys)
    assert report["verdicts"]["long_hole_free"] is True
    assert report["verdicts"]["chordal"] is True


def test_generate_lhf_filter(tmp_path, capsys):
    from holefree.recognition import find_long_hole

    out = tmp_path / "lhf.gr"
    assert main(["generate", "lhf-filter", "10", "0.4", "--seed", "1", "--out", str(out)]) == 0
    assert find_long_hole(parse_graph(out.read_text())) is None


def test_generate_complement_of(prism3_file, tmp_path, capsys):
    out = tmp_path / "c.gr"
    assert main(["generate", "complement-of", prism3_file, "--out", str(out)]) == 0
    g = parse_graph(out.read_text())
    assert g.n == 6 and g.m == 15 - 9


def test_generate_embeds_seed_comment(tmp_path):
    out = tmp_path / "g.gr"
    main(["generate", "chordal", "6", "8", "--seed", "77", "--out", str(out)])
    assert "seed=77" in out.read_text()


def test_generate_bad_params_exit_2(capsys):
    assert main(["generate", "prism", "zero"]) == 2
    assert main(["generate", "prism"]) == 2


@pytest.mark.parametrize(
    "family, params, expected",
    [
        ("prism", ["5", "7"], "prism takes 1 parameter (k), got 2"),
        ("chordal", ["5"], "chordal takes 2 parameters (n m), got 1"),
        ("lhf-filter", ["5", "0.5", "9"], "lhf-filter takes 2 parameters (n p), got 3"),
        ("complement-of", [], "complement-of takes 1 parameter (file), got 0"),
    ],
)
def test_generate_checks_the_parameter_count(family, params, expected, capsys):
    assert main(["generate", family, *params]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {expected}\n"


@pytest.mark.parametrize(
    "argv",
    [["solve", "."], ["generate", "complement-of", "."], ["generate", "prism", "3", "--out", "."]],
    ids=["solve", "complement-of", "out"],
)
def test_a_directory_as_a_path_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv", [["chordal", "-5", "3"], ["lhf-filter", "-3", "0.5"]], ids=["chordal", "lhf-filter"]
)
def test_generate_negative_vertex_count_exits_2(argv, capsys):
    assert main(["generate", *argv]) == 2
    assert f"vertex count must be nonnegative, got {argv[1]}" in capsys.readouterr().err


def test_json_deterministic(prism3_file, capsys):
    def run():
        main(["solve", prism3_file, "--json"])
        report = _json_out(capsys)
        report["stats"]["time_ms"] = 0  # wall time is the one run-dependent field
        return json.dumps(report)

    assert run() == run()


def test_strategies_agree_via_cli(c4_file, capsys):
    weights = set()
    for strategy in ("bt", "subexp1", "subexp2", "brute"):
        assert main(["solve", c4_file, "--strategy", strategy, "--json"]) == 0
        weights.add(_json_out(capsys)["result"]["weight"])
    assert weights == {"2"}


def test_stable_json_keys(c4_file, capsys):
    main(["solve", c4_file, "--json"])
    report = _json_out(capsys)
    assert list(report.keys()) == [
        "version",
        "command",
        "input",
        "result",
        "verdicts",
        "analysis",
        "stats",
    ]
