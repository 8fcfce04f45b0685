"""Command-line front end: solve, verify, analyze, generate.

Exit codes: 0 success, 2 parse error or bad parameters, 3 capacity, retry
budget or oracle size limit exceeded, 4 internal witness or invariant
failure.  Verdicts from ``verify`` are data, not failures, and never
change the exit status.

JSON reports keep a stable key set so downstream scripts can rely on the
shape: {version, command, input, result, verdicts, analysis, stats}.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from pathlib import Path

from . import __version__
from .engine import SolveConfig, SolveResult, atom_families
from .errors import (
    CapacityExceededError,
    GenerationError,
    NoDominationError,
    OracleLimitError,
    PreconditionError,
    SolverInvariantError,
    WitnessNotFoundError,
)
from .families import lhf_filter, prism_graph, random_chordal
from .graph import Graph, emit_graph, format_weight, parse_graph
from .pmc import dominate_pmc
from .recognition import find_long_hole, is_chordal, largest_prism
from .solvers import STRATEGIES, balanced_separator, solve

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


def _report(command: str, input_id: str, result=None, verdicts=None, analysis=None, stats=None) -> dict:
    return {
        "version": __version__,
        "command": command,
        "input": input_id,
        "result": result,
        "verdicts": verdicts,
        "analysis": analysis,
        "stats": stats or {},
    }


def _print_report(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


def _load(path: str) -> Graph:
    return parse_graph(Path(path).read_text())


def _ones(vertices) -> list[int]:
    return [v + 1 for v in vertices]


def _result_payload(res: SolveResult) -> dict:
    return {
        "weight": format_weight(res.weight),
        "vertices": _ones(res.vertices),
        "strategy": res.strategy,
    }


def _stats_payload(res: SolveResult) -> dict:
    return {
        "time_ms": round(res.stats.time_ms, 3),
        "table_entries": res.stats.table_entries,
        "minseps": res.stats.minseps,
        "pmcs": res.stats.pmcs,
        "branches": res.stats.branches,
    }


def cmd_solve(args) -> int:
    g = _load(args.graph)
    config = SolveConfig(cap_seps=args.cap_seps, cap_pmcs=args.cap_pmcs)
    res = solve(g, strategy=args.strategy, config=config)
    report = _report(
        "solve", args.graph, result=_result_payload(res), stats=_stats_payload(res)
    )
    _print_report(
        report,
        args.json,
        [
            f"weight {format_weight(res.weight)}",
            "witness: " + " ".join(str(v) for v in _ones(res.vertices)),
            f"strategy: {res.strategy}",
            f"minseps: {res.stats.minseps}  pmcs: {res.stats.pmcs}  "
            f"table entries: {res.stats.table_entries}",
        ],
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load(args.graph)
    t0 = time.perf_counter()
    hole = find_long_hole(g)
    prism = largest_prism(g, args.max_k)
    chordal = is_chordal(g).chordal
    verdicts = {
        "long_hole_free": hole is None,
        "certificate": None if hole is None else _ones(hole),
        "largest_prism": prism,
        "chordal": chordal,
    }
    stats = {"time_ms": round((time.perf_counter() - t0) * 1000.0, 3), "table_entries": 0}
    report = _report("verify", args.graph, verdicts=verdicts, stats=stats)
    lines = [
        f"long-hole-free: {str(hole is None).lower()}",
    ]
    if hole is not None:
        lines.append("certificate: " + " ".join(str(v) for v in _ones(hole)))
    lines.append(f"largest prism (up to k={args.max_k}): {prism}")
    lines.append(f"chordal: {str(chordal).lower()}")
    _print_report(report, args.json, lines)
    return EXIT_OK


def cmd_analyze(args) -> int:
    g = _load(args.graph)
    t0 = time.perf_counter()
    config = SolveConfig(cap_seps=args.cap_seps, cap_pmcs=args.cap_pmcs)
    atoms, minseps, pmcs = atom_families(g, config)
    prism = largest_prism(g, args.max_k)
    # the graph is (prism+1)-prism-free, which bounds the separator count
    free_k = prism + 1
    bound = g.n ** (free_k + 2)
    # each PMC is dominated on its own atom A, which keeps the counts of g:
    # the single-vertex test reads only the PMC's rows, and a vertex of a
    # piece D of g - A can be swapped for one of the clique N(D)
    found: list[tuple[int, str]] = []
    for atom, _, part in atoms:
        if part is None:  # a clique atom is its own PMC
            found.append((atom, "single-vertex"))
            continue
        h, _, _, family = part
        for p in family:
            try:
                found.append((p.set, dominate_pmc(h, p).method))
            except NoDominationError:
                found.append((p.set, "none"))
    # "none": no 3-set dominates the PMC, which only an input outside the
    # class can show; data, like verify's verdicts
    histogram = {"single-vertex": 0, "lemma-chain": 0, "brute-fallback": 0, "none": 0}
    sizes: dict[str, int] = {}
    for pmc, method in found:
        histogram[method] += 1
        key = str(pmc.bit_count())
        sizes[key] = sizes.get(key, 0) + 1
    bal = None
    if g.n > 0 and g.is_connected() and g.total_weight() > 0:
        b = balanced_separator(g)
        bal = {
            "bag_size": b.bag.bit_count(),
            "z_size": len(b.z),
            "sep_size": b.separator.bit_count(),
            "bound": 3 * (g.max_degree() + 1),
        }
    analysis = {
        "minseps": minseps,
        "minsep_bound": bound,
        "minsep_bound_exponent": free_k + 2,
        "minsep_bound_ok": minseps <= bound,
        "pmcs": pmcs,
        "pmc_sizes": dict(sorted(sizes.items(), key=lambda kv: int(kv[0]))),
        "largest_prism": prism,
        "dom_histogram": histogram,
        "balanced_separator": bal,
    }
    stats = {"time_ms": round((time.perf_counter() - t0) * 1000.0, 3), "table_entries": 0}
    report = _report("analyze", args.graph, analysis=analysis, stats=stats)
    lines = [
        f"minseps: {minseps}",
        f"bound check: {minseps} <= {g.n}^{free_k + 2} "
        f"{'pass' if minseps <= bound else 'FAIL'}",
        f"pmcs: {pmcs}",
        "domination: "
        + "  ".join(f"{k}={v}" for k, v in histogram.items()),
    ]
    if bal is not None:
        lines.append(
            f"balanced separator: bag={bal['bag_size']} z={bal['z_size']} "
            f"sep={bal['sep_size']} bound={bal['bound']}"
        )
    _print_report(report, args.json, lines)
    return EXIT_OK


GENERATE_PARAMS = {
    "prism": ("k",),
    "chordal": ("n", "m"),
    "lhf-filter": ("n", "p"),
    "complement-of": ("file",),
}


def cmd_generate(args) -> int:
    names = GENERATE_PARAMS[args.family]
    if len(args.params) != len(names):
        raise ValueError(
            f"{args.family} takes {len(names)} parameter{'s' * (len(names) > 1)} "
            f"({' '.join(names)}), got {len(args.params)}"
        )
    rng = random.Random(args.seed)
    provenance = [f"holefree generate {args.family} seed={args.seed}"]
    if args.family == "prism":
        k = int(args.params[0])
        g = prism_graph(k)
        provenance.append(f"k={k}")
    elif args.family == "chordal":
        n, m = int(args.params[0]), int(args.params[1])
        if m < 0:
            raise ValueError(f"edge target must be 0 or more, got {m}")
        g = random_chordal(n, m, rng)
        provenance.append(f"n={n} m_target={m}")
    elif args.family == "lhf-filter":
        n, p = int(args.params[0]), float(args.params[1])
        if not 0 <= p <= 1:
            raise ValueError(f"edge probability must lie in [0, 1], got {p}")
        g = lhf_filter(n, p, rng, max_tries=args.max_tries)
        provenance.append(f"n={n} p={p}")
    else:  # complement-of; argparse's choices admit no other family
        g = _load(args.params[0]).complement()
        provenance.append(f"source={args.params[0]}")
    text = emit_graph(g, comments=provenance)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cap(text: str) -> int:
    """A cap option: a nonnegative int, 0 meaning unlimited."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"cap must be 0 or more, got {value}")
    return value


def _add_caps(parser: argparse.ArgumentParser) -> None:
    """The caps that solve and analyze share, with one pair of defaults."""
    parser.add_argument("--cap-seps", type=_cap, default=5000, help="separator cap, 0 = unlimited")
    parser.add_argument("--cap-pmcs", type=_cap, default=50000, help="PMC cap, 0 = unlimited")


def _count(text: str) -> int:
    """A count option (a prism size bound, a retry budget): 1 or more."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be 1 or more, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="holefree",
        description="Exact maximum weight independent set solving on "
        "(long-hole, k-prism)-free graphs and friends",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve MWIS on a graph file")
    p_solve.add_argument("graph")
    p_solve.add_argument("--strategy", choices=STRATEGIES, default="auto")
    _add_caps(p_solve)
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="class membership verdicts")
    p_verify.add_argument("graph")
    p_verify.add_argument("--max-k", type=_count, default=4)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_analyze = sub.add_parser("analyze", help="separator/PMC structure report")
    p_analyze.add_argument("graph")
    p_analyze.add_argument("--max-k", type=_count, default=4)
    _add_caps(p_analyze)
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("generate", help="write instance files")
    p_gen.add_argument("family", choices=GENERATE_PARAMS)
    p_gen.add_argument("params", nargs="*")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--max-tries", type=_count, default=200)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapacityExceededError, GenerationError, OracleLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (
        SolverInvariantError,
        WitnessNotFoundError,
        NoDominationError,
        PreconditionError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
