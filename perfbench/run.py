"""Seeded solve benchmark for holefree.

    python3 perfbench/run.py --workload lhf|prism|fallback --seed N \
        --seconds T --trace 0|1 [--smoke]

Run from the root of a checkout; the package is imported from its
``src`` directory.  The ops run in whole passes over the workload's
instances (each once per pass): untraced at least two passes and more
until T seconds have passed, traced at least one, so a run always
measures the same mix.  One op is
one in-process ``holefree.cli.main(["solve", <file>, "--json", ...])``
call with the CLI defaults, issued by one single-threaded client in a
closed loop.  An op that runs past a 30 s deadline is stopped and
counted as failed with exit code 124.

A run sets the workload up several times in fresh processes (import,
generate, emit; the median is ``setup_s``), computes a networkx
reference for every instance in this process, then runs the ops in a
separate process that imports only holefree and the standard library.
Every successful op is checked against its reference; a wrong answer
makes the run exit 1.  A nonzero CLI exit is a failed op, recorded with
its exit code.

With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  ``--smoke`` runs
the same code on tiny instances.  Everything the run writes goes under
``perfbench/out/``; ``report.json`` there holds the full record,
including the instance manifest and the ungated networkx reference time.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
LADDER = (50, 75, 90, 95, 99, 99.9)  # candidate tail percentiles
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

E2E_UNITS = {
    "solves_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "solved_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# (metric, unit, source, key): source "self" is self time summed over the
# pass, "calls" the span count, "counts" a counter the tracer keeps.
LAYER_METRICS = [
    ("pmc.enumerate_s", "s", "self", "pmc.enumerate"),
    ("pmc.prefix_separators_s", "s", "self", "pmc.prefix_separators"),
    ("pmc.is_pmc_calls", "count", "calls", "pmc.is_pmc"),
    ("pmc.is_pmc_s", "s", "self", "pmc.is_pmc"),
    ("pmc.count", "count", "counts", "pmc.count"),
    ("pmc.accept_ratio", "ratio", "ratio", ("pmc.accepted", "pmc.is_pmc")),
    ("pmc.block_family_s", "s", "self", "pmc.block_family"),
    ("pmc.blocks", "count", "counts", "pmc.blocks"),
    ("pmc.dominate_calls", "count", "calls", "pmc.dominate"),
    ("pmc.dominate_s", "s", "self", "pmc.dominate"),
    ("engine.index_caps_s", "s", "self", "engine.index_caps"),
    ("engine.cap_pairs", "count", "counts", "engine.cap_pairs"),
    ("engine.dp_s", "s", "self", "engine.dp"),
    ("engine.table_entries", "count", "counts", "engine.table_entries"),
    ("engine.witness_check_s", "s", "self", "engine.witness_check"),
    ("engine.brute_calls", "count", "calls", "engine.brute"),
    ("engine.brute_s", "s", "self", "engine.brute"),
    ("separators.enumerate_s", "s", "self", "separators.enumerate"),
    ("separators.count", "count", "counts", "separators.count"),
    ("separators.cap_trips", "count", "counts", "separators.cap_trips"),
    ("recognition.triangulation_calls", "count", "calls", "recognition.triangulation"),
    ("recognition.triangulation_s", "s", "self", "recognition.triangulation"),
    ("recognition.fill_edges", "count", "counts", "recognition.fill_edges"),
    ("recognition.clique_tree_s", "s", "self", "recognition.clique_tree"),
    ("recognition.prism_search_calls", "count", "calls", "recognition.prism_search"),
    ("recognition.prism_search_s", "s", "self", "recognition.prism_search"),
    ("recognition.prisms_found", "count", "counts", "recognition.prisms_found"),
    ("solvers.branches", "count", "counts", "solvers.branches"),
    ("solvers.fallbacks", "count", "counts", "solvers.fallbacks"),
    ("solvers.wasted_s", "s", "time", "solvers.wasted_s"),
    ("solvers.tree_decomposition_s", "s", "self", "solvers.tree_decomposition"),
    ("solvers.td_width_max", "count", "max", "solvers.td_width_max"),
    ("solvers.treewidth_dp_s", "s", "self", "solvers.treewidth_dp"),
    ("solvers.balanced_separator_s", "s", "self", "solvers.balanced_separator"),
    ("graph.components_calls", "count", "calls", "graph.components"),
    ("graph.components_s", "s", "self", "graph.components"),
    ("graph.induced_calls", "count", "calls", "graph.induced"),
    ("graph.parse_s", "s", "self", "graph.parse"),
    ("cli.overhead_s", "s", "self", "cli.main"),
    ("trace.overhead_s", "s", "overhead", None),
]
LAYER_UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS}


class BenchmarkError(RuntimeError):
    """The run could not produce trustworthy numbers."""


def _worker(args: list[str], timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def set_up(workload: str, seed: int, scale: str, out: Path) -> tuple[list[float], str]:
    """Set the workload up SETUP_REPS times; every rep must write the same bytes.

    Returns the set-up times and the digest of the instance files.
    """
    times, digests = [], set()
    for _ in range(SETUP_REPS):
        shutil.rmtree(out / "instances", ignore_errors=True)
        line = _worker(
            [
                "setup", "--src", str(ROOT / "src"), "--root", str(ROOT),
                "--workload", workload, "--seed", str(seed), "--scale", scale,
                "--out", str(out),
            ],
            timeout=60,
        )
        rec = json.loads(line)
        times.append(rec["setup_s"])
        digests.add(rec["digest"])
    if len(digests) != 1:
        raise BenchmarkError("set-up wrote different instance files for the same seed")
    return times, digests.pop()


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with TAIL_BEYOND samples above it.

    Returns (percentile, nearest-rank value, samples beyond).  With too
    few samples for any rung, the median is returned with its count.
    """
    ordered = sorted(samples)
    best = None
    for p in LADDER:
        rank = math.ceil(p / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= TAIL_BEYOND:
            best = (p, ordered[rank - 1], len(ordered) - rank)
    if best is None:
        rank = max(1, math.ceil(len(ordered) / 2))
        best = (50, ordered[rank - 1], len(ordered) - rank)
    return best


def gate(ops: list[dict], graphs: dict, refs: dict) -> list[str]:
    """Problems with successful ops; failed ops are counted, not judged."""
    problems = []
    for i, op in enumerate(ops):
        if op["rc"] != 0:
            continue
        why = reference.check_solution(graphs[op["slot"]], refs[op["slot"]], op["weight"], op["vertices"])
        if why is not None:
            problems.append(f"op {i} (slot {op['slot']}): {why}")
    return problems


def e2e_metrics(ops: list[dict], loop_s: float, max_rss_kb: int, setup_times: list[float]) -> tuple[dict, dict]:
    ok = [op["wall_s"] for op in ops if op["rc"] == 0]
    if not ok:
        raise BenchmarkError("no op succeeded, so no solve time exists")
    pct, tail_s, beyond = tail(ok)
    values = {
        "solves_per_s": len(ok) / loop_s,
        "solve_ms_p50": statistics.median(ok) * 1000,
        "solve_ms_tail": tail_s * 1000,
        "solved_frac": len(ok) / len(ops),
        "peak_rss_mb": max_rss_kb / 1024,
        "setup_s": statistics.median(setup_times),
    }
    exits: dict[str, int] = {}
    for op in ops:
        if op["rc"] != 0:
            exits[str(op["rc"])] = exits.get(str(op["rc"]), 0) + 1
    detail = {
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "solve_samples": len(ok),
        "failed_frac": (len(ops) - len(ok)) / len(ops),
        "failed_exit_codes": exits,
        "loop_s": loop_s,
        "setup_s_all": setup_times,
    }
    return values, detail


def _pass_value(source: str, key, ops: list[dict]) -> float:
    if source == "self":
        return sum(op["self_s"].get(key, 0.0) for op in ops)
    if source == "calls":
        return sum(op["calls"].get(key, 0) for op in ops)
    if source in ("counts", "time"):
        return sum(op["counts"].get(key, 0) for op in ops)
    if source == "max":
        return max((op["counts"].get(key, 0) for op in ops), default=0)
    if source == "ratio":
        num = sum(op["counts"].get(key[0], 0) for op in ops)
        den = sum(op["calls"].get(key[1], 0) for op in ops)
        return num / den if den else 0.0
    raise ValueError(source)


def check_span_sums(traced: list[dict]) -> float:
    """Layers' self times plus the untraced remainder must make each op's wall.

    The remainder is the op's wall time outside the root span.  Returns
    the largest mismatch, which must stay below a microsecond.
    """
    worst = 0.0
    for op in traced:
        remainder = op["wall_s"] - op["root_s"]
        if remainder < 0:
            raise BenchmarkError("root span outlasts its op")
        if any(v < -1e-9 for v in op["self_s"].values()):
            raise BenchmarkError("a span has negative self time")
        worst = max(worst, abs(sum(op["self_s"].values()) + remainder - op["wall_s"]))
    if worst > 1e-6:
        raise BenchmarkError(f"self times miss op wall time by {worst:.3g} s")
    return worst


def layer_metrics(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics per pass over the instance set (one op each)."""
    passes = sorted({op["pass"] for op in traced})
    by_pass = [[op for op in traced if op["pass"] == p] for p in passes]
    size = len(by_pass[0])
    values = {}
    for name, _, source, key in LAYER_METRICS:
        if source == "overhead":
            diffs = [
                sum(op["wall_s"] for op in by_pass[i])
                - sum(op["wall_s"] for op in untraced[i * size : (i + 1) * size])
                for i in range(len(passes))
            ]
            values[name] = statistics.fmean(diffs)
            continue
        per_pass = [_pass_value(source, key, ops) for ops in by_pass]
        if source in ("self", "time"):
            values[name] = statistics.fmean(per_pass)
        else:
            if len(set(per_pass)) != 1:
                raise BenchmarkError(f"{name} differs between passes: {per_pass}")
            values[name] = per_pass[0]
    untraced_pass = sum(op["wall_s"] for op in untraced) / len(passes)
    spans = sorted({k for op in traced for k in op["self_s"]})
    detail = {
        "passes": len(passes),
        "untraced_pass_s": untraced_pass,
        "traced_pass_s": untraced_pass + values["trace.overhead_s"],
        "trace_overhead_share": values["trace.overhead_s"] / untraced_pass,
        "self_s_by_span": {
            s: statistics.fmean(_pass_value("self", s, ops) for ops in by_pass) for s in spans
        },
        "span_sum_mismatch_s": check_span_sums(traced),
    }
    return values, detail


def structure(traced: list[dict]) -> dict[int, dict]:
    """Structural counts per instance slot, from the first traced pass."""
    out = {}
    for op in traced:
        if op["pass"] == 0:
            c = op["counts"]
            out[op["slot"]] = {
                "separators": c.get("separators.count", 0),
                "separator_cap_trips": c.get("separators.cap_trips", 0),
                "pmcs": c.get("pmc.count", 0),
                "blocks": c.get("pmc.blocks", 0),
                "cap_pairs": c.get("engine.cap_pairs", 0),
            }
    return out


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, scale: str, out: Path, corrupt: bool = False) -> tuple[dict, dict]:
    """One run; returns (result line, full report)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    setup_times, digest = set_up(workload, seed, scale, out)
    manifest = json.loads((out / "manifest.json").read_text())

    graphs, refs, ref_time = {}, {}, 0.0
    for rec in manifest:
        graphs[rec["slot"]] = reference.read_graph(ROOT / rec["file"])
        t0 = time.perf_counter()
        refs[rec["slot"]] = reference.reference_weight(graphs[rec["slot"]])
        ref_time += time.perf_counter() - t0
        if corrupt:  # the gate's own check: a wrong reference must trip it
            refs[rec["slot"]] += 1

    _worker(
        ["ops", "--src", str(ROOT / "src"), "--dir", str(out), "--seconds", str(seconds), "--trace", str(int(trace))],
        timeout=seconds + 120,
    )
    result = json.loads((out / "ops.json").read_text())
    ops, traced = result["ops"], result["traced"]
    problems = gate(ops + traced, graphs, refs)

    if trace:
        metrics, detail = layer_metrics(ops, traced)
        units = LAYER_UNITS
        detail["span_count"] = result["span_count"]
        counts = structure(traced)
        for rec in manifest:
            rec.update(counts.get(rec["slot"], {}))
    else:
        metrics, detail = e2e_metrics(ops, result["loop_s"], result["max_rss_kb"], setup_times)
        units = E2E_UNITS
    for rec in manifest:
        rec["reference_weight"] = str(refs[rec["slot"]])
    per_slot: dict[int, list[float]] = {}
    for op in ops:
        per_slot.setdefault(op["slot"], []).append(op["wall_s"])
    detail["instances_sha256"] = digest
    detail["nx_ref_s"] = ref_time
    detail["our_pass_s"] = sum(statistics.median(v) for v in per_slot.values())

    line = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["rc"] != 0),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "result": line,
        "detail": detail,
        "problems": problems,
        "manifest": manifest,
        "ops": ops,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    (out / "report.json").write_text(json.dumps(report, indent=1))
    return line, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "holefree" / "__init__.py").is_file():
        print(f"error: no holefree package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    shutil.rmtree(OUT, ignore_errors=True)
    out = OUT / f"{args.workload}-{args.seed}-{'trace' if args.trace else 'e2e'}"
    scale = "tiny" if args.smoke else "full"
    try:
        line, report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), scale, out)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in report["problems"]:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(json.dumps({"report": str((out / "report.json").relative_to(ROOT)), **report["detail"]}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
