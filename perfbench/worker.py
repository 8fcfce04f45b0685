"""Benchmark subprocess: instance set-up, or the closed loop of solve ops.

    python3 worker.py setup --src SRC --root ROOT --workload W --seed N --scale S --out DIR
    python3 worker.py ops --src SRC --dir DIR --seconds T --trace 0|1

This process imports only holefree and the standard library, so its
``ru_maxrss`` is the memory the ops need.  Each op is one in-process
``holefree.cli.main(["solve", <file>, "--json", ...])`` call with the CLI
defaults.  The loop runs whole passes over the instances (each instance
once per pass), at least MIN_PASSES of them and more until the time is
up, so every run measures the same mix.  Traced, each instance runs
untraced and then traced, so the two wall times give the tracing
overhead; traced runs make one pass or more until the time is up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# An op still running after DEADLINE_S is stopped and counted as failed
# with EXIT_DEADLINE (the code coreutils timeout uses), so one slow input
# cannot push a run past its time limit.  No op of the workloads comes
# near it on a healthy build.
DEADLINE_S = 30.0
EXIT_DEADLINE = 124

# Untraced runs make at least this many passes, so the number of solve
# samples, and with it the rung the tail percentile sits on, stays the
# same from run to run while the machine's speed drifts.
MIN_PASSES = 2


def _import_holefree(src: str):
    sys.path.insert(0, src)
    import holefree
    import holefree.cli

    if not Path(holefree.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"holefree imported from {holefree.__file__}, not from {src}")
    return holefree


def cmd_setup(args) -> None:
    """Import the package, then generate and emit the instance files."""
    t0 = time.perf_counter()
    holefree = _import_holefree(args.src)
    sys.path.insert(0, str(HERE))
    import workloads

    out = Path(args.out)
    inst_dir = out / "instances"
    inst_dir.mkdir(parents=True, exist_ok=True)
    specs = workloads.specs(args.workload, args.scale)
    digest = hashlib.sha256()
    records = []
    for slot in workloads.run_order(len(specs)):
        spec = specs[slot]
        seed = workloads.instance_seed(args.workload, args.seed, slot)
        g = workloads.build(spec, random.Random(seed))
        path = inst_dir / f"{slot:03d}.txt"
        text = holefree.emit_graph(g, comments=[f"{args.workload} slot {slot} seed {seed}"])
        path.write_text(text)
        digest.update(text.encode())
        records.append(
            {
                "slot": slot,
                "file": str(path.relative_to(args.root)),
                "seed": seed,
                **workloads.spec_record(spec),
                "n": g.n,
                "m": g.m,
            }
        )
    (out / "manifest.json").write_text(json.dumps(records, indent=1))
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "digest": digest.hexdigest()}))


def _argv(rec: dict) -> list[str]:
    argv = ["solve", rec["file"], "--json"]
    if rec["strategy"] != "auto":
        argv += ["--strategy", rec["strategy"]]
    return argv


class OpDeadline(BaseException):
    """Raised into an op that runs past DEADLINE_S; no handler in holefree catches it."""


def _on_alarm(signum, frame):
    raise OpDeadline


def _run_op(cli, argv: list[str]) -> tuple[int, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                rc = cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpDeadline:
            print(f"op passed the {DEADLINE_S:g} s deadline", file=sys.stderr)
            rc = EXIT_DEADLINE
        except SystemExit as exc:  # argparse rejects
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught exception exits 1 from the shell
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            rc = 1
    wall = time.perf_counter() - t0
    return rc, wall, out.getvalue(), err.getvalue()


def _record(slot: int, rc: int, wall: float, stdout: str, stderr: str) -> dict:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rec = {"slot": slot, "rc": rc, "wall_s": wall, "max_rss_kb": rss}
    if rc == 0:
        result = json.loads(stdout)["result"]
        rec["weight"] = result["weight"]
        rec["vertices"] = result["vertices"]
        rec["strategy"] = result["strategy"]
    else:
        rec["error"] = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    return rec


def cmd_ops(args) -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    holefree = _import_holefree(args.src)
    cli = holefree.cli
    out = Path(args.dir)
    manifest = json.loads((out / "manifest.json").read_text())
    ops: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    if not args.trace:
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() - start < args.seconds:
            for rec in manifest:
                ops.append(_record(rec["slot"], *_run_op(cli, _argv(rec))))
            passes += 1
    else:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer()
        passes = 0
        while True:
            for rec in manifest:
                argv = _argv(rec)
                ops.append(_record(rec["slot"], *_run_op(cli, argv)))
                op_id = len(traced)
                tracer.install()
                tracer.begin_op(op_id)
                try:
                    rc, wall, stdout, stderr = _run_op(cli, argv)
                finally:
                    tracer.uninstall()
                layer = tracer.end_op()
                layer.update(_record(rec["slot"], rc, wall, stdout, stderr))
                layer["pass"] = passes
                traced.append(layer)
            passes += 1
            if time.perf_counter() - start >= args.seconds:
                break
    loop_s = time.perf_counter() - start
    if args.trace:
        spans = tracer.write(out)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {"ops": ops, "traced": traced, "loop_s": loop_s, "max_rss_kb": usage.ru_maxrss}
    if args.trace:
        result["span_count"] = spans
    (out / "ops.json").write_text(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--src", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("ops")
    p.add_argument("--src", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.set_defaults(func=cmd_ops)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
