"""Cross-process determinism and rarely-hit fallback wiring."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import holefree
from holefree.cli import main
from holefree.errors import WidthLimitError
from holefree.families import prism_graph, random_chordal
from holefree.graph import emit_graph


def _run_solve(path: str, hashseed: str) -> dict:
    src_dir = str(Path(holefree.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "holefree.cli", "solve", path, "--json"],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": hashseed, "PYTHONPATH": src_dir},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    report["stats"]["time_ms"] = 0
    return report


def test_identical_reports_across_hash_seeds(tmp_path):
    import random

    g = random_chordal(14, 30, random.Random(8))
    f = tmp_path / "g.gr"
    f.write_text(emit_graph(g))
    a = _run_solve(str(f), "0")
    b = _run_solve(str(f), "424242")
    assert json.dumps(a) == json.dumps(b)


def test_subexp2_falls_back_when_width_limited(monkeypatch):
    import holefree.solvers as solvers

    def refuse(*args, **kwargs):
        raise WidthLimitError("forced")

    monkeypatch.setattr(solvers, "best_treewidth", refuse)
    res = solvers.solve_subexp2(prism_graph(3))
    assert res.weight == 2


def test_generate_retry_cap_exit_3(capsys):
    # dense-ish random graphs at this size essentially always have long holes
    code = main(["generate", "lhf-filter", "22", "0.3", "--seed", "5", "--max-tries", "2"])
    assert code == 3


def test_emitted_instance_files_identical(tmp_path):
    out1, out2 = tmp_path / "a.gr", tmp_path / "b.gr"
    assert main(["generate", "chordal", "15", "30", "--seed", "3", "--out", str(out1)]) == 0
    assert main(["generate", "chordal", "15", "30", "--seed", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("seed", [1, 2])
def test_library_results_stable_within_process(seed):
    import random

    from holefree.engine import solve_mwis
    from holefree.families import er_graph, random_weights

    rng = random.Random(seed)
    g = random_weights(er_graph(11, 0.4, rng), rng, "int")
    first = solve_mwis(g)
    second = solve_mwis(g)
    assert (first.weight, first.vertices) == (second.weight, second.vertices)
