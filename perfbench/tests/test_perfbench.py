"""Self-checks of the benchmark: determinism, span plumbing, refusal,
clean exit.

    python3 -m pytest perfbench/tests -q
"""

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import workloads as wl  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


@pytest.mark.parametrize("name", ["verify-trials", "matrix-oracles"])
def test_inputs_follow_the_seed(name):
    build = wl.WORKLOADS[name][0]
    assert build(7)["digest"] == build(7)["digest"]
    assert build(7)["digest"] != build(8)["digest"]


def test_suite_runs_at_a_fixed_seed():
    build = wl.WORKLOADS["suite-battery"][0]
    assert build(7)["digest"] == build(8)["digest"]
    assert build(7)["args"][:3] == ["suite", "--seed", "2026"]


@pytest.mark.parametrize("name", ["verify-trials", "matrix-oracles"])
def test_traced_round_matches_untraced(name):
    build, round_fn, reenact, _ = wl.WORKLOADS[name]
    inputs = build(3)
    plain = round_fn(inputs, 0, NullTracer())
    tr = Tracer()
    traced = round_fn(inputs, 0, tr)
    assert [op.verdict for op in plain] == [op.verdict for op in traced]
    assert all(op.ok for op in plain + traced)
    residuals = []
    with tr.span("bench.reenact") as probe_root:
        assert reenact(inputs, traced, tr, probe_root, residuals) == []
    assert 0.0 <= max(residuals) < 1e-10


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("maps.outer") as outer:
        with tr.span("matcore.inner"):
            pass
    with tr.span("matcore.later", outer):  # a re-enactment attached afterwards
        pass
    selfs = tr.self_times()
    expected = tr.duration(outer) - tr.duration(1) - tr.duration(2)
    assert selfs[outer] == pytest.approx(expected)
    assert tr.parents == [None, outer, outer]
    layers = tr.layer_self([outer])
    assert layers["maps"] + layers["matcore"] == pytest.approx(tr.duration(outer))


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _field(stdout, key):
    return next(line.split()[1] for line in stdout.splitlines() if line.startswith(key + " "))


def test_traced_and_untraced_runs_agree():
    args = ["--workload", "matrix-oracles", "--seed", "5", "--seconds", "1"]
    plain = _run(ROOT, *args, "--trace", "0")
    traced = _run(ROOT, *args, "--trace", "1")
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    for key in ("input_digest", "verdict_digest"):
        assert _field(plain.stdout, key) == _field(traced.stdout, key)
    other = _run(ROOT, "--workload", "matrix-oracles", "--seed", "6", "--seconds", "1", "--trace", "0")
    assert _field(other.stdout, "input_digest") != _field(plain.stdout, "input_digest")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for out, group in ((plain, "end_to_end"), (traced, "per_layer")):
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec[group]}


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, "--workload", "verify-trials", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_run_waits_for_the_spawn_resource_tracker():
    import run

    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert list(pool.map(abs, [-1])) == [1]
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    run._stop_children()
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
