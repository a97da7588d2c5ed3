"""The library surface that the benchmark and the bench script reach.

``perfbench/workloads.py`` and ``scripts/bench_trials.py`` import names
from commrange and read attributes of its modules, private ones included.
A deletion that breaks one of them would only show when the benchmark
runs, so this test reads both files with ``ast`` and resolves every such
name against the package.  A change of signature would not show there, so
the bench script's engine sections, which wrap private engine functions,
and its radius section's call counters, which wrap ``np.linalg``, also run
here on small inputs.
"""

import ast
import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
CLIENTS = ("perfbench/workloads.py", "scripts/bench_trials.py")


def _references(path: Path) -> list[str]:
    """Dotted names under ``commrange`` that the file imports or reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "commrange"
        ):
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                names.append(dotted)
                modules[alias.asname or alias.name] = dotted
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not isinstance(node.ctx, ast.Load):
            continue
        chain = [node.attr]
        root = node.value
        while isinstance(root, ast.Attribute):
            chain.append(root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id in modules:
            names.append(".".join([modules[root.id], *reversed(chain)]))
    return names


def _resolve(dotted: str):
    """The object a dotted name under ``commrange`` names, taking the
    longest importable module prefix and then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


@pytest.mark.parametrize("client", CLIENTS)
def test_benchmark_names_resolve(client):
    names = _references(ROOT / client)
    assert len(names) > 10  # the parse found the imports
    missing = []
    for dotted in sorted(set(names)):
        try:
            _resolve(dotted)
        except (AttributeError, ImportError):
            missing.append(dotted)
    assert not missing, f"{client} reaches names commrange no longer has: {missing}"


def test_bench_script_private_attributes_are_checked():
    # the attribute walk follows module aliases into private names
    names = _references(ROOT / "scripts/bench_trials.py")
    assert "commrange.maps._Draws.assemble" in names
    assert "commrange.matcore._unit_vectors" in names


def test_bench_script_engine_sections_run(monkeypatch):
    # the script pins BLAS to one thread through the environment and puts
    # its src on sys.path; both are restored after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = ROOT / "scripts/bench_trials.py"
    spec = importlib.util.spec_from_file_location("bench_trials", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    maps = importlib.import_module("commrange.maps")
    run_chunk, assemble = maps._run_chunk, maps._Draws.assemble
    eigvals, eigh = np.linalg.eigvals, np.linalg.eigh

    engine = bench.measure_engine(2, 2026, 1)
    assert engine["trials_per_s"] > 0
    assert set(engine["phase_us_per_trial"]) == {
        "draws", "qr_assembly", "map_digests", "spectra"
    }
    assert set(engine["kind_us_per_trial"]["draws"]) == {f"kind{k}" for k in range(4)}
    outside = bench.measure_counterexample(2026, 1)
    assert set(outside) == {"n3", "n6", "n16"}
    # the radius section's counters, on two of its matrices per n: a general
    # call makes 1 to 20 level-set solves and 1 to 6 Newton steps
    for n in bench.ORACLE_DIMS:
        mats = bench._ginibre_mats(n, 2026)[:2]
        count = functools.partial(bench._linalg_calls_per_call, bench.numerical_radius, mats)
        assert 1 <= count("eigvals") <= 20 and 1 <= count("eigh") <= 6
    assert np.linalg.eigvals is eigvals and np.linalg.eigh is eigh
    # the timing wrappers are taken off again
    assert (maps._run_chunk, maps._Draws.assemble) == (run_chunk, assemble)
