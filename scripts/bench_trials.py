"""Trial-engine and oracle throughput, end to end and phase by phase.

    python3 scripts/bench_trials.py --out BENCH.json [--seed 2026] [--reps 7]

``engine``: for n = 2, 3, 6 and 16 it times ``check_preservation`` on a
radius-mode map with hash sign and shift rules (trials per second), and the
four phases of the block engine on the same trials, in microseconds per
trial:

* ``draws``: phase 1 of ``maps._sample_block``, opening each trial's
  (seed, i) stream and making its draws (the call's time less its
  assembly);
* ``qr_assembly``: ``_Draws.assemble`` inside that call: stacked Haar QR,
  forming and validating the samples;
* ``map_digests``: the map step on the A and B stacks, with its sign and
  shift rules' stacked integer hash;
* ``spectra``: both commutator spectra and the violation metric.

``kind_us_per_trial`` gives ``draws`` and ``qr_assembly`` for each pool
kind alone: the 64 trials of that kind among trials 0 .. 255, drawn by
``_Draws.draw_pair`` into one block and then assembled.
``failing_run_outside_chunk_us``: at n = 3, 6 and 16, the microseconds a
failing ``check_preservation`` run (range mode, transpose dagger, 25
trials) spends outside the trial pass ``maps._run_chunk``: its checks, its
report and the step that yields the report's counterexample.

``oracles``: at n = 3, 6 and 16, microseconds per
``radius_equivalence_check`` call (200 projections, an unrelated GUE pair),
per draw of its 200 unit vectors, per ``asymmetry_witness`` and per
``classify_two_level`` call on 50 GUE matrices, and per
``classify_two_level`` and per ``symmetry_witness_unitary`` call on 50
two-level matrices, drawn as criterion 5 draws them; and the wall time in
seconds of acceptance criteria 3, 4 and 5 at scale 1.0.

``radius``: at n = 3, 6 and 16, microseconds per ``numerical_radius``
call on 50 Ginibre matrices scaled by 1/sqrt(2), as criterion 9 draws them,
the mean number of 2n x 2n level-set eigenproblems (``eigvals`` calls) per
call and of Newton steps (one-matrix ``eigh`` calls) per call; and the wall
time in seconds of acceptance criterion 9 at scale 1.0.

``boundary``: microseconds per ``range_boundary(A, 360)`` call on the same
50 matrices at each n.

``suite``: the wall time in seconds of ``run_acceptance_suite`` at scales
0.02, 0.05 and 1.0 with ``workers`` 1 and 2.  An engine call opens a
process pool of its own only when its estimated work pays for one, which
no call at these scales does, so ``workers`` 2 runs the same code as 1.
Also the wall time in seconds of acceptance criteria 6, 7 and 8, which run
the preserver forms through the trial engine, each called alone at scales
0.02 and 1.0 with ``workers`` 1.

Every figure is the median over ``--reps`` runs after one warm-up run.
BLAS runs on one thread.  The JSON names the host, Python and NumPy
versions next to the numbers.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from commrange import maps, matcore, suite  # noqa: E402
from commrange.matcore import (  # noqa: E402
    _commutator_spectrum,
    random_hermitian,
    random_unitary,
    substream,
)
from commrange.nrange import numerical_radius, range_boundary  # noqa: E402
from commrange.structure import (  # noqa: E402
    asymmetry_witness,
    classify_two_level,
    radius_equivalence_check,
    symmetry_witness_unitary,
)

DIMS = (2, 3, 6, 16)
ORACLE_DIMS = (3, 6, 16)
BLOCK = maps._BLOCK_TRIALS
KIND_TRIALS = 64
FAIL_TRIALS = 25
PROJECTIONS = 200
CALLS = 50
BOUNDARY_ANGLES = 360
CRITERIA = {
    "crit03_rank1_radius_identity": suite.crit_rank1_radius_identity,
    "crit04_affine_equivalence_oracle": suite.crit_affine_equivalence_oracle,
    "crit05_two_level_dichotomy": suite.crit_two_level_dichotomy,
}
RADIUS_CRITERIA = {"crit09_sweep_vs_sampling": suite.crit_sweep_vs_sampling}
SUITE_SCALES = (0.02, 0.05, 1.0)
SUITE_WORKERS = (1, 2)
FORM_CRITERIA = {
    "crit06_radius_preserver_forms": suite.crit_radius_preserver_forms,
    "crit07_range_preserver_forms": suite.crit_range_preserver_forms,
    "crit08_dim2_forms": suite.crit_dim2_forms,
}
FORM_SCALES = (0.02, 1.0)


def _spec(n: int, seed: int) -> maps.MapSpec:
    return maps.MapSpec(
        dim=n,
        unitary=random_unitary(n, substream(seed, maps.UNITARY_STREAM)),
        sign=maps.SIGN_HASH,
        sign_seed=seed + 1,
        shift=maps.SHIFT_HASH,
        shift_seed=seed + 2,
    )


def _timed_sample(n: int, seed: int, lo: int, hi: int) -> tuple:
    """Seconds of ``maps._sample_block`` on trials lo .. hi-1 of ``seed``
    and of the ``_Draws.assemble`` call inside it."""
    assembly = []
    assemble = maps._Draws.assemble

    def timed_assemble(draws):
        t = perf_counter()
        out = assemble(draws)
        assembly.append(perf_counter() - t)
        return out

    maps._Draws.assemble = timed_assemble
    try:
        t0 = perf_counter()
        a, b = maps._sample_block(n, seed, lo, hi)
        wall = perf_counter() - t0
    finally:
        maps._Draws.assemble = assemble
    return wall, assembly[0], a, b


def _phases(m: maps.MapSpec, n: int, seed: int) -> dict:
    """Seconds of each engine phase over trials 0 .. BLOCK-1."""
    wall, assembly, a, b = _timed_sample(n, seed, 0, BLOCK)
    t1 = perf_counter()
    (images,) = maps._images([m], np.concatenate([a, b]))
    t2 = perf_counter()
    spectra = _commutator_spectrum(
        np.concatenate([a, images[:BLOCK]]), np.concatenate([b, images[BLOCK:]])
    )
    maps.metric_violation(spectra[:BLOCK], spectra[BLOCK:], maps.MODE_RADIUS)
    t3 = perf_counter()
    return {
        "draws": wall - assembly,
        "qr_assembly": assembly,
        "map_digests": t2 - t1,
        "spectra": t3 - t2,
    }


def measure_kinds(n: int, seed: int, reps: int) -> dict:
    """Microseconds per trial of phase-1 draws and of assembly for each
    pool kind alone: one block of the KIND_TRIALS trials of the kind among
    the first 4 * KIND_TRIALS, each drawn by ``_Draws.draw_pair`` from its
    (seed, i) stream, then assembled."""
    out = {"draws": {}, "qr_assembly": {}}
    for kind in range(4):
        runs = []
        for r in range(reps + 1):
            keys = [(seed + r, i) for i in range(kind, 4 * KIND_TRIALS, 4)]
            t0 = perf_counter()
            draws = maps._Draws(n, KIND_TRIALS)
            for (_, i), rng in zip(keys, matcore._streams(keys)):
                draws.draw_pair(rng, i)
            t1 = perf_counter()
            draws.assemble()
            runs.append((t1 - t0, perf_counter() - t1))
        draw_s, assembly = np.median(runs[1:], axis=0)
        out["draws"][f"kind{kind}"] = float(draw_s) / KIND_TRIALS * 1e6
        out["qr_assembly"][f"kind{kind}"] = float(assembly) / KIND_TRIALS * 1e6
    return out


def measure_counterexample(seed: int, reps: int) -> dict:
    """Microseconds a failing ``check_preservation`` run (range mode,
    transpose dagger, FAIL_TRIALS trials) spends outside ``maps._run_chunk``,
    the trial pass: checks, the report and its counterexample."""
    out = {}
    chunk = maps._run_chunk
    for n in ORACLE_DIMS:
        m = maps.MapSpec(
            dim=n, unitary=np.eye(n), dagger=maps.DAGGER_TRANSPOSE, epsilon=1
        )
        runs = []
        for r in range(reps + 1):
            inner = []

            def timed_chunk(args):
                t = perf_counter()
                found = chunk(args)
                inner.append(perf_counter() - t)
                return found

            maps._run_chunk = timed_chunk
            try:
                t0 = perf_counter()
                report = maps.check_preservation(
                    m, maps.MODE_RANGE, FAIL_TRIALS, n, seed + r
                )
                runs.append(perf_counter() - t0 - inner[0])
            finally:
                maps._run_chunk = chunk
            assert not report.passed
        out[f"n{n}"] = float(np.median(runs[1:])) * 1e6
    return out


def measure_engine(n: int, seed: int, reps: int) -> dict:
    m = _spec(n, seed)
    maps.check_preservation(m, maps.MODE_RADIUS, BLOCK, n, seed)
    _phases(m, n, seed)
    walls, phases = [], []
    for r in range(reps):
        t0 = perf_counter()
        maps.check_preservation(m, maps.MODE_RADIUS, BLOCK, n, seed + r)
        walls.append(perf_counter() - t0)
        phases.append(_phases(m, n, seed + r))
    return {
        "trials_per_s": BLOCK / float(np.median(walls)),
        "phase_us_per_trial": {
            name: float(np.median([p[name] for p in phases])) / BLOCK * 1e6
            for name in phases[0]
        },
        "kind_us_per_trial": measure_kinds(n, seed, reps),
    }


def _draw_vectors(n: int, rng: np.random.Generator) -> np.ndarray:
    """The unit vectors of one ``radius_equivalence_check`` call, drawn as
    it draws them: one stacked ``matcore._unit_vectors`` call."""
    return matcore._unit_vectors(rng.standard_normal((PROJECTIONS, 2, n)))


def _us_per_call(fn, seed: int, reps: int) -> float:
    """Median over ``reps`` runs of CALLS calls fn(rng), each on its own
    stream opened outside the timed loop, in microseconds per call."""
    runs = []
    for r in range(reps + 1):
        rngs = [substream(seed + r, k) for k in range(CALLS)]
        t0 = perf_counter()
        for rng in rngs:
            fn(rng)
        runs.append((perf_counter() - t0) / CALLS * 1e6)
    return float(np.median(runs[1:]))


def measure_oracles(seed: int, reps: int) -> dict:
    out = {
        "equiv_us_per_call": {},
        "draw200_us": {},
        "witness_us_per_call": {},
        "classify_gue_us_per_call": {},
        "classify_two_level_us_per_call": {},
        "unitary_two_level_us_per_call": {},
        "criteria_s": {},
    }
    for n in ORACLE_DIMS:
        a = random_hermitian(n, substream(seed, 2 * n))
        b = random_hermitian(n, substream(seed, 2 * n + 1))
        out["equiv_us_per_call"][f"n{n}"] = _us_per_call(
            lambda rng: radius_equivalence_check(a, b, PROJECTIONS, rng), seed, reps
        )
        out["draw200_us"][f"n{n}"] = _us_per_call(
            lambda rng: _draw_vectors(n, rng), seed, reps
        )
        mats = [random_hermitian(n, substream(seed + n, k)) for k in range(CALLS)]
        out["witness_us_per_call"][f"n{n}"] = _us_per_matrix(
            asymmetry_witness, mats, reps
        )
        out["classify_gue_us_per_call"][f"n{n}"] = _us_per_matrix(
            classify_two_level, mats, reps
        )
        two_level = [
            maps._random_two_level(n, substream(seed + n, k)) for k in range(CALLS)
        ]
        out["classify_two_level_us_per_call"][f"n{n}"] = _us_per_matrix(
            classify_two_level, two_level, reps
        )
        out["unitary_two_level_us_per_call"][f"n{n}"] = _us_per_matrix(
            symmetry_witness_unitary, two_level, reps
        )
    out["criteria_s"] = _criteria_s(CRITERIA, seed, reps)
    return out


def _criteria_s(criteria: dict, seed: int, reps: int, scale: float = 1.0) -> dict:
    """Median wall time in seconds of each criterion at ``scale``, with
    ``workers`` 1."""
    out = {}
    for name, crit in criteria.items():
        walls = []
        for _ in range(reps + 1):
            t0 = perf_counter()
            crit(seed, scale, 1)
            walls.append(perf_counter() - t0)
        out[name] = float(np.median(walls[1:]))
    return out


def _ginibre_mats(n: int, seed: int) -> list:
    """The CALLS matrices of the radius and boundary sections at n."""
    mats = []
    for k in range(CALLS):
        rng = substream(seed + n, k)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(g / np.sqrt(2))
    return mats


def _us_per_matrix(fn, mats: list, reps: int) -> float:
    """Median over ``reps`` runs of fn(A) for each A in ``mats``, after one
    warm-up run, in microseconds per call."""
    runs = []
    for _ in range(reps + 1):
        t0 = perf_counter()
        for a in mats:
            fn(a)
        runs.append((perf_counter() - t0) / len(mats) * 1e6)
    return float(np.median(runs[1:]))


def _linalg_calls_per_call(fn, mats: list, name: str) -> float:
    """Mean number of ``np.linalg.<name>`` calls per fn(A), untimed."""
    calls = []
    original = getattr(np.linalg, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    setattr(np.linalg, name, counting)
    try:
        for a in mats:
            fn(a)
    finally:
        setattr(np.linalg, name, original)
    return len(calls) / len(mats)


def measure_radius(seed: int, reps: int) -> dict:
    out = {"us_per_call": {}, "solves_per_call": {}, "newton_steps_per_call": {}}
    for n in ORACLE_DIMS:
        mats = _ginibre_mats(n, seed)
        out["us_per_call"][f"n{n}"] = _us_per_matrix(numerical_radius, mats, reps)
        for key, name in (("solves_per_call", "eigvals"), ("newton_steps_per_call", "eigh")):
            out[key][f"n{n}"] = _linalg_calls_per_call(numerical_radius, mats, name)
    out["criteria_s"] = _criteria_s(RADIUS_CRITERIA, seed, reps)
    return out


def measure_boundary(seed: int, reps: int) -> dict:
    out = {"us_per_call": {}}
    for n in ORACLE_DIMS:
        out["us_per_call"][f"n{n}"] = _us_per_matrix(
            lambda a: range_boundary(a, BOUNDARY_ANGLES), _ginibre_mats(n, seed), reps
        )
    return out


def measure_suite(seed: int, reps: int) -> dict:
    """Median wall time in seconds of each whole suite run, and of each
    form criterion called alone."""
    out = {"wall_s": {}}
    for scale in SUITE_SCALES:
        for workers in SUITE_WORKERS:
            walls = []
            for _ in range(reps + 1):
                t0 = perf_counter()
                suite.run_acceptance_suite(seed, scale, workers)
                walls.append(perf_counter() - t0)
            key = f"scale{scale}_workers{workers}"
            out["wall_s"][key] = float(np.median(walls[1:]))
    out["criteria_s"] = {
        f"scale{scale}_{name}": wall
        for scale in FORM_SCALES
        for name, wall in _criteria_s(FORM_CRITERIA, seed, reps, scale).items()
    }
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--reps", type=int, default=7)
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    engine = {f"n{n}": measure_engine(n, args.seed, args.reps) for n in DIMS}
    counterexample = measure_counterexample(args.seed, args.reps)
    oracles = measure_oracles(args.seed, args.reps)
    radius = measure_radius(args.seed, args.reps)
    boundary = measure_boundary(args.seed, args.reps)
    suite_runs = measure_suite(args.seed, args.reps)
    report = {
        "host": {
            "machine": platform.machine(),
            "cpu": _cpu_model(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": 1,
        },
        "seed": args.seed,
        "reps": args.reps,
        "trials_per_run": BLOCK,
        "map": "radius mode, identity dagger, hash sign and shift rules",
        "trials_per_s": {k: v["trials_per_s"] for k, v in engine.items()},
        "phase_us_per_trial": {k: v["phase_us_per_trial"] for k, v in engine.items()},
        "kind_us_per_trial": {k: v["kind_us_per_trial"] for k, v in engine.items()},
        "failing_run_outside_chunk_us": counterexample,
        "oracles": oracles,
        "radius": radius,
        "boundary": boundary,
        "suite": suite_runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for key, val in engine.items():
        phases = " ".join(f"{p}={us:.1f}" for p, us in val["phase_us_per_trial"].items())
        print(f"{key}: {val['trials_per_s']:.0f} trials/s; us/trial {phases}")
        for part, by_kind in val["kind_us_per_trial"].items():
            kinds = " ".join(f"{k}={v:.2f}" for k, v in by_kind.items())
            print(f"  {part} by kind: {kinds}")
    print("failing run outside the chunk, us: " + " ".join(
        f"{k}={v:.1f}" for k, v in counterexample.items()
    ))
    for section in (oracles, radius, boundary, suite_runs):
        for key, val in section.items():
            print(f"{key}: " + " ".join(f"{k}={v:.3g}" for k, v in val.items()))


if __name__ == "__main__":
    main()
