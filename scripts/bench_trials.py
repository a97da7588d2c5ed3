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
* ``map_digests``: the map on the A and B stacks, with the hash digests;
* ``spectra``: both commutator spectra and the violation metric.

``oracles``: at n = 3, 6 and 16, microseconds per
``radius_equivalence_check`` call (200 projections, an unrelated GUE pair)
and per draw of its 200 unit vectors; and the wall time in seconds of
acceptance criteria 4 and 5 at scale 1.0.

``radius``: at n = 3, 6 and 16, microseconds per ``numerical_radius``
call on 50 Ginibre matrices scaled by 1/sqrt(2), as criterion 9 draws them,
and the mean number of 2n x 2n level-set eigenproblems (``eigvals`` calls)
per call; and the wall time in seconds of acceptance criterion 9 at scale
1.0.

``boundary``: microseconds per ``range_boundary(A, 360)`` call on the same
50 matrices at each n.

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
from commrange.structure import radius_equivalence_check  # noqa: E402

DIMS = (2, 3, 6, 16)
ORACLE_DIMS = (3, 6, 16)
BLOCK = maps._BLOCK_TRIALS
PROJECTIONS = 200
CALLS = 50
BOUNDARY_ANGLES = 360
CRITERIA = {
    "crit04_affine_equivalence_oracle": suite.crit_affine_equivalence_oracle,
    "crit05_two_level_dichotomy": suite.crit_two_level_dichotomy,
}
RADIUS_CRITERIA = {"crit09_sweep_vs_sampling": suite.crit_sweep_vs_sampling}


def _spec(n: int, seed: int) -> maps.MapSpec:
    return maps.MapSpec(
        dim=n,
        unitary=random_unitary(n, substream(seed, maps.UNITARY_STREAM)),
        sign=maps.SIGN_HASH,
        sign_seed=seed + 1,
        shift=maps.SHIFT_HASH,
        shift_seed=seed + 2,
    )


def _phases(m: maps.MapSpec, n: int, seed: int) -> dict:
    """Seconds of each engine phase over trials 0 .. BLOCK-1."""
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
        a, b = maps._sample_block(n, seed, 0, BLOCK)
        t1 = perf_counter()
    finally:
        maps._Draws.assemble = assemble
    images = maps._images(m, np.concatenate([a, b]))
    t2 = perf_counter()
    spectra = _commutator_spectrum(
        np.concatenate([a, images[:BLOCK]]), np.concatenate([b, images[BLOCK:]])
    )
    maps.metric_violation(spectra[:BLOCK], spectra[BLOCK:], maps.MODE_RADIUS)
    t3 = perf_counter()
    return {
        "draws": t1 - t0 - assembly[0],
        "qr_assembly": assembly[0],
        "map_digests": t2 - t1,
        "spectra": t3 - t2,
    }


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
    }


def _draw_vectors(n: int, rng: np.random.Generator) -> np.ndarray:
    """The unit vectors of one ``radius_equivalence_check`` call, drawn as
    it draws them: one stacked ``matcore._unit_vectors`` call, or, in a
    tree without that kernel, one ``random_unit_vector`` call per vector."""
    if hasattr(matcore, "_unit_vectors"):
        return matcore._unit_vectors(rng.standard_normal((PROJECTIONS, 2, n)))
    return np.stack([matcore.random_unit_vector(n, rng) for _ in range(PROJECTIONS)])


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
    out = {"equiv_us_per_call": {}, "draw200_us": {}, "criteria_s": {}}
    for n in ORACLE_DIMS:
        a = random_hermitian(n, substream(seed, 2 * n))
        b = random_hermitian(n, substream(seed, 2 * n + 1))
        out["equiv_us_per_call"][f"n{n}"] = _us_per_call(
            lambda rng: radius_equivalence_check(a, b, PROJECTIONS, rng), seed, reps
        )
        out["draw200_us"][f"n{n}"] = _us_per_call(
            lambda rng: _draw_vectors(n, rng), seed, reps
        )
    out["criteria_s"] = _criteria_s(CRITERIA, seed, reps)
    return out


def _criteria_s(criteria: dict, seed: int, reps: int) -> dict:
    """Median wall time in seconds of each criterion at scale 1.0."""
    out = {}
    for name, crit in criteria.items():
        walls = []
        for _ in range(reps + 1):
            t0 = perf_counter()
            crit(seed, 1.0, 1)
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


def _eigvals_per_call(fn, mats: list) -> float:
    """Mean number of ``np.linalg.eigvals`` calls per fn(A), untimed."""
    calls = []
    eigvals = np.linalg.eigvals

    def counting(m):
        calls.append(1)
        return eigvals(m)

    np.linalg.eigvals = counting
    try:
        for a in mats:
            fn(a)
    finally:
        np.linalg.eigvals = eigvals
    return len(calls) / len(mats)


def measure_radius(seed: int, reps: int) -> dict:
    out = {"us_per_call": {}, "solves_per_call": {}}
    for n in ORACLE_DIMS:
        mats = _ginibre_mats(n, seed)
        out["us_per_call"][f"n{n}"] = _us_per_matrix(numerical_radius, mats, reps)
        out["solves_per_call"][f"n{n}"] = _eigvals_per_call(numerical_radius, mats)
    out["criteria_s"] = _criteria_s(RADIUS_CRITERIA, seed, reps)
    return out


def measure_boundary(seed: int, reps: int) -> dict:
    out = {"us_per_call": {}}
    for n in ORACLE_DIMS:
        out["us_per_call"][f"n{n}"] = _us_per_matrix(
            lambda a: range_boundary(a, BOUNDARY_ANGLES), _ginibre_mats(n, seed), reps
        )
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
    oracles = measure_oracles(args.seed, args.reps)
    radius = measure_radius(args.seed, args.reps)
    boundary = measure_boundary(args.seed, args.reps)
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
        "oracles": oracles,
        "radius": radius,
        "boundary": boundary,
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for key, val in engine.items():
        phases = " ".join(f"{p}={us:.1f}" for p, us in val["phase_us_per_trial"].items())
        print(f"{key}: {val['trials_per_s']:.0f} trials/s; us/trial {phases}")
    for section in (oracles, radius, boundary):
        for key, val in section.items():
            print(f"{key}: " + " ".join(f"{k}={v:.3g}" for k, v in val.items()))


if __name__ == "__main__":
    main()
