"""Trial-engine throughput, end to end and phase by phase.

    python3 scripts/bench_trials.py --out BENCH.json [--seed 2026] [--reps 7]

For n = 2, 3, 6 and 16 it times ``check_preservation`` on a radius-mode
map with hash sign and shift rules (trials per second), and the four
phases of the block engine on the same trials, in microseconds per trial:

* ``draws``: opening each trial's (seed, i) stream and making its draws;
* ``qr_assembly``: stacked Haar QR, forming and validating the samples;
* ``map_digests``: the map on the A and B stacks, with the hash digests;
* ``spectra``: both commutator spectra and the violation metric.

Every figure is the median over ``--reps`` runs of ``BLOCK`` trials (one
engine block) after one warm-up run.  BLAS runs on one thread.  The JSON
names the host, Python and NumPy versions next to the numbers.
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

from commrange import maps  # noqa: E402
from commrange.matcore import _commutator_spectrum, random_unitary, substream  # noqa: E402

DIMS = (2, 3, 6, 16)
BLOCK = maps._BLOCK_TRIALS


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
    t0 = perf_counter()
    draws = maps._Draws(n)
    for i in range(BLOCK):
        draws.draw_pair(substream(seed, i), i)
    t1 = perf_counter()
    out = draws.assemble()
    t2 = perf_counter()
    images = maps._images(m, out)
    t3 = perf_counter()
    spectra = _commutator_spectrum(
        np.concatenate([out[0::2], images[0::2]]),
        np.concatenate([out[1::2], images[1::2]]),
    )
    maps.metric_violation(spectra[:BLOCK], spectra[BLOCK:], maps.MODE_RADIUS)
    t4 = perf_counter()
    return {
        "draws": t1 - t0,
        "qr_assembly": t2 - t1,
        "map_digests": t3 - t2,
        "spectra": t4 - t3,
    }


def measure(n: int, seed: int, reps: int) -> dict:
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
    results = {f"n{n}": measure(n, args.seed, args.reps) for n in DIMS}
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
        "trials_per_s": {k: v["trials_per_s"] for k, v in results.items()},
        "phase_us_per_trial": {k: v["phase_us_per_trial"] for k, v in results.items()},
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for key, val in results.items():
        phases = " ".join(f"{p}={us:.1f}" for p, us in val["phase_us_per_trial"].items())
        print(f"{key}: {val['trials_per_s']:.0f} trials/s; us/trial {phases}")


if __name__ == "__main__":
    main()
