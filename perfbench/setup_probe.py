"""Set-up cost of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds spent importing commrange (from ``src/``) and building
the workload's inputs, then the reference kernel's time in the same
process (see calib.py).  run.py starts several of these and reports the
median set-up time scaled to reference speed as ``setup_s``.
"""

import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    t0 = perf_counter()
    import workloads

    workloads.WORKLOADS[workload][0](seed)
    setup_s = perf_counter() - t0
    import calib

    calib.reference_seconds()  # first call pays LAPACK initialisation
    print(repr(setup_s), repr(calib.reference_seconds()))


if __name__ == "__main__":
    main()
