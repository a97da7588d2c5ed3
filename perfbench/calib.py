"""Reference kernel for machine-speed calibration.

On a shared host the same code runs up to ~1.5x slower for tens of
seconds at a time, and process CPU time slows with it, so raw rates from
runs made minutes apart cannot be compared to a 25% bound.  The kernel
below mixes what commrange's hot paths do (a Python loop of 2x2 complex
rotations, like the Jacobi sweep, and a batched LAPACK eigvalsh) and
does not depend on commrange, so no change to the package moves it.
Timing it next to each round and scaling by NOMINAL_S / kernel time
cancels the host's slowdown: rates and times are reported as on a
machine where the kernel takes exactly NOMINAL_S.

suite-battery is not scaled.  Its wall time is mostly spawn-pool
start-up, which does not slow with the kernel: over five runs the kernel
time spread 22% (IQR over median) while the suite's wall time spread 5%,
and scaling raised the suite's spread to 12%.
"""

from time import perf_counter

import numpy as np

NOMINAL_S = 0.010

_rng = np.random.Generator(np.random.Philox(key=[7, 0]))
_W = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_H = np.stack([_W + _W.conj().T] * 64)
_ROT = np.array([[0.8, 0.6], [-0.6, 0.8]], dtype=complex)


def _kernel() -> float:
    w = _W.copy()
    acc = 0.0
    for k in range(700):
        idx = [k % 7, k % 7 + 1]
        w[:, idx] = w[:, idx] @ _ROT
        w[idx, :] = _ROT.conj().T @ w[idx, :]
        acc += abs(w[0, 0])
    for _ in range(4):
        acc += float(np.linalg.eigvalsh(_H)[0, 0])
    return acc


def reference_seconds(repeat: int = 1) -> float:
    """Median wall time of ``repeat`` kernel runs."""
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return float(np.median(times))

