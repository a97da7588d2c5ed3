"""Numerical range W(A) and numerical radius w(A) for small matrices.

The general path is a support-function sweep over directions theta; the
package's main consumers deal in commutators of Hermitian matrices, which
are skew-Hermitian and hence normal, so their range is the exact segment
i[t_min, t_max] spanned by the spectrum.  That interval is always computed
from the spectrum, never from the sweep; the sweep exists for general
matrices, for oracle duty and for boundary export.  Every eigenvalue, on
either path, comes from LAPACK through ``numpy.linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matcore import (
    MatrixError,
    as_matrix,
    commutator,
    hermitian,
    hermitian_eigen,
    is_hermitian,
    skew_hermitian_eigenvalues,
)

SWEEP_ANGLES = 720
SWEEP_REFINE_WIDTH = 1e-10
SYMMETRY_TOL = 1e-8
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


class CommutatorInterval(NamedTuple):
    """The segment i[t_min, t_max] = W([A, B]) for Hermitian A, B."""

    t_min: float
    t_max: float


@dataclass(frozen=True)
class RangeBoundary:
    """Boundary samples of W(A): one point per support angle."""

    points: np.ndarray
    angles: np.ndarray
    vectors: np.ndarray


def _support_hermitian(a, theta: float) -> np.ndarray:
    return (np.exp(-1j * theta) * a + np.exp(1j * theta) * a.conj().T) / 2


def support_value(a, theta: float) -> float:
    """Support function of W(A) in direction theta.

    Equals the top eigenvalue of H_theta = (e^{-i theta} A + e^{i theta} A*)/2.
    """
    a = as_matrix(a)
    return float(np.linalg.eigvalsh(_support_hermitian(a, theta))[-1])


def numerical_radius(a) -> float:
    """Numerical radius w(A) = sup |lambda| over lambda in W(A).

    Hermitian and skew-Hermitian inputs take the exact spectral path.  The
    general path evaluates the support function on a 720-angle grid and
    refines the best bracket by golden-section search down to width 1e-10;
    both stages are deterministic.
    """
    a = as_matrix(a)
    if is_hermitian(a):
        eigs = hermitian_eigen(a).eigenvalues
        return float(np.abs(eigs).max())
    if is_hermitian(a, skew=True):
        ts = skew_hermitian_eigenvalues(a)
        return float(np.abs(ts).max())

    thetas = np.linspace(0.0, 2.0 * np.pi, SWEEP_ANGLES, endpoint=False)
    batch = (
        np.exp(-1j * thetas)[:, None, None] * a
        + np.exp(1j * thetas)[:, None, None] * a.conj().T
    ) / 2
    vals = np.linalg.eigvalsh(batch)[:, -1]
    k = int(np.argmax(vals))
    best = float(vals[k])

    step = 2.0 * np.pi / SWEEP_ANGLES
    lo, hi = thetas[k] - step, thetas[k] + step
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc = support_value(a, c)
    fd = support_value(a, d)
    best = max(best, fc, fd)
    while hi - lo > SWEEP_REFINE_WIDTH:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = support_value(a, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = support_value(a, d)
        best = max(best, fc, fd)
    return best


def commutator_interval(a, b) -> CommutatorInterval:
    """W([A, B]) = i[t_min, t_max] for Hermitian A, B, exactly from the
    spectrum of the (skew-Hermitian, hence normal) commutator."""
    ts = skew_hermitian_eigenvalues(commutator(hermitian(a), hermitian(b)))
    return CommutatorInterval(float(ts[0]), float(ts[-1]))


def interval_symmetric(iv: CommutatorInterval, tol: float = SYMMETRY_TOL) -> bool:
    """True iff the interval equals its reflection through 0, to tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    scale = max(1.0, abs(iv.t_min), abs(iv.t_max))
    return abs(iv.t_min + iv.t_max) <= tol * scale


def intervals_equal(
    a: CommutatorInterval, b: CommutatorInterval, tol: float = SYMMETRY_TOL
) -> bool:
    """Componentwise interval comparison with relative tolerance."""
    scale = max(1.0, abs(a.t_min), abs(a.t_max), abs(b.t_min), abs(b.t_max))
    return (
        abs(a.t_min - b.t_min) <= tol * scale
        and abs(a.t_max - b.t_max) <= tol * scale
    )


def rank1_commutator_radius(a, x) -> float:
    """w([A, x (x)* ]) for Hermitian A and a unit vector x, in closed form.

    The commutator against a rank-1 projection is a rank-<=2 skew block
    whose radius is ||Ax - <Ax,x>x|| = sqrt(<A^2 x, x> - <Ax, x>^2).
    """
    a = hermitian(a)
    x = np.asarray(x, dtype=complex).reshape(-1)
    if x.shape[0] != a.shape[0]:
        raise MatrixError("vector length does not match matrix dimension")
    if abs(np.linalg.norm(x) - 1.0) > 1e-12:
        raise MatrixError("x must be a unit vector")
    ax = a @ x
    mean = np.vdot(x, ax).real
    second = np.vdot(ax, ax).real
    return float(np.sqrt(max(0.0, second - mean * mean)))


def range_boundary(a, n_angles: int) -> RangeBoundary:
    """Boundary samples <A v, v> for the top eigenvector v of H_theta,
    over n_angles uniform support angles in [0, 2 pi)."""
    a = as_matrix(a)
    if n_angles < 8:
        raise ValueError("n_angles must be at least 8")
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    points = np.empty(n_angles, dtype=complex)
    vectors = np.empty((n_angles, a.shape[0]), dtype=complex)
    for i, theta in enumerate(angles):
        _, vecs = np.linalg.eigh(_support_hermitian(a, theta))
        v = vecs[:, -1]
        points[i] = np.vdot(v, a @ v)
        vectors[i] = v
    return RangeBoundary(points=points, angles=angles, vectors=vectors)
