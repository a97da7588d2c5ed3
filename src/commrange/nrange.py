"""Numerical range W(A) and numerical radius w(A) for small matrices.

The general path is a support-function sweep over directions theta: one
builder forms the support matrices H_theta for an array of angles, and
``support_value``, the ``numerical_radius`` grid and ``range_boundary``
each make one stacked LAPACK call on them.  The package's main consumers
deal in commutators of Hermitian matrices, which are skew-Hermitian and
hence normal, so their range is the exact segment i[t_min, t_max] spanned
by ``matcore.commutator_spectrum``, never the sweep; the sweep exists for
general matrices, for oracle duty and for boundary export.  Radii of
commutators against rank-1 projections, w([A, x x*]), come from one
closed-form kernel over a stack of unit vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matcore import (
    MatrixError,
    _skew_eigenvalues,
    as_matrix,
    commutator_spectrum,
    hermitian,
    is_hermitian,
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


def _support_matrices(a: np.ndarray, thetas) -> np.ndarray:
    """H_theta = (e^{-i theta} A + e^{i theta} A*)/2 for a validated A,
    stacked over the shape of ``thetas`` (a scalar angle gives one matrix)."""
    t = np.asarray(thetas, dtype=float)[..., None, None]
    return (np.exp(-1j * t) * a + np.exp(1j * t) * a.conj().T) / 2


def _top_support(a: np.ndarray, thetas) -> np.ndarray:
    return np.linalg.eigvalsh(_support_matrices(a, thetas))[..., -1]


def support_value(a, theta: float) -> float:
    """Support function of W(A) in direction theta.

    Equals the top eigenvalue of H_theta = (e^{-i theta} A + e^{i theta} A*)/2.
    """
    return float(_top_support(as_matrix(a), theta))


def numerical_radius(a) -> float:
    """Numerical radius w(A) = sup |lambda| over lambda in W(A).

    Hermitian and skew-Hermitian inputs take the exact spectral path.  The
    general path evaluates the support function on a 720-angle grid and
    refines the best bracket by golden-section search down to width 1e-10;
    both stages are deterministic.
    """
    a = as_matrix(a)
    if is_hermitian(a):
        eigs = np.linalg.eigh((a + a.conj().T) / 2)[0]
        return float(np.abs(eigs).max())
    if is_hermitian(a, skew=True):
        return float(np.abs(_skew_eigenvalues(a)).max())

    thetas = np.linspace(0.0, 2.0 * np.pi, SWEEP_ANGLES, endpoint=False)
    vals = _top_support(a, thetas)
    k = int(np.argmax(vals))
    best = float(vals[k])

    step = 2.0 * np.pi / SWEEP_ANGLES
    lo, hi = thetas[k] - step, thetas[k] + step
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc = float(_top_support(a, c))
    fd = float(_top_support(a, d))
    best = max(best, fc, fd)
    while hi - lo > SWEEP_REFINE_WIDTH:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = float(_top_support(a, c))
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = float(_top_support(a, d))
        best = max(best, fc, fd)
    return best


def commutator_interval(a, b) -> CommutatorInterval:
    """W([A, B]) = i[t_min, t_max] for Hermitian A, B, exactly from the
    spectrum of the (skew-Hermitian, hence normal) commutator."""
    ts = commutator_spectrum(a, b)
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


def _rank1_radii(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """w([A, x x*]) for a validated Hermitian A and each row x of ``xs``,
    a stack of unit vectors; see :func:`rank1_commutator_radius`."""
    axs = xs @ a.T
    mean = np.einsum("kj,kj->k", xs.conj(), axs).real
    second = np.einsum("kj,kj->k", axs.conj(), axs).real
    return np.sqrt(np.maximum(0.0, second - mean * mean))


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
    return float(_rank1_radii(a, x[None, :])[0])


def range_boundary(a, n_angles: int) -> RangeBoundary:
    """Boundary samples <A v, v> for the top eigenvector v of H_theta,
    over n_angles uniform support angles in [0, 2 pi)."""
    a = as_matrix(a)
    if n_angles < 8:
        raise ValueError("n_angles must be at least 8")
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    _, vecs = np.linalg.eigh(_support_matrices(a, angles))
    vectors = np.ascontiguousarray(vecs[..., -1])
    points = np.einsum("kj,kj->k", vectors.conj(), vectors @ a.T)
    return RangeBoundary(points=points, angles=angles, vectors=vectors)
