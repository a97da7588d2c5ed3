"""Numerical range W(A) and numerical radius w(A) for small matrices.

The general path works on the support function h(theta) =
lambda_max(H_theta) over directions theta: one builder forms the support
matrices H_theta for an array of angles, and ``support_value``,
``range_boundary`` and each level of the ``numerical_radius`` level-set
iteration make one stacked LAPACK call on them.  The package's main
consumers deal in commutators of Hermitian matrices, which are
skew-Hermitian and hence normal, so their range is the exact segment
i[t_min, t_max] spanned by ``matcore.commutator_spectrum``, never the
support function; that exists for general matrices, for oracle duty and
for boundary export.  Radii of commutators against rank-1 projections,
w([A, x x*]), come from one closed-form kernel over a stack of unit
vectors.
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

SYMMETRY_TOL = 1e-8
_LEVEL_GRID = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
_LEVEL_ITERATIONS = 20
_UNIMODULAR_TOL = 1e-6


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

    Hermitian and skew-Hermitian inputs take the exact spectral path; the
    branch is chosen on A/||A||_max, so it does not depend on the scale of
    A.  The general path is the level-set method of Mengi and Overton
    (IMA J. Numer. Anal. 25(4), 2005) on the support function
    h(theta) = lambda_max(H_theta): from the best of 16 grid angles, each
    level r finds every angle where r is an eigenvalue of H_theta and
    raises r to the largest h at the midpoints between consecutive
    crossings, until no midpoint rises above r.  The result is always an
    attained support value h(theta), a lower bound on w(A) up to the
    eigensolver's rounding.
    """
    a = as_matrix(a)
    scale = np.abs(a).max()
    if scale == 0.0:
        return 0.0
    unit = a / scale
    if is_hermitian(unit):
        eigs = np.linalg.eigh((a + a.conj().T) / 2)[0]
        return float(np.abs(eigs).max())
    if is_hermitian(unit, skew=True):
        return float(np.abs(_skew_eigenvalues(a)).max())
    return _level_set_radius(a, unit, scale)


def _level_set_radius(a: np.ndarray, unit: np.ndarray, scale: float) -> float:
    """The general path of :func:`numerical_radius`: max over theta of
    h(theta) = lambda_max(H_theta) for a validated A.  The support values
    are computed on A; the crossings come from unit = A/scale, so the
    unimodularity test on them does not depend on the scale of A."""
    n = a.shape[0]
    spectra = np.linalg.eigvalsh(_support_matrices(a, _LEVEL_GRID))
    r = spectra[:, -1].max()
    # r in sigma(H_theta) iff det(z^2 A* - 2 r z I + A) = 0 at z = e^{i theta};
    # linearised as K x = z N x with K = [[0, I], [-A, 2 r I]] and
    # N = [[I, 0], [0, A*]], on the scale-free unit = A/scale.
    eye = np.eye(n)
    pencil_n = np.zeros((2 * n, 2 * n), dtype=complex)
    pencil_n[:n, :n] = eye
    pencil_n[n:, n:] = unit.conj().T
    pencil_k = np.zeros((2 * n, 2 * n), dtype=complex)
    pencil_k[:n, n:] = eye
    pencil_k[n:, :n] = -unit
    for _ in range(_LEVEL_ITERATIONS):
        # N is singular whenever A is, so shift-invert about a point
        # sigma = e^{i phi} on the circle where H_phi is farthest from
        # level r: mu = eig((K - sigma N)^{-1} N) and z = sigma + 1/mu.
        phi = _LEVEL_GRID[np.argmax(np.abs(spectra - r).min(axis=1))]
        sigma = np.exp(1j * phi)
        pencil_k[n:, n:] = 2.0 * (r / scale) * eye
        try:
            mu = np.linalg.eigvals(
                np.linalg.solve(pencil_k - sigma * pencil_n, pencil_n)
            )
        except np.linalg.LinAlgError:
            break
        # A crossing z lies on the unit circle, within distance 2 of sigma,
        # so |mu| > 1/3; this also drops mu = 0 (z at infinity).
        mu = mu[np.abs(mu) > 1.0 / 3.0]
        z = sigma + 1.0 / mu
        crossings = np.sort(np.angle(z[np.abs(np.abs(z) - 1.0) <= _UNIMODULAR_TOL]))
        if crossings.size == 0:
            break
        mids = (crossings + np.append(crossings[1:], crossings[0] + 2.0 * np.pi)) / 2
        best = _top_support(a, mids).max()
        if best <= r:
            break
        r = best
    return float(r)


def commutator_interval(a, b) -> CommutatorInterval:
    """W([A, B]) = i[t_min, t_max] for Hermitian A, B, exactly from the
    spectrum of the (skew-Hermitian, hence normal) commutator."""
    ts = commutator_spectrum(a, b)
    return CommutatorInterval(float(ts[0]), float(ts[-1]))


def interval_symmetric(iv: CommutatorInterval, tol: float = SYMMETRY_TOL) -> bool:
    """True iff the interval equals its reflection through 0, to tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return bool(_symmetric(iv.t_min, iv.t_max, tol))


def _symmetric(t_min, t_max, tol: float):
    """:func:`interval_symmetric` for endpoints given as floats or as
    arrays of them, one verdict per pair."""
    scale = np.maximum(1.0, np.maximum(np.abs(t_min), np.abs(t_max)))
    return np.abs(t_min + t_max) <= tol * scale


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
