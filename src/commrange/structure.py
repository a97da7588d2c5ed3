"""Structural classifiers for Hermitian matrices and constructive oracles.

Centers on the set of "two-level" Hermitian matrices: real combinations
alpha*P + delta*I of an orthogonal projection and the identity, i.e. those
with at most two spectral points.  Two-level matrices are exactly the ones
whose commutator ranges W([A, B]) are symmetric about 0 for every Hermitian
B; both directions come with constructive certificates:

* two-level      -> a Hermitian unitary U with U [A,B] U* = -[A,B] for all B;
* not two-level  -> an explicit rank-2 B whose interval is asymmetric.

Also houses the rank-1-projection radius test that characterizes pairs
related by B = +/-A + beta*I.  Each public function validates its matrices
once with ``hermitian``; the private steps under it trust them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .matcore import (
    EigenDecomposition,
    MatrixError,
    _commutator_spectrum,
    _hermitian_pair,
    _unit_vectors,
    hermitian,
    max_abs,
)
from .nrange import CommutatorInterval, _rank1_radii

GAP_TOL = 1e-6
WITNESS_ASYMMETRY_TOL = 1e-6
EQUIV_RESIDUAL_TOL = 1e-8
EQUIV_GAP_TOL = 1e-6

# Off-diagonal phases tried for the asymmetry witness, in order.  The first
# is the canonical choice (pure imaginary, minimal); the rest only exist for
# numerically degenerate spectra and are fixed for determinism.
WITNESS_PHASES = (1j, 1 + 1j, 2 + 1j, 1 + 2j)


class WitnessSearchError(RuntimeError):
    """Raised when a constructive witness that must exist cannot be found.

    This is a falsification event: it means either a library defect or a
    violation of the symmetry dichotomy the witnesses certify.
    """


@dataclass(frozen=True)
class TwoLevelDecomposition:
    """Result of the two-level classification.

    When ``two_level`` holds, ``A ~= coeff * projection + shift * I`` with
    ``projection`` the spectral projection of the upper eigenvalue cluster
    (absent for scalar matrices, where ``coeff`` is 0).  ``margin`` is the
    smallest relative distance of any spectral gap from the clustering
    threshold; values near 0 flag a borderline classification.  A scalar
    matrix has no gap: its margin is infinite, written as null in JSON.
    """

    two_level: bool
    projection: Optional[np.ndarray]
    coeff: float
    shift: float
    margin: float

    def to_json(self) -> dict:
        from .matcore import matrix_to_json

        return {
            "two_level": self.two_level,
            "projection": None
            if self.projection is None
            else matrix_to_json(self.projection),
            "coeff": self.coeff,
            "shift": self.shift,
            "margin": self.margin if np.isfinite(self.margin) else None,
        }


def _eigen_clusters(a: np.ndarray, gap_tol: float):
    """Eigendecomposition of a validated A plus cluster slices under a
    relative gap split.

    Consecutive eigenvalues start a new cluster when their gap exceeds
    gap_tol times the spectral diameter.
    """
    decomp = EigenDecomposition(*np.linalg.eigh(a))
    eigs = decomp.eigenvalues
    n = eigs.shape[0]
    diameter = float(eigs[-1] - eigs[0])
    if diameter <= 0.0:
        return decomp, [slice(0, n)], float("inf")
    threshold = gap_tol * diameter
    gaps = np.diff(eigs)
    margin = float(np.min(np.abs(gaps - threshold)) / diameter)
    starts = [0] + [i + 1 for i, g in enumerate(gaps) if g > threshold]
    slices = [
        slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])
    ]
    return decomp, slices, margin


def classify_two_level(a, gap_tol: float = GAP_TOL) -> TwoLevelDecomposition:
    """Decide whether A is a real combination of a projection and I.

    Equivalent to the spectrum having at most two points (up to gap_tol
    clustering).  For two clusters with means m1 < m2 the decomposition is
    shift = m1, coeff = m2 - m1 and the projection spans the upper cluster.
    """
    if gap_tol <= 0:
        raise ValueError("gap_tol must be positive")
    return _two_level(hermitian(a), gap_tol)


def _two_level(a: np.ndarray, gap_tol: float) -> TwoLevelDecomposition:
    decomp, slices, margin = _eigen_clusters(a, gap_tol)
    if len(slices) > 2:
        return TwoLevelDecomposition(False, None, 0.0, 0.0, margin)
    if len(slices) == 1:
        return TwoLevelDecomposition(
            True, None, 0.0, float(decomp.eigenvalues.mean()), margin
        )
    mu = [float(decomp.eigenvalues[s].mean()) for s in slices]
    proj = _projection(decomp.vectors[:, slices[1]])
    return TwoLevelDecomposition(True, proj, mu[1] - mu[0], mu[0], margin)


def _projection(upper: np.ndarray) -> np.ndarray:
    """The orthogonal projection onto the columns of ``upper`` (or of each
    matrix of a stack), checked for idempotency."""
    proj = upper @ upper.conj().swapaxes(-1, -2)
    proj = (proj + proj.conj().swapaxes(-1, -2)) / 2
    if max_abs(proj @ proj - proj) > 1e-9:
        raise WitnessSearchError("spectral projection failed idempotency check")
    return proj


def _two_level_mask(a: np.ndarray, gap_tol: float) -> np.ndarray:
    """The ``two_level`` verdict of :func:`classify_two_level` for each
    matrix of a validated stack, from one stacked ``eigh``.  The projection
    of every matrix with two clusters passes the same idempotency check."""
    eigs, vectors = np.linalg.eigh(a)
    diameter = eigs[:, -1] - eigs[:, 0]
    split = np.diff(eigs, axis=-1) > (gap_tol * diameter)[:, None]
    split &= (diameter > 0.0)[:, None]
    clusters = 1 + np.count_nonzero(split, axis=-1)
    pairs = np.flatnonzero(clusters == 2)
    starts = 1 + np.argmax(split[pairs], axis=-1)
    for start in np.unique(starts):
        _projection(vectors[pairs[starts == start], :, start:])
    return clusters <= 2


def independence_vector(a, gap_tol: float = GAP_TOL) -> Optional[np.ndarray]:
    """A unit x with {x, Ax, A^2 x} linearly independent, or None.

    Exists exactly when A has at least three spectral points, i.e. is not
    two-level.  The canonical candidate averages one eigenvector per
    cluster; its conditioning is verified through the smallest singular
    value of [x | Ax | A^2 x].
    """
    a = hermitian(a)
    if a.shape[0] < 3:
        raise MatrixError("independence vector requires dimension >= 3")
    return _independence_vector(a, gap_tol)


def _independence_vector(a: np.ndarray, gap_tol: float) -> Optional[np.ndarray]:
    decomp, slices, _ = _eigen_clusters(a, gap_tol)
    k = len(slices)
    if k <= 2:
        return None
    reps = np.stack([decomp.vectors[:, s.start] for s in slices], axis=1)
    scale = max(1.0, float(np.abs(decomp.eigenvalues).max()))
    threshold = 1e-6 * scale * scale
    # The all-plus combination works whenever the cluster means are
    # distinct; alternate sign patterns are a numerical safety net.
    for signs in ((1.0,) * k, (1.0, -1.0) * ((k + 1) // 2), (1.0, 1.0, -1.0) * k):
        x = reps @ (np.asarray(signs[:k]) / np.sqrt(k))
        x = x / np.linalg.norm(x)
        krylov = np.stack([x, a @ x, a @ (a @ x)], axis=1)
        if np.linalg.svd(krylov, compute_uv=False)[-1] > threshold:
            return x
    raise WitnessSearchError(
        "no well-conditioned independence vector found for a matrix with "
        f"{k} spectral clusters"
    )


def asymmetry_witness(
    a, tol: float = WITNESS_ASYMMETRY_TOL
) -> Optional[tuple[np.ndarray, CommutatorInterval]]:
    """A rank-2 Hermitian B with W([A,B]) asymmetric, or None if two-level.

    Orthonormalizes {x, Ax, A^2 x} for an independence vector x into
    {e1, e2, e3} and sets B = e1 e1* + beta e1 e2* + conj(beta) e2 e1* with
    beta = i.  In that basis the commutator is a rank-3 traceless skew
    block, so its interval cannot be symmetric.  Degenerate phases are
    retried from a fixed list; exhausting it raises WitnessSearchError.
    """
    a = hermitian(a)
    if a.shape[0] < 3:
        raise MatrixError("asymmetry witness requires dimension >= 3")
    x = _independence_vector(a, GAP_TOL)
    if x is None:
        return None
    e1 = x
    w2 = a @ e1
    w2 = w2 - np.vdot(e1, w2) * e1
    e2 = w2 / np.linalg.norm(w2)
    for beta in WITNESS_PHASES:
        b = (
            np.outer(e1, e1.conj())
            + beta * np.outer(e1, e2.conj())
            + np.conj(beta) * np.outer(e2, e1.conj())
        )
        b = hermitian(b)
        ts = _commutator_spectrum(a, b)
        if abs(ts[0] + ts[-1]) > tol:
            return b, CommutatorInterval(float(ts[0]), float(ts[-1]))
    raise WitnessSearchError(
        "all witness phases produced a symmetric interval for a matrix "
        "with three or more spectral points"
    )


def symmetry_witness_unitary(a, gap_tol: float = GAP_TOL) -> Optional[np.ndarray]:
    """Hermitian unitary U with U [A,B] U* = -[A,B] for every Hermitian B,
    when A is two-level; None otherwise.

    U = P - (I - P) for the projection part P (U = -I for scalars, where
    the identity holds vacuously).
    """
    decomp = classify_two_level(a, gap_tol)
    if not decomp.two_level:
        return None
    n = np.asarray(a).shape[0]
    if decomp.projection is None:
        return -np.eye(n, dtype=complex)
    return 2.0 * decomp.projection - np.eye(n, dtype=complex)


@dataclass(frozen=True)
class RadiusEquivalenceVerdict:
    """Outcome of the rank-1-projection radius comparison of two matrices.

    ``status`` is "related" (B = alpha*A + beta*I established in closed
    form), "not-related" (a separating projection was sampled), or
    "inconclusive" (no algebraic relation, but sampling found no gap above
    threshold).  ``worst_gap`` is the largest observed difference
    |w([A,P]) - w([B,P])| over the sampled projections.
    """

    status: str
    related: bool
    alpha: Optional[int]
    beta: Optional[float]
    worst_gap: float
    n_projections: int
    witness_vector: Optional[np.ndarray] = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "related": self.related,
            "alpha": self.alpha,
            "beta": self.beta,
            "worst_gap": self.worst_gap,
            "n_projections": self.n_projections,
            "witness_vector": None
            if self.witness_vector is None
            else {
                "re": self.witness_vector.real.tolist(),
                "im": self.witness_vector.imag.tolist(),
            },
        }


def affine_sign_match(
    a, b, tol: float = EQUIV_RESIDUAL_TOL
) -> Optional[tuple[int, float]]:
    """(alpha, beta) with B = alpha*A + beta*I for alpha in {+1, -1}, or
    None; +1 is preferred when both match (A scalar).

    The residual B - alpha*A - beta*I, with beta = tr(B - alpha*A)/n, is
    measured against tol * max(1, ||A||_max, ||B||_max).
    """
    return _affine_sign_match(*_hermitian_pair(a, b), tol)


def _affine_sign_match(
    a: np.ndarray, b: np.ndarray, tol: float
) -> Optional[tuple[int, float]]:
    n = a.shape[0]
    scale = max(1.0, max_abs(a), max_abs(b))
    for alpha in (1, -1):
        beta = float(np.trace(b - alpha * a).real) / n
        if max_abs(b - alpha * a - beta * np.eye(n)) <= tol * scale:
            return alpha, beta
    return None


def radius_equivalence_check(
    a, b, n_projections: int, rng: np.random.Generator
) -> RadiusEquivalenceVerdict:
    """Test whether w([A,P]) = w([B,P]) for every rank-1 projection P.

    That holds exactly when B = alpha*A + beta*I with alpha in {-1, +1},
    so the closed form is tried first (sampling alone could only ever
    falsify a universally quantified statement, not verify it).  When no
    algebraic relation holds, Haar-sampled projections hunt for a
    separating gap; "not-related" requires a gap above 1e-6.  The
    ``n_projections`` vectors come from one ``rng.standard_normal`` draw of
    shape (n_projections, 2, n), which makes the same draws as that many
    ``random_unit_vector`` calls and gives the same vectors bit for bit;
    the witness vector is the first of them attaining ``worst_gap``.
    """
    if n_projections < 1:
        raise ValueError("n_projections must be at least 1")
    a, b = _hermitian_pair(a, b)
    match = _affine_sign_match(a, b, EQUIV_RESIDUAL_TOL)
    n = a.shape[0]

    xs = _unit_vectors(rng.standard_normal((n_projections, 2, n)))
    gaps = np.abs(_rank1_radii(a, xs) - _rank1_radii(b, xs))
    k = int(np.argmax(gaps))
    worst_gap = float(gaps[k])
    worst_x = xs[k].copy() if worst_gap > 0.0 else None

    if match is not None:
        return RadiusEquivalenceVerdict(
            status="related",
            related=True,
            alpha=match[0],
            beta=match[1],
            worst_gap=worst_gap,
            n_projections=n_projections,
        )
    status = "not-related" if worst_gap > EQUIV_GAP_TOL else "inconclusive"
    return RadiusEquivalenceVerdict(
        status=status,
        related=False,
        alpha=None,
        beta=None,
        worst_gap=worst_gap,
        n_projections=n_projections,
        witness_vector=worst_x,
    )
