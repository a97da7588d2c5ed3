"""Structural classifiers for Hermitian matrices and constructive oracles.

Centers on the set of "two-level" Hermitian matrices: real combinations
alpha*P + delta*I of an orthogonal projection and the identity, i.e. those
with at most two spectral points.  Two-level matrices are exactly the ones
whose commutator ranges W([A, B]) are symmetric about 0 for every Hermitian
B; both directions come with constructive certificates:

* two-level      -> a Hermitian unitary U with U [A,B] U* = -[A,B] for all B;
* not two-level  -> an explicit rank-2 B whose interval is asymmetric.

Also houses the rank-1-projection radius test that characterizes pairs
related by B = +/-A + beta*I, and the family of 3x3 off-diagonal probe
matrices used to push commutators to full rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional

import numpy as np

from .matcore import (
    MatrixError,
    commutator,
    hermitian,
    hermitian_eigen,
    max_abs,
    random_unit_vector,
)
from .nrange import (
    CommutatorInterval,
    commutator_interval,
    rank1_commutator_radius,
)

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
    threshold; values near 0 flag a borderline classification.
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
            "margin": self.margin,
        }


def _eigen_clusters(a, gap_tol: float):
    """Eigendecomposition plus cluster slices under a relative gap split.

    Consecutive eigenvalues start a new cluster when their gap exceeds
    gap_tol times the spectral diameter.
    """
    decomp = hermitian_eigen(a)
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
    a = hermitian(a)
    decomp, slices, margin = _eigen_clusters(a, gap_tol)
    if len(slices) > 2:
        return TwoLevelDecomposition(False, None, 0.0, 0.0, margin)
    if len(slices) == 1:
        return TwoLevelDecomposition(
            True, None, 0.0, float(decomp.eigenvalues.mean()), margin
        )
    mu = [float(decomp.eigenvalues[s].mean()) for s in slices]
    upper = decomp.vectors[:, slices[1]]
    proj = upper @ upper.conj().T
    proj = (proj + proj.conj().T) / 2
    if max_abs(proj @ proj - proj) > 1e-9:
        raise WitnessSearchError("spectral projection failed idempotency check")
    return TwoLevelDecomposition(True, proj, mu[1] - mu[0], mu[0], margin)


def independence_vector(a, gap_tol: float = GAP_TOL) -> Optional[np.ndarray]:
    """A unit x with {x, Ax, A^2 x} linearly independent, or None.

    Exists exactly when A has at least three spectral points, i.e. is not
    two-level.  The canonical candidate averages one eigenvector per
    cluster; its conditioning is verified through the smallest singular
    value of [x | Ax | A^2 x].
    """
    a = hermitian(a)
    n = a.shape[0]
    if n < 3:
        raise MatrixError("independence vector requires dimension >= 3")
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
    x = independence_vector(a)
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
        iv = commutator_interval(a, b)
        if abs(iv.t_min + iv.t_max) > tol:
            return b, iv
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
    a = hermitian(a)
    b = hermitian(b)
    if a.shape != b.shape:
        raise MatrixError("dimension mismatch")
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
    separating gap; "not-related" requires a gap above 1e-6.
    """
    if n_projections < 1:
        raise ValueError("n_projections must be at least 1")
    match = affine_sign_match(a, b)
    a = hermitian(a)
    b = hermitian(b)
    n = a.shape[0]

    worst_gap = 0.0
    worst_x = None
    for _ in range(n_projections):
        x = random_unit_vector(n, rng)
        gap = abs(rank1_commutator_radius(a, x) - rank1_commutator_radius(b, x))
        if gap > worst_gap:
            worst_gap, worst_x = gap, x

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


# ---------------------------------------------------------------------------
# Off-diagonal probe matrices.  Zero diagonal, parameters on the three
# off-diagonal positions; families differ by which entry carries the
# imaginary unit (family "complex" takes arbitrary complex parameters).
# ---------------------------------------------------------------------------

PROBE_FAMILIES = ("imag02", "imag01", "imag12", "complex")


@dataclass(frozen=True)
class OffDiagProbe:
    """A 3x3 Hermitian probe: family id plus parameter triple (t, s, p)."""

    family: str
    params: tuple

    def __post_init__(self):
        if self.family not in PROBE_FAMILIES:
            raise ValueError(f"unknown probe family {self.family!r}")
        if len(self.params) != 3:
            raise ValueError("probe takes exactly three parameters")
        if any(v == 0 for v in self.params):
            raise ValueError("probe parameters must all be nonzero")
        if self.family != "complex" and any(
            isinstance(v, complex) and v.imag != 0 for v in self.params
        ):
            raise ValueError(f"family {self.family!r} takes real parameters")


def probe_matrix(probe: OffDiagProbe, dim: int = 3) -> np.ndarray:
    """Instantiate a probe, embedded as the leading 3x3 block when dim > 3."""
    t, s, p = (complex(v) for v in probe.params)
    if probe.family == "imag02":
        top = np.array([[0, t, 1j * p], [t, 0, s], [-1j * p, s, 0]])
    elif probe.family == "imag01":
        top = np.array([[0, 1j * t, p], [-1j * t, 0, s], [p, s, 0]])
    elif probe.family == "imag12":
        top = np.array([[0, t, p], [t, 0, 1j * s], [p, -1j * s, 0]])
    else:
        top = np.array(
            [
                [0, t, p],
                [np.conj(t), 0, s],
                [np.conj(p), np.conj(s), 0],
            ]
        )
    if dim < 3:
        raise MatrixError("probe matrices require dimension >= 3")
    if dim == 3:
        return hermitian(top)
    out = np.zeros((dim, dim), dtype=complex)
    out[:3, :3] = top
    return hermitian(out)


def find_rank3_probe(
    b,
    grid=(1.0, 2.0, 3.0, -1.0),
    families=PROBE_FAMILIES,
) -> Optional[tuple[OffDiagProbe, np.ndarray]]:
    """First probe whose commutator with B has nonvanishing determinant.

    Searches the parameter grid cubed per family, in deterministic order,
    and accepts when |det([B, probe])| clears a threshold scaled by
    ||B||^3 and the largest parameter cubed.  Returns None when the grid
    is exhausted (e.g. B scalar).
    """
    b = hermitian(b)
    if b.shape[0] != 3:
        raise MatrixError(
            "probe search expects a 3x3 matrix (supply B in the basis of "
            "its 3-dimensional support)"
        )
    norm_b = max(1e-30, max_abs(b))
    for family in families:
        for t, s, p in product(grid, repeat=3):
            if t == 0 or s == 0 or p == 0:
                continue
            probe = OffDiagProbe(family, (t, s, p))
            mat = probe_matrix(probe)
            det = np.linalg.det(commutator(b, mat))
            bound = 1e-8 * norm_b**3 * max(abs(t), abs(s), abs(p)) ** 3
            if abs(det) > bound:
                return probe, mat
    return None
