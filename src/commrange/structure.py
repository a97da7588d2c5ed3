"""Structural classifiers for Hermitian matrices and constructive oracles.

Centers on the set of "two-level" Hermitian matrices: real combinations
alpha*P + delta*I of an orthogonal projection and the identity, i.e. those
with at most two spectral points.  Two-level matrices are exactly the ones
whose commutator ranges W([A, B]) are symmetric about 0 for every Hermitian
B; both directions come with constructive certificates:

* two-level      -> a Hermitian unitary U with U [A,B] U* = -[A,B] for all B;
* not two-level  -> an explicit rank-2 B whose interval is asymmetric.

One stacked kernel, ``_split``, holds the two-level rule: one ``eigh``
per stack and the cluster split, from which the classification margin is
read; the trial engine's exceptional-set rule reads only its verdicts.
``_certificate`` builds from one validation and one split the
decomposition, with its checked upper-cluster projection, and the
certificate; ``commrange classify``, acceptance criterion 5 and both
witnesses read it.  The witness is built in closed form from three of the
split's eigenvectors.

Also houses the rank-1-projection radius test that characterizes pairs
related by B = +/-A + beta*I.  Each public function validates its matrices
once with ``hermitian``; the private steps under it trust them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .matcore import (
    TOLERANCES,
    MatrixError,
    _commutator_spectrum,
    _hermitian_pair,
    _sym,
    _unit_vectors,
    hermitian,
    matrix_to_json,
    max_abs,
)
from .nrange import CommutatorInterval, _rank1_radii


class WitnessSearchError(RuntimeError):
    """Raised when the spectral projection of a two-level decomposition
    fails its idempotency check.

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
        return {
            "two_level": self.two_level,
            "projection": None
            if self.projection is None
            else matrix_to_json(self.projection),
            "coeff": self.coeff,
            "shift": self.shift,
            "margin": self.margin if np.isfinite(self.margin) else None,
        }


class _Split(NamedTuple):
    """The two-level split of a matrix or of a stack (see :func:`_split`)."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    diameter: np.ndarray
    distance: np.ndarray
    starts: np.ndarray
    clusters: np.ndarray

    @property
    def two_level(self) -> np.ndarray:
        return self.clusters <= 2


def _split(a: np.ndarray, gap_tol: float) -> _Split:
    """Cluster the spectrum of a validated matrix, or of each matrix of a
    stack (leading axes), from one ``eigh``; the package's one two-level
    rule.

    ``distance[..., i]`` is the gap between eigenvalues i and i + 1 minus
    the threshold gap_tol * diameter.  A positive distance starts a new
    cluster (``starts``), so a scalar matrix, whose diameter and gaps are
    0, is one cluster; a matrix is two-level when it has at most two
    clusters.
    """
    eigs, vectors = np.linalg.eigh(a)
    diameter = eigs[..., -1] - eigs[..., 0]
    distance = eigs[..., 1:] - eigs[..., :-1] - (gap_tol * diameter)[..., None]
    starts = distance > 0.0
    clusters = 1 + starts.sum(axis=-1)
    return _Split(eigs, vectors, diameter, distance, starts, clusters)


def _validated(a, gap_tol: float) -> np.ndarray:
    """A checked by ``hermitian``, once gap_tol is known to be a finite
    number above 0; the entry of every public two-level function."""
    if not 0.0 < gap_tol < np.inf:
        raise ValueError("gap_tol must be a finite number above 0")
    return hermitian(a)


def classify_two_level(a, gap_tol: float = TOLERANCES["gap"]) -> TwoLevelDecomposition:
    """Decide whether A is a real combination of a projection and I.

    Equivalent to the spectrum having at most two points (up to gap_tol
    clustering).  For two clusters with means m1 < m2 the decomposition is
    shift = m1, coeff = m2 - m1 and the projection spans the upper cluster.
    """
    return _decomposition(_split(_validated(a, gap_tol), gap_tol))


def _decomposition(s: _Split) -> TwoLevelDecomposition:
    """The two-level decomposition of the split matrix, with its
    upper-cluster projection checked for idempotency."""
    eigs, diameter, clusters = s.eigenvalues, float(s.diameter), s.clusters
    # the smallest relative distance of a gap from the threshold
    margin = float(np.abs(s.distance).min() / diameter) if diameter > 0.0 else np.inf
    if clusters > 2:
        return TwoLevelDecomposition(False, None, 0.0, 0.0, margin)
    if clusters == 1:
        return TwoLevelDecomposition(True, None, 0.0, float(eigs.mean()), margin)
    k = 1 + int(s.starts.argmax())
    upper = s.vectors[:, k:]
    proj = _sym(upper @ upper.conj().T)
    if max_abs(proj @ proj - proj) > TOLERANCES["idempotency"]:
        raise WitnessSearchError("spectral projection failed idempotency check")
    low, high = float(eigs[:k].mean()), float(eigs[k:].mean())
    return TwoLevelDecomposition(True, proj, high - low, low, margin)


class _Certificate(NamedTuple):
    """A two-level decomposition, its certificate and the spectral diameter."""

    decomposition: TwoLevelDecomposition
    unitary: Optional[np.ndarray]
    witness: Optional[tuple[np.ndarray, CommutatorInterval]]
    diameter: float


def _certificate(a, gap_tol: float) -> _Certificate:
    """The decomposition of A with the conjugating unitary of
    :func:`symmetry_witness_unitary` when A is two-level, or else the
    witness of :func:`asymmetry_witness`, from one validation and one split.
    """
    a = _validated(a, gap_tol)
    s = _split(a, gap_tol)
    decomp, diameter = _decomposition(s), float(s.diameter)
    if decomp.two_level:
        eye, p = np.eye(a.shape[0], dtype=complex), decomp.projection
        return _Certificate(decomp, -eye if p is None else 2.0 * p - eye, None, diameter)
    e1, e2 = _witness_basis(s)
    # _sym(e1 e1* + 2i e1 e2*) is e1 e1* + i e1 e2* - i e2 e1*, exactly Hermitian
    b = _sym(np.outer(e1, e1.conj()) + 2j * np.outer(e1, e2.conj()))
    ts = _commutator_spectrum(a, b)
    witness = b, CommutatorInterval(float(ts[0]), float(ts[-1]))
    return _Certificate(decomp, None, witness, diameter)


def independence_vector(a, gap_tol: float = TOLERANCES["gap"]) -> Optional[np.ndarray]:
    """A unit x with {x, Ax, A^2 x} linearly independent, or None.

    Exists exactly when A has at least three spectral points, i.e. is not
    two-level.  It is the witness's e1 (see :func:`_witness_basis`), with
    equal weight on eigenvectors of three distinct eigenvalues.
    """
    a = _validated(a, gap_tol)
    if a.shape[0] < 3:
        raise MatrixError("independence vector requires dimension >= 3")
    basis = _witness_basis(_split(a, gap_tol))
    return None if basis is None else basis[0]


def _witness_basis(s: _Split) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The orthonormal pair e1 = (v_lo + v_hi + v_m)/sqrt(3) and
    e2 = (v_lo - v_m)/sqrt(2) of a split matrix, or None when A is
    two-level.

    v_lo and v_hi belong to the lowest and highest eigenvalues, v_m to the
    eigenvalue outside their clusters nearest the spectral midpoint.
    """
    if s.clusters <= 2:
        return None
    eigs, vectors = s.eigenvalues, s.vectors
    starts = s.starts.nonzero()[0]
    middle = eigs[starts[0] + 1 : starts[-1] + 1]
    m = starts[0] + 1 + int(np.argmin(np.abs(middle - (eigs[0] + eigs[-1]) / 2)))
    v_lo, v_hi, v_m = vectors[:, 0], vectors[:, -1], vectors[:, m]
    return (v_lo + v_hi + v_m) / np.sqrt(3.0), (v_lo - v_m) / np.sqrt(2.0)


def asymmetry_witness(
    a, gap_tol: float = TOLERANCES["gap"]
) -> Optional[tuple[np.ndarray, CommutatorInterval]]:
    """A rank-2 Hermitian B and its interval W([A,B]) = i[t_min, t_max],
    or None if A is two-level at gap_tol.

    B = e1 e1* + i e1 e2* - i e2 e1* on the pair of
    :func:`_witness_basis`.  On span{v_lo, v_hi, v_m}, A acts as the
    diagonal of their three eigenvalues, and [A, B] vanishes off that span,
    so [A, B] is a traceless 3x3 skew block whose middle eigenvalue
    -(t_min + t_max) is a closed-form function of the three eigenvalues:
    nonzero when they are distinct, and multiplied by c under
    A -> cA + dI with c > 0.  The caller judges the defect
    |t_min + t_max|; it is about 0.49 g d, with d the spectral diameter and
    g d the distance of v_m's eigenvalue from the nearer end.
    """
    c = _certificate(a, gap_tol)
    if c.unitary is not None and len(c.unitary) < 3:
        raise MatrixError("asymmetry witness requires dimension >= 3")
    return c.witness


def symmetry_witness_unitary(a, gap_tol: float = TOLERANCES["gap"]) -> Optional[np.ndarray]:
    """Hermitian unitary U with U [A,B] U* = -[A,B] for every Hermitian B,
    when A is two-level; None otherwise.

    U = P - (I - P) for the projection part P (U = -I for scalars, where
    the identity holds vacuously).
    """
    return _certificate(a, gap_tol).unitary


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


def _affine_sign_match(a: np.ndarray, b: np.ndarray) -> Optional[tuple[int, float]]:
    """(alpha, beta) with B = alpha*A + beta*I for alpha in {+1, -1}, or
    None; +1 is preferred when both match (A scalar).

    The residual B - alpha*A - beta*I, with beta = tr(B - alpha*A)/n, is
    judged by ``TOLERANCES["equiv_residual"]`` at its scale.
    """
    n = a.shape[0]
    bound = TOLERANCES["equiv_residual"] * max(1.0, max_abs(a), max_abs(b))
    for alpha in (1, -1):
        beta = float(np.trace(b - alpha * a).real) / n
        if max_abs(b - alpha * a - beta * np.eye(n)) <= bound:
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
    separating gap; "not-related" requires a gap above
    ``TOLERANCES["equiv_gap"]``.  The ``n_projections`` vectors come from
    one ``rng.standard_normal`` draw of shape (n_projections, 2, n), which
    makes the same draws as that many ``random_unit_vector`` calls and gives
    the same vectors bit for bit; the witness vector is the first of them
    attaining ``worst_gap``.
    """
    if n_projections < 1:
        raise ValueError("n_projections must be at least 1")
    a, b = _hermitian_pair(a, b)
    match = _affine_sign_match(a, b)
    n = a.shape[0]

    xs = _unit_vectors(rng.standard_normal((n_projections, 2, n)))
    radii = _rank1_radii(np.stack([a, b]), xs)
    gaps = np.abs(radii[0] - radii[1])
    k = int(np.argmax(gaps))
    worst_gap = float(gaps[k])
    worst_x = xs[k].copy() if worst_gap > 0.0 else None

    if match is not None:
        return RadiusEquivalenceVerdict("related", True, *match, worst_gap, n_projections)
    status = "not-related" if worst_gap > TOLERANCES["equiv_gap"] else "inconclusive"
    return RadiusEquivalenceVerdict(
        status, False, None, None, worst_gap, n_projections, worst_x
    )
