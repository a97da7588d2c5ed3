"""Dense complex matrix core for small (n <= 16) operator computations.

Provides validated constructors for general and Hermitian matrices, the
commutator, the package's one eigen route (LAPACK through ``numpy.linalg``)
for Hermitian and skew-Hermitian matrices, numeric rank, seeded random
sampling (GUE / Haar unitary / low rank), and the JSON wire format shared
by the whole package.

All functions are pure: inputs are never mutated and every sampler draws
from an explicitly supplied generator, so results are reproducible and
independent of call order.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

MAX_DIM = 16

# Tolerance ladder: construction (Hermitian or skew-Hermitian defect) 1e-12,
# rank 1e-9.  Decades apart so a pass at one level cannot trip the next.
HERMITIAN_TOL = 1e-12
RANK_TOL = 1e-9


class MatrixError(ValueError):
    """Raised for malformed matrix input (shape, finiteness, symmetry)."""


def max_abs(a) -> float:
    """Entrywise max-modulus norm; 0.0 for empty input."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).max())


def as_matrix(a) -> np.ndarray:
    """Validate a as a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MatrixError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise MatrixError("matrix must have positive dimension")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise MatrixError("matrix entries must be finite")
    return m


def is_hermitian(m: np.ndarray, skew: bool = False) -> bool:
    """True iff ||M - M*||_max (||M + M*||_max when skew) is at most
    1e-12 * max(1, ||M||_max); the package's one symmetry test."""
    defect = max_abs(m + m.conj().T if skew else m - m.conj().T)
    return defect <= HERMITIAN_TOL * max(1.0, max_abs(m))


def hermitian(a) -> np.ndarray:
    """Validate near-self-adjointness and return the exact symmetrization.

    Accepts matrices with ||A - A*||_max <= 1e-12 * max(1, ||A||_max) and
    stores (A + A*)/2, which is exactly Hermitian and leaves an already
    Hermitian matrix bitwise unchanged.
    """
    m = as_matrix(a)
    if not is_hermitian(m):
        raise MatrixError(
            f"matrix is not self-adjoint (asymmetry {max_abs(m - m.conj().T):.3e})"
        )
    return (m + m.conj().T) / 2


def commutator(a, b) -> np.ndarray:
    """Lie product AB - BA.

    For Hermitian inputs the result is skew-Hermitian with zero trace.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise MatrixError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b - b @ a


class EigenDecomposition(NamedTuple):
    """Spectral decomposition A = V diag(w) V* with w ascending."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


def _within_max_dim(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    if n > MAX_DIM:
        raise MatrixError(f"dimension {n} exceeds supported maximum {MAX_DIM}")
    return m


def hermitian_eigen(a) -> EigenDecomposition:
    """Eigendecomposition of a complex Hermitian matrix by LAPACK
    (``numpy.linalg.eigh``), eigenvalues ascending."""
    return EigenDecomposition(*np.linalg.eigh(_within_max_dim(hermitian(a))))


def skew_hermitian_eigenvalues(c) -> np.ndarray:
    """Ascending t_k with sigma(C) = {i t_k} for skew-Hermitian C.

    Computed as the spectrum of the Hermitian matrix -iC; C must pass the
    same 1e-12 defect test as :func:`hermitian`.
    """
    m = as_matrix(c)
    if not is_hermitian(m, skew=True):
        raise MatrixError(
            f"matrix is not skew-Hermitian (defect {max_abs(m + m.conj().T):.3e})"
        )
    h = -1j * m
    return np.linalg.eigvalsh(_within_max_dim((h + h.conj().T) / 2))


def rank_numeric(a, tol: float = RANK_TOL) -> int:
    """Numeric rank: singular values above tol * max(1, s_max)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    svals = np.linalg.svd(_within_max_dim(as_matrix(a)), compute_uv=False)
    return int(np.count_nonzero(svals > tol * max(1.0, float(svals[0]))))


# ---------------------------------------------------------------------------
# Seeded sampling.  Streams are Philox counter-based generators keyed by
# (seed, index), so any (seed, index) pair can be opened independently and
# in any order without affecting other streams.
# ---------------------------------------------------------------------------


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for the (seed, index) stream."""
    key = np.array([seed % (1 << 64), index % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    """n x n matrix of iid standard complex Gaussian entries."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """GUE sample: (G + G*)/2 for a complex Ginibre matrix G."""
    if not 1 <= n <= MAX_DIM:
        raise MatrixError(f"dimension must be in [1, {MAX_DIM}]")
    g = _ginibre(n, rng)
    return (g + g.conj().T) / 2


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix with the phases of
    the triangular factor's diagonal absorbed into Q."""
    if not 1 <= n <= MAX_DIM:
        raise MatrixError(f"dimension must be in [1, {MAX_DIM}]")
    q, r = np.linalg.qr(_ginibre(n, rng))
    d = r.diagonal().copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def random_rank_k_hermitian(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Sum of k rank-1 terms c_j x_j x_j* with orthonormal x_j and nonzero
    real c_j."""
    if not 1 <= k <= n:
        raise MatrixError(f"rank k={k} must satisfy 1 <= k <= n={n}")
    x = random_unitary(n, rng)[:, :k]
    coeffs = rng.standard_normal(k)
    while np.any(np.abs(coeffs) < 1e-3):
        small = np.abs(coeffs) < 1e-3
        coeffs[small] = rng.standard_normal(int(small.sum()))
    m = (x * coeffs) @ x.conj().T
    return (m + m.conj().T) / 2


def random_unit_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit vector in C^n."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# JSON wire format: { "dim": n, "re": [[...]], "im": [[...]] }, row-major.
# ---------------------------------------------------------------------------


def matrix_to_json(a) -> dict:
    """Encode a matrix as the package's JSON object."""
    m = as_matrix(a)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the JSON object produced by :func:`matrix_to_json`."""
    try:
        n = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixError(f"malformed matrix JSON: {exc}") from None
    if re.shape != (n, n) or im.shape != (n, n):
        raise MatrixError(
            f"matrix JSON shape mismatch: dim={n}, re {re.shape}, im {im.shape}"
        )
    return as_matrix(re + 1j * im)


def load_matrix(path) -> np.ndarray:
    """Read a matrix JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))


def save_matrix(path, a) -> None:
    """Write a matrix JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(a), fh)
