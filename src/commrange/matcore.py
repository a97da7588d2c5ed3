"""Dense complex matrix core for small (n <= 16) operator computations.

Provides validated constructors for general and Hermitian matrices, the
symmetry and unitarity tests, the commutator, the package's one eigen route
(LAPACK through ``numpy.linalg``) for Hermitian and skew-Hermitian matrices
and for the commutator spectrum of a Hermitian pair, numeric rank, seeded
random sampling (GUE / Haar unitary / low rank), and the JSON wire format
shared by the whole package.

``as_matrix`` is the one home of the dimension limit ``MAX_DIM``: every
public function that takes a matrix validates it there (through
``hermitian`` for Hermitian input) once, and private kernels (leading
underscore) trust the matrices they are given.

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
# ||U U* - I||_max bound for a matrix accepted as unitary.
UNITARY_TOL = 1e-10


class MatrixError(ValueError):
    """Raised for malformed matrix input (shape, finiteness, symmetry)."""


def max_abs(a) -> float:
    """Entrywise max-modulus norm; 0.0 for empty input."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).max())


def as_matrix(a) -> np.ndarray:
    """Validate a as a square complex matrix with finite entries and
    dimension 1 to ``MAX_DIM``."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MatrixError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise MatrixError("matrix must have positive dimension")
    if m.shape[0] > MAX_DIM:
        raise MatrixError(
            f"dimension {m.shape[0]} exceeds supported maximum {MAX_DIM}"
        )
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise MatrixError("matrix entries must be finite")
    return m


def is_hermitian(m: np.ndarray, skew: bool = False):
    """True iff ||M - M*||_max (||M + M*||_max when skew) is at most
    1e-12 * max(1, ||M||_max); the package's one symmetry test.  Over a
    stack of matrices (leading axes) it gives one verdict per matrix."""
    adj = m.conj().swapaxes(-1, -2)
    defect = np.abs(m + adj if skew else m - adj).max(axis=(-2, -1))
    return defect <= HERMITIAN_TOL * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))


def is_unitary(u: np.ndarray) -> bool:
    """True iff ||U U* - I||_max is at most 1e-10; the package's one
    unitarity test."""
    return max_abs(u @ u.conj().T - np.eye(u.shape[0])) <= UNITARY_TOL


def hermitian(a) -> np.ndarray:
    """Validate near-self-adjointness and return the exact symmetrization.

    Accepts matrices with ||A - A*||_max <= 1e-12 * max(1, ||A||_max) and
    stores A/2 + A*/2, which is exactly Hermitian, leaves an already
    Hermitian matrix bitwise unchanged and, halved before the sum, stays
    finite for finite entries.
    """
    m = as_matrix(a)
    if not is_hermitian(m):
        raise MatrixError(
            f"matrix is not self-adjoint (asymmetry {max_abs(m - m.conj().T):.3e})"
        )
    return m / 2 + m.conj().T / 2


def _hermitian_stack(m: np.ndarray) -> np.ndarray:
    """:func:`hermitian` over a stack of square matrices with finite
    entries; a ``MatrixError`` names the first matrix that fails."""
    ok = is_hermitian(m)
    if not ok.all():
        k = int(np.argmin(ok))
        raise MatrixError(
            f"matrix {k} of the stack is not self-adjoint "
            f"(asymmetry {max_abs(m[k] - m[k].conj().T):.3e})"
        )
    return (m + m.conj().swapaxes(-1, -2)) / 2


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


def hermitian_eigen(a) -> EigenDecomposition:
    """Eigendecomposition of a complex Hermitian matrix by LAPACK
    (``numpy.linalg.eigh``), eigenvalues ascending."""
    return EigenDecomposition(*np.linalg.eigh(hermitian(a)))


def _skew_eigenvalues(m: np.ndarray) -> np.ndarray:
    h = -1j * m
    return np.linalg.eigvalsh(h / 2 + h.conj().T / 2)


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
    return _skew_eigenvalues(m)


def _hermitian_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """A and B validated with :func:`hermitian` and of equal dimension."""
    a = hermitian(a)
    b = hermitian(b)
    if a.shape != b.shape:
        raise MatrixError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def _commutator_spectrum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending t_k of sigma([A, B]) for validated A, B, or for each pair
    of two equal stacks of them."""
    p = a @ b
    return np.linalg.eigvalsh(-1j * (p - p.conj().swapaxes(-1, -2)))


def commutator_spectrum(a, b) -> np.ndarray:
    """Ascending t_k with sigma([A, B]) = {i t_k} for Hermitian A, B.

    A and B are validated once with :func:`hermitian`.  For Hermitian
    inputs BA = (AB)*, so -i[A, B] is formed as -i(P - P*) with P = AB,
    which is exactly Hermitian: no roundoff of order eps * ||A|| ||B|| is
    left to test against the size of the commutator.
    """
    return _commutator_spectrum(*_hermitian_pair(a, b))


def rank_numeric(a, tol: float = RANK_TOL) -> int:
    """Numeric rank: singular values above tol * max(1, s_max)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    svals = np.linalg.svd(as_matrix(a), compute_uv=False)
    return int(np.count_nonzero(svals > tol * max(1.0, float(svals[0]))))


# ---------------------------------------------------------------------------
# Seeded sampling.  Streams are Philox counter-based generators keyed by
# (seed, index), so any (seed, index) pair can be opened independently and
# in any order without affecting other streams.
# ---------------------------------------------------------------------------

# The seed of a run that names none.
DEFAULT_SEED = 2026


def _stream_key(seed: int, index: int) -> tuple:
    """The Philox key of the (seed, index) stream."""
    return seed % (1 << 64), index % (1 << 64)


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """A fresh, independent generator for the (seed, index) stream.

    Each call builds a new ``Philox``, which first gathers OS entropy that
    the key then replaces; a loop over many indices of one seed reopens a
    single generator with :func:`_reopen_stream` instead.
    """
    key = np.array(_stream_key(seed, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _reopen_stream(rng: np.random.Generator, seed: int, index: int) -> None:
    """Reset the Philox generator ``rng`` to the start of the (seed, index)
    stream: its next draws are exactly those of ``substream(seed, index)``.
    The whole state is set (key, zero counter, empty buffer, no cached
    32-bit half), so nothing drawn before carries over."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": _stream_key(seed, index)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _ginibre(parts: np.ndarray) -> np.ndarray:
    """Complex Ginibre matrices (X + iY)/sqrt(2) from standard normal parts
    of shape (..., 2, n, n), drawn by ``rng.standard_normal((2, n, n))``."""
    return (parts[..., 0, :, :] + 1j * parts[..., 1, :, :]) / np.sqrt(2)


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise MatrixError(f"dimension must be in [1, {MAX_DIM}]")


def _gue(parts: np.ndarray) -> np.ndarray:
    """(G + G*)/2 for the Ginibre matrices G of ``parts``."""
    g = _ginibre(parts)
    return (g + g.conj().swapaxes(-1, -2)) / 2


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """GUE sample: (G + G*)/2 for a complex Ginibre matrix G."""
    _check_dim(n)
    return _gue(rng.standard_normal((2, n, n)))


def _haar(parts: np.ndarray) -> np.ndarray:
    """Haar unitaries: QR of the Ginibre matrices of ``parts`` with the
    phases of each triangular factor's diagonal absorbed into Q."""
    q, r = np.linalg.qr(_ginibre(parts))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix with the phases of
    the triangular factor's diagonal absorbed into Q."""
    _check_dim(n)
    return _haar(rng.standard_normal((2, n, n)))


def _rank_k_coeffs(k: int, rng: np.random.Generator) -> np.ndarray:
    """k standard normal coefficients, each redrawn until |c| >= 1e-3."""
    coeffs = rng.standard_normal(k)
    while np.any(np.abs(coeffs) < 1e-3):
        small = np.abs(coeffs) < 1e-3
        coeffs[small] = rng.standard_normal(int(small.sum()))
    return coeffs


def _rank_k(u: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_j c_j x_j x_j*, exactly symmetrized, over the first k columns
    x_j of each unitary in ``u`` and the k coefficients of ``coeffs``."""
    x = u[..., :, : coeffs.shape[-1]]
    m = (x * coeffs[..., None, :]) @ x.conj().swapaxes(-1, -2)
    return (m + m.conj().swapaxes(-1, -2)) / 2


def random_rank_k_hermitian(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Sum of k rank-1 terms c_j x_j x_j* with orthonormal x_j and nonzero
    real c_j."""
    if not 1 <= k <= n:
        raise MatrixError(f"rank k={k} must satisfy 1 <= k <= n={n}")
    u = random_unitary(n, rng)
    return _rank_k(u, _rank_k_coeffs(k, rng))


def _unit_vectors(parts: np.ndarray) -> np.ndarray:
    """Haar-uniform unit vectors (x + iy)/||x + iy||, one per row, from
    standard normal parts of shape (P, 2, n), drawn by
    ``rng.standard_normal((P, 2, n))``.

    The squared norm is x.x + y.y with one ``matmul`` per row over the
    strided real and imaginary views, the same BLAS dot that
    ``np.linalg.norm`` takes on one complex vector, so every row equals the
    one-vector computation bit for bit (a norm along an axis sums in
    another order).
    """
    v = parts[:, 0, :] + 1j * parts[:, 1, :]
    re, im = v.real, v.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return v / np.sqrt(sq[:, 0])


def random_unit_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit vector in C^n."""
    return _unit_vectors(rng.standard_normal((1, 2, n)))[0]


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
