"""Dense complex matrix core for small (n <= 16) operator computations.

Provides validated constructors for general and Hermitian matrices, the
symmetry and unitarity tests, the package's one symmetrization ``_sym``,
the commutator, the package's one eigen route (LAPACK through
``numpy.linalg``) for Hermitian and skew-Hermitian matrices and for the
commutator spectrum of a Hermitian pair, numeric rank, seeded random
sampling (GUE, Haar unitaries, unit vectors, and the stacked low-rank
kernel of the trial engine), and the JSON wire format shared by the whole
package.

``as_matrix`` is the one home of the dimension limit ``MAX_DIM``: every
public function that takes a matrix validates it there (through
``hermitian`` for Hermitian input) once, and private kernels (leading
underscore) trust the matrices they are given.  The private matrix
kernels take stacks (leading axes), so a one-matrix public function can be
its kernel on a stack of one, as ``hermitian`` is ``_hermitian_stack``.

All functions are pure: inputs are never mutated and every sampler draws
from an explicitly supplied generator, so results are reproducible and
independent of call order.
"""

from __future__ import annotations

import json
from typing import Iterator, NamedTuple

import numpy as np

MAX_DIM = 16

# Every threshold the package decides against, each with the scale it is
# measured against and its readers.  Each --tol.* option of ``commrange``
# and each mode of ``check_preservation`` defaults to the entry of its name.
TOLERANCES = {
    "hermitian": 1e-12,  # of max(1, ||M||_max); is_hermitian (hermitian, skew spectra)
    "unitary": 1e-10,  # absolute, ||U U* - I||_max; is_unitary (MapSpec, pauli2)
    "rank": 1e-9,  # of max(1, s_max); rank_numeric (criterion 2)
    "unit_norm": 1e-12,  # absolute, | ||x||_2 - 1 |; nrange.rank1_commutator_radius
    "symmetry": 1e-8,  # of max(1, |t_min|, |t_max|); nrange._symmetric (criterion 5)
    "newton_step": 1e-8,  # absolute, in radians; nrange._newton_support
    "unimodular": 1e-6,  # absolute, ||z| - 1|; nrange._level_set_radius
    "level_rise": 1e-13,  # of the level r; nrange._level_set_radius
    "gap": 1e-6,  # of the spectral diameter; structure defaults, maps sset, --tol.gap
    "idempotency": 1e-9,  # absolute, ||P^2 - P||_max; structure._decomposition
    "witness": 1e-6,  # of d ||B||_2, d the spectral diameter of A; --tol.witness
    "equiv_residual": 1e-8,  # of max(1, ||A||_max, ||B||_max); _affine_sign_match
    "equiv_gap": 1e-6,  # absolute, |w([A, P]) - w([B, P])|; radius_equivalence_check
    "radius": 1e-9,  # absolute, on radii; check_preservation, --tol.radius
    "range": 1e-9,  # absolute, on interval endpoints; check_preservation, --tol.range
    "spectrum": 1e-10,  # absolute, on sorted spectra; check_preservation, --tol.spectrum
}


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
    if not np.isfinite(m).all():
        raise MatrixError("matrix entries must be finite")
    return m


def _asymmetry(m: np.ndarray, skew: bool = False):
    """||M - M*||_max (||M + M*||_max when skew) and max(1, ||M||_max) per
    matrix of a stack, both taken on M/4 so that no modulus can overflow;
    quartering is exact but for subnormal parts, far below the tolerance."""
    q = m * 0.25
    adj = q.conj().swapaxes(-1, -2)
    defect = np.abs(q + adj if skew else q - adj).max(axis=(-2, -1))
    return defect, np.maximum(0.25, np.abs(q).max(axis=(-2, -1)))


def is_hermitian(m: np.ndarray, skew: bool = False):
    """True iff ||M - M*||_max (||M + M*||_max when skew) is at most
    ``TOLERANCES["hermitian"]`` * max(1, ||M||_max), by :func:`_asymmetry`;
    the package's one symmetry test, with one verdict per matrix of a stack."""
    defect, scale = _asymmetry(m, skew)
    return defect <= TOLERANCES["hermitian"] * scale


def is_unitary(u: np.ndarray):
    """True iff ||U U* - I||_max is at most ``TOLERANCES["unitary"]``; the
    package's one unitarity test, with one verdict per matrix of a stack."""
    gram = u @ u.conj().swapaxes(-1, -2)
    return np.abs(gram - np.eye(u.shape[-1])).max(axis=(-2, -1)) <= TOLERANCES["unitary"]


def _sym(m: np.ndarray) -> np.ndarray:
    """(M + M*)/2 for a matrix, or for each matrix of a stack (leading
    axes): exactly Hermitian, and M itself, bit for bit, when M is Hermitian
    (a -0.0 imaginary part on the diagonal becomes +0.0).

    The package's one symmetrization.  When the stack's largest entry
    reaches 2**1022, where the sum could overflow, it forms M/2 + M*/2
    instead.  Below that the two are equal bit for bit, since halving
    commutes with rounding, except that halving first would round away the
    last bit of a subnormal entry.
    """
    adj = m.conj().swapaxes(-1, -2)
    if np.abs(m).max(initial=0.0) >= 2.0**1022:
        return m / 2 + adj / 2
    return (m + adj) / 2


def hermitian(a) -> np.ndarray:
    """Validate near-self-adjointness and return the exact symmetrization.

    Accepts A if :func:`is_hermitian` does and returns :func:`_sym` of A:
    exactly Hermitian, bitwise A for Hermitian input, subnormal entries
    included, and finite for finite entries.  It is :func:`_hermitian_stack`
    on a stack of one.
    """
    return _hermitian_stack(as_matrix(a)[None])[0]


def _hermitian_stack(m: np.ndarray) -> np.ndarray:
    """:func:`hermitian` over a stack of square matrices with finite
    entries; a ``MatrixError`` names the first matrix that fails."""
    ok = is_hermitian(m)
    if not ok.all():
        k = int(np.argmin(ok))
        which = f"matrix {k} of the stack" if len(m) > 1 else "matrix"
        defect, scale = _asymmetry(m[k])
        raise MatrixError(
            f"{which} is not self-adjoint (relative asymmetry {defect / scale:.3e})"
        )
    return _sym(m)


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
    return np.linalg.eigvalsh(_sym(-1j * m))


def skew_hermitian_eigenvalues(c) -> np.ndarray:
    """Ascending t_k with sigma(C) = {i t_k} for skew-Hermitian C.

    Computed as the spectrum of the Hermitian matrix -iC; C must pass the
    skew form of the defect test of :func:`hermitian`.
    """
    m = as_matrix(c)
    if not is_hermitian(m, skew=True):
        defect, scale = _asymmetry(m, skew=True)
        raise MatrixError(
            f"matrix is not skew-Hermitian (relative defect {defect / scale:.3e})"
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


def rank_numeric(a) -> int:
    """Numeric rank: singular values above TOLERANCES["rank"] * max(1, s_max)."""
    svals = np.linalg.svd(as_matrix(a), compute_uv=False)
    return int(np.count_nonzero(svals > TOLERANCES["rank"] * max(1.0, float(svals[0]))))


# ---------------------------------------------------------------------------
# Seeded sampling.  Streams are Philox counter-based generators keyed by
# (seed, index), so any (seed, index) pair can be opened independently and
# in any order without affecting other streams.
# ---------------------------------------------------------------------------

# The seed of a run that names none.
DEFAULT_SEED = 2026


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """A fresh, independent generator for the (seed, index) stream.

    Each call builds a new ``Philox`` from seed 0 (a ``Philox()`` would
    first gather OS entropy) and then sets its key; a loop over many streams
    takes :func:`_streams`, which reopens one generator at each (seed, index).
    """
    rng = np.random.Generator(np.random.Philox(0))
    _reopen_stream(rng, seed, index)
    return rng


def _reopen_stream(rng: np.random.Generator, seed: int, index: int, state=None):
    """Reset the Philox generator ``rng`` to the start of the (seed, index)
    stream, keyed by (seed, index) mod 2**64: its next draws are exactly
    those of a ``Philox`` built with that key.  The whole state is set
    (key, zero counter, empty buffer, no cached 32-bit half), so nothing
    drawn before carries over.  Returns the state dict it set, which a loop
    passes back as ``state`` for its next stream rather than build another."""
    state = state or {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    state["state"]["key"] = (seed % (1 << 64), index % (1 << 64))
    rng.bit_generator.state = state
    return state


def _streams(keys) -> Iterator[np.random.Generator]:
    """One generator, reset with :func:`_reopen_stream` to the start of
    each (seed, index) stream of ``keys`` in turn, so that iteration k
    draws exactly what ``substream(*keys[k])`` would.  The loop's one
    ``Philox`` is reset by the next step, so the loop body must not keep
    the generator past its iteration."""
    rng, state = substream(0), None
    for seed, index in keys:
        state = _reopen_stream(rng, seed, index, state)
        yield rng


def _ginibre(parts: np.ndarray) -> np.ndarray:
    """Complex Ginibre matrices (X + iY)/sqrt(2) from standard normal parts
    of shape (..., 2, n, n), drawn by ``rng.standard_normal((2, n, n))``."""
    return (parts[..., 0, :, :] + 1j * parts[..., 1, :, :]) / np.sqrt(2)


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise MatrixError(f"dimension must be in [1, {MAX_DIM}]")


def _gue(parts: np.ndarray) -> np.ndarray:
    """(G + G*)/2 for the Ginibre matrices G of ``parts``."""
    return _sym(_ginibre(parts))


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


def _rank_k_coeffs(coeffs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Redraw in place each standard normal coefficient of ``coeffs`` below
    1e-3 in modulus, until none is; returns ``coeffs``."""
    while min(map(abs, coeffs.tolist())) < 1e-3:
        small = np.abs(coeffs) < 1e-3
        coeffs[small] = rng.standard_normal(int(small.sum()))
    return coeffs


def _rank_k(u: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_j c_j x_j x_j* over the first k columns x_j of each unitary in
    ``u`` and the k coefficients of ``coeffs``, before :func:`_sym`."""
    x = u[..., :, : coeffs.shape[-1]]
    return (x * coeffs[..., None, :]) @ x.conj().swapaxes(-1, -2)


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
    _check_dim(n)
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
    with np.errstate(invalid="ignore"):  # 1j * inf is nan + inf j, refused below
        return as_matrix(re + 1j * im)


def load_matrix(path) -> np.ndarray:
    """Read a matrix JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))

