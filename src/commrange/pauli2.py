"""Exact 2x2 Hermitian machinery in scaled-Pauli coordinates.

The traceless Hermitian 2x2 matrices form a real 3-space with orthonormal
basis {X, Y, Z} (Pauli matrices scaled by 1/sqrt(2), orthonormal under
<A, B> = tr(AB*)).  In these coordinates the commutator is the cross
product up to a factor sqrt(2)i, unitary conjugation acts as a rotation in
SO(3), and both the transpose and the off-diagonal mirror map are
coordinate reflections.  Everything here is closed-form; no iteration.
``to_pauli``, ``from_pauli`` and ``unitary_to_rotation`` run their stacked
kernels on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import MatrixError, _hermitian_stack, as_matrix, hermitian, is_unitary

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

PAULI_X = _INV_SQRT2 * np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = _INV_SQRT2 * np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = _INV_SQRT2 * np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_BASIS = (PAULI_X, PAULI_Y, PAULI_Z)


@dataclass(frozen=True)
class PauliVector:
    """Real coordinates of a 2x2 Hermitian in the scaled-Pauli basis.

    The trace sits apart as ``trace_part`` = tr(A)/2, keeping (a1, a2, a3)
    an honest vector in R^3 for the cross-product calculus.
    """

    a1: float
    a2: float
    a3: float
    trace_part: float = 0.0

    @property
    def coords(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.a3])

    def to_json(self) -> dict:
        return {"a": [self.a1, self.a2, self.a3], "t": self.trace_part}


@dataclass(frozen=True)
class Rotation3:
    """A real orthogonal 3x3 matrix with its determinant sign recorded."""

    matrix: np.ndarray
    det_sign: int


def _require_2x2(a) -> np.ndarray:
    m = hermitian(a)
    if m.shape != (2, 2):
        raise MatrixError(f"expected a 2x2 Hermitian matrix, got {m.shape}")
    return m


def to_pauli(a) -> PauliVector:
    """Coordinates a_k = tr(A B_k) plus the separated trace part."""
    return PauliVector(*map(float, _pauli_coords(_require_2x2(a)[None])[0]))


def _pauli_coords(m: np.ndarray) -> np.ndarray:
    """Rows (a1, a2, a3, tr(A)/2) of the validated 2x2 Hermitians of a
    stack, with a_k = tr(A B_k)."""
    cols = [np.trace(m @ b, axis1=-2, axis2=-1).real for b in PAULI_BASIS]
    cols.append(np.trace(m, axis1=-2, axis2=-1).real / 2.0)
    return np.stack(cols, axis=-1)


def from_pauli(v: PauliVector) -> np.ndarray:
    """Reconstruct a1 X + a2 Y + a3 Z + trace_part I."""
    return hermitian(_pauli_sum(np.array([[v.a1, v.a2, v.a3, v.trace_part]]))[0])


def _pauli_sum(coords: np.ndarray) -> np.ndarray:
    """a1 X + a2 Y + a3 Z + t I for each row (a1, a2, a3, t) of a stack."""
    a1, a2, a3, t = coords.T[:, :, None, None]
    return a1 * PAULI_X + a2 * PAULI_Y + a3 * PAULI_Z + t * np.eye(2)


def cross_commutator(a: PauliVector, b: PauliVector) -> PauliVector:
    """Coordinates of [A, B] / (sqrt(2) i): the cross product a x b.

    Trace parts commute with everything and drop out.
    """
    c = np.cross(a.coords, b.coords)
    return PauliVector(float(c[0]), float(c[1]), float(c[2]), 0.0)


def unitary_to_rotation(u) -> Rotation3:
    """The SO(3) rotation induced on Pauli coordinates by A -> U A U*.

    Column k holds the coordinates of U B_k U*.  Orthogonality is enforced
    to 1e-10; the determinant is +1 for every unitary.
    """
    u = as_matrix(u)
    if u.shape != (2, 2):
        raise MatrixError("expected a 2x2 unitary")
    t, det_sign = _rotations(u[None])
    return Rotation3(matrix=t[0], det_sign=int(det_sign[0]))


def _rotations(u: np.ndarray):
    """The rotations induced by a stack of 2x2 unitaries, checked as in
    :func:`unitary_to_rotation`, and their rounded determinants."""
    if not is_unitary(u).all():
        raise MatrixError("matrix is not unitary")
    uh = u.conj().swapaxes(-1, -2)
    cols = [_pauli_coords(_hermitian_stack(u @ b @ uh))[:, :3] for b in PAULI_BASIS]
    t = np.stack(cols, axis=-1)
    if not is_unitary(t).all():
        raise MatrixError("induced coordinate map failed orthogonality")
    return t, np.rint(np.linalg.det(t)).astype(int)


def psi(a) -> np.ndarray:
    """Mirror map: negate the real part of the off-diagonal entry.

    [[a, c+id], [c-id, b]] -> [[a, -c+id], [-c-id, b]]; an involution, and
    the Pauli-coordinate reflection (a1, a2, a3) -> (-a1, a2, a3).
    """
    return _psi(_require_2x2(a))


def _psi(m: np.ndarray) -> np.ndarray:
    """The mirror map of a 2x2 matrix, or of each matrix of a stack."""
    out = m.copy()
    out.real[..., 0, 1] = -m.real[..., 0, 1]
    out[..., 1, 0] = np.conj(out[..., 0, 1])
    return out
