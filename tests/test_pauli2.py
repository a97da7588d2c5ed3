import numpy as np
import pytest

from commrange.matcore import (
    MatrixError,
    commutator,
    hermitian,
    max_abs,
    random_hermitian,
    random_unitary,
    substream,
)
from commrange.nrange import commutator_interval
from commrange.pauli2 import (
    PAULI_BASIS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PauliVector,
    _pauli_coords,
    _pauli_sum,
    _rotations,
    cross_commutator,
    from_pauli,
    psi,
    to_pauli,
    unitary_to_rotation,
)


def test_basis_orthonormal():
    for i, a in enumerate(PAULI_BASIS):
        for j, b in enumerate(PAULI_BASIS):
            inner = np.trace(a @ b.conj().T)
            assert abs(inner - (1.0 if i == j else 0.0)) < 1e-14


def test_basis_product_identities():
    c = 1j / np.sqrt(2.0)
    x, y, z = PAULI_BASIS
    assert max_abs(x @ y - c * z) < 1e-14
    assert max_abs(y @ x + c * z) < 1e-14
    assert max_abs(y @ z - c * x) < 1e-14
    assert max_abs(z @ y + c * x) < 1e-14
    assert max_abs(z @ x - c * y) < 1e-14
    assert max_abs(x @ z + c * y) < 1e-14


def test_basis_commutator_intervals():
    for a, b in ((PAULI_X, PAULI_Y), (PAULI_Y, PAULI_Z), (PAULI_Z, PAULI_X)):
        iv = commutator_interval(a, b)
        assert abs(iv.t_min + 1.0) < 1e-12
        assert abs(iv.t_max - 1.0) < 1e-12


def test_to_pauli_basis_vectors():
    v = to_pauli(PAULI_X)
    assert np.allclose(v.coords, [1.0, 0.0, 0.0], atol=1e-14)
    assert v.trace_part == 0.0


def test_to_pauli_diag_fixture():
    v = to_pauli(np.diag([1.0, -1.0]))
    assert np.allclose(v.coords, [0.0, 0.0, np.sqrt(2.0)], atol=1e-14)


def test_round_trip_random():
    for i in range(500):
        a = random_hermitian(2, substream(60, i))
        back = from_pauli(to_pauli(a))
        assert max_abs(a - back) <= 1e-14


def test_to_pauli_rejects_wrong_dim():
    with pytest.raises(MatrixError):
        to_pauli(np.eye(3))


def test_cross_commutator_basis():
    c = cross_commutator(PauliVector(1, 0, 0), PauliVector(0, 1, 0))
    assert np.allclose(c.coords, [0.0, 0.0, 1.0])
    recon = np.sqrt(2.0) * 1j * from_pauli(c)
    assert max_abs(commutator(PAULI_X, PAULI_Y) - recon) < 1e-14


def test_cross_commutator_self_vanishes():
    v = PauliVector(0.3, -1.2, 0.8)
    assert np.allclose(cross_commutator(v, v).coords, 0.0)


def test_cross_commutator_homomorphism():
    for i in range(1000):
        rng = substream(61, i)
        a = random_hermitian(2, rng)
        b = random_hermitian(2, rng)
        c = cross_commutator(to_pauli(a), to_pauli(b))
        recon = np.sqrt(2.0) * 1j * from_pauli(c)
        assert max_abs(commutator(a, b) - recon) <= 1e-12


def test_cross_norm_equals_radius():
    for i in range(200):
        rng = substream(62, i)
        a = random_hermitian(2, rng)
        b = random_hermitian(2, rng)
        c = cross_commutator(to_pauli(a), to_pauli(b))
        iv = commutator_interval(a, b)
        norm = np.linalg.norm(c.coords)
        assert abs(iv.t_max - norm) <= 1e-10 * max(1.0, norm)
        assert abs(iv.t_min + norm) <= 1e-10 * max(1.0, norm)


def test_rotation_identity():
    rot = unitary_to_rotation(np.eye(2))
    assert max_abs(rot.matrix - np.eye(3)) < 1e-14
    assert rot.det_sign == 1


def test_rotation_phase_unitary():
    u = np.diag([1.0, 1j])
    rot = unitary_to_rotation(u)
    for k, basis in enumerate(PAULI_BASIS):
        direct = to_pauli(u @ basis @ u.conj().T).coords
        assert np.allclose(rot.matrix[:, k], direct, atol=1e-14)
    assert max_abs(rot.matrix.T @ rot.matrix - np.eye(3)) < 1e-12
    assert rot.det_sign == 1


def test_rotation_haar_special_orthogonal():
    for i in range(200):
        u = random_unitary(2, substream(63, i))
        rot = unitary_to_rotation(u)
        assert rot.det_sign == 1
        assert max_abs(rot.matrix.T @ rot.matrix - np.eye(3)) <= 1e-10


def test_rotation_covariance():
    for i in range(1000):
        rng = substream(64, i)
        u = random_unitary(2, rng)
        a = random_hermitian(2, rng)
        rot = unitary_to_rotation(u)
        lhs = to_pauli(hermitian(u @ a @ u.conj().T)).coords
        rhs = rot.matrix @ to_pauli(a).coords
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_rotation_rejects_non_unitary():
    with pytest.raises(MatrixError):
        unitary_to_rotation(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(MatrixError, match="expected a 2x2 unitary"):
        unitary_to_rotation(np.eye(3))


def test_stacked_kernels_match_one_matrix_functions_bitwise():
    # each row of a stacked kernel equals its one-matrix function bit for
    # bit, and the coordinates equal tr(A B_k) taken matrix by matrix
    a = np.array([random_hermitian(2, substream(65, i)) for i in range(9)])
    u = np.array([random_unitary(2, substream(66, i)) for i in range(9)])
    coords = _pauli_coords(a)
    sums = _pauli_sum(coords)
    t, det_sign = _rotations(u)
    for i in range(len(a)):
        v = to_pauli(a[i])
        assert coords[i].tobytes() == np.array([*v.coords, v.trace_part]).tobytes()
        reference = [np.trace(a[i] @ b).real for b in PAULI_BASIS]
        assert coords[i, :3].tolist() == reference
        assert hermitian(sums[i]).tobytes() == from_pauli(v).tobytes()
        rot = unitary_to_rotation(u[i])
        assert t[i].tobytes() == rot.matrix.tobytes()
        assert det_sign[i] == rot.det_sign == 1


def test_stacked_rotations_refuse_a_non_orthogonal_induced_map():
    # (1 + 4e-11) U passes the 1e-10 unitarity test (defect about 8e-11),
    # but its induced map is (1 + 4e-11)^2 R, whose defect of about 1.6e-10
    # fails the orthogonality test: refused in a stack and alone
    u = np.array([random_unitary(2, substream(67, i)) for i in range(5)])
    u[3] *= 1.0 + 4e-11
    _rotations(np.delete(u, 3, axis=0))
    with pytest.raises(MatrixError, match="orthogonality"):
        _rotations(u)
    with pytest.raises(MatrixError, match="orthogonality"):
        unitary_to_rotation(u[3])
    u[1] *= 1.0 + 1e-9
    with pytest.raises(MatrixError, match="not unitary"):
        _rotations(u)


def test_psi_fixture():
    a = np.array([[1.0, 2 + 3j], [2 - 3j, 4.0]])
    expected = np.array([[1.0, -2 + 3j], [-2 - 3j, 4.0]])
    assert max_abs(psi(a) - expected) == 0.0


def test_psi_fixes_diagonal():
    a = np.diag([1.0, -2.0])
    assert max_abs(psi(a) - a) == 0.0


def test_psi_involution():
    for i in range(100):
        a = random_hermitian(2, substream(65, i))
        assert max_abs(psi(psi(a)) - a) == 0.0


def test_psi_is_coordinate_reflection():
    for i in range(100):
        a = random_hermitian(2, substream(66, i))
        v = to_pauli(a)
        w = to_pauli(psi(a))
        assert np.allclose(w.coords, [-v.a1, v.a2, v.a3], atol=1e-14)
        assert abs(w.trace_part - v.trace_part) < 1e-14


def _coordinate_map(transform) -> np.ndarray:
    cols = [to_pauli(transform(basis)).coords for basis in PAULI_BASIS]
    return np.stack(cols, axis=1)


def test_reflection_determinants():
    t_transpose = _coordinate_map(lambda m: m.T.copy())
    t_psi = _coordinate_map(psi)
    assert abs(np.linalg.det(t_transpose) + 1.0) < 1e-12
    assert abs(np.linalg.det(t_psi) + 1.0) < 1e-12
    # transpose flips the second coordinate, psi the first
    assert max_abs(t_transpose - np.diag([1.0, -1.0, 1.0])) < 1e-12
    assert max_abs(t_psi - np.diag([-1.0, 1.0, 1.0])) < 1e-12


def test_orthogonal_maps_preserve_cross_norm():
    # any orthogonal coordinate map preserves ||a x b||, which is why every
    # composed dim-2 form preserves commutator spectra
    rng = substream(67, 0)
    for reflection in (
        np.diag([1.0, -1.0, 1.0]),
        np.diag([-1.0, 1.0, 1.0]),
        np.diag([-1.0, -1.0, 1.0]),
    ):
        for i in range(200):
            u = random_unitary(2, rng)
            r = reflection @ unitary_to_rotation(u).matrix
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            lhs = np.linalg.norm(np.cross(r @ a, r @ b))
            rhs = np.linalg.norm(np.cross(a, b))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_entry_sign_pattern_radius_relation():
    # for entrywise sign patterns on traceless matrices,
    # [[a, c+id], [c-id, -a]] -> [[e1 a, e2 c+id], [e2 c-id, -e1 a]],
    # the commutator radius survives exactly when
    #   d f (e2 h2 c e + e1 h1 a b) + e1 e2 h1 h2 a b c e
    # equals d f (c e + a b) + a b c e; checked as an iff on random pairs
    from itertools import product

    from commrange.matcore import commutator, skew_hermitian_eigenvalues

    def traceless(u, v, w):
        return hermitian(np.array([[u, v + 1j * w], [v - 1j * w, -u]]))

    def radius(m1, m2):
        ts = skew_hermitian_eigenvalues(commutator(m1, m2))
        return max(abs(ts[0]), abs(ts[-1]))

    rng = substream(70, 0)
    for _ in range(50):
        a, c, d = rng.uniform(-2.0, 2.0, 3)
        b, e, f = rng.uniform(-2.0, 2.0, 3)
        base = radius(traceless(a, c, d), traceless(b, e, f))
        for e1, e2, h1, h2 in product((1, -1), repeat=4):
            image = radius(
                traceless(e1 * a, e2 * c, d), traceless(h1 * b, h2 * e, f)
            )
            relation = (
                abs(
                    d * f * (e2 * h2 * c * e + e1 * h1 * a * b)
                    + e1 * e2 * h1 * h2 * a * b * c * e
                    - (d * f * (c * e + a * b) + a * b * c * e)
                )
                < 1e-12
            )
            assert (abs(image - base) < 1e-10) == relation


def _probe_radii(a) -> np.ndarray:
    # w([A, C]) for the Pauli probes C = X, Y, Z; the commutator is normal
    # with spectrum i[t_min, t_max], so its radius is the larger endpoint
    ivs = [commutator_interval(a, c) for c in PAULI_BASIS]
    return np.array([max(-iv.t_min, iv.t_max) for iv in ivs])


def _probe_radii_match(a, b) -> bool:
    ra, rb = _probe_radii(a), _probe_radii(b)
    return bool(np.abs(ra - rb).max() <= 1e-9 * max(1.0, ra.max(), rb.max()))


def test_probe_radius_match_identity():
    a = random_hermitian(2, substream(68, 0))
    assert _probe_radii_match(a, a)


def test_probe_radius_match_mirror():
    # every dim-2 preserver form keeps the three probe radii
    for i in range(100):
        a = random_hermitian(2, substream(69, i))
        assert _probe_radii_match(a, psi(a))
        assert _probe_radii_match(a, hermitian(a.T.copy()))
        assert _probe_radii_match(a, -a)


def test_probe_radius_match_rejects_bump():
    a = np.array([[1.0, 2 + 1j], [2 - 1j, 0.0]])
    bumped = a + np.diag([0.1, 0.0])
    assert not _probe_radii_match(a, bumped)
