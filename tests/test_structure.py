import numpy as np
import pytest

from commrange import matcore
from commrange.matcore import (
    MatrixError,
    commutator,
    hermitian,
    max_abs,
    random_hermitian,
    random_unit_vector,
    random_unitary,
    rank_numeric,
    substream,
)
from commrange.nrange import commutator_interval, interval_symmetric
from commrange.structure import (
    classify_two_level,
    asymmetry_witness,
    independence_vector,
    radius_equivalence_check,
    symmetry_witness_unitary,
)
from commrange.maps import _random_two_level


def test_classify_identity():
    decomp = classify_two_level(np.eye(3))
    assert decomp.two_level
    assert decomp.projection is None
    assert decomp.coeff == 0.0
    assert abs(decomp.shift - 1.0) < 1e-14


def test_classify_projection():
    decomp = classify_two_level(np.diag([1.0, 1.0, 0.0, 0.0]))
    assert decomp.two_level
    assert abs(decomp.coeff - 1.0) < 1e-12
    assert abs(decomp.shift) < 1e-12
    assert max_abs(decomp.projection - np.diag([1.0, 1.0, 0.0, 0.0])) < 1e-12


def test_classify_three_point_spectrum():
    assert not classify_two_level(np.diag([1.0, 2.0, 3.0])).two_level


def test_classify_reconstruction_on_random_two_level():
    for i in range(200):
        rng = substream(40, i)
        n = 3 + i % 4
        a = _random_two_level(n, rng)
        decomp = classify_two_level(a)
        assert decomp.two_level
        p = decomp.projection if decomp.projection is not None else np.zeros((n, n))
        recon = decomp.coeff * p + decomp.shift * np.eye(n)
        assert max_abs(a - recon) <= 1e-8 * max(1.0, max_abs(a))
        if decomp.projection is not None:
            assert max_abs(p @ p - p) <= 1e-9


def test_independence_vector_diag123():
    x = independence_vector(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(np.abs(x), 1.0 / np.sqrt(3.0), atol=1e-12)
    krylov = np.stack([x, np.diag([1.0, 2.0, 3.0]) @ x, np.diag([1.0, 4.0, 9.0]) @ x], axis=1)
    assert np.linalg.svd(krylov, compute_uv=False)[-1] > 1e-6


def test_independence_vector_absent_for_two_level():
    assert independence_vector(np.diag([1.0, 1.0, 0.0])) is None
    x = random_unit_vector(4, substream(41, 0))
    a = 2.0 * np.outer(x, x.conj()) + 0.5 * np.eye(4)
    assert independence_vector(hermitian(a)) is None


def test_independence_vector_small_dim_rejected():
    with pytest.raises(MatrixError):
        independence_vector(np.eye(2))


def test_asymmetry_witness_diag123():
    b, iv = asymmetry_witness(np.diag([1.0, 2.0, 3.0]))
    assert abs(iv.t_min + iv.t_max) > 1e-6
    check = commutator_interval(np.diag([1.0, 2.0, 3.0]), b)
    assert abs(check.t_min - iv.t_min) < 1e-12
    assert rank_numeric(b) == 2


def test_asymmetry_witness_absent_for_two_level():
    assert asymmetry_witness(np.diag([1.0, 1.0, 0.0])) is None


def test_asymmetry_witness_rank3_commutator():
    a = np.diag([0.0, 1.0, 4.0, 9.0])
    b, iv = asymmetry_witness(a)
    assert abs(iv.t_min + iv.t_max) > 1e-6
    assert rank_numeric(commutator(a, b)) == 3


def test_symmetry_witness_two_cluster():
    u = symmetry_witness_unitary(np.diag([2.0, 2.0, 5.0, 5.0]))
    assert max_abs(u - np.diag([-1.0, -1.0, 1.0, 1.0])) < 1e-12


def test_symmetry_witness_scalar():
    a = np.eye(3)
    u = symmetry_witness_unitary(a)
    assert max_abs(u + np.eye(3)) < 1e-14
    b = random_hermitian(3, substream(42, 0))
    comm = commutator(a, b)
    assert max_abs(comm) < 1e-14  # identity commutes; contract vacuous


def test_symmetry_witness_absent_when_not_two_level():
    assert symmetry_witness_unitary(np.diag([1.0, 2.0, 3.0])) is None


def test_symmetry_witness_conjugation_contract():
    for i in range(50):
        rng = substream(43, i)
        n = 3 + i % 4
        a = _random_two_level(n, rng)
        u = symmetry_witness_unitary(a)
        assert u is not None
        assert max_abs(u @ u.conj().T - np.eye(n)) < 1e-12
        for _ in range(20):
            b = random_hermitian(n, rng)
            comm = commutator(a, b)
            assert max_abs(u @ comm @ u.conj().T + comm) <= 1e-10


def test_equivalence_shifted():
    a = random_hermitian(4, substream(44, 0))
    b = hermitian(a + 2.0 * np.eye(4))
    verdict = radius_equivalence_check(a, b, 50, substream(44, 1))
    assert verdict.status == "related" and verdict.related
    assert verdict.alpha == 1
    assert abs(verdict.beta - 2.0) < 1e-12
    assert verdict.worst_gap <= 1e-9


def test_equivalence_negated():
    a = random_hermitian(3, substream(45, 0))
    verdict = radius_equivalence_check(a, -a, 50, substream(45, 1))
    assert verdict.related and verdict.alpha == -1
    assert abs(verdict.beta) < 1e-12


def test_equivalence_rank1_bump_rejected():
    a = np.diag([1.0, 2.0, 3.0])
    x = np.ones(3) / np.sqrt(3.0)
    b = hermitian(a + np.outer(x, x.conj()))
    verdict = radius_equivalence_check(a, b, 200, substream(46, 0))
    assert verdict.status == "not-related"
    assert not verdict.related
    assert verdict.worst_gap > 1e-6
    assert verdict.witness_vector is not None


def test_equivalence_squared_form_consequence():
    # related pairs satisfy <By, z>^2 = <Ay, z>^2 on orthonormal pairs
    for i in range(20):
        rng = substream(47, i)
        n = 3 + i % 3
        a = random_hermitian(n, rng)
        alpha = 1 if i % 2 == 0 else -1
        b = hermitian(alpha * a + float(rng.uniform(-2, 2)) * np.eye(n))
        verdict = radius_equivalence_check(a, b, 20, rng)
        assert verdict.related
        for _ in range(100):
            u = random_unitary(n, rng)
            y, z = u[:, 0], u[:, 1]
            lhs = np.vdot(z, b @ y) ** 2
            rhs = np.vdot(z, a @ y) ** 2
            assert abs(lhs - rhs) <= 1e-9


def test_equivalence_validates_once(monkeypatch):
    # input validation is per call, not per sampled projection
    calls = []

    def counting_as_matrix(a):
        calls.append(1)
        return as_matrix(a)

    as_matrix = matcore.as_matrix
    monkeypatch.setattr(matcore, "as_matrix", counting_as_matrix)
    a = random_hermitian(4, substream(48, 0))
    b = hermitian(a + np.diag([0.0, 0.0, 0.0, 1.0]))
    counts = []
    for n_projections in (1, 200):
        calls.clear()
        radius_equivalence_check(a, b, n_projections, substream(48, 1))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def _rank1_radius_reference(a, x):
    ax = a @ x
    return np.sqrt(max(0.0, np.vdot(ax, ax).real - np.vdot(x, ax).real ** 2))


def test_equivalence_matches_per_vector_reference():
    # worst_gap and its witness against the closed form, one vector at a time
    for i in range(100):
        rng = substream(49, i)
        n = 2 + i % 5
        a = random_hermitian(n, rng)
        x = random_unit_vector(n, rng)
        b = hermitian(a + float(rng.uniform(-1.0, 1.0)) * np.outer(x, x.conj()))
        verdict = radius_equivalence_check(a, b, 200, substream(50, i))
        draws = substream(50, i)
        gaps = []
        for _ in range(200):
            y = random_unit_vector(n, draws)
            ref_a, ref_b = _rank1_radius_reference(a, y), _rank1_radius_reference(b, y)
            gaps.append(abs(ref_a - ref_b))
        assert abs(verdict.worst_gap - max(gaps)) <= 1e-12
        w = verdict.witness_vector
        w_gap = abs(_rank1_radius_reference(a, w) - _rank1_radius_reference(b, w))
        assert abs(w_gap - max(gaps)) <= 1e-12


def test_every_dim2_hermitian_is_two_level():
    # at dim 2 the spectrum has at most two points, so the class is all of
    # the Hermitian matrices and symmetry of commutator ranges is automatic
    for i in range(100):
        a = random_hermitian(2, substream(49, i))
        assert classify_two_level(a).two_level


def test_dichotomy_smoke():
    # two_level <=> no asymmetry witness; witnesses genuinely asymmetric
    for i in range(40):
        rng = substream(48, i)
        n = 3 + i % 4
        if i % 2 == 0:
            a = _random_two_level(n, rng)
        else:
            a = random_hermitian(n, rng)
        decomp = classify_two_level(a)
        witness = asymmetry_witness(a)
        assert decomp.two_level == (witness is None)
        if witness is None:
            for _ in range(10):
                b = random_hermitian(n, rng)
                assert interval_symmetric(commutator_interval(a, b), 1e-8)
        else:
            _, iv = witness
            assert abs(iv.t_min + iv.t_max) > 1e-6


def test_public_routes_validate_once(hermitian_calls):
    a = random_hermitian(6, substream(47, 0))
    b = random_hermitian(6, substream(47, 1))
    routes = (
        # A, then the witness B, which is formed inexactly
        (lambda: asymmetry_witness(a) is not None, 2),
        (lambda: radius_equivalence_check(a, b, 50, substream(47, 2)), 2),
        (lambda: classify_two_level(a), 1),
        (lambda: symmetry_witness_unitary(np.diag([1.0, 1.0, 2.0])) is not None, 1),
    )
    for call, expected in routes:
        hermitian_calls.clear()
        assert call()
        assert len(hermitian_calls) == expected
