import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commrange import matcore
from commrange.maps import MapConfigError, MapSpec
from commrange.matcore import (
    MAX_DIM,
    MatrixError,
    commutator,
    commutator_spectrum,
    hermitian,
    hermitian_eigen,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    random_hermitian,
    random_unit_vector,
    random_unitary,
    rank_numeric,
    skew_hermitian_eigenvalues,
    substream,
)
from commrange.nrange import commutator_interval
from commrange.pauli2 import PAULI_X, PAULI_Y, PAULI_Z, unitary_to_rotation


def test_as_matrix_rejects_bad_input():
    with pytest.raises(MatrixError):
        matcore.as_matrix([[1.0, 2.0]])
    with pytest.raises(MatrixError):
        matcore.as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(MatrixError):
        matcore.as_matrix(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(MatrixError, match="matrix must have positive dimension"):
        matcore.as_matrix(np.zeros((0, 0)))


def test_hermitian_validates_and_symmetrizes():
    a = np.array([[1.0, 2 + 1j], [2 - 1j, 3.0]])
    h = hermitian(a)
    assert max_abs(h - h.conj().T) == 0.0
    # bitwise no-op on an already Hermitian matrix
    assert np.array_equal(hermitian(h), h)
    with pytest.raises(MatrixError):
        hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_halves_before_adding():
    # (M + M*)/2 overflows here, so entries from 2**1022 up are halved first
    m = 1e308 * np.ones((2, 2))
    assert np.array_equal(hermitian(m), m)
    # below that the sum is halved, which equals M/2 + M*/2 bit for bit
    for i in range(50):
        rng = substream(3, i)
        n = 1 + i % 6
        a = random_hermitian(n, rng) + 1e-14 * rng.standard_normal((n, n))
        assert np.array_equal(hermitian(a), (a + a.conj().T) / 2)


def test_symmetrization_keeps_subnormal_entries_bitwise():
    # halving before the sum would round 5e-324 to 0
    tiny = 5e-324
    m = np.array([[tiny, 3 * tiny + 1j * tiny], [3 * tiny - 1j * tiny, -2 * tiny]])
    assert hermitian(m).tobytes() == m.tobytes()
    stack = np.stack([m, 2 * m, np.eye(2) + m])
    assert matcore._hermitian_stack(stack).tobytes() == stack.tobytes()


def test_symmetrization_is_finite_near_the_float_limit():
    exact = 1e308 * np.ones((2, 2), dtype=complex)
    near = exact.copy()
    near[0, 1] *= 1 + 1e-14  # within the 1e-12 relative symmetry tolerance
    for m in (exact, near):
        for out in (hermitian(m), matcore._hermitian_stack(np.stack([m, m / 3]))[0]):
            assert np.isfinite(out).all()
            assert max_abs(out - out.conj().T) == 0.0
            assert max_abs(out - m) <= 1e-14 * 1e308
    assert matcore._hermitian_stack(exact[None]).tobytes() == exact[None].tobytes()


def test_symmetry_test_refuses_asymmetry_beyond_the_float_range():
    # M - M* and |M| overflow here: the first matrix's defect 3e308 i and
    # its scale |1.5e308 (1 + i)| would both read inf, and inf <= 1e-12 inf
    for m in ([[1.5e308 + 1.5e308j, 0], [1, 0]], [[0, 1e308], [-1e308, 0]]):
        with pytest.raises(MatrixError, match="not self-adjoint"):
            hermitian(m)
        with pytest.raises(MatrixError, match="matrix 1 of the stack"):
            matcore._hermitian_stack(np.array([np.eye(2), m], dtype=complex))
    skew = np.array([[0, 1e308], [-1e308, 0]], dtype=complex)
    assert matcore.is_hermitian(skew, skew=True)
    assert not matcore.is_hermitian(1j * skew, skew=True)


def test_symmetry_verdict_is_invariant_under_power_of_two_scaling():
    # above the max(1, ||M||) floor the test is relative, so 2**k M gets the
    # verdict of M up to the float limit; the last k lifts the parts of
    # the 0.75 + 0.75i entry to 1.35e308, where its modulus overflows
    h = np.array(
        [[0.5, 0.75 + 0.75j, 0], [0.75 - 0.75j, -0.5, 0.25j], [0, -0.25j, 0.125]]
    )
    for factor, expected in ((0.5, True), (2.0, False)):
        m = h.copy()
        m[0, 2] += factor * 1e-12 * max_abs(h)
        for k in [*range(0, 1024, 20), 1024]:
            scaled = np.ldexp(1.0, k // 2) * m * np.ldexp(1.0, k - k // 2)
            assert matcore.is_hermitian(scaled) == expected, k


def test_commutator_pauli_pair():
    # [X, Y] = sqrt(2) i Z since XY = (i/sqrt 2) Z = -YX
    k = commutator(PAULI_X, PAULI_Y)
    assert max_abs(k - np.sqrt(2) * 1j * PAULI_Z) < 1e-15


def test_commutator_self_is_zero():
    a = random_hermitian(4, substream(1, 0))
    assert max_abs(commutator(a, a)) < 1e-14


def test_commutator_structured_block_formula():
    # [diag(a), B] has entries (a_j - a_k) b_jk; expand by hand and compare.
    diag = np.array([1.0, 2.0, 3.0])
    a = np.diag(diag).astype(complex)
    alpha = beta = gamma = 1 + 1j
    b = hermitian(
        np.array(
            [
                [0, alpha, gamma],
                [np.conj(alpha), 0, beta],
                [np.conj(gamma), np.conj(beta), 0],
            ]
        )
    )
    expected = np.array(
        [
            [0, (diag[0] - diag[1]) * alpha, (diag[0] - diag[2]) * gamma],
            [(diag[1] - diag[0]) * np.conj(alpha), 0, (diag[1] - diag[2]) * beta],
            [
                (diag[2] - diag[0]) * np.conj(gamma),
                (diag[2] - diag[1]) * np.conj(beta),
                0,
            ],
        ]
    )
    assert max_abs(commutator(a, b) - expected) < 1e-14


def test_commutator_dimension_mismatch():
    with pytest.raises(MatrixError):
        commutator(np.eye(2), np.eye(3))


def test_commutator_of_hermitians_is_skew_traceless():
    for i in range(200):
        rng = substream(2, i)
        n = 2 + i % 7
        a = random_hermitian(n, rng)
        b = random_hermitian(n, rng)
        k = commutator(a, b)
        scale = max(1.0, max_abs(k))
        assert max_abs(k + k.conj().T) <= 1e-12 * scale
        assert abs(np.trace(k)) <= 1e-12 * scale


def test_eigen_diagonal_case():
    ev, _ = hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(ev, [1.0, 2.0, 3.0], atol=1e-15)


def test_eigen_pauli_z():
    ev, _ = hermitian_eigen(PAULI_Z)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(ev, [-s, s], atol=1e-15)


def test_eigen_residuals_random():
    # residual and orthonormality invariants across the supported sizes
    for n in range(2, 9):
        for i in range(1000):
            a = random_hermitian(n, substream(3 * n, i))
            ev, vecs = hermitian_eigen(a)
            scale = max(1.0, max_abs(a))
            assert max_abs(a @ vecs - vecs @ np.diag(ev)) <= 1e-10 * scale
            assert max_abs(vecs.conj().T @ vecs - np.eye(n)) <= 1e-10
            assert np.all(np.diff(ev) >= 0)


def test_eigen_deterministic():
    a = random_hermitian(6, substream(4, 0))
    first = hermitian_eigen(a)
    second = hermitian_eigen(a)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.vectors, second.vectors)


def test_eigen_rejects_oversize():
    with pytest.raises(MatrixError):
        hermitian_eigen(np.eye(17))


# Properties of the single (LAPACK) eigen route over Hermitian inputs
# U diag(spectrum) U* with repeated eigenvalues, scaled from 1e-6 to 1e6.
_PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)
_DIMS = st.integers(1, 8)


def _conjugated(spectrum, seed):
    u = random_unitary(len(spectrum), substream(seed, 0))
    m = (u * spectrum) @ u.conj().T
    return (m + m.conj().T) / 2


@st.composite
def _repeated_spectrum_hermitian(draw, n):
    levels = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    return _conjugated(scale * np.array(picks), draw(st.integers(0, 2**32)))


# Hard cases pinned with @example, so they run whatever numeric literals
# Hypothesis collects from the package and the other test modules.
_SCALAR_1E6 = _conjugated(1e6 * np.ones(8), 1)
_TWO_LEVEL_1EM6 = _conjugated(1e-6 * np.array([1.0, 1.0, -0.5, -0.5, 1.0, 1.0, -0.5, 1.0]), 2)
_ONE_BY_ONE_1E6 = _conjugated(np.array([-1e6]), 3)
_A_1E3 = _conjugated(1e3 * np.array([0.3, -0.7, 0.3, 1.0, -0.7]), 4)
_PINNED_PAIRS = (
    # commuting, with ||A|| ||B|| = 1e7: [A, B] is roundoff only
    (_A_1E3, 10.0 * _A_1E3),
    (_A_1E3, _A_1E3),
    # a shared eigenbasis at 1e6 and 1e-6: commuting in exact arithmetic
    (
        _conjugated(1e6 * np.array([1.0, -1.0, 0.5, 0.5]), 5),
        _conjugated(1e-6 * np.array([0.2, 0.2, -1.0, 0.7]), 5),
    ),
    (_SCALAR_1E6, _TWO_LEVEL_1EM6),
    (_ONE_BY_ONE_1E6, _conjugated(np.array([1e-6]), 6)),
)


@_PROPERTY_SETTINGS
@given(_DIMS.flatmap(_repeated_spectrum_hermitian))
@example(_SCALAR_1E6)
@example(_TWO_LEVEL_1EM6)
@example(_ONE_BY_ONE_1E6)
@example(_A_1E3)
def test_eigen_property_residual_unitary_deterministic(a):
    ev, vecs = hermitian_eigen(a)
    assert np.all(np.diff(ev) >= 0)
    assert max_abs(a @ vecs - vecs * ev) <= 1e-10 * max(1.0, max_abs(a))
    assert max_abs(vecs.conj().T @ vecs - np.eye(a.shape[0])) <= 1e-10
    again = hermitian_eigen(a)
    assert np.array_equal(ev, again.eigenvalues)
    assert np.array_equal(vecs, again.vectors)


@_PROPERTY_SETTINGS
@given(
    _DIMS.flatmap(
        lambda n: st.tuples(
            _repeated_spectrum_hermitian(n), _repeated_spectrum_hermitian(n)
        )
    )
)
@example(_PINNED_PAIRS[0])
@example(_PINNED_PAIRS[1])
@example(_PINNED_PAIRS[2])
@example(_PINNED_PAIRS[3])
@example(_PINNED_PAIRS[4])
def test_skew_eigen_property_commutator_trace_zero(pair):
    # The skew part of [A, B]: forming AB - BA leaves a skew defect of order
    # eps * ||A|| ||B||, which the 1e-12 * max(1, ||[A, B]||) test rejects
    # for nearly commuting pairs at large scale (pinned below).  The same
    # roundoff leaves tr(C) of that order, so the sum of the t_k is compared
    # with tr(-iC) of the matrix passed in, not with the exact value 0.
    k = commutator(*pair)
    c = (k - k.conj().T) / 2
    ts = skew_hermitian_eigenvalues(c)
    trace = np.trace(-1j * c).real
    assert abs(ts.sum() - trace) <= 1e-10 * max(1.0, float(np.linalg.norm(c)))


@pytest.mark.xfail(raises=MatrixError, strict=True)
def test_skew_eigenvalues_near_commuting_large_pair():
    # Valid Hermitian A (entries ~1e4) and B = I up to rounding: the
    # commutator's roundoff is measured against ||[A, B]|| instead of
    # ||A|| ||B||, so the spectrum of a valid pair is refused.
    a = 1e4 * random_hermitian(5, substream(1, 0))
    u = random_unitary(5, substream(2, 0))
    b = hermitian(u @ u.conj().T)
    skew_hermitian_eigenvalues(commutator(a, b))


def _near_commuting_large_pair(i):
    # A with entries ~1e4 and B = I up to rounding: the pairs on which the
    # skew test of a formed commutator refuses valid input.
    a = 1e4 * random_hermitian(5, substream(1, i))
    u = random_unitary(5, substream(2, i))
    return a, hermitian(u @ u.conj().T)


def test_commutator_spectrum_near_commuting_large_pairs():
    for i in range(200):
        a, b = _near_commuting_large_pair(i)
        ts = commutator_spectrum(a, b)
        iv = commutator_interval(a, b)
        assert (iv.t_min, iv.t_max) == (ts[0], ts[-1])
        ref = np.sort(np.linalg.eigvals(a @ b - b @ a).imag)
        bound = 1e-10 * np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
        assert np.abs(ts - ref).max() <= bound


def test_commutator_spectrum_matches_general_eigensolver():
    for i in range(200):
        rng = substream(15, i)
        n = 1 + i % MAX_DIM
        a = random_hermitian(n, rng)
        u = random_unitary(n, rng)
        coeffs = matcore._rank_k_coeffs(rng.standard_normal(1 + i % n), rng)
        b = matcore._rank_k(u, coeffs)
        ref = np.sort(np.linalg.eigvals(a @ b - b @ a).imag)
        bound = 1e-10 * np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
        assert np.abs(commutator_spectrum(a, b) - ref).max() <= bound


def test_commutator_spectrum_rejects_bad_input():
    with pytest.raises(MatrixError):
        commutator_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(MatrixError):
        commutator_spectrum(np.eye(2), np.eye(3))
    with pytest.raises(MatrixError):
        commutator_spectrum(np.eye(MAX_DIM + 1), np.eye(MAX_DIM + 1))


@_PROPERTY_SETTINGS
@given(
    _DIMS.flatmap(
        lambda n: st.tuples(
            _repeated_spectrum_hermitian(n), _repeated_spectrum_hermitian(n)
        )
    )
)
@example(_PINNED_PAIRS[0])
@example(_PINNED_PAIRS[1])
@example(_PINNED_PAIRS[2])
@example(_PINNED_PAIRS[3])
@example(_PINNED_PAIRS[4])
def test_commutator_spectrum_property_antisymmetric(pair):
    # sigma([B, A]) = -sigma([A, B]); the two sides round differently, by
    # a few eps * ||A|| ||B||
    a, b = pair
    ab = commutator_spectrum(a, b)
    ba = commutator_spectrum(b, a)
    bound = 1e-12 * np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
    assert np.abs(ba + ab[::-1]).max() <= bound


def test_is_unitary_bound_pinned():
    # one bound, TOLERANCES["unitary"] on ||U U* - I||_max, for every caller
    for defect, ok in ((5e-11, True), (5e-10, False)):
        u = np.eye(2, dtype=complex)
        u[0, 1] = defect
        assert is_unitary(u) == ok
        if ok:
            MapSpec(dim=2, unitary=u)
            unitary_to_rotation(u)
        else:
            with pytest.raises(MapConfigError):
                MapSpec(dim=2, unitary=u)
            with pytest.raises(MatrixError):
                unitary_to_rotation(u)


@_PROPERTY_SETTINGS
@given(st.data(), st.integers(2, 8), st.floats(-6.0, 6.0), st.integers(0, 2**32))
def test_rank_property_rank_k(data, n, log_scale, seed):
    k = data.draw(st.integers(1, n))
    # nonzero singular values lie in 10**log_scale * [0.5, 2], so every one
    # of them clears TOLERANCES["rank"] = 1e-9 relative to max(1, s_max)
    mags = data.draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k))
    signs = data.draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=k, max_size=k))
    spectrum = np.zeros(n)
    spectrum[:k] = 10.0**log_scale * np.multiply(mags, signs)
    assert rank_numeric(_conjugated(spectrum, seed)) == k


def test_skew_eigenvalues_defect_bound_pinned():
    # the enforced skew defect bound is TOLERANCES["hermitian"], relative
    base = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    for defect, ok in ((5e-11, False), (5e-13, True)):
        c = base.copy()
        c[0, 1] += defect
        if ok:
            assert np.allclose(skew_hermitian_eigenvalues(c), [-1.0, 1.0])
        else:
            with pytest.raises(MatrixError):
                skew_hermitian_eigenvalues(c)


def test_skew_eigenvalues_pauli_commutator():
    ts = skew_hermitian_eigenvalues(commutator(PAULI_X, PAULI_Y))
    assert np.allclose(ts, [-1.0, 1.0], atol=1e-14)


def test_skew_eigenvalues_zero_matrix():
    assert np.allclose(skew_hermitian_eigenvalues(np.zeros((3, 3))), 0.0)


def test_skew_eigenvalues_structured_commutator():
    # distinct diagonal against a non-real off-diagonal pattern gives
    # three nonzero values, balanced to trace zero
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    alpha = beta = gamma = 1 + 1j
    b = hermitian(
        np.array(
            [
                [0, alpha, gamma],
                [np.conj(alpha), 0, beta],
                [np.conj(gamma), np.conj(beta), 0],
            ]
        )
    )
    ts = skew_hermitian_eigenvalues(commutator(a, b))
    assert np.all(np.abs(ts) > 1e-8)
    assert abs(ts.sum()) < 1e-12


def test_skew_eigenvalues_sum_to_zero():
    for i in range(300):
        rng = substream(6, i)
        n = 2 + i % 7
        c = commutator(random_hermitian(n, rng), random_hermitian(n, rng))
        ts = skew_hermitian_eigenvalues(c)
        assert abs(ts.sum()) <= 1e-10 * max(1.0, float(np.linalg.norm(c)))


def test_skew_eigenvalues_rejects_non_skew():
    with pytest.raises(MatrixError):
        skew_hermitian_eigenvalues(np.eye(3))


@pytest.mark.parametrize("n", [0, -1, MAX_DIM + 1])
def test_random_draws_refuse_bad_dimensions(n):
    # all three samplers make the one dimension check, so none returns an
    # empty draw, goes past MAX_DIM or leaks numpy's error for n < 0
    for draw in (random_hermitian, random_unitary, random_unit_vector):
        with pytest.raises(MatrixError, match="dimension must be in"):
            draw(n, substream(7, 0))


def test_rank_numeric_projection():
    x = random_unit_vector(5, substream(7, 0))
    assert rank_numeric(np.outer(x, x.conj())) == 1


def test_rank_numeric_projections_random():
    for i in range(1000):
        x = random_unit_vector(2 + i % 5, substream(8, i))
        assert rank_numeric(np.outer(x, x.conj())) == 1


def test_rank_numeric_full_rank_fixture():
    b = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=complex)
    c = np.array(
        [[1, 1, 1 + 1j], [1, 2, 1 - 1j], [1 - 1j, 1 + 1j, 0]], dtype=complex
    )
    k = commutator(b, c)
    assert rank_numeric(k) == 3
    assert abs(np.linalg.det(k) - (-4j)) < 1e-10


def test_rank_numeric_projection_commutators_bounded():
    # [alpha P + gamma I, B] = alpha [P, B] has rank <= 2 for rank-1 P
    for i in range(50):
        rng = substream(9, i)
        n = 3 + i % 3
        x = random_unit_vector(n, rng)
        p = np.outer(x, x.conj())
        a = 1.7 * p + 0.3 * np.eye(n)
        b = random_hermitian(n, rng)
        assert rank_numeric(commutator(a, b)) <= 2


def test_random_unitary_is_unitary():
    for i in range(100):
        n = 2 + i % 7
        u = random_unitary(n, substream(10, i))
        assert max_abs(u @ u.conj().T - np.eye(n)) <= 1e-12


def test_random_rank_k_has_rank_k():
    for i in range(100):
        rng = substream(11, i)
        n = 4
        k = 1 + i % 3
        u = random_unitary(n, rng)
        a = matcore._rank_k(u, matcore._rank_k_coeffs(rng.standard_normal(k), rng))
        assert rank_numeric(a) == k


def test_gue_spectrum_mean_statistic():
    # eigenvalue mean over many 2x2 draws: 0 within 5 standard errors
    total = 0.0
    count = 10_000
    for i in range(count):
        ev, _ = hermitian_eigen(random_hermitian(2, substream(12, i)))
        total += ev.sum()
    mean = total / (2 * count)
    sigma_mean = 1.0 / np.sqrt(2 * count)
    assert abs(mean) < 5 * sigma_mean


def test_substreams_reproducible_and_independent():
    a1 = random_hermitian(4, substream(13, 5))
    a2 = random_hermitian(4, substream(13, 5))
    b = random_hermitian(4, substream(13, 6))
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    # every call builds a new generator: draws from one leave the next alone
    g1, g2 = substream(13, 5), substream(13, 5)
    assert g1 is not g2 and g1.bit_generator is not g2.bit_generator
    first = g1.standard_normal(7)
    g1.integers(8)
    assert g2.standard_normal(7).tobytes() == first.tobytes()
    assert substream(13, 5).standard_normal(7).tobytes() == first.tobytes()


def _stream_state(rng):
    s = rng.bit_generator.state
    return (
        s["bit_generator"],
        s["state"]["counter"].tolist(),
        s["state"]["key"].tolist(),
        s["buffer"].tolist(),
        s["buffer_pos"],
        s["has_uint32"],
        s["uinteger"],
    )


@_PROPERTY_SETTINGS
@given(st.integers(-(2**80), 2**80), st.integers(-(2**80), 2**80))
@example(-1, 0)
@example(-(2**63), 7)
@example(2**63 + 5, 3)
@example(2**64 + 9, 2**64 + 1)
def test_reopened_stream_equals_fresh_substream(seed, index):
    rng = substream(5, 0)
    # a partly used buffer and a cached 32-bit half must not carry over
    rng.standard_normal(3)
    rng.integers(8)
    matcore._reopen_stream(rng, seed, index)
    fresh = substream(seed, index)
    key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
    direct = np.random.Generator(np.random.Philox(key=key))
    assert _stream_state(rng) == _stream_state(fresh) == _stream_state(direct)
    assert rng.standard_normal(5).tobytes() == fresh.standard_normal(5).tobytes()
    assert rng.integers(8, size=5).tolist() == fresh.integers(8, size=5).tolist()
    assert rng.uniform(size=3).tobytes() == fresh.uniform(size=3).tobytes()


@pytest.mark.parametrize(
    "criterion, built",
    [
        ("crit_rank1_radius_identity", 1),
        ("crit_affine_equivalence_oracle", 2),
        ("crit_two_level_dichotomy", 1),
        ("crit_sweep_vs_sampling", 1),
    ],
)
def test_per_trial_criteria_reopen_one_philox_per_loop(monkeypatch, criterion, built):
    # each per-trial loop walks its streams with ``_streams``; a fresh
    # ``substream`` per trial would build 20, 20, 10 and 2 at this scale
    from commrange import suite

    philox = np.random.Philox
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    assert getattr(suite, criterion)(2026, 0.02, 1)["passed"]
    assert len(calls) == built


def _unit_vector_reference(n, rng):
    """One Haar unit vector drawn and normalized on its own."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, MAX_DIM), st.integers(1, 300), st.integers(0, 2**32))
@example(1, 1, 0)
@example(MAX_DIM, 300, 1)
def test_stacked_unit_vectors_equal_one_by_one_draws(n, count, seed):
    stacked, single, public = substream(seed, 0), substream(seed, 0), substream(seed, 0)
    got = matcore._unit_vectors(stacked.standard_normal((count, 2, n)))
    want = np.stack([_unit_vector_reference(n, single) for _ in range(count)])
    assert got.tobytes() == want.tobytes()
    ones = np.stack([random_unit_vector(n, public) for _ in range(count)])
    assert ones.tobytes() == want.tobytes()
    # the stacked draw leaves the generator where the single draws do
    nxt = stacked.standard_normal()
    assert nxt == single.standard_normal() and nxt == public.standard_normal()


def test_matrix_json_round_trip():
    a = random_hermitian(4, substream(14, 0)) + 1j * 0
    obj = matrix_to_json(a)
    assert obj["dim"] == 4
    back = matrix_from_json(json.loads(json.dumps(obj)))
    assert np.array_equal(a, back)


def test_matrix_json_rejects_malformed():
    with pytest.raises(MatrixError):
        matrix_from_json({"dim": 2, "re": [[1, 0]], "im": [[0, 0]]})
    with pytest.raises(MatrixError):
        matrix_from_json({"re": [[1]]})
