import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commrange.matcore import (
    MatrixError,
    commutator,
    hermitian,
    hermitian_eigen,
    random_hermitian,
    random_unit_vector,
    random_unitary,
    substream,
)
from commrange import nrange
from commrange.nrange import (
    CommutatorInterval,
    commutator_interval,
    interval_symmetric,
    numerical_radius,
    range_boundary,
    rank1_commutator_radius,
    support_value,
)
from commrange.pauli2 import PAULI_X, PAULI_Y, PAULI_Z


def test_support_value_diagonal():
    assert abs(support_value(np.diag([1.0, -1.0]), 0.0) - 1.0) < 1e-14


def test_support_value_skew_segment():
    # sqrt(2) i Z = [X, Y]; support in the +i direction is 1
    a = np.sqrt(2) * 1j * PAULI_Z
    assert abs(support_value(a, np.pi / 2) - 1.0) < 1e-14


def test_support_value_dominates_samples():
    rng = substream(20, 0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for theta in (0.0, 0.7, 2.0, 4.5):
        h = support_value(a, theta)
        for _ in range(10_000):
            v = random_unit_vector(4, rng)
            val = (np.exp(-1j * theta) * np.vdot(v, a @ v)).real
            assert val <= h + 1e-10


def test_radius_rank2_skew_fixture():
    # [P, Z] for P = x(x)*, Z = (x+y)(x+y)*: the block [[0,1],[-1,0]],
    # whose range is the segment [-i, i]
    p = np.diag([1.0, 0.0])
    z = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert abs(numerical_radius(commutator(p, z)) - 1.0) < 1e-12


def test_radius_zero_matrix():
    assert numerical_radius(np.zeros((3, 3))) == 0.0


def test_radius_hermitian_fast_path():
    for i in range(50):
        a = random_hermitian(2 + i % 5, substream(21, i))
        ev, _ = hermitian_eigen(a)
        assert abs(numerical_radius(a) - np.abs(ev).max()) < 1e-12


def test_radius_sweep_vs_plain_sampling():
    rng = substream(22, 0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w = numerical_radius(a)
    sampled = 0.0
    for _ in range(100_000):
        v = random_unit_vector(3, rng)
        sampled = max(sampled, abs(np.vdot(v, a @ v)))
    assert w >= sampled - 1e-9
    assert w - sampled <= 1e-3


def test_radius_matches_boundary_maximum():
    # non-normal input: radius equals the largest boundary-sample modulus
    rng = substream(23, 0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    boundary = range_boundary(a, 512)
    assert abs(numerical_radius(a) - np.abs(boundary.points).max()) < 1e-4


def test_interval_pauli_pair():
    iv = commutator_interval(PAULI_X, PAULI_Y)
    assert abs(iv.t_min + 1.0) < 1e-12 and abs(iv.t_max - 1.0) < 1e-12


def test_interval_self():
    a = random_hermitian(3, substream(24, 0))
    iv = commutator_interval(a, a)
    assert abs(iv.t_min) < 1e-12 and abs(iv.t_max) < 1e-12


def test_interval_structured_asymmetric():
    # distinct diagonal against the dense pattern with a non-real triple
    # product: endpoints are not mirror images
    a = np.zeros((4, 4), dtype=complex)
    a[:3, :3] = np.diag([1.0, 2.0, 3.0])
    alpha = beta = gamma = 1 + 1j
    b = np.zeros((4, 4), dtype=complex)
    b[:3, :3] = [
        [0, alpha, gamma],
        [np.conj(alpha), 0, beta],
        [np.conj(gamma), np.conj(beta), 0],
    ]
    iv = commutator_interval(a, hermitian(b))
    assert abs(iv.t_min + iv.t_max) > 1e-3
    assert iv.t_min < 0 < iv.t_max


def test_interval_fast_path_consistency():
    for n in range(2, 9):
        for i in range(1000):
            rng = substream(25 * n, i)
            a = random_hermitian(n, rng)
            b = random_hermitian(n, rng)
            iv = commutator_interval(a, b)
            # zero trace forces both signs (or a degenerate zero interval)
            assert iv.t_min <= 1e-12 and iv.t_max >= -1e-12
            w = numerical_radius(commutator(a, b))
            assert abs(w - max(abs(iv.t_min), abs(iv.t_max))) <= 1e-9


def test_interval_translation_invariance():
    for i in range(100):
        rng = substream(26, i)
        n = 3 + i % 4
        a = random_hermitian(n, rng)
        b = random_hermitian(n, rng)
        iv0 = commutator_interval(a, b)
        iv1 = commutator_interval(
            a + 1.7 * np.eye(n), b - 0.4 * np.eye(n)
        )
        assert abs(iv0.t_min - iv1.t_min) <= 1e-12 * max(1, abs(iv0.t_min))
        assert abs(iv0.t_max - iv1.t_max) <= 1e-12 * max(1, abs(iv0.t_max))


def test_interval_scaling():
    a = random_hermitian(4, substream(27, 0))
    b = random_hermitian(4, substream(27, 1))
    iv = commutator_interval(a, b)
    up = commutator_interval(2.5 * a, b)
    assert np.allclose([up.t_min, up.t_max], [2.5 * iv.t_min, 2.5 * iv.t_max], atol=1e-10)
    down = commutator_interval(-2.0 * a, b)
    assert np.allclose([down.t_min, down.t_max], [-2.0 * iv.t_max, -2.0 * iv.t_min], atol=1e-10)


def test_interval_unitary_invariance():
    for i in range(100):
        rng = substream(28, i)
        n = 3 + i % 4
        a = random_hermitian(n, rng)
        b = random_hermitian(n, rng)
        u = random_unitary(n, rng)
        iv = commutator_interval(a, b)
        conj = commutator_interval(u @ a @ u.conj().T, u @ b @ u.conj().T)
        scale = max(1.0, abs(iv.t_min), abs(iv.t_max))
        assert abs(iv.t_min - conj.t_min) <= 1e-10 * scale
        assert abs(iv.t_max - conj.t_max) <= 1e-10 * scale


def test_interval_transpose_reflection():
    # basis-fixed transpose reflects the interval and preserves the radius
    for i in range(100):
        rng = substream(29, i)
        n = 3 + i % 4
        a = random_hermitian(n, rng)
        b = random_hermitian(n, rng)
        iv = commutator_interval(a, b)
        ivt = commutator_interval(a.T, b.T)
        scale = max(1.0, abs(iv.t_min), abs(iv.t_max))
        assert abs(ivt.t_min + iv.t_max) <= 1e-10 * scale
        assert abs(ivt.t_max + iv.t_min) <= 1e-10 * scale
        w = max(abs(iv.t_min), abs(iv.t_max))
        wt = max(abs(ivt.t_min), abs(ivt.t_max))
        assert abs(w - wt) <= 1e-10 * scale


def test_interval_symmetric_cases():
    assert interval_symmetric(CommutatorInterval(-1.0, 1.0))
    assert interval_symmetric(CommutatorInterval(0.0, 0.0))
    assert not interval_symmetric(CommutatorInterval(-1.0, 1.5))


def test_interval_symmetric_witness_fixture():
    # the constructed witness interval from an asymmetric spectrum
    from commrange.structure import asymmetry_witness

    _, iv = asymmetry_witness(np.diag([1.0, 2.0, 3.0]))
    assert not interval_symmetric(iv)


def test_rank1_radius_fixture():
    a = np.diag([1.0, 0.0])
    x = np.array([1.0, 1.0]) / np.sqrt(2)
    direct = rank1_commutator_radius(a, x)
    assert abs(direct - 0.5) < 1e-14
    oracle = numerical_radius(commutator(a, np.outer(x, x.conj())))
    assert abs(direct - oracle) < 1e-12


def test_rank1_radius_eigenvector_is_zero():
    a = np.diag([1.0, 2.0, 3.0])
    assert rank1_commutator_radius(a, np.array([0.0, 1.0, 0.0])) == 0.0


def test_rank1_radius_matches_eigensolver():
    for i in range(1000):
        rng = substream(30, i)
        n = 2 + i % 5
        a = random_hermitian(n, rng)
        x = random_unit_vector(n, rng)
        direct = rank1_commutator_radius(a, x)
        oracle = numerical_radius(commutator(a, hermitian(np.outer(x, x.conj()))))
        assert abs(direct - oracle) <= 1e-9


def test_rank1_radius_rejects_non_unit():
    with pytest.raises(MatrixError):
        rank1_commutator_radius(np.eye(2), np.array([1.0, 1.0]))
    with pytest.raises(MatrixError, match="vector length does not match"):
        rank1_commutator_radius(np.eye(2), np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_rank1_radius_rejects_non_finite_vectors(entry):
    # a non-finite entry gives a NaN or infinite norm; the unit check must
    # refuse both, although NaN fails every comparison
    with pytest.raises(MatrixError, match="finite unit vector"):
        rank1_commutator_radius(np.diag([1.0, 2.0]), np.array([entry, 0.0]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 16), st.integers(0, 2**32), st.floats(-8.0, 8.0), st.booleans())
def test_rank1_radius_property_homogeneous(n, seed, log_c, negative):
    # w([cA, x x*]) = |c| w([A, x x*]): the kernel runs on A/||A||_max
    rng = substream(seed, 0)
    a = random_hermitian(n, rng)
    x = random_unit_vector(n, rng)
    c = (-1.0 if negative else 1.0) * 10.0**log_c
    scaled = rank1_commutator_radius(c * a, x)
    bound = 1e-12 * abs(c) * np.abs(a).max()
    assert abs(scaled - abs(c) * rank1_commutator_radius(a, x)) <= bound


def test_boundary_segment():
    boundary = range_boundary(np.sqrt(2) * 1j * PAULI_Z, 64)
    assert np.abs(boundary.points.real).max() < 1e-10
    assert abs(np.abs(boundary.points.imag).max() - 1.0) < 1e-10


def test_boundary_zero_matrix():
    boundary = range_boundary(np.zeros((2, 2)), 16)
    assert np.abs(boundary.points).max() == 0.0


def test_boundary_points_are_attained():
    # every exported point must be <A v, v> for its recorded unit vector
    rng = substream(31, 0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    boundary = range_boundary(a, 128)
    for point, v in zip(boundary.points, boundary.vectors):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-10
        assert abs(point - np.vdot(v, a @ v)) < 1e-10


def test_boundary_hull_contains_samples():
    rng = substream(32, 0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    boundary = range_boundary(a, 1024)
    # support function of the exported polygon, per exported angle
    phases = np.exp(-1j * boundary.angles)
    support = np.max(phases[:, None] * boundary.points[None, :], axis=1).real
    for _ in range(1000):
        v = random_unit_vector(3, rng)
        q = np.vdot(v, a @ v)
        assert np.all((phases * q).real <= support + 1e-6)


def _boundary_per_angle(a, n_angles):
    # reference: one eigh call per support angle
    points, vectors = [], []
    for theta in np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False):
        h = (np.exp(-1j * theta) * a + np.exp(1j * theta) * a.conj().T) / 2
        v = np.linalg.eigh(h)[1][:, -1]
        points.append(np.vdot(v, a @ v))
        vectors.append(v)
    return np.array(points), np.array(vectors)


def test_boundary_matches_per_angle_reference():
    # even counts take the antipodal pairing, odd ones decompose every angle
    for n_angles in (8, 9, 96, 97):
        for i in range(60):
            rng = substream(33, i)
            n = 1 + i % 8
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            boundary = range_boundary(a, n_angles)
            points, vectors = _boundary_per_angle(a, n_angles)
            scale = max(1.0, np.abs(a).max())
            assert np.abs(boundary.points - points).max() <= 1e-12 * scale
            overlaps = np.abs(np.einsum("kj,kj->k", vectors.conj(), boundary.vectors))
            assert np.abs(overlaps - 1.0).max() <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 16),
    st.integers(0, 2**32),
    st.floats(-8.0, 8.0),
    st.integers(4, 100),
    st.booleans(),
)
def test_boundary_points_on_support_lines(n, seed, log_c, half, odd):
    a = 10.0**log_c * _ginibre(n, seed)
    n_angles = 2 * half + int(odd)
    boundary = range_boundary(a, n_angles)
    assert boundary.points.shape == boundary.angles.shape == (n_angles,)
    assert boundary.vectors.shape == (n_angles, n)
    assert np.abs(np.linalg.norm(boundary.vectors, axis=1) - 1.0).max() <= 1e-12
    # the support line at theta: Re(e^{-i theta} p) = lambda_max(H_theta)
    t = boundary.angles[:, None, None]
    h = (np.exp(-1j * t) * a + np.exp(1j * t) * a.conj().T) / 2
    top = np.linalg.eigvalsh(h)[:, -1]
    offsets = (np.exp(-1j * boundary.angles) * boundary.points).real - top
    assert np.abs(offsets).max() <= 1e-12 * max(1.0, np.linalg.norm(a, 2))


def test_boundary_rejects_few_angles():
    with pytest.raises(ValueError):
        range_boundary(np.eye(2), 4)


def test_radius_scale_invariant_for_tiny_matrices():
    # the branch is chosen on A/||A||_max, so 1e-13 A stays on the general
    # path instead of falling below is_hermitian's max(1, ||M||) floor; at a
    # subnormal scale 1/||A||_max is inf, so each part is divided by it
    a = np.array([[1.0, 2.0], [0.0, 1j]])
    w = numerical_radius(a)
    for c in (1.0, 1e-6, 1e-12, 1e-13, 1e-310, 1e-312):
        assert abs(numerical_radius(c * a) / c - w) <= 1e-9 * w


def _golden_max(top, lo, hi, inv_phi, width):
    # golden-section search for a maximum of top on [lo, hi] down to a
    # bracket of ``width``: the largest value met, in top's arithmetic
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fc, fd = top(c), top(d)
    best = max(fc, fd)
    while hi - lo > width:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = top(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = top(d)
        best = max(best, fc, fd)
    return best


def _sweep_radius_reference(a):
    # the former general path: the support function on a 720-angle grid,
    # then golden-section search on the best bracket down to width 1e-10
    def top(theta):
        t = np.asarray(theta, dtype=float)[..., None, None]
        h = (np.exp(-1j * t) * a + np.exp(1j * t) * a.conj().T) / 2
        return np.linalg.eigvalsh(h)[..., -1]

    thetas = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    vals = top(thetas)
    k = int(np.argmax(vals))
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = thetas[k] - 2.0 * np.pi / 720, thetas[k] + 2.0 * np.pi / 720
    return max(float(vals[k]), _golden_max(lambda t: float(top(t)), lo, hi, inv_phi, 1e-10))


def _mp_radius_reference(a, digits=40, grid=32):
    # the same maximum of h(theta) in mpmath at ``digits`` digits: a coarse
    # grid, then golden-section search on its best bracket down to 1e-12
    mpmath = pytest.importorskip("mpmath")
    with mpmath.mp.workdps(digits):
        am = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in a])
        adj = am.transpose_conj()

        def top(theta):
            e = mpmath.exp(mpmath.mpc(0, -theta))
            return max(mpmath.eighe((e * am + mpmath.conj(e) * adj) / 2, eigvals_only=True))

        step = 2 * mpmath.pi / grid
        vals = [top(k * step) for k in range(grid)]
        k = max(range(grid), key=vals.__getitem__)
        inv_phi = (mpmath.sqrt(5) - 1) / 2
        return max(vals[k], _golden_max(top, (k - 1) * step, (k + 1) * step, inv_phi, 1e-12))


def _ginibre(n, seed):
    rng = substream(seed, 0)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


@st.composite
def _scaled_ginibre(draw):
    n = draw(st.integers(2, 16))
    g = _ginibre(n, draw(st.integers(0, 2**32)))
    return 10.0 ** draw(st.floats(-8.0, 8.0)) * g, None


# At this n = 16 Ginibre matrix, Newton steps from the vertex start end at
# a local maximum of h 0.72% below w(A); the level set has to climb.
_NEWTON_LOCAL_MAX_SEED = 85


def _jordan(n):
    return np.diag(np.ones(n - 1), 1)


def _rank_one():
    rng = substream(34, 0)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    # w(x y*) = (|<x, y>| + ||x|| ||y||) / 2
    known = (abs(np.vdot(y, x)) + np.linalg.norm(x) * np.linalg.norm(y)) / 2
    return np.outer(x, y.conj()), known


def _polygon_normal():
    # eigenvalues at the vertices of a shifted regular pentagon
    u = random_unitary(5, substream(35, 0))
    lam = 0.4 - 0.2j + 1.3 * np.exp(2j * np.pi * np.arange(5) / 5)
    return (u * lam) @ u.conj().T, float(np.abs(lam).max())


def _doubled_pentagon():
    # the same pentagon with every eigenvalue doubled, left diagonal: h has
    # kinks and every H_theta has a top eigenvalue of gap exactly 0, so the
    # Newton start stops at once and the level set climbs alone
    lam = 0.4 - 0.2j + 1.3 * np.exp(2j * np.pi * np.arange(5) / 5)
    return np.diag(np.repeat(lam, 2)), float(np.abs(lam).max())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_scaled_ginibre(), st.floats(0.0, 2.0 * np.pi), st.floats(-3.0, 3.0), st.booleans())
@example((_jordan(2), np.cos(np.pi / 3)), 0.0, 0.0, False)
@example((_jordan(3), np.cos(np.pi / 4)), 1.0, 2.0, True)
@example((_jordan(4), np.cos(np.pi / 5)), 2.5, -2.0, False)
@example((_jordan(5), np.cos(np.pi / 6)), 4.0, 0.5, True)
@example((_jordan(6), np.cos(np.pi / 7)), 0.3, -0.5, False)
@example((_jordan(7), np.cos(np.pi / 8)), 5.9, 1.0, True)
@example((_jordan(8), np.cos(np.pi / 9)), 3.1, 0.0, False)
@example(_rank_one(), 0.7, 1.5, True)
@example(_polygon_normal(), 1.9, -1.0, False)
@example(_doubled_pentagon(), 0.4, 0.7, True)
@example((_jordan(16), np.cos(np.pi / 17)), 2.2, -1.5, True)
@example((_ginibre(16, _NEWTON_LOCAL_MAX_SEED), None), 1.2, 0.0, False)
def test_radius_level_set_property(case, phi, log_c, negative):
    a, known = case
    w = numerical_radius(a)
    assert abs(w - _sweep_radius_reference(a)) <= 1e-12 * w
    if known is not None:
        assert abs(w - known) <= 1e-12 * known
    c = (-1.0 if negative else 1.0) * 10.0**log_c
    rotated = numerical_radius(np.exp(1j * phi) * c * a)
    assert abs(rotated - abs(c) * w) <= 1e-12 * abs(c) * w
    # w lies between the boundary samples and ||A||_2, up to rounding
    norm2 = np.linalg.norm(a, 2)
    assert np.abs(range_boundary(a, 1024).points).max() - 1e-12 * norm2 <= w
    assert w <= norm2 * (1.0 + 1e-12)


def test_newton_start_stalls_below_radius_on_pinned_matrix():
    # the pinned matrix really needs the level set after the Newton start
    a = _ginibre(16, _NEWTON_LOCAL_MAX_SEED)
    unit = a / np.abs(a).max()
    parts = nrange._hermitian_parts(unit)
    tops = np.linalg.eigvalsh(nrange._support_matrices(parts, nrange._LEVEL_GRID))[:, -1]
    start = nrange._newton_support(parts, nrange._newton_start(tops)) * np.abs(a).max()
    w = numerical_radius(a)
    assert start < w * (1.0 - 1e-3)
    assert abs(w - _sweep_radius_reference(a)) <= 1e-12 * w


@pytest.mark.parametrize("n", [3, 6, 16])
def test_level_set_solves_and_newton_steps_per_call(n, monkeypatch):
    # the rise rule lets one 2n x 2n eigenproblem certify most starts, and
    # the vertex start saves Newton steps: over these 40 matrices a call
    # makes 1.0 solves and 3.15-3.2 steps, against 1.43-1.58 and 3.68-3.93
    # without the two
    calls = {"eigvals": 0, "eigh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counting(m, name=name, original=original):
            calls[name] += 1
            return original(m)

        monkeypatch.setattr(np.linalg, name, counting)
    for seed in range(40):
        numerical_radius(_ginibre(n, seed))
    assert calls["eigvals"] / 40 <= 1.2
    assert calls["eigh"] / 40 <= 3.4


@pytest.mark.parametrize("n, seed", [(2, 9), (3, 0), (2, 2904), (4, 983)])
def test_radius_matches_high_precision_reference(n, seed):
    # the first two level sets end on a midpoint 4.4e-16 r above r, which
    # the rise rule takes for rounding; the last two climb from a poor
    # Newton start through rises down to 2e-12 r and 5e-11 r, where a rise
    # rule of 1e-6 would stop short
    a = _ginibre(n, seed)
    w = numerical_radius(a)
    assert abs(w - float(_mp_radius_reference(a))) <= 1e-13 * w


_NEAR_LIMIT = np.array([[1.0, 0.9], [0.0, 1j]])


def test_support_function_finite_near_float_limit():
    # halved Hermitian parts and the unit-scale level set keep 1e308 finite
    a = 1e308 * _NEAR_LIMIT
    w = numerical_radius(a)
    assert np.isfinite(w)
    reference = 1e300 * numerical_radius(1e8 * _NEAR_LIMIT)
    assert abs(w - reference) <= 1e-12 * reference
    boundary = range_boundary(a, 16)
    assert np.isfinite(boundary.points).all() and np.isfinite(boundary.vectors).all()
    assert np.isfinite(support_value(a, 0.3))


def test_radius_spectral_branches_finite_near_float_limit():
    # the Hermitian and skew-Hermitian branches also halve before adding
    k = np.array([[1.0, 0.5], [0.5, -1.0]])
    expected = 1e308 * np.sqrt(1.25)
    for a in (1e308 * k, 1e308j * k):
        assert abs(numerical_radius(a) - expected) <= 1e-15 * expected
