import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commrange import matcore
from commrange.matcore import (
    MAX_DIM,
    TOLERANCES,
    MatrixError,
    _gue,
    _sym,
    commutator,
    hermitian,
    max_abs,
    random_hermitian,
    random_unit_vector,
    random_unitary,
    rank_numeric,
    substream,
)
from commrange.nrange import _rank1_radii, commutator_interval, interval_symmetric
from commrange.structure import (
    _affine_sign_match,
    classify_two_level,
    asymmetry_witness,
    independence_vector,
    radius_equivalence_check,
    symmetry_witness_unitary,
)
from commrange.maps import _random_two_level
from commrange.suite import _judge_probes


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
    # the asymmetry witness needs dimension 3 as well
    with pytest.raises(MatrixError, match="requires dimension >= 3"):
        asymmetry_witness(np.diag([1.0, 2.0]))


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


def _closed_form_defect(lo: float, hi: float, m: float) -> float:
    """|t_min + t_max| of the witness of a matrix whose lowest, highest and
    chosen middle eigenvalues are lo, hi and m.

    In the basis (v_lo, v_hi, v_m) the witness is B_jk = 1/3 +
    i (s_k - s_j)/sqrt(6) with s = (1, 0, -1), and H = -i[A, B] has
    H_jk = -i (a_j - a_k) B_jk with a = (lo, hi, m).  H is traceless, so
    t_min + t_max = -t_mid, the middle root of t^3 - p t - q with
    p = sum_{j<k} |H_jk|^2 and q = det H = 2 Re(H_12 H_23 H_31).
    """
    p = (5 * (lo - hi) ** 2 + 5 * (hi - m) ** 2 + 14 * (lo - m) ** 2) / 18
    q = 2 * (lo - hi) * (hi - m) * (m - lo) / (3 * np.sqrt(6))
    phi = np.arccos(np.clip(1.5 * q / p * np.sqrt(3 / p), -1.0, 1.0))
    return abs(2 * np.sqrt(p / 3) * np.cos(phi / 3 - 2 * np.pi / 3))


def test_witness_defect_matches_the_closed_form():
    spectra = [
        [1.0, 2.0, 3.0],
        [0.0, 2e-6, 1.0],
        [0.0, 1e-5, 1.0],
        [0.0, 1e-3, 1.0],
        [1001.0, 1002.0, 1003.0],
        [0.0, 0.3, 0.3, 0.9, 1.0, 1.0],
        [-5.0, -5.0, 0.1, 2.0, 7.0],
        [-2.0, -2.0, -2.0, 4.0, 4.0, 9.0, 9.0],
    ]
    rng = substream(55, 0)
    for i in range(40):
        n = 3 + i % 14
        spectra.append(rng.choice(np.arange(-6.0, 7.0), n))
    seen = 0
    for i, lam in enumerate(spectra):
        lam = np.sort(np.asarray(lam, dtype=float))
        values = np.unique(lam)
        if len(values) < 3:
            continue
        u = random_unitary(len(lam), substream(56, i))
        a = _sym(u @ np.diag(lam) @ u.conj().T)
        lo, hi = values[0], values[-1]
        middle = values[1:-1]
        distance = np.abs(middle - (lo + hi) / 2)
        if len(middle) > 1 and np.sort(distance)[1] - distance.min() < 1e-3:
            continue  # a tie for v_m: either choice is a witness
        m = middle[np.argmin(distance)]
        b, iv = asymmetry_witness(a)
        want = _closed_form_defect(lo, hi, m)
        diameter = hi - lo
        assert abs(abs(iv.t_min + iv.t_max) - want) <= 1e-9 * want + 1e-13 * diameter
        # about 0.49 g d for a middle eigenvalue g d from the nearer end
        g = min(m - lo, hi - m) / diameter
        assert g > 0.01 or 0.48 * g * diameter < want < 0.5 * g * diameter
        assert rank_numeric(b) == 2
        assert abs(np.linalg.norm(b, 2) - (1 + np.sqrt(5)) / 2) <= 1e-12
        seen += 1
    assert seen > 30


def test_asymmetry_witness_splits_at_the_given_gap():
    a = np.diag([0.0, 1e-8, 1.0])
    assert asymmetry_witness(a) is None  # two clusters at GAP_TOL
    assert classify_two_level(a).two_level
    b, iv = asymmetry_witness(a, gap_tol=1e-9)
    assert not classify_two_level(a, 1e-9).two_level
    defect = abs(iv.t_min + iv.t_max)
    assert abs(defect - _closed_form_defect(0.0, 1.0, 1e-8)) <= 1e-6 * defect
    assert independence_vector(a) is None
    assert independence_vector(a, 1e-9) is not None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    middle=st.lists(
        st.floats(-1.0, 1.0), min_size=1, max_size=MAX_DIM - 2, unique=True
    ),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(-150.0, 150.0),
    negative=st.booleans(),
    delta=st.floats(-1e3, 1e3),
)
@example(middle=[0.0], seed=0, exponent=0.0, negative=False, delta=1002.0)
@example(middle=[0.0], seed=1, exponent=6.0, negative=False, delta=2.0)
@example(middle=[0.0], seed=2, exponent=-3.0, negative=True, delta=-2.0)
@example(middle=[-1.0 + 4.1e-6, 0.5], seed=3, exponent=150.0, negative=True, delta=1e3)
def test_witness_is_covariant_under_scale_and_shift(
    middle, seed, exponent, negative, delta
):
    # A has spectral endpoints -1 and 1; every Hermitian A with three or
    # more clusters is c'A + d'I for such an A
    lam = np.array([-1.0, *middle, 1.0])
    n = len(lam)
    u = random_unitary(n, substream(seed, 0))
    a = _sym(u @ np.diag(lam) @ u.conj().T)
    ref = classify_two_level(a)
    if ref.two_level or not ref.margin > 1e-6:
        return
    eigs = np.linalg.eigvalsh(a)
    distance = np.sort(np.abs(eigs[1:-1] - (eigs[0] + eigs[-1]) / 2))
    if n > 3 and distance[1] - distance[0] <= 1e-6 * (eigs[-1] - eigs[0]):
        return  # a near tie for v_m, which rounding may break either way
    c = (-1.0 if negative else 1.0) * 10.0**exponent
    norm = max_abs(a)
    scaled = c * a + delta * abs(c) * norm * np.eye(n)
    sign_a = np.sign(c) * a
    got = classify_two_level(scaled)
    assert not got.two_level and not classify_two_level(sign_a).two_level
    assert abs(got.margin - ref.margin) <= 1e-9
    b, iv = asymmetry_witness(scaled)
    b_ref, iv_ref = asymmetry_witness(sign_a)
    # cA + dI is sign(c) A scaled by |c| after one rounding of order
    # eps (1 + |delta|) |c| ||A||_max, which moves the defect by as much
    floor = 32 * np.finfo(float).eps * (1 + abs(delta)) * norm
    defect = abs(iv.t_min + iv.t_max) / abs(c)
    defect_ref = abs(iv_ref.t_min + iv_ref.t_max)
    assert abs(defect - defect_ref) <= 1e-11 * defect_ref + floor
    assert abs(iv.t_min / abs(c) - iv_ref.t_min) <= 1e-11 * abs(iv_ref.t_min) + floor
    assert abs(iv.t_max / abs(c) - iv_ref.t_max) <= 1e-11 * abs(iv_ref.t_max) + floor
    assert abs(np.linalg.norm(b, 2) - np.linalg.norm(b_ref, 2)) <= 1e-12


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
    with pytest.raises(ValueError, match="n_projections must be at least 1"):
        radius_equivalence_check(a, b, 0, substream(48, 1))


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


def _equivalence_reference(a, b, n_projections, rng):
    """``radius_equivalence_check`` with its vectors drawn and normalized
    one at a time."""
    a, b = hermitian(a), hermitian(b)
    n = a.shape[0]
    xs = []
    for _ in range(n_projections):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xs.append(v / np.linalg.norm(v))
    xs = np.stack(xs)
    gaps = np.abs(_rank1_radii(a, xs) - _rank1_radii(b, xs))
    k = int(np.argmax(gaps))
    match = _affine_sign_match(a, b)
    if match is not None:
        return "related", match[0], match[1], float(gaps[k]), None
    status = "not-related" if gaps[k] > TOLERANCES["equiv_gap"] else "inconclusive"
    witness = xs[k] if gaps[k] > 0.0 else None
    return status, None, None, float(gaps[k]), witness


def test_equivalence_equals_one_vector_at_a_time_bitwise():
    statuses = set()
    for i in range(60):
        rng = substream(51, i)
        n = 1 + i % MAX_DIM
        a = random_hermitian(n, rng)
        x = random_unit_vector(n, rng)
        # related, rank-1 bumped (not related) and barely bumped (inconclusive)
        bump = (0.0, 0.7, 1e-7)[i % 3]
        b = hermitian((-1) ** i * a + 0.25 * np.eye(n) + bump * np.outer(x, x.conj()))
        count = 1 + (37 * i) % 300
        got = radius_equivalence_check(a, b, count, substream(52, i))
        want = _equivalence_reference(a, b, count, substream(52, i))
        statuses.add(got.status)
        assert (got.status, got.alpha, got.beta) == want[:3]
        assert np.float64(got.worst_gap).tobytes() == np.float64(want[3]).tobytes()
        if want[4] is None:
            assert got.witness_vector is None
        else:
            assert got.witness_vector.tobytes() == want[4].tobytes()
    assert statuses == {"related", "not-related", "inconclusive"}


def _judge_probes_reference(a, u, probes):
    """Criterion 5's judgement probe by probe: whether every probe gives a
    symmetric interval and a residual of at most 1e-10, and every residual."""
    good, residuals = True, []
    for b in probes:
        comm = commutator(a, b)
        residuals.append(max_abs(u @ comm @ u.conj().T + comm))
        symmetric = interval_symmetric(commutator_interval(a, b))
        good = good and symmetric and residuals[-1] <= 1e-10
    return good, residuals


def test_criterion_5_probes_equal_the_per_probe_loop():
    for i in range(12):
        rng = substream(53, i)
        n = 3 + i % 4
        a = _random_two_level(n, rng)
        u = symmetry_witness_unitary(a)
        probes = _gue(rng.standard_normal((40, 2, n, n)))
        draws = substream(53, i)
        _random_two_level(n, draws)
        one_by_one = [random_hermitian(n, draws) for _ in range(40)]
        assert probes.tobytes() == np.stack(one_by_one).tobytes()
        good, residuals = _judge_probes(a, u, probes)
        assert good
        assert (good, residuals.tolist()) == _judge_probes_reference(a, u, one_by_one)


def test_criterion_5_judges_every_probe():
    rng = substream(54, 0)
    a = _random_two_level(4, rng)
    gue = [random_hermitian(4, rng) for _ in range(2)]
    # U = I fails the residual test on both non-commuting probes, and the
    # residual of every probe is returned, those after the first failure too
    probes = np.stack([a, 2.0 * a, gue[0], 3.0 * gue[1]])
    good, residuals = _judge_probes(a, np.eye(4), probes)
    assert (good, residuals.tolist()) == _judge_probes_reference(a, np.eye(4), probes)
    assert not good and residuals.tolist()[:2] == [0.0, 0.0] and len(residuals) == 4
    assert residuals[3] > residuals[2] > 1e-10
    # an asymmetric interval fails the stack without hiding any residual
    d = np.diag([1.0, 2.0, 4.0]).astype(complex)
    witness, _ = asymmetry_witness(d)
    probes = np.stack([np.diag([3.0, 1.0, 2.0]), witness, random_hermitian(3, rng)])
    good, residuals = _judge_probes(d, np.eye(3), probes)
    assert (good, residuals.tolist()) == _judge_probes_reference(d, np.eye(3), probes)
    assert not good and len(residuals) == 3 and residuals[0] == 0.0


def test_criterion_5_takes_one_eigensolve_per_matrix(monkeypatch):
    # each drawn matrix is classified and certified from one split
    from commrange import suite

    counts = {"eigh": 0, "draws": 0}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh, "eigh"))
    for name in ("random_hermitian", "_random_two_level"):
        monkeypatch.setattr(suite, name, counting(getattr(suite, name), "draws"))
    assert suite.crit_two_level_dichotomy(2026, 0.02, 1)["passed"]
    assert counts == {"eigh": 10, "draws": 10}


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
                assert interval_symmetric(commutator_interval(a, b))
        else:
            _, iv = witness
            assert abs(iv.t_min + iv.t_max) > 1e-6


def test_public_routes_validate_once(hermitian_calls, monkeypatch):
    # and each two-level route makes one eigensolve, the witnesses included
    a = random_hermitian(6, substream(47, 0))
    b = random_hermitian(6, substream(47, 1))
    eighs = []
    eigh = np.linalg.eigh

    def counting(m, *args, **kwargs):
        eighs.append(1)
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    routes = (
        # A only: the witness B is formed exactly Hermitian
        (lambda: asymmetry_witness(a) is not None, 1, 1),
        (lambda: radius_equivalence_check(a, b, 50, substream(47, 2)), 2, 0),
        (lambda: classify_two_level(a), 1, 1),
        (lambda: independence_vector(a) is not None, 1, 1),
        (lambda: symmetry_witness_unitary(np.diag([1.0, 1.0, 2.0])) is not None, 1, 1),
    )
    for call, validations, solves in routes:
        hermitian_calls.clear()
        eighs.clear()
        assert call()
        assert (len(hermitian_calls), len(eighs)) == (validations, solves)


@pytest.mark.parametrize("gap_tol", [0.0, -1.0, np.nan, np.inf])
def test_two_level_routes_refuse_a_gap_tol_outside_zero_to_inf(gap_tol):
    # a nan or inf gap_tol would certify diag(1, 2, 3) as two-level
    a = np.diag([1.0, 2.0, 3.0])
    for route in (
        classify_two_level,
        independence_vector,
        asymmetry_witness,
        symmetry_witness_unitary,
    ):
        with pytest.raises(ValueError, match="gap_tol"):
            route(a, gap_tol)
