import json
import multiprocessing

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from commrange import maps as maps_mod
from commrange import suite as suite_mod
from commrange.matcore import (
    MatrixError,
    hermitian,
    max_abs,
    random_hermitian,
    random_unitary,
    substream,
)
from commrange.nrange import commutator_interval, intervals_equal
from commrange.maps import (
    DAGGER_TRANSPOSE,
    MODE_RADIUS,
    MODE_RANGE,
    MODE_SPECTRUM,
    SHIFT_HASH,
    SHIFT_TRACELESS,
    SIGN_HASH,
    SSET_ALL,
    SSET_RANDOM,
    MapConfigError,
    MapSpec,
    apply_map,
    check_preservation,
    pool_size,
)
from commrange.pauli2 import psi
from commrange.structure import affine_sign_match, asymmetry_witness


def test_identity_map_is_identity():
    m = MapSpec(dim=3, unitary=np.eye(3))
    a = random_hermitian(3, substream(80, 0))
    assert max_abs(apply_map(m, a) - a) < 1e-14


def test_traceless_shift_normalizes():
    m = MapSpec(dim=4, unitary=np.eye(4), shift=SHIFT_TRACELESS)
    for i in range(20):
        a = random_hermitian(4, substream(81, i))
        assert abs(np.trace(apply_map(m, a))) < 1e-12


def test_mirror_form_matrix_action():
    u = random_unitary(2, substream(82, 0))
    m = MapSpec(dim=2, unitary=u, psi=True)
    a = np.array([[1.0, 2 + 3j], [2 - 3j, 4.0]])
    expected = u @ np.array([[1.0, -2 + 3j], [-2 - 3j, 4.0]]) @ u.conj().T
    assert max_abs(apply_map(m, a) - expected) < 1e-12


def test_mirror_then_transpose_order():
    m = MapSpec(dim=2, unitary=np.eye(2), psi=True, dagger=DAGGER_TRANSPOSE)
    a = random_hermitian(2, substream(83, 0))
    assert max_abs(apply_map(m, a) - psi(a).T) < 1e-14


def test_spec_validation():
    with pytest.raises(MapConfigError):
        MapSpec(dim=3, unitary=np.eye(3), psi=True)
    with pytest.raises(MapConfigError):
        MapSpec(dim=2, unitary=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(MapConfigError):
        MapSpec(dim=2, unitary=np.eye(2), dagger="adjoint")
    with pytest.raises(MapConfigError):
        MapSpec(dim=2, unitary=np.eye(2), sign="random")
    with pytest.raises(MapConfigError):
        MapSpec(dim=2, unitary=np.eye(2), epsilon=2)


def test_hash_rules_deterministic_and_stable():
    m = MapSpec(
        dim=3,
        unitary=np.eye(3),
        sign=SIGN_HASH,
        sign_seed=7,
        shift=SHIFT_HASH,
        shift_seed=8,
    )
    a = random_hermitian(3, substream(84, 0))
    assert m.sign_value(a) == m.sign_value(a.copy())
    assert m.sign_value(a) in (-1, 1)
    f = m.shift_value(a)
    assert -1.0 <= f <= 1.0
    assert f == m.shift_value(a.copy())
    # quantization makes the rules blind to sub-1e-9-scale noise
    noisy = a + 1e-13 * np.eye(3)
    assert m.sign_value(noisy) == m.sign_value(a)
    other = MapSpec(
        dim=3, unitary=np.eye(3), sign=SIGN_HASH, sign_seed=9
    )
    flips = sum(
        other.sign_value(random_hermitian(3, substream(85, i))) == -1
        for i in range(200)
    )
    assert 40 < flips < 160  # the hash rule genuinely varies


def test_hash_rules_reject_entries_beyond_quantization_range():
    # int64 quantization holds entries below 2**63 quanta (about 9.2e9);
    # beyond that hash rules refuse the input rather than let digests collide
    huge = [np.diag([1e11, 2.0, 3.0]), np.diag([5e11, 2.0, 3.0])]
    hashed = [
        MapSpec(dim=3, unitary=np.eye(3), sign=SIGN_HASH, sign_seed=7),
        MapSpec(dim=3, unitary=np.eye(3), shift=SHIFT_HASH, shift_seed=8),
    ]
    for m in hashed:
        for a in huge:
            with pytest.raises(MatrixError):
                apply_map(m, a)
    plain = MapSpec(dim=3, unitary=np.eye(3))
    for a in huge:
        assert np.array_equal(apply_map(plain, a), a)
    # just inside the range the digest is still defined
    assert hashed[0].sign_value(np.diag([9e9, 2.0, 3.0])) in (-1, 1)


def test_identity_map_zero_violation_each_mode():
    identity3 = MapSpec(dim=3, unitary=np.eye(3))
    report = check_preservation(identity3, MODE_RADIUS, 50, 3, 123)
    assert report.passed and report.max_violation < 1e-12
    report = check_preservation(identity3, MODE_RANGE, 50, 3, 123)
    assert report.passed
    identity2 = MapSpec(dim=2, unitary=np.eye(2))
    report = check_preservation(identity2, MODE_SPECTRUM, 50, 2, 123)
    assert report.passed


def test_radius_mode_transpose_hash_passes():
    u = random_unitary(3, substream(86, 0))
    m = MapSpec(
        dim=3,
        unitary=u,
        dagger=DAGGER_TRANSPOSE,
        sign=SIGN_HASH,
        sign_seed=1,
        shift=SHIFT_HASH,
        shift_seed=2,
    )
    report = check_preservation(m, MODE_RADIUS, 200, 3, 456, tol=1e-9)
    assert report.passed
    assert report.max_violation <= 1e-9


def test_range_mode_exceptional_set_passes():
    u = random_unitary(3, substream(87, 0))
    for sset in (SSET_ALL, SSET_RANDOM):
        m = MapSpec(dim=3, unitary=u, epsilon=-1, sset=sset, sset_seed=3)
        report = check_preservation(m, MODE_RANGE, 200, 3, 789, tol=1e-9)
        assert report.passed, (sset, report.max_violation)


def test_range_mode_transpose_fails_with_counterexample():
    m = MapSpec(dim=3, unitary=np.eye(3), dagger=DAGGER_TRANSPOSE, epsilon=1)
    report = check_preservation(m, MODE_RANGE, 1000, 3, 321, tol=1e-9)
    assert not report.passed
    assert report.first_violation_index is not None
    a, b = report.first_counterexample
    iv = commutator_interval(a, b)
    iv_img = commutator_interval(apply_map(m, a), apply_map(m, b))
    assert not intervals_equal(iv, iv_img, 1e-9)
    # the transpose reflects the interval, which only shows on asymmetry
    assert abs(iv.t_min + iv.t_max) > 1e-9


def test_transpose_fixture_pair_violates_range():
    # rank-2 pair whose commutator is rank 3: interval asymmetric, so the
    # reflected interval of the transposed pair differs
    b1 = hermitian(np.array([[0, 1j, 1], [-1j, 0, 2], [1, 2, 0]], dtype=complex))
    b2 = hermitian(
        np.array([[0, 1 + 1j, 1], [1 - 1j, 0, 2j], [1, -2j, 0]], dtype=complex)
    )
    iv = commutator_interval(b1, b2)
    assert abs(iv.t_min + iv.t_max) > 1e-6
    ivt = commutator_interval(b1.T.copy(), b2.T.copy())
    assert not intervals_equal(iv, ivt, 1e-9)


def test_exceptional_set_members_are_two_level():
    # set presets can only ever admit two-level matrices
    from commrange.structure import classify_two_level
    from commrange.maps import sample_trial_pair

    m = MapSpec(dim=3, unitary=np.eye(3), epsilon=1, sset=SSET_RANDOM, sset_seed=4)
    members = 0
    for i in range(200):
        a, _ = sample_trial_pair(3, substream(94, i), i)
        if m.sset_member(a):
            members += 1
            assert classify_two_level(a).two_level
    assert members > 0  # the pool feeds the set


def test_range_pass_implies_radius_pass_same_stream():
    # interval equality implies endpoint-magnitude equality, so a range
    # pass must propagate to radius mode on the identical trial stream
    u = random_unitary(3, substream(93, 0))
    m = MapSpec(dim=3, unitary=u, epsilon=1, sset=SSET_ALL)
    r_range = check_preservation(m, MODE_RANGE, 150, 3, 1717, tol=1e-9)
    r_radius = check_preservation(m, MODE_RADIUS, 150, 3, 1717, tol=1e-9)
    assert r_range.passed
    assert r_radius.passed
    assert r_radius.max_violation <= r_range.max_violation + 1e-15


def test_spectrum_mode_requires_dim2():
    with pytest.raises(MapConfigError):
        check_preservation(MapSpec(dim=3, unitary=np.eye(3)), MODE_SPECTRUM, 10, 3, 1)


def test_check_preservation_deterministic():
    m = MapSpec(dim=3, unitary=np.eye(3), sign=SIGN_HASH, sign_seed=5)
    r1 = check_preservation(m, MODE_RADIUS, 40, 3, 999)
    r2 = check_preservation(m, MODE_RADIUS, 40, 3, 999)
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(
        r2.to_json(), sort_keys=True
    )


def test_check_preservation_worker_count_invariant():
    m = MapSpec(dim=3, unitary=np.eye(3), sign=SIGN_HASH, sign_seed=5)
    r1 = check_preservation(m, MODE_RADIUS, 24, 3, 999, workers=1)
    r2 = check_preservation(m, MODE_RADIUS, 24, 3, 999, workers=3)
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(
        r2.to_json(), sort_keys=True
    )


def test_worker_counts_below_one_rejected():
    m = MapSpec(dim=3, unitary=np.eye(3))
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            check_preservation(m, MODE_RADIUS, 10, 3, 1, workers=workers)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            suite_mod.run_acceptance_suite(seed=1, scale=0.01, workers=workers)


def test_pool_size_clamped_to_cpu_count():
    # a pure function: asking for 10,000 workers starts no process here
    assert pool_size(10_000, 2) == 2
    assert pool_size(3, 8) == 3
    assert pool_size(5, None) == 1


@given(st.integers(1, 10**6), st.one_of(st.none(), st.integers(1, 512)))
def test_pool_size_bounds(workers, cpu_count):
    size = pool_size(workers, cpu_count)
    assert 1 <= size <= workers
    assert size <= (cpu_count or 1)


@pytest.fixture
def pool_log(monkeypatch):
    """Record every pool the maps module builds and every shutdown."""
    log = {"max_workers": [], "shutdowns": 0}

    class CountingPool(maps_mod.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            log["max_workers"].append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            log["shutdowns"] += 1
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(maps_mod, "ProcessPoolExecutor", CountingPool)
    return log


def test_lone_call_pool_capped_at_chunk_count(pool_log):
    m = MapSpec(dim=3, unitary=np.eye(3), sign=SIGN_HASH, sign_seed=5)
    serial = check_preservation(m, MODE_RADIUS, 1, 3, 999, workers=1)
    split = check_preservation(m, MODE_RADIUS, 1, 3, 999, workers=64)
    assert split.to_json() == serial.to_json()
    assert pool_log["max_workers"] == [1]  # one trial, one non-empty chunk
    assert pool_log["shutdowns"] == 1
    assert multiprocessing.active_children() == []


def test_suite_run_builds_one_pool(pool_log):
    report = suite_mod.run_acceptance_suite(seed=2026, scale=0.02, workers=2)
    assert report["passed"] is True
    assert len(pool_log["max_workers"]) == 1
    assert pool_log["shutdowns"] == 1
    assert multiprocessing.active_children() == []


def test_suite_pool_shut_down_when_a_criterion_raises(pool_log, monkeypatch):
    def boom(seed, scale, workers):
        raise RuntimeError("criterion failed mid-run")

    # criteria 6 and 7 run on the pool before criterion 8 raises
    criteria = [c if c[0] != 8 else (8, c[1], boom) for c in suite_mod.CRITERIA]
    monkeypatch.setattr(suite_mod, "CRITERIA", tuple(criteria))
    with pytest.raises(RuntimeError, match="criterion failed mid-run"):
        suite_mod.run_acceptance_suite(seed=2026, scale=0.02, workers=2)
    assert len(pool_log["max_workers"]) == 1
    assert pool_log["shutdowns"] == 1
    assert multiprocessing.active_children() == []
    # the closed pool is not handed to later calls
    m = MapSpec(dim=3, unitary=np.eye(3))
    check_preservation(m, MODE_RADIUS, 4, 3, 1, workers=2)
    assert len(pool_log["max_workers"]) == 2
    assert multiprocessing.active_children() == []


def _sign_flip_invisible(a, probes) -> bool:
    # the sign of a range-preserver form may flip on A exactly when no
    # commutator interval W([A, B]) can tell A from -A
    return all(
        intervals_equal(commutator_interval(a, b), commutator_interval(-a, b), 1e-8)
        for b in probes
    )


def test_sign_flip_invisible_on_projection():
    a = np.diag([1.0, 1.0, 0.0, 0.0])
    rng = substream(88, 0)
    assert _sign_flip_invisible(a, [random_hermitian(4, rng) for _ in range(20)])


def test_sign_flip_visible_on_three_point_spectrum():
    a = np.diag([1.0, 2.0, 3.0])
    witness, _ = asymmetry_witness(a)
    assert not _sign_flip_invisible(a, [witness])


def test_sign_flip_invisible_on_zero():
    rng = substream(90, 0)
    probes = [random_hermitian(3, rng) for _ in range(10)]
    assert _sign_flip_invisible(np.zeros((3, 3)), probes)


def test_affine_sign_match_cases():
    a = random_hermitian(3, substream(91, 0))
    assert affine_sign_match(a, hermitian(-a + 3 * np.eye(3))) == (-1, pytest.approx(3.0))
    assert affine_sign_match(a, a) == (1, pytest.approx(0.0))
    b = np.array([[1.0, 2 + 3j], [2 - 3j, 4.0]])
    assert affine_sign_match(b, hermitian(b.T.copy())) is None


def test_map_json_round_trip():
    u = random_unitary(3, substream(92, 0))
    m = MapSpec(
        dim=3,
        unitary=u,
        dagger=DAGGER_TRANSPOSE,
        sign=SIGN_HASH,
        sign_seed=11,
        shift=SHIFT_HASH,
        shift_seed=12,
        epsilon=-1,
        sset=SSET_RANDOM,
        sset_seed=13,
    )
    back = MapSpec.from_json(json.loads(json.dumps(m.to_json())))
    assert back.dagger == m.dagger
    assert back.epsilon == m.epsilon
    assert back.sset == m.sset
    assert max_abs(back.unitary - m.unitary) == 0.0
    a = random_hermitian(3, substream(92, 1))
    assert max_abs(apply_map(m, a) - apply_map(back, a)) == 0.0


def test_report_embeds_counterexample_matrices():
    m = MapSpec(dim=3, unitary=np.eye(3), dagger=DAGGER_TRANSPOSE, epsilon=1)
    report = check_preservation(m, MODE_RANGE, 100, 3, 55, tol=1e-9)
    payload = report.to_json()
    assert payload["first_counterexample"] is not None
    assert payload["first_counterexample"]["a"]["dim"] == 3
    # replayable without the seed
    a = np.array(payload["first_counterexample"]["a"]["re"]) + 1j * np.array(
        payload["first_counterexample"]["a"]["im"]
    )
    b = np.array(payload["first_counterexample"]["b"]["re"]) + 1j * np.array(
        payload["first_counterexample"]["b"]["im"]
    )
    iv = commutator_interval(a, b)
    ivt = commutator_interval(a.T.copy(), b.T.copy())
    assert not intervals_equal(iv, ivt, report.tolerance)


def test_trials_validate_only_inexact_matrices(hermitian_calls):
    # per trial hermitian() runs on the two raw map images s U core U* + f I
    # and on the sampled conjugations of pool kinds 2 and 3 (0 + 0 + 1 + 2
    # over the four kinds): 2.75 calls per trial, for either mode
    u = random_unitary(3, substream(94, 0))
    radius_map = MapSpec(
        dim=3, unitary=u, sign=SIGN_HASH, sign_seed=1, shift=SHIFT_HASH, shift_seed=2
    )
    range_map = MapSpec(
        dim=3, unitary=u, epsilon=1, sset=SSET_RANDOM, sset_seed=3,
        shift=SHIFT_HASH, shift_seed=2,
    )
    for m, mode in ((radius_map, MODE_RADIUS), (range_map, MODE_RANGE)):
        hermitian_calls.clear()
        assert check_preservation(m, mode, 100, 3, 7).passed
        assert len(hermitian_calls) == 275
