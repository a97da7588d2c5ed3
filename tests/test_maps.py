import json
import multiprocessing
import os
import subprocess
import sys
from concurrent import futures

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commrange import maps as maps_mod
from commrange import suite as suite_mod
from commrange.cli import main
from commrange.matcore import (
    MatrixError,
    hermitian,
    max_abs,
    random_hermitian,
    random_unitary,
    substream,
)
from commrange.nrange import CommutatorInterval, commutator_interval
from commrange.maps import (
    DAGGER_TRANSPOSE,
    MODE_RADIUS,
    MODE_RANGE,
    MODE_SPECTRUM,
    MODES,
    SHIFT_HASH,
    SHIFT_TRACELESS,
    SIGN_HASH,
    SSET_ALL,
    SSET_RANDOM,
    UNITARY_STREAM,
    MapConfigError,
    MapSpec,
    _BLOCK_TRIALS,
    _chunks,
    _preservation_reports,
    _rules,
    apply_map,
    check_preservation,
    metric_violation,
)
from commrange.pauli2 import psi
from commrange.structure import asymmetry_witness, radius_equivalence_check


# Trials in three engine blocks, the last one holding a single trial.
_MULTI_BLOCK = 2 * _BLOCK_TRIALS + 1


def _range_gap(iv: CommutatorInterval, jv: CommutatorInterval) -> float:
    """The range-mode distance of two commutator intervals, relative to
    max(1, largest endpoint modulus)."""
    scale = max(1.0, *(abs(t) for t in iv + jv))
    return metric_violation(np.array(iv), np.array(jv), MODE_RANGE) / scale


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
    for fields, message in (
        (dict(dim=3, unitary=np.eye(3), psi=True), "only defined at dim 2"),
        (dict(dim=2, unitary=np.array([[1.0, 1.0], [0.0, 1.0]])), "not unitary"),
        (dict(dim=3, unitary=np.eye(2)), "unitary shape does not match dim"),
        (dict(dim=2, unitary=np.eye(2), dagger="adjoint"), "unknown dagger"),
        (dict(dim=2, unitary=np.eye(2), sign="random"), "unknown sign rule"),
        (dict(dim=2, unitary=np.eye(2), shift="random"), "unknown shift rule"),
        (dict(dim=2, unitary=np.eye(2), sset="some"), "unknown exceptional-set rule"),
        (dict(dim=2, unitary=np.eye(2), epsilon=2), "epsilon must be"),
    ):
        with pytest.raises(MapConfigError, match=message):
            MapSpec(**fields)


def test_dim_one_map_is_refused():
    # the preserver forms need dim H >= 2; dim 1 used to crash in the sampler
    with pytest.raises(MapConfigError):
        check_preservation(MapSpec(dim=1, unitary=np.eye(1)), MODE_RADIUS, 8, 1, 0)


def test_apply_map_refuses_a_matrix_of_another_dim():
    with pytest.raises(MatrixError, match="matrix dim 4 does not match map dim 3"):
        apply_map(MapSpec(dim=3, unitary=np.eye(3)), np.eye(4))


@pytest.mark.parametrize(
    "trials, n, tol, error, message",
    [
        (0, 3, 1e-9, ValueError, "trials must be at least 1"),
        (50, 4, 1e-9, MapConfigError, "trial dim does not match map dim"),
        *(
            (50, 3, tol, ValueError, "tol must be a finite number above 0")
            for tol in (np.nan, np.inf, 0.0, -1.0)
        ),
    ],
    ids=["trials-0", "dim-4", "tol-nan", "tol-inf", "tol-0", "tol-minus-1"],
)
def test_check_preservation_refuses_bad_arguments(trials, n, tol, error, message):
    # this form fails at tol 1e-9 (max_violation 0.596); a nan or inf tol
    # used to pass it
    m = MapSpec(dim=3, unitary=np.eye(3), dagger=DAGGER_TRANSPOSE, epsilon=1)
    with pytest.raises(error, match=message):
        check_preservation(m, MODE_RANGE, trials, n, 0, tol=tol)


def _sign(m: MapSpec, a: np.ndarray) -> int:
    """The map's sign rule on one matrix, as a stack of one."""
    return int(_rules([m], a[None])[0][0, 0])


def _shift(m: MapSpec, a: np.ndarray) -> float:
    """The map's shift rule on one matrix, as a stack of one."""
    return float(_rules([m], a[None])[1][0, 0])


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
    assert _sign(m, a) == _sign(m, a.copy())
    assert _sign(m, a) in (-1, 1)
    f = _shift(m, a)
    assert -1.0 <= f < 1.0
    assert f == _shift(m, a.copy())
    # quantization makes the rules blind to sub-1e-9-scale noise
    noisy = a + 1e-13 * np.eye(3)
    assert _sign(m, noisy) == _sign(m, a)
    other = MapSpec(
        dim=3, unitary=np.eye(3), sign=SIGN_HASH, sign_seed=9
    )
    flips = sum(
        _sign(other, random_hermitian(3, substream(85, i))) == -1
        for i in range(200)
    )
    assert 40 < flips < 160  # the hash rule genuinely varies


def test_hash_rules_reject_entries_beyond_quantization_range():
    # int64 quantization holds entries below 2**63 quanta (about 9.2e9);
    # beyond that hash rules refuse the input rather than let hashes collide
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
    # just inside the range the hash is still defined
    assert _sign(hashed[0], np.diag([9e9, 2.0, 3.0])) in (-1, 1)


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
    assert _range_gap(iv, iv_img) > 1e-9
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
    assert _range_gap(iv, ivt) > 1e-9


def test_exceptional_set_members_are_two_level():
    # set presets can only ever admit two-level matrices
    from commrange.structure import classify_two_level
    from commrange.maps import sample_trial_pair

    m = MapSpec(dim=3, unitary=np.eye(3), epsilon=1, sset=SSET_RANDOM, sset_seed=4)
    members = 0
    for i in range(200):
        a, _ = sample_trial_pair(3, substream(94, i), i)
        if _sign(m, a) == -1:  # epsilon 1: flipped exactly on the set
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


def test_worker_counts_below_one_rejected():
    m = MapSpec(dim=3, unitary=np.eye(3))
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            check_preservation(m, MODE_RADIUS, 10, 3, 1, workers=workers)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            suite_mod.run_acceptance_suite(seed=1, scale=0.01, workers=workers)


@pytest.mark.parametrize("scale", [-1.0, 0.0, np.inf, np.nan])
def test_suite_refuses_a_scale_outside_zero_to_inf(scale):
    # at -1.0 the suite used to run one trial per criterion and pass; inf
    # overflowed a trial count
    with pytest.raises(ValueError, match="scale must be a finite number above 0"):
        suite_mod.run_acceptance_suite(seed=1, scale=scale, workers=1)


@pytest.mark.parametrize("scale", [-1.0, 0.0, np.inf, np.nan])
def test_criteria_called_alone_refuse_a_scale_outside_zero_to_inf(scale):
    # called directly, criterion 3 used to run one trial at -1.0 and pass,
    # and a nan or inf scale failed inside the conversion of a trial count;
    # criteria 1 and 2 read no scale
    for *_, crit in suite_mod.CRITERIA[2:]:
        with pytest.raises(ValueError, match="scale must be a finite number above 0"):
            crit(seed=1, scale=scale, workers=1)


def test_radius_forms_share_one_trial_stream_per_dimension(monkeypatch):
    # the 12 forms of each dimension are checked on one stream, so scale
    # 0.02 samples 20 pairs for each of 3 dimensions, not 20 for each of
    # 36 forms (720)
    drawn = []
    draw_pair = maps_mod._Draws.draw_pair

    def counting(draws, rng, kind):
        drawn.append(draws.n)
        return draw_pair(draws, rng, kind)

    monkeypatch.setattr(maps_mod._Draws, "draw_pair", counting)
    out = suite_mod.crit_radius_preserver_forms(seed=2026, scale=0.02, workers=1)
    assert out["passed"] and out["details"]["trials_per_config"] == 20
    assert sorted(drawn) == [3] * 20 + [4] * 20 + [6] * 20


@pytest.fixture
def pool_log(monkeypatch):
    """Record every pool the maps module builds, every batch of chunks
    sent to a pool with its number of chunks, and every shutdown.

    An engine call looks the executor up in ``concurrent.futures`` when it
    opens a pool, so the counting class is installed there."""
    log = {"max_workers": [], "maps": 0, "chunks": [], "shutdowns": 0}

    class CountingPool(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            log["max_workers"].append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

        def map(self, fn, chunks, **kwargs):
            log["maps"] += 1
            log["chunks"].append(len(chunks))
            return super().map(fn, chunks, **kwargs)

        def shutdown(self, *args, **kwargs):
            log["shutdowns"] += 1
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", CountingPool)
    return log


def _set_cpu_count(monkeypatch, count):
    """Make the maps module read ``count`` as the host's CPU count."""
    monkeypatch.setattr(maps_mod.os, "cpu_count", lambda: count)


@pytest.fixture
def split_every_call(monkeypatch):
    """Make every engine call of more than one block with ``workers`` > 1
    split onto a pool, whatever its estimated work, into up to three
    chunks on any host."""
    monkeypatch.setattr(maps_mod, "_POOL_START_WORK", 0)
    _set_cpu_count(monkeypatch, 3)


def test_check_preservation_worker_count_invariant(pool_log, split_every_call):
    # 513 trials are three engine blocks, so workers=3 runs three chunks on
    # the pool
    m = MapSpec(dim=3, unitary=np.eye(3), sign=SIGN_HASH, sign_seed=5)
    r1 = check_preservation(m, MODE_RADIUS, _MULTI_BLOCK, 3, 999, workers=1)
    r2 = check_preservation(m, MODE_RADIUS, _MULTI_BLOCK, 3, 999, workers=3)
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(
        r2.to_json(), sort_keys=True
    )
    assert pool_log["max_workers"] == pool_log["chunks"] == [3]
    assert pool_log["maps"] == 1


def test_split_capped_once_at_the_cpu_count(pool_log, split_every_call, monkeypatch):
    # three blocks at workers=3 on two CPUs are cut into two chunks, one
    # process each, not three chunks queued on two processes
    _set_cpu_count(monkeypatch, 2)
    m = MapSpec(dim=3, unitary=np.eye(3), sign=SIGN_HASH, sign_seed=5)
    serial = check_preservation(m, MODE_RADIUS, _MULTI_BLOCK, 3, 999, workers=1)
    split = check_preservation(m, MODE_RADIUS, _MULTI_BLOCK, 3, 999, workers=3)
    assert json.dumps(split.to_json()) == json.dumps(serial.to_json())
    assert pool_log["max_workers"] == pool_log["chunks"] == [2]


@pytest.mark.parametrize("count", (1, None))
def test_call_on_one_cpu_builds_no_pool(count, pool_log, split_every_call, monkeypatch):
    # on one CPU, or when the count is unknown, a pool would only add its
    # start-up, so the call runs in this process
    _set_cpu_count(monkeypatch, count)
    m = MapSpec(dim=3, unitary=np.eye(3), sign=SIGN_HASH, sign_seed=5)
    serial = check_preservation(m, MODE_RADIUS, _MULTI_BLOCK, 3, 999, workers=1)
    split = check_preservation(m, MODE_RADIUS, _MULTI_BLOCK, 3, 999, workers=3)
    assert json.dumps(split.to_json()) == json.dumps(serial.to_json())
    assert pool_log["max_workers"] == []
    assert multiprocessing.active_children() == []


def test_chunks_are_runs_of_whole_blocks(split_every_call):
    assert _chunks(1000, 2, 3, 1) == _chunks(1000, 3, 3, 1) == [(0, 512), (512, 1000)]
    assert _chunks(256, 64, 3, 1) == [(0, 256)]
    assert _chunks(257, 64, 3, 1) == [(0, 256), (256, 257)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 10**5), st.integers(1, 10**4), st.integers(2, 16), st.integers(1, 12)
)
@example(trials=20_000, workers=2, n=3, k=1)
@example(trials=20_000, workers=2, n=6, k=1)
@example(trials=1_000, workers=2, n=6, k=12)
@example(trials=60_000, workers=2, n=16, k=1)
@example(trials=60_000, workers=10**4, n=16, k=12)
def test_chunk_bounds_cover_the_trials_in_blocks(trials, workers, n, k):
    # a run splits only when its estimated work exceeds twice a pool's
    # start-up, and then into at most `workers` runs of whole blocks, in
    # order, and into two or more when it has two blocks and two workers
    bounds = _chunks(trials, workers, n, k)
    if trials * (1 + k) * (40 + n * n) <= 2 * maps_mod._POOL_START_WORK:
        assert bounds == [(0, trials)]
    elif workers > 1 and trials > _BLOCK_TRIALS:
        assert len(bounds) >= 2
    assert 1 <= len(bounds) <= workers
    assert [lo for lo, _ in bounds[1:]] == [hi for _, hi in bounds[:-1]]
    assert bounds[0][0] == 0 and bounds[-1][1] == trials
    assert all(lo % _BLOCK_TRIALS == 0 and hi > lo for lo, hi in bounds)


def test_one_block_call_starts_no_pool(pool_log, split_every_call):
    m = MapSpec(dim=3, unitary=np.eye(3), sign=SIGN_HASH, sign_seed=5)
    serial = check_preservation(m, MODE_RADIUS, _BLOCK_TRIALS, 3, 999, workers=1)
    split = check_preservation(m, MODE_RADIUS, _BLOCK_TRIALS, 3, 999, workers=64)
    assert split.to_json() == serial.to_json()
    assert pool_log["max_workers"] == []
    assert multiprocessing.active_children() == []


def test_lone_call_pool_capped_at_chunk_count(pool_log, split_every_call):
    m = MapSpec(dim=3, unitary=np.eye(3), sign=SIGN_HASH, sign_seed=5)
    trials = _BLOCK_TRIALS + 1
    serial = check_preservation(m, MODE_RADIUS, trials, 3, 999, workers=1)
    split = check_preservation(m, MODE_RADIUS, trials, 3, 999, workers=64)
    assert split.to_json() == serial.to_json()
    # two blocks, two chunks: the pool asks for two processes, not 64
    assert pool_log["max_workers"] == pool_log["chunks"] == [2]
    assert pool_log["maps"] == 1
    assert pool_log["shutdowns"] == 1
    assert multiprocessing.active_children() == []


def _pool_criteria(*ids):
    return tuple(c for c in suite_mod.CRITERIA if c[0] in ids)


def test_form_criteria_at_full_scale_build_no_pool(pool_log):
    # every engine call of criteria 6, 7 and 8 at scale 1.0 (1,000 to
    # 2,000 trials) costs less than twice a pool's start-up, so none splits
    for _, _, crit in _pool_criteria(6, 7, 8):
        assert crit(seed=2026, scale=1.0, workers=2)["passed"]
    assert pool_log["max_workers"] == []
    assert multiprocessing.active_children() == []


def test_call_pool_shut_down_when_a_chunk_raises(pool_log, split_every_call):
    # a unitary corrupted past MapSpec's validation makes every image
    # non-finite, so each chunk raises MatrixError inside its worker; the
    # error reaches the caller and the call's pool is shut down
    m = MapSpec(dim=3, unitary=np.eye(3))
    object.__setattr__(m, "unitary", np.full((3, 3), np.nan))
    with pytest.raises(MatrixError, match="matrix 0 of the stack is not self-adjoint"):
        check_preservation(m, MODE_RADIUS, _BLOCK_TRIALS + 1, 3, 1, workers=2)
    assert pool_log["max_workers"] == [2]
    assert pool_log["maps"] == 1
    assert pool_log["shutdowns"] == 1
    assert multiprocessing.active_children() == []


def test_reports_byte_identical_across_worker_counts(pool_log, split_every_call):
    # every worker count forms the same engine blocks, so chunks run in
    # other processes fold to the serial bytes: a passing radius form, the
    # failing range-transpose form (first index and counterexample) and one
    # pass over all three dim-2 modes
    radius = MapSpec(
        dim=4,
        unitary=random_unitary(4, substream(90, 0)),
        sign=SIGN_HASH,
        sign_seed=3,
        shift=SHIFT_HASH,
        shift_seed=4,
    )
    transpose = MapSpec(dim=3, unitary=np.eye(3), dagger=DAGGER_TRANSPOSE, epsilon=1)
    dim2 = MapSpec(
        dim=2,
        unitary=random_unitary(2, substream(91, 0)),
        psi=True,
        sign=SIGN_HASH,
        sign_seed=6,
        shift=SHIFT_HASH,
        shift_seed=7,
    )
    cases = [
        (radius, (MODE_RADIUS,), 4, 1e-9),
        (transpose, (MODE_RANGE,), 3, 1e-9),
        (dim2, MODES, 2, 1e-10),
    ]
    outcomes = []
    for index, (m, modes, n, tol) in enumerate(cases):
        blobs = set()
        for workers in (1, 2, 3):
            (reports,) = _preservation_reports(
                [m], 50 + index, modes, _MULTI_BLOCK, n, tol, workers
            )
            blobs.add(tuple(json.dumps(r.to_json()) for r in reports))
        assert len(blobs) == 1, modes
        outcomes.append(reports)
    assert [[r.passed for r in reports] for reports in outcomes] == [
        [True],
        [False],
        [True, True, True],
    ]
    assert outcomes[1][0].first_counterexample is not None
    # workers 2 and 3 of each case ran on a pool of their own
    assert len(pool_log["max_workers"]) == pool_log["shutdowns"] == 2 * len(cases)


# the seed of the one trial stream that the maps of a call share
_SHARED_SEED = 62


def _one_call_maps():
    # three n = 3 maps of one call: a passing range form, the failing
    # range-transpose form and a hash-sign radius form
    return [
        MapSpec(dim=3, unitary=random_unitary(3, substream(92, 0)), epsilon=-1,
                sset=SSET_RANDOM, sset_seed=8, shift=SHIFT_HASH, shift_seed=9),
        MapSpec(dim=3, unitary=np.eye(3), dagger=DAGGER_TRANSPOSE, epsilon=1),
        MapSpec(dim=3, unitary=random_unitary(3, substream(92, 1)), sign=SIGN_HASH,
                sign_seed=10, shift=SHIFT_TRACELESS),
    ]


@pytest.mark.parametrize("trials", (1, 20, _BLOCK_TRIALS, _BLOCK_TRIALS + 1, 600))
def test_fused_runs_report_as_their_own_calls(trials, pool_log, split_every_call):
    # the maps of one call are fused onto one trial stream: each block is
    # sampled once for all of them, yet every map folds to the bytes of its
    # own check_preservation on that seed, first index and counterexample
    # included, for any worker count
    maps, seed = _one_call_maps(), _SHARED_SEED
    modes, tol = (MODE_RANGE, MODE_RADIUS), 1e-9
    own = [
        [json.dumps(check_preservation(m, mode, trials, 3, seed, tol).to_json())
         for mode in modes]
        for m in maps
    ]
    for workers in (1, 2, 3):
        shared = _preservation_reports(maps, seed, modes, trials, 3, tol, workers)
        assert [[json.dumps(r.to_json()) for r in run] for run in shared] == own
    assert [[r.passed for r in run] for run in shared][1] == [False, True]
    # a stream of more than one block ran on a pool at workers 2 and 3
    assert len(pool_log["max_workers"]) == (2 if trials > _BLOCK_TRIALS else 0)


def test_fused_call_of_one_block_runs_starts_no_process(pool_log, split_every_call):
    # three maps on one stream of 200 trials: the stream fits one engine
    # block, so the call stays in this process for any worker count
    maps, seed = _one_call_maps(), _SHARED_SEED
    serial = _preservation_reports(maps, seed, (MODE_RANGE,), 200, 3, 1e-9, 1)
    for workers in (2, 3, 64):
        split = _preservation_reports(maps, seed, (MODE_RANGE,), 200, 3, 1e-9, workers)
        assert [[r.to_json() for r in run] for run in split] == [
            [r.to_json() for r in run] for run in serial
        ]
    assert pool_log["max_workers"] == []
    assert multiprocessing.active_children() == []


def test_suite_without_multi_block_runs_starts_no_process():
    # the resource tracker is one per process, so a fresh interpreter
    # shows whether the pool machinery was started at all
    script = (
        "from multiprocessing import resource_tracker\n"
        "from commrange.suite import run_acceptance_suite\n"
        "assert run_acceptance_suite(2026, 0.02, 2)['passed']\n"
        "print(resource_tracker._resource_tracker._pid)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    assert out.stdout.strip() == "None"


def _sign_flip_invisible(a, probes) -> bool:
    # the sign of a range-preserver form may flip on A exactly when no
    # commutator interval W([A, B]) can tell A from -A
    return all(
        _range_gap(commutator_interval(a, b), commutator_interval(-a, b)) <= 1e-8
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
    def match(a, b):
        v = radius_equivalence_check(a, b, 1, substream(91, 1))
        return None if v.alpha is None else (v.alpha, v.beta)

    a = random_hermitian(3, substream(91, 0))
    assert match(a, hermitian(-a + 3 * np.eye(3))) == (-1, pytest.approx(3.0))
    assert match(a, a) == (1, pytest.approx(0.0))
    b = np.array([[1.0, 2 + 3j], [2 - 3j, 4.0]])
    assert match(b, hermitian(b.T.copy())) is None


def test_map_json_fields():
    u = random_unitary(3, substream(92, 0))
    m = MapSpec(
        dim=3,
        unitary=u,
        dagger=DAGGER_TRANSPOSE,
        shift=SHIFT_HASH,
        shift_seed=12,
        epsilon=-1,
        sset=SSET_RANDOM,
        sset_seed=13,
    )
    obj = json.loads(json.dumps(m.to_json()))
    assert obj == {
        "dim": 3,
        "unitary": {"dim": 3, "re": u.real.tolist(), "im": u.imag.tolist()},
        "dagger": "transpose",
        "psi": False,
        "sign": {"rule": "plus", "seed": 0},
        "shift": {"rule": "hash", "seed": 12},
        "epsilon": -1,
        "sset": {"rule": "random", "seed": 13},
    }


def test_each_form_refuses_the_rule_it_never_reads():
    # a range form (epsilon +/-1) evaluates no sign rule, and a radius form
    # (epsilon None) no exceptional set; an unread rule is refused, so a
    # spec never records a rule it does not apply
    u = np.eye(3)
    for eps in (1, -1):
        with pytest.raises(MapConfigError, match="range form reads no sign rule"):
            MapSpec(dim=3, unitary=u, epsilon=eps, sign=SIGN_HASH)
        MapSpec(dim=3, unitary=u, epsilon=eps, sset=SSET_ALL)
    for sset in (SSET_ALL, SSET_RANDOM):
        with pytest.raises(MapConfigError, match="radius form reads no set rule"):
            MapSpec(dim=3, unitary=u, sset=sset)
    MapSpec(dim=3, unitary=u, sign=SIGN_HASH)


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
    assert _range_gap(iv, ivt) > report.tolerance


def test_trials_validate_only_inexact_matrices(validated_stacks):
    # a block of 100 trials validates two stacks: the sampled two-level
    # matrices and conjugations of pool kinds 2 and 3 (0 + 0 + 1 + 2 over
    # the four kinds: 75), then the raw map images s U core U* + f I (200);
    # the exactly Hermitian GUE and low-rank samples are never re-checked
    u = random_unitary(3, substream(94, 0))
    radius_map = MapSpec(
        dim=3, unitary=u, sign=SIGN_HASH, sign_seed=1, shift=SHIFT_HASH, shift_seed=2
    )
    range_map = MapSpec(
        dim=3, unitary=u, epsilon=1, sset=SSET_RANDOM, sset_seed=3,
        shift=SHIFT_HASH, shift_seed=2,
    )
    for m, mode in ((radius_map, MODE_RADIUS), (range_map, MODE_RANGE)):
        validated_stacks.clear()
        assert check_preservation(m, mode, 100, 3, 7).passed
        assert validated_stacks == [75, 200]


def test_unguarded_script_fails_and_guarded_script_matches_one_worker(tmp_path):
    # a spawn worker re-imports the main script; without the __main__
    # guard its own call would open a pool while it bootstraps, which the
    # pool refuses by ending the worker, so the calling run fails.  The
    # script lowers the split limit and reads two CPUs, so that its 600
    # trials go to a pool on any host.
    call = (
        "sys.exit(cli.main(['verify', 'radius', '--trials', '600', "
        "'--workers', '2', '--out', sys.argv[1]]))"
    )
    head = (
        "import sys\nfrom commrange import cli, maps\nmaps._POOL_START_WORK = 0\n"
        "maps.os.cpu_count = lambda: 2\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    runs = {}
    for name, body in (
        ("unguarded", call + "\n"),
        ("guarded", "if __name__ == '__main__':\n    " + call + "\n"),
    ):
        script = tmp_path / f"{name}.py"
        script.write_text(head + body, encoding="utf-8")
        runs[name] = subprocess.run(
            [sys.executable, str(script), str(tmp_path / f"{name}.json")],
            env=env, capture_output=True, text=True, timeout=300,
        )
    unguarded, guarded = runs["unguarded"], runs["guarded"]
    assert unguarded.returncode != 0
    assert 'put its calls under if __name__ == "__main__":' in unguarded.stderr
    assert not (tmp_path / "unguarded.json").exists()
    assert guarded.returncode == 0, guarded.stderr
    assert guarded.stderr == ""
    serial = tmp_path / "serial.json"
    assert main(["verify", "radius", "--trials", "600", "--out", str(serial)]) == 0
    assert (tmp_path / "guarded.json").read_bytes() == serial.read_bytes()


def test_suite_map_unitaries_are_the_per_form_draws():
    # one stacked QR over every form's draws gives each form the unitary
    # that random_unitary draws from the form's own stream, bit for bit
    forms = [(f"form:{k}", dict(sign=SIGN_HASH)) for k in range(7)]
    for n in (2, 3, 4, 6):
        for m, (label, _) in zip(suite_mod._seeded_specs(2026, forms, n), forms):
            rng = substream(suite_mod._derived_seed(2026, label), UNITARY_STREAM)
            assert m.unitary.tobytes() == random_unitary(n, rng).tobytes()
            assert m.sign_seed == suite_mod._derived_seed(2026, label + ":h")
