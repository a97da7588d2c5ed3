"""The block trial engine of ``maps``: stacked sampling, mapping, hashing
and measuring must give, trial by trial and map by map, the numbers of the
stack-of-one route, whatever the split into blocks and the maps beside."""

import collections
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commrange import maps as maps_mod
from commrange.matcore import (
    TOLERANCES,
    MatrixError,
    _hermitian_stack,
    _sym,
    commutator_spectrum,
    hermitian,
    is_hermitian,
    random_hermitian,
    random_unitary,
    substream,
)
from commrange.maps import (
    DAGGER_IDENTITY,
    DAGGER_TRANSPOSE,
    MODE_RADIUS,
    MODE_RANGE,
    MODE_SPECTRUM,
    SHIFT_HASH,
    SHIFT_TRACELESS,
    SHIFT_ZERO,
    SIGN_HASH,
    SIGN_PLUS,
    SSET_ALL,
    SSET_EMPTY,
    SSET_RANDOM,
    MapSpec,
    _Quanta,
    _rules,
    _sample_block,
    _spectra,
    apply_map,
    check_preservation,
    metric_violation,
    sample_trial_pair,
)
from commrange.pauli2 import _psi, psi
from commrange.structure import _split, classify_two_level

# Every sign rule (radius forms, epsilon None) and every exceptional-set
# rule (range forms, epsilon +/-1), under every dagger and shift rule.
_SIGN_RULES = [dict(sign=SIGN_PLUS), dict(sign=SIGN_HASH)] + [
    dict(epsilon=eps, sset=sset)
    for eps in (1, -1)
    for sset in (SSET_EMPTY, SSET_ALL, SSET_RANDOM)
]


def _presets(n):
    mirrors = (False, True) if n == 2 else (False,)
    for dagger, mirror, shift, rule in itertools.product(
        (DAGGER_IDENTITY, DAGGER_TRANSPOSE),
        mirrors,
        (SHIFT_ZERO, SHIFT_TRACELESS, SHIFT_HASH),
        _SIGN_RULES,
    ):
        yield dict(dagger=dagger, psi=mirror, shift=shift, **rule)


def _spec(n, index, **rules):
    return MapSpec(
        dim=n,
        unitary=random_unitary(n, substream(7000 + n, index)),
        sign_seed=3 * index + 1,
        shift_seed=3 * index + 2,
        sset_seed=3 * index + 3,
        **rules,
    )


def _modes(n):
    return (MODE_RADIUS, MODE_RANGE) + ((MODE_SPECTRUM,) if n == 2 else ())


def _split_spectra(m, n, seed, trials, size):
    """Per-trial (base, image) spectra from engine blocks of ``size``."""
    parts = []
    for lo in range(0, trials, size):
        a, b = _sample_block(n, seed, lo, min(lo + size, trials))
        base, (image,) = _spectra(a, b, [m])
        parts.append((base, image))
    return tuple(np.concatenate(side) for side in zip(*parts))


def _single_spectra(m, n, seed, trials):
    """Per-trial (base, image) spectra through the one-matrix calls."""
    base, image = [], []
    for i in range(trials):
        a, b = sample_trial_pair(n, substream(seed, i), i)
        base.append(commutator_spectrum(a, b))
        image.append(commutator_spectrum(apply_map(m, a), apply_map(m, b)))
    return np.array(base), np.array(image)


@pytest.mark.parametrize("n", (2, 3, 6, 16))
def test_block_splits_and_stack_of_one_agree_bitwise(n):
    # 10 trials cover the four pool kinds; splits of 1 and 7 put trials at
    # every position of a block, the full block size keeps them in one
    trials = 10
    for index, rules in enumerate(_presets(n)):
        m = _spec(n, index, **rules)
        seed = 100 * n + index
        single = _single_spectra(m, n, seed, trials)
        expected = [metric_violation(*single, mode).tobytes() for mode in _modes(n)]
        for size in (1, 7, maps_mod._BLOCK_TRIALS):
            split = _split_spectra(m, n, seed, trials, size)
            assert split[0].tobytes() == single[0].tobytes(), (rules, size)
            assert split[1].tobytes() == single[1].tobytes(), (rules, size)
            got = [metric_violation(*split, mode).tobytes() for mode in _modes(n)]
            assert got == expected, (rules, size)
        for mode in _modes(n):
            one_by_one = [
                metric_violation(single[0][i], single[1][i], mode)
                for i in range(trials)
            ]
            assert metric_violation(*single, mode).tolist() == one_by_one


def test_block_size_does_not_change_reports(monkeypatch):
    cases = [
        (2, MODE_SPECTRUM, dict(psi=True, sign=SIGN_HASH, shift=SHIFT_HASH)),
        (3, MODE_RANGE, dict(dagger=DAGGER_TRANSPOSE, epsilon=1)),
        (3, MODE_RANGE, dict(epsilon=-1, sset=SSET_RANDOM, shift=SHIFT_HASH)),
        (6, MODE_RADIUS, dict(sign=SIGN_HASH, shift=SHIFT_TRACELESS)),
        (16, MODE_RADIUS, dict(sign=SIGN_HASH, shift=SHIFT_HASH)),
    ]
    default = maps_mod._BLOCK_TRIALS
    for index, (n, mode, rules) in enumerate(cases):
        m = _spec(n, 100 + index, **rules)
        trials = 30 if n < 16 else 9
        blobs = set()
        for size in (1, 7, default):
            monkeypatch.setattr(maps_mod, "_BLOCK_TRIALS", size)
            report = check_preservation(m, mode, trials, n, 500 + index)
            blobs.add(json.dumps(report.to_json(), sort_keys=True))
        assert len(blobs) == 1, (n, mode, rules)


def test_counterexample_replay_equals_engine_pair():
    m = MapSpec(dim=3, unitary=np.eye(3), dagger=DAGGER_TRANSPOSE, epsilon=1)
    trials, seed = 200, 321
    report = check_preservation(m, MODE_RANGE, trials, 3, seed, tol=1e-9)
    a, b = _sample_block(3, seed, 0, trials)
    base, (image,) = _spectra(a, b, [m])
    over = np.flatnonzero(metric_violation(base, image, MODE_RANGE) > 1e-9)
    assert report.first_violation_index == over[0]
    ca, cb = report.first_counterexample
    assert ca.tobytes() == a[over[0]].tobytes()
    assert cb.tobytes() == b[over[0]].tobytes()
    # a chunk that starts mid-stream reports absolute trial indices, with
    # the pair of that trial taken from its block
    for lo in (over[0] + 1, 37):
        (((worst, (first, ca, cb)),),) = maps_mod._run_chunk(
            ([m], seed, (MODE_RANGE,), 3, int(lo), trials, 1e-9)
        )
        assert first == over[over >= lo][0]
        assert ca.tobytes() == a[first].tobytes()
        assert cb.tobytes() == b[first].tobytes()


def test_sampled_stacks_are_exactly_hermitian_per_trial():
    for n in (2, 3, 6, 16):
        a, b = _sample_block(n, 40 + n, 3, 15)
        for k, i in enumerate(range(3, 15)):
            ra, rb = sample_trial_pair(n, substream(40 + n, i), i)
            assert a[k].tobytes() == ra.tobytes()
            assert b[k].tobytes() == rb.tobytes()
            assert hermitian(a[k]).tobytes() == a[k].tobytes()


def _per_trial_stacks(n, seed, lo, hi):
    """``_sample_block`` with a fresh ``substream`` per trial."""
    draws = maps_mod._Draws(n)
    for i in range(lo, hi):
        draws.draw_pair(substream(seed, i), i)
    out = draws.assemble()
    return out[0::2], out[1::2]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from((2, 3, 6, 16)),
    st.integers(-(2**70), 2**70),
    st.integers(0, 300),
    st.integers(1, 40),
    st.tuples(st.integers(-(2**70), 2**70), st.integers(0, 300), st.integers(1, 40)),
)
@example(2, -1, 0, 8, (5, 3, 4))
@example(3, -(2**64) - 3, 5, 12, (2**64 - 3, 0, 7))
@example(6, 2**63 + 5, 0, 40, (17, 40, 1))
@example(16, 2**64 + 7, 2**20, 9, (-7, 2**20 + 9, 3))
def test_reopened_phase_one_equals_per_trial_substreams(n, seed, lo, count, other):
    # a block of each of two runs of two seeds
    for s, i0, k in ((seed, lo, count), other):
        got = _sample_block(n, s, i0, i0 + k)
        want = _per_trial_stacks(n, s, i0, i0 + k)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def _ref_ginibre(rng, n):
    parts = rng.standard_normal((1, 2, n, n))
    return (parts[..., 0, :, :] + 1j * parts[..., 1, :, :]) / np.sqrt(2)


def _ref_sym(m):
    return ((m + m.conj().swapaxes(-1, -2)) / 2)[0]


def _ref_haar(rng, n):
    q, r = np.linalg.qr(_ref_ginibre(rng, n))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def _ref_low_rank(n, rng):
    k = 1 + int(rng.integers(min(2, n)))
    x = _ref_haar(rng, n)[..., :, :k]
    coeffs = rng.standard_normal(k)
    while np.any(np.abs(coeffs) < 1e-3):
        small = np.abs(coeffs) < 1e-3
        coeffs[small] = rng.standard_normal(int(small.sum()))
    return _ref_sym((x * coeffs[None, None, :]) @ x.conj().swapaxes(-1, -2))


def _ref_two_level(n, rng):
    if int(rng.integers(8)) == 0:
        c = np.array([rng.uniform(-2.0, 2.0)])
        return _ref_sym(c[:, None, None] * np.eye(n, dtype=complex))
    r = int(rng.integers(1, n))
    u = _ref_haar(rng, n)
    alpha = np.array([rng.uniform(0.5, 2.5) * (1.0 if rng.integers(2) else -1.0)])
    delta = np.array([rng.uniform(-2.0, 2.0)])
    x = u[[0], :, :r]
    p = x @ x.conj().swapaxes(-1, -2)
    return _ref_sym(alpha[:, None, None] * p + delta[:, None, None] * np.eye(n))


def _ref_pair(n, rng, kind):
    """The pool pair as the sampler drew it with one generator call per
    quantity (an ``integers``, a ``uniform``, or a ``standard_normal`` of
    shape (2, n, n), (k,) or (n,)) and built it recipe by recipe."""
    kind %= 4
    if kind == 0:
        return _ref_sym(_ref_ginibre(rng, n)), _ref_sym(_ref_ginibre(rng, n))
    if kind == 1:
        a = _ref_low_rank(n, rng)
        b = _ref_low_rank(n, rng) if rng.integers(2) else _ref_sym(_ref_ginibre(rng, n))
        return a, b
    if kind == 2:
        return _ref_two_level(n, rng), _ref_sym(_ref_ginibre(rng, n))
    u = _ref_haar(rng, n)
    pair = []
    for eigs in (rng.standard_normal(n), rng.standard_normal(n)):
        diag = np.zeros((1, n, n))
        diag[:, range(n), range(n)] = eigs
        pair.append(_ref_sym(u[[0]] @ diag @ u[[0]].conj().swapaxes(-1, -2)))
    return tuple(pair)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from((2, 3, 4, 6, 16)),
    st.integers(0, 2**64 - 1),
    st.integers(0, 300),
    st.integers(1, 12),
    st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 300), st.integers(1, 12)),
)
@example(3, 11, 0, 1, (12, 4, 1))  # kind 0 in both runs
@example(4, 11, 1, 1, (12, 5, 1))  # kind 1
@example(6, 11, 2, 1, (12, 6, 1))  # kind 2
@example(2, 11, 3, 1, (12, 7, 1))  # kind 3
@example(16, 11, 0, 4, (12, 0, 4))  # every kind
# trial 1285 of seed 1 at n = 3 draws a low-rank A whose second
# coefficient, 1.8e-4, is redrawn
@example(3, 1, 1285, 1, (5, 0, 4))
def test_sampling_routes_equal_the_one_call_per_quantity_reference(
    n, seed, lo, count, other
):
    # the block buffer, the merged normal draws and the one symmetrization
    # of the block give, byte for byte, the matrices of the reference, for
    # a block of each of two runs
    runs = [(seed, lo, count), other]
    wants = [
        [_ref_pair(n, substream(s, i), i) for i in range(i0, i0 + k)]
        for s, i0, k in runs
    ]
    for (s, i0, k), want in zip(runs, wants):
        a, b = _sample_block(n, s, i0, i0 + k)
        assert a.tobytes() == np.array([p[0] for p in want]).tobytes()
        assert b.tobytes() == np.array([p[1] for p in want]).tobytes()
    seed2 = other[0]
    for i, ref in zip(range(lo, lo + count), wants[0]):
        pair = sample_trial_pair(n, substream(seed, i), i)
        assert [x.tobytes() for x in pair] == [x.tobytes() for x in ref]
        got = maps_mod._random_two_level(n, substream(seed2, i))
        assert got.tobytes() == _ref_two_level(n, substream(seed2, i)).tobytes()


class _CountingRng:
    """A generator that counts its method calls by name in ``calls``."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls[name] += 1
            return method(*args, **kwargs)

        return counted


def test_each_run_of_normal_draws_is_one_generator_call(monkeypatch):
    calls = collections.Counter()
    streams = maps_mod._streams
    def counting(keys):
        return (_CountingRng(g, calls) for g in streams(keys))

    monkeypatch.setattr(maps_mod, "_streams", counting)
    for n in (2, 3, 6, 16):
        # a kind-0 trial draws both GUE parts, a kind-3 trial its unitary
        # and both eigenvalue vectors, in one standard_normal call
        for kind in (0, 3):
            calls.clear()
            _sample_block(n, 40 + n, kind, kind + 1)
            assert calls["standard_normal"] == 1, (n, kind)
        # a low-rank matrix draws its unitary and its coefficients in one
        calls.clear()
        draws = maps_mod._Draws(n)
        draws.draw_low_rank(_CountingRng(substream(40 + n, 1), calls), 0)
        assert calls["standard_normal"] == 1, n


def test_failing_run_takes_its_counterexample_from_the_block(monkeypatch):
    replays = []
    replay = lambda *args: replays.append(args)  # noqa: E731
    monkeypatch.setattr(maps_mod, "substream", replay, raising=False)
    monkeypatch.setattr(maps_mod, "sample_trial_pair", replay)
    m = MapSpec(dim=3, unitary=np.eye(3), dagger=DAGGER_TRANSPOSE, epsilon=1)
    report = check_preservation(m, MODE_RANGE, 200, 3, 321)
    assert report.first_violation_index is not None
    assert report.first_counterexample is not None
    assert replays == []


_MASK = (1 << 64) - 1
_SALTS = ("sign", "shift", "sset")


def _reference_mix(z):
    """SplitMix64's output mixer in Python integers."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _reference_hash(a, seed, salt):
    """The hash rules' 64-bit value of one matrix, in Python integers: the
    reference the stacked uint64 kernel must equal.  The quanta are the
    rounded real and imaginary parts / 1e-9 in row-major order, real part
    first; the odd multipliers and the key follow them in the SplitMix64
    stream of (seed mod 2**64, salt)."""
    parts = [x / 1e-9 for z in np.ravel(a) for x in (z.real, z.imag)]
    if max(abs(x) for x in parts) >= 2.0**63:
        raise MatrixError("out of the quantization range")
    salt_word = int.from_bytes(salt.encode("ascii"), "little")
    state = _reference_mix(_reference_mix(seed % (1 << 64)) ^ salt_word)
    stream = [
        _reference_mix((state + j * 0x9E3779B97F4A7C15) & _MASK)
        for j in range(1, len(parts) + 2)
    ]
    total = stream[-1] + sum((w | 1) * round(x) for w, x in zip(stream, parts))
    return _reference_mix(total & _MASK)


def test_batched_digests_equal_single_digests():
    # every row of a stacked hash is the one-matrix reference, for any
    # rows, order or set of seeds asked for at once
    for n in (1, 2, 3, 16):
        a, b = _sample_block(n if n > 1 else 2, 60 + n, 0, 12)
        stack = np.concatenate([a, b]) if n > 1 else np.ones((5, 1, 1)) * 0.25j
        q = _Quanta(stack)
        cases = ((0, "sign"), (2**64 + 5, "shift"), (-3, "sset"))
        for seed, salt in cases:
            batch = q.hashes([seed], salt)[0]
            assert batch.tolist() == [_reference_hash(x, seed, salt) for x in stack]
            assert q.hashes([seed], salt, [4, 1])[0].tolist() == [batch[4], batch[1]]
            other = q.hashes([7], salt)[0].tolist()
            assert q.hashes([seed, 7, seed], salt).tolist() == [
                batch.tolist(), other, batch.tolist()
            ]


def test_rule_values_follow_the_digest():
    a, b = _sample_block(3, 61, 0, 8)
    stack = np.concatenate([a, b])
    m = _spec(3, 1, sign=SIGN_HASH, shift=SHIFT_HASH)
    (signs,), (shifts,) = _rules([m], stack)
    for k, x in enumerate(stack):
        sign_hash = _reference_hash(x, m.sign_seed, "sign")
        shift_hash = _reference_hash(x, m.shift_seed, "shift")
        (one_sign,), (one_shift,) = _rules([m], x[None])
        assert signs[k] == one_sign[0] == (1 if sign_hash >> 63 == 0 else -1)
        assert shifts[k] == one_shift[0] == (shift_hash >> 11) * 2.0**-52 - 1.0
    traceless = _spec(3, 2, shift=SHIFT_TRACELESS)
    expected = [-float(np.trace(x).real) / 3 for x in stack]
    assert _rules([traceless], stack)[1][0].tolist() == expected


def test_batched_digests_refuse_out_of_range_rows():
    stack = np.stack([np.eye(3), np.diag([1e11, 2.0, 3.0]), 2 * np.eye(3)]) + 0j
    q = _Quanta(stack)
    with pytest.raises(MatrixError, match="hash rules need entries below"):
        q.hashes([1], "sign")
    # rows that are not hashed are not refused
    assert q.hashes([1], "sign", [0, 2])[0].tolist() == [
        _reference_hash(stack[0], 1, "sign"),
        _reference_hash(stack[2], 1, "sign"),
    ]
    m = MapSpec(dim=3, unitary=np.eye(3), shift=SHIFT_HASH, shift_seed=8)
    with pytest.raises(MatrixError):
        maps_mod._images([m], stack)
    # the bound sits at 2**63 quanta, about 9.22e9, as for one matrix
    for entry, refused in ((9.3e9, True), (9.2e9, False)):
        edge = _Quanta(np.diag([entry, 2.0, 3.0])[None] + 0j)
        if refused:
            with pytest.raises(MatrixError):
                _reference_hash(edge.a[0], 1, "sign")
            with pytest.raises(MatrixError):
                edge.hashes([1], "sign")
        else:
            assert edge.hashes([1], "sign")[0].tolist() == [
                _reference_hash(edge.a[0], 1, "sign")
            ]


def test_random_set_refuses_only_the_rows_it_hashes():
    # the random set hashes only two-level rows: a generic matrix beyond
    # the quantization range passes it, a two-level one is refused
    generic = 1e11 * random_hermitian(3, substream(67, 0))
    two_level = np.diag([1e11, 1e11, 0.0]) + 0j
    drawn = MapSpec(dim=3, unitary=np.eye(3), epsilon=1, sset=SSET_RANDOM)
    assert np.array_equal(apply_map(drawn, generic), generic)
    with pytest.raises(MatrixError, match="hash rules need entries below"):
        apply_map(drawn, two_level)
    every = MapSpec(dim=3, unitary=np.eye(3), epsilon=1, sset=SSET_ALL)
    assert np.array_equal(apply_map(every, two_level), -two_level)


def _gue_stack(seed, count=10_000):
    """``count`` stacked Hermitian 3 x 3 matrices with Gaussian entries."""
    g = substream(seed, 0).standard_normal((count, 2, 3, 3))
    return _sym(g[:, 0] + 1j * g[:, 1])


def test_hash_rules_are_balanced_and_spread():
    count = 10_000
    stack = _gue_stack(69, count)
    m = _spec(3, 3, sign=SIGN_HASH, shift=SHIFT_HASH)
    (signs,), (shifts,) = _rules([m], stack)
    # the sign is a fair coin to within 5 sigma
    assert abs(int((signs == -1).sum()) - count / 2) <= 5 * np.sqrt(count) / 2
    # shifts lie in [-1, 1) and fill ten equal bins to within 5 sigma
    assert -1.0 <= shifts.min() and shifts.max() < 1.0
    bins = np.histogram(shifts, bins=10, range=(-1.0, 1.0))[0]
    assert np.abs(bins - count / 10).max() <= 5 * np.sqrt(count * 0.1 * 0.9)


def test_hash_bits_of_neighbouring_seeds_and_salts_are_uncorrelated():
    # ``verify`` draws its rule seeds as s + 1, s + 2 and s + 3, so
    # neighbouring seeds and the three salts must give independent bits
    q = _Quanta(_gue_stack(68))
    for s in (0, 2026, 2**64 - 2):
        seeds = [s, s + 1, s + 2, s + 3]
        bits = np.concatenate([q.hashes(seeds, salt) >> 63 for salt in _SALTS])
        r = np.corrcoef(bits.astype(float))[np.triu_indices(len(bits), 1)]
        assert np.abs(r).max() < 5 / np.sqrt(bits.shape[1])


def test_hash_seeds_reduce_modulo_two_to_the_64():
    a, b = _sample_block(3, 70, 0, 6)
    q = _Quanta(np.concatenate([a, b]))
    for seed, residue in ((-3, 2**64 - 3), (0, 2**64), (2**64 - 1, -1), (2**64 + 5, 5)):
        for salt in _SALTS:
            assert q.hashes([seed], salt).tolist() == q.hashes([residue], salt).tolist()
    assert q.hashes([1], "sign").tolist() != q.hashes([2], "sign").tolist()


def test_one_quantum_changes_the_hash():
    # row j + 1 moves part j of row 0 by one quantum; the hash is the mixer
    # (a bijection) of key + sum m_j q_j with odd m_j, so every row differs
    for n in (2, 3, 16):
        width = 2 * n * n
        base = substream(71, n).integers(-(10**6), 10**6, width)
        quanta = np.tile(base, (width + 1, 1))
        quanta[np.arange(1, width + 1), np.arange(width)] += 1
        stack = (quanta * 1e-9).view(complex).reshape(-1, n, n)
        assert np.array_equal(np.rint(stack.view(float) / 1e-9).reshape(quanta.shape), quanta)
        for salt in _SALTS:
            (h,) = _Quanta(stack).hashes([5], salt)
            assert len(set(h.tolist())) == width + 1


def test_images_equal_one_matrix_maps():
    for n in (2, 3, 16):
        a, b = _sample_block(n, 62 + n, 0, 9)
        stack = np.concatenate([a, b])
        for index, rules in enumerate(_presets(n)):
            m = _spec(n, index, **rules)
            (images,) = maps_mod._images([m], stack)
            for k, x in enumerate(stack):
                assert images[k].tobytes() == apply_map(m, x).tobytes(), rules


@pytest.mark.parametrize("n", (2, 3, 16))
def test_map_step_over_many_maps_equals_one_map_steps(n):
    # mirror on and off, both daggers, every sign, shift and set rule in one
    # call: each map's images and image spectra are its own call's, bitwise
    a, b = _sample_block(n, 72 + n, 0, 20)
    stack = np.concatenate([a, b])
    maps = [_spec(n, index, **rules) for index, rules in enumerate(_presets(n))]
    images = maps_mod._images(maps, stack)
    base, spectra = _spectra(a, b, maps)
    for k, m in enumerate(maps):
        assert images[k].tobytes() == maps_mod._images([m], stack)[0].tobytes()
        one_base, (one,) = _spectra(a, b, [m])
        assert base.tobytes() == one_base.tobytes()
        assert spectra[k].tobytes() == one.tobytes()


def test_map_step_quantizes_and_splits_once_per_block(monkeypatch):
    # four set-rule forms and both hash rules on one trial stream: each
    # block makes one quantization, one hash per rule kind and one split
    made, hashed, splits = [], [], []
    split, quanta = maps_mod._split, maps_mod._Quanta

    class CountingQuanta(quanta):
        def __init__(self, a):
            made.append(len(a))
            super().__init__(a)

        def hashes(self, seeds, salt, rows=slice(None)):
            hashed.append((len(made), salt, len(seeds)))
            return super().hashes(seeds, salt, rows)

    def counting_split(a, gap_tol):
        splits.append(len(a))
        return split(a, gap_tol)

    monkeypatch.setattr(maps_mod, "_Quanta", CountingQuanta)
    monkeypatch.setattr(maps_mod, "_split", counting_split)
    forms = [
        dict(epsilon=eps, sset=sset, shift=SHIFT_HASH)
        for eps in (1, -1)
        for sset in (SSET_ALL, SSET_RANDOM)
    ]
    forms += [dict(sign=SIGN_HASH), dict(dagger=DAGGER_TRANSPOSE, sign=SIGN_HASH)]
    maps = [_spec(3, index, **rules) for index, rules in enumerate(forms)]
    reports = maps_mod._preservation_reports(maps, 73, (MODE_RANGE,), 600, 3, 1e-9, 1)
    assert all(report.passed for report, in reports[:4])
    assert made == splits == [512, 512, 176]
    assert hashed == [
        (block, salt, count)
        for block in (1, 2, 3)
        for salt, count in (("sign", 2), ("shift", 4), ("sset", 2))
    ]


def test_validation_names_the_corrupt_matrix_of_a_block(monkeypatch):
    # the engine hands each inexactly formed stack to the symmetry test
    # whole: one matrix k made asymmetric beyond 1e-12 * max(1, ||M||) is
    # refused by its place in the stack, from inside check_preservation
    m = _spec(3, 5, sign=SIGN_HASH, shift=SHIFT_HASH)
    original = maps_mod._hermitian_stack
    for k in (0, 3, 8):
        for defect, refused in ((1e-9, True), (1e-14, False)):

            def corrupting(stack, k=k, defect=defect):
                stack = stack.copy()
                stack[k, 0, 1] += defect
                return original(stack)

            monkeypatch.setattr(maps_mod, "_hermitian_stack", corrupting)
            if refused:
                with pytest.raises(MatrixError, match=f"matrix {k} of the stack"):
                    check_preservation(m, MODE_RADIUS, 20, 3, 77)
            else:
                check_preservation(m, MODE_RADIUS, 20, 3, 77)


def test_stacked_symmetry_test_matches_one_matrix_test():
    rng = substream(63, 0)
    stack = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    stack = (stack + stack.conj().swapaxes(-1, -2)) / 2
    stack[2, 1, 3] += 1e-6
    stack[4] *= 1e8
    stack[4, 0, 2] += 1e-5  # within 1e-12 * ||M|| at this scale
    verdicts = is_hermitian(stack)
    assert verdicts.tolist() == [bool(is_hermitian(x)) for x in stack]
    assert verdicts.tolist() == [True, True, False, True, True, True]
    with pytest.raises(MatrixError, match="matrix 2 of the stack"):
        _hermitian_stack(stack)
    ok = np.delete(stack, 2, axis=0)
    sym = _hermitian_stack(ok)
    for k, x in enumerate(ok):
        assert sym[k].tobytes() == hermitian(x).tobytes()


def test_stacked_two_level_mask_matches_classifier():
    gap = TOLERANCES["gap"]
    for n in (2, 3, 6):
        a, b = _sample_block(n, 64 + n, 0, 40)
        stack = np.concatenate([a, b])
        mask = _split(stack, gap).two_level
        assert mask.tolist() == [classify_two_level(x).two_level for x in stack]
        assert 0 < mask.sum() <= len(stack)
    # a middle gap of gap * diameter * (1 -/+ 1e-9): two clusters just
    # below the threshold, three just above it, on diagonal matrices (exact
    # spectra) and on their unitary rotations (rounded spectra)
    near = []
    for scale in (1.0, 3.7, 1e-5):
        for rel in (1.0 - 1e-9, 1.0 + 1e-9):
            near.append(np.diag([0.0, gap * rel * scale, scale]).astype(complex))
    rotations = [random_unitary(3, substream(66, k)) for k in range(len(near))]
    near += [hermitian(u @ d @ u.conj().T) for u, d in zip(rotations, near)]
    mask = _split(np.array(near), gap).two_level
    assert mask.tolist() == [classify_two_level(x).two_level for x in near]
    assert mask[:6].tolist() == [True, False] * 3


def test_all_two_level_set_rule_forms_no_projection(monkeypatch):
    # the engine's set rule reads only the split's verdicts, so a range
    # run marks its two-level trials without forming a spectral projection
    from commrange import structure

    members, formed = [], []
    split, sym = structure._split, structure._sym

    def counting_split(a, gap_tol):
        s = split(a, gap_tol)
        members.append(int(s.two_level.sum()))
        return s

    def counting_sym(m):
        formed.append(len(m))
        return sym(m)

    monkeypatch.setattr(maps_mod, "_split", counting_split)
    monkeypatch.setattr(structure, "_sym", counting_sym)
    m = _spec(4, 0, epsilon=1, sset=SSET_ALL)
    assert check_preservation(m, MODE_RANGE, 600, 4, 71).passed
    assert sum(members) > 0
    assert formed == []


def test_stacked_mirror_map_matches_one_matrix_map():
    a, b = _sample_block(2, 65, 0, 8)
    stack = np.concatenate([a, b])
    mirrored = _psi(stack)
    for k, x in enumerate(stack):
        assert mirrored[k].tobytes() == psi(x).tobytes()
