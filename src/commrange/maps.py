"""Candidate commutator-preserver maps on Hermitian matrices.

A map spec bundles the ingredients of the canonical preserver forms:

    A  ->  s(A) * U * (mirror?(A))^dagger * U.conj().T  +  f(A) * I

with U unitary, dagger either the identity or the basis-fixed transpose,
the optional 2x2 mirror map, a sign rule s and a shift rule f.  Radius
preservers carry an arbitrary sign rule h; range preservers carry a global
sign epsilon that may flip on an exceptional subset of the two-level
matrices (where the flip is invisible to commutator ranges).

Sign, shift and exceptional-set rules are named presets (optionally
seeded integer hashes of the quantized matrix entries) so that "arbitrary"
functions are exercised reproducibly and specs stay serializable.

``check_preservation`` runs seeded trials over a mixed pool of matrix
pairs through a block engine, which checks every map of one call on one
shared trial stream.  For a block of 256 trials at once, it draws trial i
from the (seed, i) stream into one float buffer, forms each recipe's
matrices (Haar QR, products) in stacked calls, validates the inexact ones
and symmetrizes the block once, applies all maps to it in one map step
(one quantization, one stacked integer hash per rule kind, one stacked
``eigh`` for every exceptional set, one broadcast conjugation), and takes
the commutator spectra of the block and of every map's images in one
stacked call, then the violation metric; a map's first violating pair is
kept from its block.  ``sample_trial_pair`` and ``apply_map`` run the same
code on one matrix and one map.  A call whose estimated work pays for a
process pool splits its trials into at most ``workers`` chunks of whole
blocks, run on a spawn pool that the call opens and shuts down before it
returns; any other call runs in the calling process and starts no process.
Every split forms the same blocks and, the fold being ordered by trial
index, gives the same report.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .matcore import (
    TOLERANCES,
    MatrixError,
    _commutator_spectrum,
    _ginibre,
    _haar,
    _hermitian_stack,
    _rank_k,
    _rank_k_coeffs,
    _streams,
    _sym,
    as_matrix,
    hermitian,
    is_unitary,
    matrix_to_json,
    max_abs,
)
from .structure import _split
from .pauli2 import _psi

DAGGER_IDENTITY = "identity"
DAGGER_TRANSPOSE = "transpose"
SIGN_PLUS = "plus"
SIGN_HASH = "hash"
SHIFT_ZERO = "zero"
SHIFT_TRACELESS = "traceless"
SHIFT_HASH = "hash"
SSET_EMPTY = "empty"
SSET_ALL = "all-two-level"
SSET_RANDOM = "random"

MODE_RADIUS = "radius"
MODE_RANGE = "range"
MODE_SPECTRUM = "spectrum"
MODES = (MODE_RADIUS, MODE_RANGE, MODE_SPECTRUM)

# Map unitaries are drawn from this stream index of their seed; trials use
# the indices 0 .. trials-1, so the two never share a stream.
UNITARY_STREAM = 1 << 62

# Hash rules quantize entries at 1e-9 before hashing, so the rule value is
# stable under symmetrization-level noise in the input.  Quanta are int64,
# so hash rules accept entries up to 2**63 quanta (about 9.2e9).
_QUANTUM = 1e-9
_QUANTA_LIMIT = 2.0**63

# Trials the engine samples, maps and measures per stacked step.
_BLOCK_TRIALS = 256

# A call splits its trials over a process pool only when its estimated
# serial work W exceeds twice the pool's start-up S, so that a split into
# c >= 2 chunks ends in about W/c + S < W.  Work is counted in units of
# about 0.25 us: a trial of K maps at dim n costs (1 + K)(40 + n**2) units,
# and S is about 2,000,000 units.  Measured on a 2-core x86-64 host (numpy
# 2.4.6, Python 3.11.7, one BLAS thread): ``_preservation_reports`` took
# 0.17-0.39 us per unit over n = 2, 3, 6, 16 and K = 1, 4, 12 (best of 3
# over 1,024 trials), and a spawn pool of two that ran one engine chunk
# each and shut down took 0.57-0.61 s.  Both scale with the host's speed,
# so the limit is kept in work units, not seconds.
_POOL_START_WORK = 2_000_000


class MapConfigError(ValueError):
    """Raised for inconsistent map specifications."""


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output mixer on a uint64 array, modulo 2**64."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


@lru_cache(maxsize=64)
def _hash_keys(seeds: tuple, salt: str, width: int) -> tuple:
    """The odd multipliers (S, width) and keys (S, 1) of each seed's hash:
    its SplitMix64 stream from mix(mix(seed mod 2**64) xor ASCII salt)."""
    start = np.array([int(s) % (1 << 64) for s in seeds], dtype=np.uint64)
    start = _mix64(_mix64(start) ^ int.from_bytes(salt.encode("ascii"), "little"))
    steps = np.arange(1, width + 2, dtype=np.uint64) * 0x9E3779B97F4A7C15
    words = _mix64(start[:, None] + steps)
    return words[:, :-1] | 1, words[:, -1:]


class _Quanta:
    """The 1e-9 quantization of a stack of matrices, made once on first use
    and shared by every hash rule evaluated on the stack.  The hash of
    matrix k is mix(key + sum_j m_j q_j) modulo 2**64, with q_j the int64
    quanta of A_k's interleaved real and imaginary parts read as uint64,
    and m_j and key from ``_hash_keys``: one uint64 matmul for all rows and
    seeds, and a row's value does not depend on the stack around it."""

    def __init__(self, a: np.ndarray):
        self.a = a
        self._words = None

    def hashes(self, seeds: list, salt: str, rows=slice(None)) -> np.ndarray:
        """The uint64 hashes (S, rows) of the matrices ``rows`` under each
        seed; a ``MatrixError`` if one of those matrices has an entry part
        at or beyond 2**63 quanta."""
        if self._words is None:
            q = self.a.reshape(len(self.a), -1).view(float) / _QUANTUM
            # out-of-range rows are zeroed so that the int64 cast stays defined
            self._refused = np.maximum(q.max(axis=1), -q.min(axis=1)) >= _QUANTA_LIMIT
            q[self._refused] = 0.0
            np.rint(q, out=q.view(np.int64), casting="unsafe")  # quanta, in place
            self._words = q.view(np.uint64)
        refused = np.flatnonzero(self._refused[rows])
        if refused.size:
            bad = self.a[rows][refused[0]]
            raise MatrixError(
                f"hash rules need entries below {_QUANTA_LIMIT * _QUANTUM:.3e} "
                f"in real and imaginary part, got {max_abs(bad):.3e}"
            )
        words = self._words[rows]
        mult, key = _hash_keys(tuple(seeds), salt, words.shape[1])
        return _mix64(mult @ words.T + key)


@dataclass(frozen=True)
class MapSpec:
    """A candidate preserver map.

    ``epsilon`` switches the sign semantics: when None the (radius-mode)
    sign rule applies; when +/-1 the map is a range-mode form whose sign is
    epsilon, flipped on members of the exceptional set.  Each form refuses
    the other's rule: a range form takes only the ``plus`` sign rule and a
    radius form only the ``empty`` set.  Exceptional-set presets only ever
    admit two-level matrices, so the required inclusion holds by
    construction.
    """

    dim: int
    unitary: np.ndarray
    dagger: str = DAGGER_IDENTITY
    psi: bool = False
    sign: str = SIGN_PLUS
    sign_seed: int = 0
    shift: str = SHIFT_ZERO
    shift_seed: int = 0
    epsilon: Optional[int] = None
    sset: str = SSET_EMPTY
    sset_seed: int = 0

    def __post_init__(self):
        # The preserver forms are stated for dim H >= 2; at dim 1 every
        # commutator is zero and the pool has no two-level draw.
        if self.dim < 2:
            raise MapConfigError(f"map dim must be at least 2, got {self.dim}")
        u = as_matrix(self.unitary)
        if u.shape != (self.dim, self.dim):
            raise MapConfigError("unitary shape does not match dim")
        if not is_unitary(u):
            raise MapConfigError(f"matrix is not unitary to {TOLERANCES['unitary']}")
        object.__setattr__(self, "unitary", u)
        if self.dagger not in (DAGGER_IDENTITY, DAGGER_TRANSPOSE):
            raise MapConfigError(f"unknown dagger {self.dagger!r}")
        if self.psi and self.dim != 2:
            raise MapConfigError("the mirror map is only defined at dim 2")
        if self.sign not in (SIGN_PLUS, SIGN_HASH):
            raise MapConfigError(f"unknown sign rule {self.sign!r}")
        if self.shift not in (SHIFT_ZERO, SHIFT_TRACELESS, SHIFT_HASH):
            raise MapConfigError(f"unknown shift rule {self.shift!r}")
        if self.sset not in (SSET_EMPTY, SSET_ALL, SSET_RANDOM):
            raise MapConfigError(f"unknown exceptional-set rule {self.sset!r}")
        if self.epsilon not in (None, 1, -1):
            raise MapConfigError("epsilon must be +1, -1 or None")
        if self.epsilon is not None and self.sign != SIGN_PLUS:
            raise MapConfigError(f"a range form reads no sign rule, got {self.sign!r}")
        if self.epsilon is None and self.sset != SSET_EMPTY:
            raise MapConfigError(f"a radius form reads no set rule, got {self.sset!r}")

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "unitary": matrix_to_json(self.unitary),
            "dagger": self.dagger,
            "psi": self.psi,
            "sign": {"rule": self.sign, "seed": self.sign_seed},
            "shift": {"rule": self.shift, "seed": self.shift_seed},
            "epsilon": self.epsilon,
            "sset": {"rule": self.sset, "seed": self.sset_seed},
        }


def apply_map(m: MapSpec, a) -> np.ndarray:
    """Evaluate the map on a Hermitian matrix.

    A is validated here, once, with ``hermitian``, and its dimension is
    checked against the map's; the result is the engine's map step for one
    map on a stack of one matrix.
    """
    a = hermitian(a)
    if a.shape[0] != m.dim:
        raise MatrixError(f"matrix dim {a.shape[0]} does not match map dim {m.dim}")
    return _images([m], a[None])[0, 0]


def _rules(maps: list, a: np.ndarray) -> tuple:
    """The sign s and shift f of each map of ``maps`` on each matrix A of a
    validated Hermitian stack, (K, t) each, read from A.  Each hash rule is
    one ``_Quanta.hashes`` call over all maps, salted with the rule's name;
    every set rule reads one ``_split``, and a random set hashes only the
    two-level rows."""
    q, shape = _Quanta(a), (len(maps), len(a))
    signs, shifts = np.ones(shape), np.zeros(shape)

    def hashed(rule: str, value: str, rows=slice(None)) -> tuple:
        """The maps whose ``rule`` is ``value``, and their hashes of ``rows``."""
        ks = [k for k, m in enumerate(maps) if getattr(m, rule) == value]
        seeds = [getattr(maps[k], rule + "_seed") for k in ks]
        return ks, q.hashes(seeds, rule, rows) if ks else None

    ks, h = hashed("sign", SIGN_HASH)
    if ks:
        signs[ks] = 1.0 - 2.0 * (h >> 63)
    ks, h = hashed("shift", SHIFT_HASH)
    if ks:
        shifts[ks] = (h >> 11) * 2.0**-52 - 1.0
    ks = [k for k, m in enumerate(maps) if m.shift == SHIFT_TRACELESS]
    if ks:
        shifts[ks] = -np.trace(a, axis1=-2, axis2=-1).real / a.shape[-1]
    sets = [k for k, m in enumerate(maps) if m.sset != SSET_EMPTY]
    if sets:
        member = np.zeros(shape, dtype=bool)
        member[sets] = _split(a, TOLERANCES["gap"]).two_level
        rows = np.flatnonzero(member[sets[0]])
        ks, h = hashed("sset", SSET_RANDOM, rows)
        if ks:
            member[np.ix_(ks, rows)] = h >> 63 == 0
        signs[member] = -1.0
    # a range form's sign is epsilon, flipped on its exceptional set
    ks = [k for k, m in enumerate(maps) if m.epsilon == -1]
    if ks:
        signs[ks] *= -1.0
    return signs, shifts


def _images(maps: list, a: np.ndarray) -> np.ndarray:
    """Each map of ``maps`` on each matrix of a validated Hermitian stack of
    t: (K, t, n, n) for K maps.  Each distinct core (mirror map, transpose)
    is formed once and the stacked unitaries conjugate it in one broadcast
    matmul.  The images s * U core U* + f * I are formed inexactly, so all
    K * t pass one symmetry test, which names image i of map k as matrix
    k * t + i of the stack."""
    signs, shifts = _rules(maps, a)
    cores = {}
    for m in maps:
        if (m.psi, m.dagger) not in cores:
            core = _psi(a) if m.psi else a
            swap = m.dagger == DAGGER_TRANSPOSE
            cores[m.psi, m.dagger] = core.swapaxes(-1, -2) if swap else core
    core = next(iter(cores.values()))
    if len(cores) > 1:
        core = np.stack([cores[m.psi, m.dagger] for m in maps])
    u = np.array([m.unitary for m in maps])[:, None]
    core = u @ core @ u.conj().swapaxes(-1, -2)
    out = signs[..., None, None] * core + shifts[..., None, None] * np.eye(a.shape[-1])
    return _hermitian_stack(out.reshape(-1, *a.shape[1:])).reshape(out.shape)


# ---------------------------------------------------------------------------
# Trial pool.  Violations of wrong map forms concentrate on structured
# pairs, so the pool cycles uniformly through GUE pairs, low-rank pairs,
# two-level members and commuting (shared eigenbasis) pairs.
#
# Sampling runs in two phases.  ``_Draws`` makes each pair's draws from its
# own (seed, i) stream, in a fixed order, into the block's float buffer,
# each run of consecutive normal draws in one ``standard_normal`` call, and
# files each matrix by recipe, (form, group), with its slot, buffer offsets
# and scalars; ``_sample_block`` walks the streams with ``_streams``.
# ``_Draws.assemble`` then forms each recipe from the buffer in stacked
# calls (QR, products), validates the inexact rows and symmetrizes once.
# No draw depends on a QR or a product, so the split changes no number.
# ---------------------------------------------------------------------------


class _Draws:
    """The random draws of a block of pool pairs.  ``buf`` holds the normal
    draws end to end, with room for ``trials`` pairs of at most 4n^2 + 4 (it
    grows past them), and ``haar`` the offset of each Haar unitary's parts.
    ``table`` maps (form, group) to a record per matrix: its slot, then its
    unitary index, offsets or scalars; group is the rank k of a low-rank
    matrix, r of a two-level one and 0 otherwise."""

    def __init__(self, n: int, trials: int = 1):
        self.n, self.nn = n, 2 * n * n  # nn: the normal parts of a Ginibre matrix
        self.buf = np.empty(trials * (2 * self.nn + 4))
        self.at = 0  # the buffer offset of the next draw
        self.pairs = 0
        self.haar = []
        self.table = defaultdict(list)

    def _normals(self, rng: np.random.Generator, size: int) -> int:
        """The offset of ``size`` standard normal draws made into the buffer."""
        at = self.at
        self.at += size
        if self.at > len(self.buf):  # more trials than the buffer was made for
            self.buf = np.concatenate([self.buf, np.empty(len(self.buf) + size)])
        rng.standard_normal(out=self.buf[at : self.at])
        return at

    def draw_low_rank(self, rng: np.random.Generator, slot: int) -> None:
        """A rank-1 or rank-2 matrix sum_j c_j x_j x_j* with orthonormal
        x_j and nonzero real c_j, drawn after its unitary in one call."""
        k = 1 + int(rng.integers(min(2, self.n)))
        at = self._normals(rng, self.nn + k)
        _rank_k_coeffs(self.buf[at + self.nn : self.at], rng)
        self.haar.append(at)
        self.table["rank", k].append((slot, len(self.haar) - 1, at + self.nn))

    def draw_two_level(self, rng: np.random.Generator, slot: int) -> None:
        """alpha P + delta I with P a rank-r projection; one in eight draws
        is a scalar c I instead.  ``lo + (hi - lo) * rng.random()`` is
        ``rng.uniform(lo, hi)`` bit for bit."""
        if int(rng.integers(8)) == 0:
            self.table["scalar", 0].append((slot, -2.0 + 4.0 * rng.random()))
            return
        r = int(rng.integers(1, self.n))
        self.haar.append(self._normals(rng, self.nn))
        alpha = (0.5 + 2.0 * rng.random()) * (1.0 if rng.integers(2) else -1.0)
        delta = -2.0 + 4.0 * rng.random()
        self.table["level", r].append((slot, len(self.haar) - 1, alpha, delta))

    def draw_pair(self, rng: np.random.Generator, kind: int) -> None:
        """One (A, B) pair of the mixed pool; kind cycles modulo 4.  A GUE
        matrix is drawn as ``random_hermitian`` draws it."""
        kind, nn, s = kind % 4, self.nn, 2 * self.pairs
        self.pairs += 1
        if kind == 0:
            at = self._normals(rng, 2 * nn)
            self.table["gue", 0] += (s, at), (s + 1, at + nn)
        elif kind == 1:
            self.draw_low_rank(rng, s)
            if rng.integers(2):
                self.draw_low_rank(rng, s + 1)
            else:
                self.table["gue", 0].append((s + 1, self._normals(rng, nn)))
        elif kind == 2:
            self.draw_two_level(rng, s)
            self.table["gue", 0].append((s + 1, self._normals(rng, nn)))
        else:
            at = self._normals(rng, nn + 2 * self.n)
            self.haar.append(at)
            u = len(self.haar) - 1
            self.table["conj", 0] += (s, u, at + nn), (s + 1, u, at + nn + self.n)

    def _parts(self, offsets: list, size: int) -> np.ndarray:
        """Rows of the ``size`` draws at each offset, from a window view."""
        rows = (len(self.buf) - size + 1, size)
        return np.ndarray(rows, buffer=self.buf, strides=(8, 8))[offsets]

    def assemble(self) -> np.ndarray:
        """The drawn matrices as one stack, in slot order, each (form,
        group) formed in one stacked call.  GUE and low-rank matrices are
        Hermitian but for the symmetrization; the rest, formed inexactly
        (c I, alpha P + delta I and U diag(x) U*), pass the symmetry test in
        one call.  The whole stack is symmetrized once, which is each
        recipe's own ``_sym`` bit for bit."""
        n, shape = self.n, (-1, 2, self.n, self.n)
        out = np.empty((sum(map(len, self.table.values())), n, n), dtype=complex)
        u = _haar(self._parts(self.haar, self.nn).reshape(shape)) if self.haar else None
        inexact = []
        for (form, group), records in self.table.items():
            slots, *cols = map(list, zip(*records))
            if form == "gue":
                out[slots] = _ginibre(self._parts(cols[0], self.nn).reshape(shape))
            elif form == "scalar":
                out[slots] = np.array(cols[0])[:, None, None] * np.eye(n, dtype=complex)
            elif form == "rank":
                out[slots] = _rank_k(u[cols[0]], self._parts(cols[1], group))
            elif form == "level":
                alpha, delta = np.array(cols[1]), np.array(cols[2])
                x = u[cols[0], :, :group]
                p = x @ x.conj().swapaxes(-1, -2)
                out[slots] = alpha[:, None, None] * p + delta[:, None, None] * np.eye(n)
            else:
                diag = np.zeros((len(slots), n, n))
                diag[:, range(n), range(n)] = self._parts(cols[1], n)
                x = u[cols[0]]
                out[slots] = x @ diag @ x.conj().swapaxes(-1, -2)
            if form not in ("gue", "rank"):
                inexact += slots
        if inexact:
            # the test alone: its symmetrized rows are the block's, below
            _hermitian_stack(out[inexact])
        return _sym(out)


def _random_two_level(n: int, rng: np.random.Generator) -> np.ndarray:
    draws = _Draws(n)
    draws.draw_two_level(rng, 0)
    return draws.assemble()[0]


def sample_trial_pair(n: int, rng: np.random.Generator, kind: int):
    """One (A, B) pair from the mixed pool; kind cycles modulo 4."""
    draws = _Draws(n)
    draws.draw_pair(rng, kind)
    a, b = draws.assemble()
    return a, b


def _sample_block(n: int, segments):
    """The A and B stacks of the trials of ``segments``, (seed, lo, hi)
    each, end to end: trial i drawn from the (seed, i) stream with pool
    kind i."""
    keys = [(seed, i) for seed, lo, hi in segments for i in range(lo, hi)]
    draws = _Draws(n, len(keys))
    for (_, i), rng in zip(keys, _streams(keys)):
        draws.draw_pair(rng, i)
    out = draws.assemble()
    return out[0::2], out[1::2]


def metric_violation(base: np.ndarray, image: np.ndarray, mode: str):
    """Distance between two ascending skew spectra t_k (sigma = {i t_k}) in
    the mode's metric: the whole sorted spectrum ("spectrum"), the interval
    endpoints ("range") or the numerical radius ("radius").  A float for
    one pair of spectra; one value per row for stacks of them."""
    if mode == MODE_SPECTRUM:
        v = np.abs(base - image).max(axis=-1)
    elif mode == MODE_RANGE:
        v = np.maximum(
            np.abs(base[..., 0] - image[..., 0]), np.abs(base[..., -1] - image[..., -1])
        )
    else:
        w_base = np.maximum(np.abs(base[..., 0]), np.abs(base[..., -1]))
        w_image = np.maximum(np.abs(image[..., 0]), np.abs(image[..., -1]))
        v = np.abs(w_base - w_image)
    return float(v) if v.ndim == 0 else v


def _spectra(a: np.ndarray, b: np.ndarray, maps: list):
    """Commutator spectra of (A, B), one row per trial, and of
    (Phi(A), Phi(B)) for each map Phi of ``maps``, one stack per map, for
    the stacks ``a`` and ``b`` of one block: (t, n) and (K, t, n)."""
    t = len(a)
    images = _images(maps, np.concatenate([a, b]))
    spectra = _commutator_spectrum(
        np.concatenate([a, *images[:, :t]]), np.concatenate([b, *images[:, t:]])
    )
    return spectra[:t], spectra[t:].reshape(len(maps), t, -1)


def _run_chunk(args):
    """Worst violation and first violation, None or (i, A, B), per map and
    mode, over trials lo .. hi-1 of the seed's stream, taken block by
    block: the first trial index above tolerance and its pair, from the
    block that found it."""
    maps, seed, modes, n, lo, hi, tol = args
    worst = [[0.0] * len(modes) for _ in maps]
    first = [[None] * len(modes) for _ in maps]
    for start in range(lo, hi, _BLOCK_TRIALS):
        a, b = _sample_block(n, [(seed, start, min(start + _BLOCK_TRIALS, hi))])
        base, images = _spectra(a, b, maps)
        for j, mode in enumerate(modes):
            for r, v in enumerate(metric_violation(base, images, mode)):
                worst[r][j] = max(worst[r][j], float(v.max()))
                over = np.flatnonzero(v > tol)
                if first[r][j] is None and over.size:
                    k = int(over[0])
                    first[r][j] = (start + k, a[k].copy(), b[k].copy())
    return [list(zip(w, f)) for w, f in zip(worst, first)]


def _chunks(trials: int, workers: int, n: int, k: int) -> list:
    """The [lo, hi) trial ranges of a call of ``k`` maps at dim ``n``: the
    whole run when its work is at most twice a pool's start-up, else at most
    ``workers`` chunks of whole engine blocks, the last one cut at ``trials``."""
    if trials * (1 + k) * (40 + n * n) <= 2 * _POOL_START_WORK:
        workers = 1
    per = -(-trials // (_BLOCK_TRIALS * workers)) * _BLOCK_TRIALS
    return [(lo, min(lo + per, trials)) for lo in range(0, trials, per)]


def pool_size(workers: int, cpu_count: Optional[int]) -> int:
    """Processes in a pool asked for ``workers``: at most one per CPU (an
    unknown ``cpu_count`` counts as one)."""
    return min(workers, cpu_count or 1)


@dataclass(frozen=True)
class PreservationReport:
    """Outcome of a preservation trial run."""

    mode: str
    trials: int
    dim: int
    seed: int
    tolerance: float
    max_violation: float
    first_violation_index: Optional[int]
    first_counterexample: Optional[tuple] = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return self.first_violation_index is None

    def to_json(self) -> dict:
        ce = None
        if self.first_counterexample is not None:
            a, b = self.first_counterexample
            ce = {
                "index": self.first_violation_index,
                "a": matrix_to_json(a),
                "b": matrix_to_json(b),
            }
        return {
            "mode": self.mode,
            "trials": self.trials,
            "dim": self.dim,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "max_violation": self.max_violation,
            "passed": self.passed,
            "first_counterexample": ce,
        }


def check_preservation(
    m: MapSpec,
    mode: str,
    trials: int,
    n: int,
    seed: int,
    tol: Optional[float] = None,
    workers: int = 1,
) -> PreservationReport:
    """Compare the commutator metric of (A, B) and (Phi(A), Phi(B)) over
    seeded trials.

    mode "radius" compares numerical radii, "range" the full intervals,
    "spectrum" (dim 2 only) the sorted skew spectra, against ``tol`` or
    else the mode's ``TOLERANCES`` entry; the engine call
    :func:`_preservation_reports` on one map.  ``workers`` = N is an upper
    bound: a run whose estimated work pays for a process pool (see
    ``_POOL_START_WORK``) is split into at most N chunks of whole 256-trial
    blocks, run on a spawn pool of at most one process per chunk and per CPU
    that this call opens and shuts down before it returns; any other run
    starts no process.  Every split forms the same blocks and the fold is
    ordered by trial index, so the report is the same for any N.
    """
    if tol is None:
        tol = TOLERANCES.get(mode)  # the engine refuses an unknown mode
    return _preservation_reports([m], seed, (mode,), trials, n, tol, workers)[0][0]


def _preservation_reports(
    maps: list,
    seed: int,
    modes: tuple,
    trials: int,
    n: int,
    tol: float,
    workers: int,
) -> list:
    """``check_preservation`` of each map of ``maps`` on ``seed`` in each
    of ``modes``, one list per map, from one pass over the trial stream:
    each block is sampled once, with its base spectra, and every map is
    applied to it in one map step.  A trial's numbers do not depend on the stack they are
    computed in, so each report is the map's own."""
    for mode in modes:
        if mode not in MODES:
            raise MapConfigError(f"unknown mode {mode!r}")
        if mode == MODE_SPECTRUM and n != 2:
            raise MapConfigError("spectrum mode is defined at dim 2 only")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be a finite number above 0")
    if any(m.dim != n for m in maps):
        raise MapConfigError("trial dim does not match map dim")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")

    chunks = [
        (maps, seed, modes, n, lo, hi, tol)
        for lo, hi in _chunks(trials, workers, n, len(maps))
    ]
    if len(chunks) == 1:
        per_chunk = [_run_chunk(chunks[0])]
    else:
        # imported here: serial runs never pay the pool's import time
        from concurrent import futures
        from multiprocessing import current_process, get_context

        # A spawn worker importing an unguarded main module cannot start
        # processes; SystemExit passes ``except Exception`` and ends it.
        if getattr(current_process(), "_inheriting", False):
            raise SystemExit(
                "commrange: a spawn worker re-ran a script that opens a process "
                'pool; put its calls under if __name__ == "__main__":'
            )
        with futures.ProcessPoolExecutor(
            max_workers=pool_size(len(chunks), os.cpu_count()),
            mp_context=get_context("spawn"),
        ) as pool:
            per_chunk = list(pool.map(_run_chunk, chunks))

    out = []
    # Chunks are in trial order, so the first index found is the first.
    for per_map in zip(*per_chunk):
        out.append([])
        for mode, found in zip(modes, zip(*per_map)):
            index, *pair = next((f for _, f in found if f is not None), (None,))
            out[-1].append(
                PreservationReport(
                    mode=mode,
                    trials=trials,
                    dim=n,
                    seed=seed,
                    tolerance=float(tol),
                    max_violation=float(max(w for w, _ in found)),
                    first_violation_index=index,
                    first_counterexample=tuple(pair) or None,
                )
            )
    return out
