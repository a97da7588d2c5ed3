"""Candidate commutator-preserver maps on Hermitian matrices.

A map spec bundles the ingredients of the canonical preserver forms:

    A  ->  s(A) * U * (mirror?(A))^dagger * U.conj().T  +  f(A) * I

with U unitary, dagger either the identity or the basis-fixed transpose,
the optional 2x2 mirror map, a sign rule s and a shift rule f.  Radius
preservers carry an arbitrary sign rule h; range preservers carry a global
sign epsilon that may flip on an exceptional subset of the two-level
matrices (where the flip is invisible to commutator ranges).

Sign, shift and exceptional-set rules are named presets (optionally
seeded-hash rules over the quantized matrix bytes) so that "arbitrary"
functions are exercised reproducibly and specs stay serializable.

``check_preservation`` runs seeded trials over a mixed pool of matrix
pairs; every trial derives its own generator from (seed, trial index), so
reports are identical regardless of execution order or worker count.
Parallel calls run on a spawn process pool; ``worker_pool`` keeps one pool
open for every call inside its block.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Iterator, Optional

import numpy as np

from .matcore import (
    MatrixError,
    as_matrix,
    commutator,
    hermitian,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    random_hermitian,
    random_rank_k_hermitian,
    random_unitary,
    skew_hermitian_eigenvalues,
    substream,
)
from .nrange import commutator_interval, intervals_equal
from .structure import asymmetry_witness, classify_two_level
from .pauli2 import psi

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

DEFAULT_TOLERANCES = {
    MODE_RADIUS: 1e-9,
    MODE_RANGE: 1e-9,
    MODE_SPECTRUM: 1e-10,
}

# Hash rules quantize entries at 1e-9 before digesting, so the rule value
# is stable under symmetrization-level noise in the input.  Quantized parts
# are int64, so hash rules accept entries up to 2**63 quanta (about 9.2e9).
_QUANTUM = 1e-9
_QUANTA_LIMIT = 2.0**63


class MapConfigError(ValueError):
    """Raised for inconsistent map specifications."""


def _quantized_digest(a: np.ndarray, seed: int, salt: str) -> bytes:
    parts = np.stack([a.real, a.imag]) / _QUANTUM
    if np.abs(parts).max() >= _QUANTA_LIMIT:
        raise MatrixError(
            f"hash rules need entries below {_QUANTA_LIMIT * _QUANTUM:.3e} "
            f"in real and imaginary part, got {max_abs(a):.3e}"
        )
    h = hashlib.blake2b(digest_size=16)
    h.update(salt.encode("ascii"))
    h.update(int(seed % (1 << 64)).to_bytes(8, "little"))
    h.update(np.round(parts).astype(np.int64).tobytes())
    return h.digest()


@dataclass(frozen=True)
class MapSpec:
    """A candidate preserver map.

    ``epsilon`` switches the sign semantics: when None the (radius-mode)
    sign rule applies; when +/-1 the map is a range-mode form whose sign is
    epsilon, flipped on members of the exceptional set.  Exceptional-set
    presets only ever admit two-level matrices, so the required inclusion
    holds by construction.
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
        u = as_matrix(self.unitary)
        if u.shape != (self.dim, self.dim):
            raise MapConfigError("unitary shape does not match dim")
        if max_abs(u @ u.conj().T - np.eye(self.dim)) > 1e-10:
            raise MapConfigError("matrix is not unitary to 1e-10")
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

    def sign_value(self, a: np.ndarray) -> int:
        if self.sign == SIGN_PLUS:
            return 1
        digest = _quantized_digest(a, self.sign_seed, "sign")
        return 1 if digest[0] & 1 == 0 else -1

    def shift_value(self, a: np.ndarray) -> float:
        if self.shift == SHIFT_ZERO:
            return 0.0
        if self.shift == SHIFT_TRACELESS:
            return -float(np.trace(a).real) / self.dim
        digest = _quantized_digest(a, self.shift_seed, "shift")
        return int.from_bytes(digest[:8], "little") / float(1 << 64) * 2.0 - 1.0

    def sset_member(self, a: np.ndarray) -> bool:
        if self.sset == SSET_EMPTY:
            return False
        if not classify_two_level(a).two_level:
            return False
        if self.sset == SSET_ALL:
            return True
        digest = _quantized_digest(a, self.sset_seed, "sset")
        return digest[1] & 1 == 0

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

    @classmethod
    def from_json(cls, obj: dict) -> "MapSpec":
        return cls(
            dim=int(obj["dim"]),
            unitary=matrix_from_json(obj["unitary"]),
            dagger=obj["dagger"],
            psi=bool(obj["psi"]),
            sign=obj["sign"]["rule"],
            sign_seed=int(obj["sign"]["seed"]),
            shift=obj["shift"]["rule"],
            shift_seed=int(obj["shift"]["seed"]),
            epsilon=obj["epsilon"],
            sset=obj["sset"]["rule"],
            sset_seed=int(obj["sset"]["seed"]),
        )


def apply_map(m: MapSpec, a) -> np.ndarray:
    """Evaluate the map on a Hermitian matrix; output re-validated Hermitian.

    Sign, shift and set rules are evaluated on the input matrix, not on the
    conjugated core.
    """
    a = hermitian(a)
    if a.shape[0] != m.dim:
        raise MatrixError(f"matrix dim {a.shape[0]} does not match map dim {m.dim}")
    core = psi(a) if m.psi else a
    if m.dagger == DAGGER_TRANSPOSE:
        core = core.T
    core = m.unitary @ core @ m.unitary.conj().T
    if m.epsilon is None:
        s = m.sign_value(a)
    else:
        s = m.epsilon * (-1 if m.sset_member(a) else 1)
    f = m.shift_value(a)
    return hermitian(s * core + f * np.eye(m.dim))


def identity_map(dim: int) -> MapSpec:
    """The identity as a map spec (handy baseline)."""
    return MapSpec(dim=dim, unitary=np.eye(dim, dtype=complex))


# ---------------------------------------------------------------------------
# Trial pool.  Violations of wrong map forms concentrate on structured
# pairs, so the pool cycles uniformly through GUE pairs, low-rank pairs,
# two-level members and commuting (shared eigenbasis) pairs.
# ---------------------------------------------------------------------------


def _random_two_level(n: int, rng: np.random.Generator) -> np.ndarray:
    if int(rng.integers(8)) == 0:
        return hermitian(float(rng.uniform(-2.0, 2.0)) * np.eye(n))
    r = int(rng.integers(1, n))
    u = random_unitary(n, rng)
    p = u[:, :r] @ u[:, :r].conj().T
    alpha = float(rng.uniform(0.5, 2.5)) * (1.0 if rng.integers(2) else -1.0)
    delta = float(rng.uniform(-2.0, 2.0))
    return hermitian(alpha * p + delta * np.eye(n))


def sample_trial_pair(n: int, rng: np.random.Generator, kind: int):
    """One (A, B) pair from the mixed pool; kind cycles modulo 4."""
    kind = kind % 4
    if kind == 0:
        return random_hermitian(n, rng), random_hermitian(n, rng)
    if kind == 1:
        a = random_rank_k_hermitian(n, 1 + int(rng.integers(min(2, n))), rng)
        if rng.integers(2):
            b = random_rank_k_hermitian(n, 1 + int(rng.integers(min(2, n))), rng)
        else:
            b = random_hermitian(n, rng)
        return a, b
    if kind == 2:
        return _random_two_level(n, rng), random_hermitian(n, rng)
    u = random_unitary(n, rng)
    a = u @ np.diag(rng.standard_normal(n)) @ u.conj().T
    b = u @ np.diag(rng.standard_normal(n)) @ u.conj().T
    return hermitian(a), hermitian(b)


def metric_violation(base: np.ndarray, image: np.ndarray, mode: str) -> float:
    """Distance between two ascending skew spectra t_k (sigma = {i t_k}) in
    the mode's metric: the whole sorted spectrum ("spectrum"), the interval
    endpoints ("range") or the numerical radius ("radius")."""
    if mode == MODE_SPECTRUM:
        return float(np.abs(base - image).max())
    if mode == MODE_RANGE:
        return float(max(abs(base[0] - image[0]), abs(base[-1] - image[-1])))
    w_base = max(abs(base[0]), abs(base[-1]))
    w_image = max(abs(image[0]), abs(image[-1]))
    return float(abs(w_base - w_image))


def _trial_violation(m: MapSpec, mode: str, n: int, seed: int, index: int) -> float:
    rng = substream(seed, index)
    a, b = sample_trial_pair(n, rng, index)
    base = skew_hermitian_eigenvalues(commutator(a, b))
    fa = apply_map(m, a)
    fb = apply_map(m, b)
    image = skew_hermitian_eigenvalues(commutator(fa, fb))
    return metric_violation(base, image, mode)


def _run_chunk(args):
    m, mode, n, seed, lo, hi, tol = args
    worst = 0.0
    first_idx = None
    for i in range(lo, hi):
        v = _trial_violation(m, mode, n, seed, i)
        if v > worst:
            worst = v
        if first_idx is None and v > tol:
            first_idx = i
    return worst, first_idx


# The pool opened by the outermost open ``worker_pool`` block, if any.
_ACTIVE_POOL: ContextVar[Optional[ProcessPoolExecutor]] = ContextVar(
    "commrange_worker_pool", default=None
)


def pool_size(workers: int, cpu_count: Optional[int]) -> int:
    """Processes in a pool asked for ``workers``: at most one per CPU (an
    unknown ``cpu_count`` counts as one)."""
    return min(workers, cpu_count or 1)


@contextmanager
def worker_pool(workers: int) -> Iterator[ProcessPoolExecutor]:
    """Open one spawn process pool for every ``check_preservation`` call in
    the block.

    The pool has ``pool_size(workers, os.cpu_count())`` processes, started
    on first use.  Inside an open block this yields the open pool, so
    nested blocks share the outermost one.  The block that opened the pool
    shuts it down and joins its workers on every way out.
    """
    active = _ACTIVE_POOL.get()
    if active is not None:
        yield active
        return
    pool = ProcessPoolExecutor(
        max_workers=pool_size(workers, os.cpu_count()),
        mp_context=get_context("spawn"),
    )
    token = _ACTIVE_POOL.set(pool)
    try:
        yield pool
    finally:
        _ACTIVE_POOL.reset(token)
        pool.shutdown(wait=True, cancel_futures=True)


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
    "spectrum" (dim 2 only) the sorted skew spectra.  With ``workers`` > 1
    the trials are cut into ``workers`` chunks and run on the pool of the
    open ``worker_pool`` block (a suite run shares one pool across all its
    calls), or else on a pool opened for this call only.  The fold is
    ordered by trial index, so the report is identical for any worker
    count.
    """
    if mode not in MODES:
        raise MapConfigError(f"unknown mode {mode!r}")
    if mode == MODE_SPECTRUM and n != 2:
        raise MapConfigError("spectrum mode is defined at dim 2 only")
    if n != m.dim:
        raise MapConfigError("trial dim does not match map dim")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if tol is None:
        tol = DEFAULT_TOLERANCES[mode]

    if workers == 1:
        worst, first_idx = _run_chunk((m, mode, n, seed, 0, trials, tol))
    else:
        bounds = np.linspace(0, trials, workers + 1, dtype=int)
        chunks = [
            (m, mode, n, seed, int(lo), int(hi), tol)
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        worst = 0.0
        first_idx = None
        # A pool opened for this call alone needs no process per empty chunk.
        with worker_pool(len(chunks)) as pool:
            for chunk_worst, chunk_first in pool.map(_run_chunk, chunks):
                worst = max(worst, chunk_worst)
                if first_idx is None and chunk_first is not None:
                    first_idx = chunk_first

    counterexample = None
    if first_idx is not None:
        rng = substream(seed, first_idx)
        counterexample = sample_trial_pair(n, rng, first_idx)
    return PreservationReport(
        mode=mode,
        trials=trials,
        dim=n,
        seed=seed,
        tolerance=float(tol),
        max_violation=float(worst),
        first_violation_index=first_idx,
        first_counterexample=counterexample,
    )


def sign_flip_invisibility(
    m: MapSpec, a, trials: int, rng: np.random.Generator, tol: float = 1e-8
) -> bool:
    """True iff flipping the sign of the map on the single input A leaves
    every sampled commutator interval unchanged.

    Guaranteed True for two-level A.  For other A the asymmetry witness of
    Phi(A) (when the dimension admits one) is tried first, making the
    False verdict deterministic rather than sampling luck.
    """
    phi_a = apply_map(m, a)
    probes = []
    if m.dim >= 3:
        witness = asymmetry_witness(phi_a)
        if witness is not None:
            probes.append(witness[0])
    for _ in range(trials):
        probes.append(apply_map(m, random_hermitian(m.dim, rng)))
    for b in probes:
        iv_plus = commutator_interval(phi_a, b)
        iv_minus = commutator_interval(-phi_a, b)
        if not intervals_equal(iv_plus, iv_minus, tol):
            return False
    return True
