"""The three benchmark workloads, driven through commrange's public API.

Each workload is a closed loop with one caller: a *round* is a fixed list
of operations, and run.py repeats rounds until its time is up.  Every
input comes from Philox streams keyed by (derived seed, index), so a
round's inputs depend only on ``--seed`` and the round number, never on
timing.  Rounds cycle through a pool built at set-up.  suite-battery is
the exception: it runs the battery at a fixed seed (see SUITE_SEED).

``round_<workload>`` executes one round under a tracer (a ``NullTracer``
when tracing is off), times every operation and checks its output.
``reenact_<workload>`` runs only in the traced run: it repeats the work of
the round's real calls through finer public calls, attached as children
of the real spans, and makes a few probe calls for per-call costs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from commrange import cli, suite
from commrange.maps import (
    MapSpec,
    apply_map,
    check_preservation,
    sample_trial_pair,
)
from commrange.matcore import (
    commutator,
    hermitian,
    hermitian_eigen,
    random_hermitian,
    random_unit_vector,
    random_unitary,
    skew_hermitian_eigenvalues,
    substream,
)
from commrange.nrange import (
    commutator_interval,
    numerical_radius,
    range_boundary,
    rank1_commutator_radius,
    support_value,
)
from commrange.pauli2 import psi, to_pauli, unitary_to_rotation
from commrange.structure import (
    asymmetry_witness,
    classify_two_level,
    independence_vector,
    radius_equivalence_check,
    symmetry_witness_unitary,
)

# Reports and trace files; ignored by git.
OUT_DIR = Path(__file__).resolve().parent / "out"

# Rounds in each workload's input pool; later rounds reuse it cyclically.
POOL_ROUNDS = 64

# The package modules are the layers; every span name starts with one of
# these or with "bench" for the benchmark's own bookkeeping spans.
LAYERS = ("matcore", "nrange", "structure", "pauli2", "maps", "suite", "cli")


def derive(seed: int, label: str) -> int:
    """64-bit sub-seed for ``label``, independent across labels."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode("ascii"))
    h.update(label.encode("ascii"))
    return int.from_bytes(h.digest(), "little")


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonable)
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return {"re": x.real.tolist(), "im": x.imag.tolist()}
    if isinstance(x, MapSpec):
        return x.to_json()
    raise TypeError(type(x))


@dataclass
class Op:
    """One timed operation: its class, work units, wall time and verdict."""

    cls: str
    units: int
    seconds: float
    ok: bool
    verdict: tuple
    spans: tuple = ()
    data: Any = field(default=None, repr=False)


def _under(tr, parent, name, fn, *args, **kwargs):
    """Call fn inside a span attached to ``parent`` (a re-enactment)."""
    with tr.span(name, parent):
        return fn(*args, **kwargs)


def _eigen_residual(a, decomp) -> float:
    """||A V - V diag(w)||_F / ||A||_F for the symmetrized matrix the
    solver decomposes."""
    a = hermitian(a)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return 0.0
    resid = a @ decomp.vectors - decomp.vectors * decomp.eigenvalues
    return float(np.linalg.norm(resid)) / norm


def _reenact_eigen(tr, parent, a, n, residuals):
    """hermitian_eigen(a) as a child span; records its residual."""
    decomp = _under(tr, parent, f"matcore.hermitian_eigen.n{n}", hermitian_eigen, a)
    residuals.append(_eigen_residual(a, decomp))
    return decomp


def _reenact_skew(tr, parent, c, n, residuals):
    """skew_hermitian_eigenvalues(c) with its eigensolve as a child."""
    with tr.span(f"matcore.skew_hermitian_eigenvalues.n{n}", parent) as sid:
        ts = skew_hermitian_eigenvalues(c)
    _reenact_eigen(tr, sid, -1j * np.asarray(c), n, residuals)
    return ts


# ---------------------------------------------------------------------------
# verify-trials: check_preservation over fixed preserver forms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Form:
    name: str
    n: int
    mode: str
    rule: str  # sign/shift/set rule label used in span names
    trials: int  # trials per block, sized for ~0.1 s per block
    expect_pass: bool
    kwargs: dict


FORMS = (
    Form("n2-spectrum-psi", 2, "spectrum", "psi", 100, True,
         dict(psi=True, sign="hash", shift="hash")),
    Form("n3-radius-transpose", 3, "radius", "hash-hash", 25, True,
         dict(dagger="transpose", sign="hash", shift="hash")),
    Form("n3-range-sset-random", 3, "range", "sset-random", 25, True,
         dict(epsilon=1, sset="random", shift="hash")),
    Form("n3-range-transpose", 3, "range", "plus-zero", 25, False,
         dict(dagger="transpose", epsilon=1)),
    Form("n6-radius", 6, "radius", "hash-hash", 16, True,
         dict(sign="hash", shift="hash")),
    Form("n16-radius", 16, "radius", "hash-hash", 2, True,
         dict(sign="hash", shift="hash")),
)

# Rules no workload form uses, probed on the n=3 trial inputs in the trace.
PROBE_RULES = (
    ("traceless", dict(shift="traceless")),
    ("sset-all", dict(epsilon=1, sset="all-two-level")),
)


def _spec(seed, label, n, **kwargs) -> MapSpec:
    return MapSpec(
        dim=n,
        unitary=random_unitary(n, substream(derive(seed, label), 0)),
        sign_seed=derive(seed, label + ":sign"),
        shift_seed=derive(seed, label + ":shift"),
        sset_seed=derive(seed, label + ":sset"),
        **kwargs,
    )


def build_verify(seed: int) -> dict:
    specs = {f.name: _spec(seed, f.name, f.n, **f.kwargs) for f in FORMS}
    probes = {rule: _spec(seed, "probe:" + rule, 3, **kw) for rule, kw in PROBE_RULES}
    blocks = {
        f.name: [derive(seed, f"{f.name}:block:{r}") for r in range(POOL_ROUNDS)]
        for f in FORMS
    }
    inputs = {"specs": specs, "probes": probes, "blocks": blocks}
    inputs["digest"] = _digest(inputs)
    return inputs


def _violation(mode: str, base, image) -> float:
    if mode == "spectrum":
        return float(np.abs(base - image).max())
    if mode == "range":
        return float(max(abs(base[0] - image[0]), abs(base[-1] - image[-1])))
    return float(
        abs(max(abs(base[0]), abs(base[-1])) - max(abs(image[0]), abs(image[-1])))
    )


def round_verify(inputs, r: int, tr) -> list:
    ops = []
    for f in FORMS:
        m = inputs["specs"][f.name]
        block_seed = inputs["blocks"][f.name][r % POOL_ROUNDS]
        t0 = perf_counter()
        with tr.span(f"maps.check_preservation.n{f.n}") as sid:
            rep = check_preservation(m, f.mode, f.trials, f.n, block_seed, workers=1)
        dt = perf_counter() - t0
        if f.expect_pass:
            ok = rep.passed and rep.max_violation <= rep.tolerance
        else:
            ok = not rep.passed
        ops.append(
            Op(
                cls=f"n{f.n}",
                units=f.trials,
                seconds=dt,
                ok=ok,
                verdict=(f.name, rep.passed, rep.first_violation_index),
                spans=(sid,),
                data=(f, m, block_seed, rep),
            )
        )
    return ops


def _reenact_apply(tr, parent, m: MapSpec, rule: str, a):
    """apply_map with the public calls it makes (validation, mirror map,
    two-level test of the exceptional set) as children."""
    with tr.span(f"maps.apply_map.{rule}", parent) as sid:
        out = apply_map(m, a)
    _under(tr, sid, "matcore.hermitian", hermitian, a)
    if m.psi:
        _under(tr, sid, "pauli2.psi", psi, a)
    if m.epsilon is not None and m.sset != "empty":
        _under(tr, sid, f"structure.classify_two_level.n{m.dim}", classify_two_level, a)
    return out


def reenact_verify(inputs, ops, tr, probe_root, residuals) -> list:
    """Repeat each block's trials through public calls, as in
    ``maps._trial_violation``; returns a message per fidelity mismatch."""
    problems = []
    for op in ops:
        f, m, block_seed, rep = op.data
        parent = op.spans[0]
        first = None
        for i in range(f.trials):
            rng = _under(tr, parent, "matcore.substream", substream, block_seed, i)
            a, b = _under(
                tr, parent, f"maps.sample_trial_pair.kind{i % 4}",
                sample_trial_pair, f.n, rng, i,
            )
            c = _under(tr, parent, "matcore.commutator", commutator, a, b)
            base = _reenact_skew(tr, parent, c, f.n, residuals)
            fa = _reenact_apply(tr, parent, m, f.rule, a)
            fb = _reenact_apply(tr, parent, m, f.rule, b)
            c2 = _under(tr, parent, "matcore.commutator", commutator, fa, fb)
            image = _reenact_skew(tr, parent, c2, f.n, residuals)
            if first is None and _violation(f.mode, base, image) > rep.tolerance:
                first = i
            if f.n == 2:
                _under(tr, probe_root, "pauli2.to_pauli", to_pauli, a)
            if f.n == 3 and f.rule == "hash-hash":
                for rule, spec in inputs["probes"].items():
                    _under(tr, probe_root, f"maps.apply_map.{rule}", apply_map, spec, a)
        if f.n == 2:
            _under(tr, probe_root, "pauli2.unitary_to_rotation", unitary_to_rotation, m.unitary)
        if first != rep.first_violation_index:
            problems.append(
                f"{f.name}: re-enacted first violation {first} != "
                f"check_preservation {rep.first_violation_index}"
            )
    return problems


def pool_overhead_ms(inputs, tr, probe_root, reps: int = 3) -> float:
    """Median wall of workers=2 minus workers=1 on a fixed 20-trial run."""
    f = FORMS[1]
    m = inputs["specs"][f.name]
    block_seed = inputs["blocks"][f.name][0]
    walls = {1: [], 2: []}
    for _ in range(reps):
        for workers in (1, 2):
            t0 = perf_counter()
            _under(
                tr, probe_root, f"maps.check_preservation.workers{workers}",
                check_preservation, m, f.mode, 20, f.n, block_seed, workers=workers,
            )
            walls[workers].append(perf_counter() - t0)
    return (float(np.median(walls[2])) - float(np.median(walls[1]))) * 1e3


# ---------------------------------------------------------------------------
# matrix-oracles: single-matrix requests, n cycling through 3, 6 and 16.
# ---------------------------------------------------------------------------

ORACLE_DIMS = (3, 6, 16)
EQUIV_PROJECTIONS = 200
BOUNDARY_ANGLES = 360


def _two_level(n, rng):
    r = int(rng.integers(1, n))
    u = random_unitary(n, rng)
    p = u[:, :r] @ u[:, :r].conj().T
    alpha = float(rng.uniform(0.5, 2.5)) * (1.0 if rng.integers(2) else -1.0)
    return hermitian(alpha * p + float(rng.uniform(-2.0, 2.0)) * np.eye(n))


def _ginibre(n, rng):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def _oracle_requests(seed: int, r: int) -> list:
    """The 18 requests of round r.  At every n: classify on a two-level
    and on a generic matrix, equiv on a related and on a perturbed pair,
    radius and boundary on one Ginibre matrix, so each checks the other.
    Every round has the same mix, so its cost does not depend on the seed."""
    reqs = []
    for n in ORACLE_DIMS:
        rng = substream(derive(seed, f"oracles:n{n}"), r)
        for two_level in (True, False):
            a = _two_level(n, rng) if two_level else random_hermitian(n, rng)
            reqs.append({"type": "classify", "n": n, "a": a, "two_level": two_level,
                         "probe_b": random_hermitian(n, rng)})
        for related in (True, False):
            a = random_hermitian(n, rng)
            alpha = 1 if rng.integers(2) else -1
            beta = float(rng.uniform(-3.0, 3.0))
            b = alpha * a + beta * np.eye(n)
            if not related:
                bump = float(rng.uniform(0.1, 1.0)) * (1.0 if rng.integers(2) else -1.0)
                x = random_unit_vector(n, rng)
                b = b + bump * np.outer(x, x.conj())
            reqs.append({"type": "equiv", "n": n, "a": a, "b": hermitian(b),
                         "related": related, "alpha": alpha, "beta": beta,
                         "proj_seed": derive(seed, f"oracles:proj:n{n}:{r}:{related}")})
        g = _ginibre(n, rng)
        reqs.append({"type": "radius", "n": n, "a": g})
        reqs.append({"type": "boundary", "n": n, "a": g})
    return reqs


def build_oracles(seed: int) -> dict:
    pool = [_oracle_requests(seed, r) for r in range(POOL_ROUNDS)]
    return {"pool": pool, "digest": _digest(pool)}


def _check_classify(req, decomp, witness) -> bool:
    a = req["a"]
    if decomp.two_level != req["two_level"]:
        return False
    if decomp.two_level:
        u = witness
        comm = commutator(a, req["probe_b"])
        resid = float(np.abs(u @ comm @ u.conj().T + comm).max())
        return resid <= 1e-9 * max(1.0, float(np.abs(comm).max()))
    if witness is None:
        return False
    _, iv = witness
    return abs(iv.t_min + iv.t_max) > 1e-6


def _check_equiv(req, verdict) -> bool:
    if not req["related"]:
        return verdict.status == "not-related"
    return (
        verdict.status == "related"
        and verdict.alpha == req["alpha"]
        and abs(verdict.beta - req["beta"]) <= 1e-9
    )


def _check_boundary(a, boundary) -> bool:
    """Each sample lies on its support line: Re(e^{-i t} p) = lambda_max(H_t)."""
    e = np.exp(-1j * boundary.angles)[:, None, None]
    h = (e * a + np.conj(e) * a.conj().T) / 2
    support = np.linalg.eigvalsh(h)[:, -1]
    on_line = (np.exp(-1j * boundary.angles) * boundary.points).real
    scale = max(1.0, float(np.abs(a).max()))
    return bool(np.all(np.abs(on_line - support) <= 1e-9 * scale))


def _check_radius(a, w, boundary) -> bool:
    """max |boundary point| - 1e-9 <= w(A) <= ||A||_2."""
    norm2 = float(np.linalg.norm(a, 2))
    lower = float(np.abs(boundary.points).max()) - 1e-9
    return lower <= w <= norm2 * (1.0 + 1e-12)


def round_oracles(inputs, r: int, tr) -> list:
    ops = []
    radius_op = None
    for req in inputs["pool"][r % POOL_ROUNDS]:
        n, kind, a = req["n"], req["type"], req["a"]
        spans = []
        t0 = perf_counter()
        if kind == "classify":
            with tr.span(f"structure.classify_two_level.n{n}") as sid:
                decomp = classify_two_level(a)
            spans.append(sid)
            if decomp.two_level:
                with tr.span(f"structure.symmetry_witness_unitary.n{n}") as sid:
                    witness = symmetry_witness_unitary(a)
            else:
                with tr.span(f"structure.asymmetry_witness.n{n}") as sid:
                    witness = asymmetry_witness(a)
            spans.append(sid)
            dt = perf_counter() - t0
            ok = _check_classify(req, decomp, witness)
            verdict = (kind, n, decomp.two_level, witness is not None)
            data = (req, decomp, witness)
        elif kind == "equiv":
            with tr.span(f"structure.radius_equivalence_check.n{n}") as sid:
                v = radius_equivalence_check(
                    a, req["b"], EQUIV_PROJECTIONS, substream(req["proj_seed"], 0)
                )
            spans.append(sid)
            dt = perf_counter() - t0
            ok = _check_equiv(req, v)
            verdict = (kind, n, v.status, v.alpha)
            data = (req, v)
        elif kind == "radius":
            with tr.span(f"nrange.numerical_radius.n{n}") as sid:
                w = numerical_radius(a)
            spans.append(sid)
            dt = perf_counter() - t0
            # Checked against the boundary request on the same matrix.
            ok = True
            verdict = (kind, n)
            data = (req, w)
        else:
            with tr.span(f"nrange.range_boundary.n{n}") as sid:
                boundary = range_boundary(a, BOUNDARY_ANGLES)
            spans.append(sid)
            dt = perf_counter() - t0
            ok = _check_boundary(a, boundary)
            verdict = (kind, n, len(boundary.points))
            data = (req, boundary)
            radius_ok = _check_radius(a, radius_op.data[1], boundary)
            radius_op.ok = radius_ok
            radius_op.verdict = ("radius", n, radius_ok)
        op = Op(cls=kind, units=1, seconds=dt, ok=ok, verdict=verdict,
                spans=tuple(spans), data=data)
        if kind == "radius":
            radius_op = op
        ops.append(op)
    return ops


def reenact_oracles(inputs, ops, tr, probe_root, residuals) -> list:
    """Children for classify, witness and equivalence calls; numerical
    radius and boundary stay whole (their inner loops are private), with
    support_value probed beside them."""
    for op in ops:
        req = op.data[0]
        n, a = req["n"], req["a"]
        if op.cls == "classify":
            cls_span, wit_span = op.spans
            _under(tr, cls_span, "matcore.hermitian", hermitian, a)
            _reenact_eigen(tr, cls_span, a, n, residuals)
            witness = op.data[2]
            if op.data[1].two_level:
                with tr.span(f"structure.classify_two_level.n{n}", wit_span) as sid:
                    classify_two_level(a)
                _reenact_eigen(tr, sid, a, n, residuals)
            else:
                with tr.span(f"structure.independence_vector.n{n}", wit_span) as sid:
                    independence_vector(a)
                _reenact_eigen(tr, sid, a, n, residuals)
                with tr.span(f"nrange.commutator_interval.n{n}", wit_span) as sid:
                    commutator_interval(a, witness[0])
                c = _under(tr, sid, "matcore.commutator", commutator, a, witness[0])
                _reenact_skew(tr, sid, c, n, residuals)
        elif op.cls == "equiv":
            parent = op.spans[0]
            b = req["b"]
            _under(tr, parent, "matcore.hermitian", hermitian, a)
            _under(tr, parent, "matcore.hermitian", hermitian, b)
            rng = substream(req["proj_seed"], 0)
            for _ in range(EQUIV_PROJECTIONS):
                x = _under(tr, parent, "matcore.random_unit_vector", random_unit_vector, n, rng)
                _under(tr, parent, "nrange.rank1_commutator_radius", rank1_commutator_radius, a, x)
                _under(tr, parent, "nrange.rank1_commutator_radius", rank1_commutator_radius, b, x)
        elif op.cls == "radius":
            for theta in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
                _under(tr, probe_root, "nrange.support_value", support_value, a, float(theta))
    return []


# ---------------------------------------------------------------------------
# suite-battery: `commrange suite` through cli.main on the spawn pool.
# ---------------------------------------------------------------------------

SUITE_SCALE = 0.02
SUITE_WORKERS = 2
# The battery always runs at the CLI's default seed, as the roadmap's suite
# number does.  Its verdicts depend on the seed: at other seeds criterion 8
# can fail below 10 wrong-map trials and criterion 9 at any scale (see
# README.md, Findings), which would make this workload fail on seeds that
# say nothing about speed.
SUITE_SEED = 2026  # the CLI's default seed


def build_suite(seed: int) -> dict:
    """The battery's arguments; fixed, so ``seed`` does not change them."""
    args = ["suite", "--seed", str(SUITE_SEED), "--scale", str(SUITE_SCALE),
            "--workers", str(SUITE_WORKERS)]
    return {"seed": SUITE_SEED, "args": args, "digest": _digest(args)}


def _suite_report_ok(report: dict) -> bool:
    crits = report.get("criteria", [])
    return (
        report.get("passed") is True
        and len(crits) == len(suite.CRITERIA)
        and all(c["passed"] for c in crits)
    )


def round_suite(inputs, r: int, tr) -> list:
    OUT_DIR.mkdir(exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="suite-", suffix=".json", dir=OUT_DIR)
    os.close(fd)
    try:
        t0 = perf_counter()
        with tr.span("cli.main") as sid:
            rc = cli.main(inputs["args"] + ["--out", path])
        dt = perf_counter() - t0
        with open(path, "rb") as fh:
            blob = fh.read()
    finally:
        os.remove(path)
    report = json.loads(blob)
    ok = rc == 0 and _suite_report_ok(report)
    verdict = (rc, hashlib.blake2b(blob, digest_size=16).hexdigest())
    return [Op(cls="suite", units=1, seconds=dt, ok=ok, verdict=verdict,
               spans=(sid,), data=len(blob))]


def reenact_suite(inputs, ops, tr, probe_root, residuals) -> list:
    """Each criterion called directly, as run_acceptance_suite does."""
    problems = []
    for op in ops:
        for cid, name, fn in suite.CRITERIA:
            with tr.span(f"suite.crit{cid:02d}", op.spans[0]):
                out = fn(seed=inputs["seed"], scale=SUITE_SCALE, workers=SUITE_WORKERS)
            if not out["passed"]:
                problems.append(f"criterion {cid} {name} failed when called directly")
    return problems


# name -> (build, round, reenact, scaled to reference speed; see calib.py)
WORKLOADS = {
    "verify-trials": (build_verify, round_verify, reenact_verify, True),
    "matrix-oracles": (build_oracles, round_oracles, reenact_oracles, True),
    "suite-battery": (build_suite, round_suite, reenact_suite, False),
}

