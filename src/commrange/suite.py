"""The acceptance battery: fixed reference values and property checks.

Each criterion is a pure function of (seed, scale, workers) returning a
JSON-able result dict.  ``scale`` multiplies the trial counts (1.0 is the
full battery); reports contain no timing or host information, so a given
(seed, scale) always produces byte-identical output regardless of worker
count or execution order.  Criteria 3, 4, 5 and 9 take their trials
from the one seeded walk :func:`_trials`; criteria 6, 7, 8 and 10 check
the preserver forms of one dimension in one engine call, every form on the
call's one shared trial stream.  The suite shares no process pool: an
engine call opens its own only when its work pays for one, which no call
of a run at scale 1.0 or below does.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .matcore import (
    DEFAULT_SEED,
    TOLERANCES,
    _commutator_spectrum,
    _ginibre,
    _gue,
    _haar,
    _hermitian_stack,
    _streams,
    commutator,
    hermitian,
    max_abs,
    random_hermitian,
    random_unit_vector,
    rank_numeric,
)
from .nrange import (
    _symmetric,
    commutator_interval,
    numerical_radius,
    rank1_commutator_radius,
)
from .structure import _certificate, radius_equivalence_check
from .pauli2 import PAULI_BASIS, _pauli_coords, _pauli_sum, _rotations
from .maps import (
    DAGGER_IDENTITY,
    DAGGER_TRANSPOSE,
    MODE_RADIUS,
    MODE_RANGE,
    MODE_SPECTRUM,
    MODES,
    SHIFT_HASH,
    SHIFT_TRACELESS,
    SHIFT_ZERO,
    SIGN_HASH,
    SIGN_PLUS,
    SSET_ALL,
    SSET_EMPTY,
    SSET_RANDOM,
    UNITARY_STREAM,
    MapSpec,
    _preservation_reports,
    _random_two_level,
    _sample_block,
    metric_violation,
)


def _derived_seed(seed: int, label: str) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(int(seed % (1 << 64)).to_bytes(8, "little"))
    h.update(label.encode("ascii"))
    return int.from_bytes(h.digest(), "little")


def _count(base: int, scale: float) -> int:
    """``base`` scaled by ``scale``, at least 1; every criterion reads its
    scale here, so a scale that is not a finite number above 0 is refused."""
    if not 0.0 < scale < np.inf:
        raise ValueError("scale must be a finite number above 0")
    return max(1, int(round(base * scale)))


def _trials(seed: int, label: str, count: int, dims: tuple, first: int = 0):
    """(i, n, rng) for each trial i < ``count`` of the walk ``label``: rng
    is the (derived seed of ``label``, ``first`` + i) stream and n is
    ``dims[i % len(dims)]``.  The rng is valid only until the next trial."""
    base = _derived_seed(seed, label)
    for i, rng in enumerate(_streams((base, first + i) for i in range(count))):
        yield i, dims[i % len(dims)], rng


def _normal_draws(keys: list, shape: tuple) -> np.ndarray:
    """Standard normals of ``shape`` from each (seed, index) stream of
    ``keys``, stacked."""
    return np.array([rng.standard_normal(shape) for rng in _streams(keys)])


def _seeded_specs(seed: int, forms: list, n: int) -> list:
    """The map of each (label, rules) of ``forms``, its Haar unitary drawn
    as ``random_unitary`` would from the seed derived from ``label`` (all in
    one stacked QR) and its sign, shift and set seeds from ``label`` plus
    ":h", ":f" and ":s"; a seed its rules do not use is never read."""
    keys = [(_derived_seed(seed, label), UNITARY_STREAM) for label, _ in forms]
    unitaries = _haar(_normal_draws(keys, (2, n, n)))
    return [
        MapSpec(
            dim=n,
            unitary=u,
            sign_seed=_derived_seed(seed, label + ":h"),
            shift_seed=_derived_seed(seed, label + ":f"),
            sset_seed=_derived_seed(seed, label + ":s"),
            **rules,
        )
        for (label, rules), u in zip(forms, unitaries)
    ]


def _form_reports(seed, label, forms, n, modes, trials, tol, workers):
    """The reports, one list per form in mode order, of the seeded map of
    each (label, rules) of ``forms``, every one on the trial stream of
    ``label``, at tolerance ``tol``, from one engine call."""
    run_seed = _derived_seed(seed, label + ":trials")
    maps = _seeded_specs(seed, forms, n)
    return _preservation_reports(maps, run_seed, modes, trials, n, tol, workers)


# -- 1 ---------------------------------------------------------------------


def crit_pauli_fixtures(seed: int, scale: float, workers: int) -> dict:
    """Orthonormality of the scaled Pauli basis, the six product
    identities, and the commutator interval of the first pair."""
    tol = 1e-12
    x, y, z = PAULI_BASIS
    gram_dev = max(
        abs(np.trace(a @ b.conj().T) - (1.0 if i == j else 0.0))
        for i, a in enumerate(PAULI_BASIS)
        for j, b in enumerate(PAULI_BASIS)
    )
    c = 1j / np.sqrt(2.0)
    prod_dev = max(
        max_abs(x @ y - c * z),
        max_abs(y @ x + c * z),
        max_abs(y @ z - c * x),
        max_abs(z @ y + c * x),
        max_abs(z @ x - c * y),
        max_abs(x @ z + c * y),
    )
    iv = commutator_interval(x, y)
    iv_dev = max(abs(iv.t_min + 1.0), abs(iv.t_max - 1.0))
    worst = float(max(gram_dev, prod_dev, iv_dev))
    return {
        "passed": worst <= tol,
        "details": {
            "tolerance": tol,
            "gram_deviation": float(gram_dev),
            "product_deviation": float(prod_dev),
            "interval_deviation": float(iv_dev),
        },
    }


# -- 2 ---------------------------------------------------------------------


def crit_determinant_fixture(seed: int, scale: float, workers: int) -> dict:
    """det([B, C]) = -4i and full rank for the fixed 3x3 pair."""
    b = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=complex)
    c = np.array(
        [[1, 1, 1 + 1j], [1, 2, 1 - 1j], [1 - 1j, 1 + 1j, 0]], dtype=complex
    )
    k = commutator(b, c)
    det = complex(np.linalg.det(k))
    det_dev = abs(det - (-4j))
    rank = rank_numeric(k)
    return {
        "passed": det_dev <= 1e-10 and rank == 3,
        "details": {
            "det": [det.real, det.imag],
            "det_deviation": float(det_dev),
            "rank": rank,
        },
    }


# -- 3 ---------------------------------------------------------------------


def crit_rank1_radius_identity(seed: int, scale: float, workers: int) -> dict:
    """Closed-form w([A, x x*]) against the eigensolver, random (A, x)."""
    trials = _count(1000, scale)
    worst = 0.0
    for _, n, rng in _trials(seed, "rank1-radius", trials, (2, 3, 4, 5, 6)):
        a = random_hermitian(n, rng)
        x = random_unit_vector(n, rng)
        direct = rank1_commutator_radius(a, x)
        proj = np.outer(x, x.conj())
        via_eigen = numerical_radius(commutator(a, hermitian(proj)))
        worst = max(worst, abs(direct - via_eigen))
    return {
        "passed": worst <= 1e-9,
        "details": {"trials": trials, "max_gap": float(worst), "tolerance": 1e-9},
    }


# -- 4 ---------------------------------------------------------------------


def crit_affine_equivalence_oracle(seed: int, scale: float, workers: int) -> dict:
    """Related pairs are recovered with their generating (alpha, beta);
    rank-1-perturbed pairs are rejected through a sampled projection."""
    n_related = _count(500, scale)
    n_perturbed = _count(500, scale)
    related_ok = 0
    beta_worst = 0.0
    gap_worst = 0.0
    rejected_ok = 0
    for first, count in ((0, n_related), (1_000_000, n_perturbed)):
        for i, n, rng in _trials(seed, "equivalence", count, (2, 3, 4, 5, 6), first):
            a = random_hermitian(n, rng)
            alpha = 1 if i % 2 == 0 else -1
            beta = float(rng.uniform(-3.0, 3.0))
            b = alpha * a + beta * np.eye(n)
            if first:
                bump = float(rng.uniform(0.1, 1.0)) * (1.0 if rng.integers(2) else -1.0)
                x = random_unit_vector(n, rng)
                b = b + bump * np.outer(x, x.conj())
            verdict = radius_equivalence_check(a, b, 200, rng)
            if first:
                rejected_ok += verdict.status == "not-related"
                continue
            beta_error = abs((np.inf if verdict.beta is None else verdict.beta) - beta)
            related_ok += (
                verdict.status == "related"
                and verdict.alpha == alpha
                and beta_error <= 1e-9
                and verdict.worst_gap <= 1e-9
            )
            beta_worst = max(beta_worst, beta_error)
            gap_worst = max(gap_worst, verdict.worst_gap)
    return {
        "passed": related_ok == n_related and rejected_ok == n_perturbed,
        "details": {
            "related_total": n_related,
            "related_recovered": related_ok,
            "related_worst_consistency_gap": float(gap_worst),
            "related_worst_beta_error": float(beta_worst),
            "perturbed_total": n_perturbed,
            "perturbed_rejected": rejected_ok,
        },
    }


# -- 5 ---------------------------------------------------------------------


def _judge_probes(a: np.ndarray, u: np.ndarray, b: np.ndarray):
    """Whether every Hermitian probe of the stack ``b`` gives a W([A, B])
    that ``interval_symmetric`` accepts and a conjugation residual
    ||U C U* + C||_max of at most 1e-10, C = [A, B], with the residual of
    every probe."""
    ts = _commutator_spectrum(a, b)
    comm = a @ b - b @ a
    residuals = np.abs(u @ comm @ u.conj().T + comm).max(axis=(-2, -1))
    failed = ~_symmetric(ts[:, 0], ts[:, -1]) | (residuals > 1e-10)
    return not failed.any(), residuals


def crit_two_level_dichotomy(seed: int, scale: float, workers: int) -> dict:
    """Two-level matrices give symmetric intervals for every sampled B,
    certified by the conjugating unitary; all others yield an explicit
    asymmetry witness."""
    total = _count(500, scale)
    probes_per = _count(100, scale)
    sym_ok = 0
    sym_total = 0
    wit_ok = 0
    wit_total = 0
    worst_residual = 0.0
    worst_defect = np.inf
    for i, n, rng in _trials(seed, "dichotomy", total, (3, 4, 5, 6)):
        if i % 2 == 0:
            sym_total += 1
            a = _random_two_level(n, rng)
            u = _certificate(a, TOLERANCES["gap"]).unitary
            if u is None:
                continue
            probes = _gue(rng.standard_normal((probes_per, 2, n, n)))
            good, residuals = _judge_probes(a, u, probes)
            worst_residual = max([worst_residual, *residuals.tolist()])
            sym_ok += 1 if good else 0
        else:
            wit_total += 1
            # up to 11 GUE draws, until one is not two-level
            for _ in range(11):
                a = random_hermitian(n, rng)
                witness = _certificate(a, TOLERANCES["gap"]).witness
                if witness is not None:
                    break
            else:
                continue
            _, iv = witness
            defect = abs(iv.t_min + iv.t_max)
            worst_defect = min(worst_defect, defect)
            if defect > 1e-6:
                wit_ok += 1
    return {
        "passed": sym_ok == sym_total and wit_ok == wit_total,
        "details": {
            "two_level_total": sym_total,
            "two_level_symmetric": sym_ok,
            "probes_per_matrix": probes_per,
            "worst_conjugation_residual": float(worst_residual),
            "witness_total": wit_total,
            "witness_found": wit_ok,
            "smallest_witness_defect": None
            if not np.isfinite(worst_defect)
            else float(worst_defect),
        },
    }


# -- 6 ---------------------------------------------------------------------


def crit_radius_preserver_forms(seed: int, scale: float, workers: int) -> dict:
    """Every (dagger x sign x shift) form preserves commutator radii."""
    trials = _count(1000, scale)
    runs = []
    for n in (3, 4, 6):
        forms = [
            (f"radius:{n}:{d}:{s}:{f}", dict(dagger=d, sign=s, shift=f))
            for d in (DAGGER_IDENTITY, DAGGER_TRANSPOSE)
            for s in (SIGN_PLUS, SIGN_HASH)
            for f in (SHIFT_ZERO, SHIFT_TRACELESS, SHIFT_HASH)
        ]
        reports = _form_reports(
            seed, f"radius:{n}", forms, n, (MODE_RADIUS,), trials, 1e-9, workers
        )
        for (_, rules), (report,) in zip(forms, reports):
            runs.append(
                {
                    "dim": n,
                    **rules,
                    "max_violation": report.max_violation,
                    "passed": report.passed,
                }
            )
    return {
        "passed": all(r["passed"] for r in runs),
        "details": {
            "trials_per_config": trials,
            "configs": len(runs),
            "max_violation": float(max(r["max_violation"] for r in runs)),
            "tolerance": 1e-9,
            "runs": runs,
        },
    }


# -- 7 ---------------------------------------------------------------------


def crit_range_preserver_forms(seed: int, scale: float, workers: int) -> dict:
    """Identity-dagger range forms pass; the transpose form is refuted by
    an explicit counterexample."""
    trials = _count(1000, scale)
    n = 3
    forms = [
        (f"range:{n}:{eps}:{sset}", dict(epsilon=eps, sset=sset, shift=SHIFT_HASH))
        for eps in (1, -1)
        for sset in (SSET_EMPTY, SSET_ALL, SSET_RANDOM)
    ]
    forms.append(("range-transpose", dict(dagger=DAGGER_TRANSPOSE, epsilon=1)))
    *reports, (refute,) = _form_reports(
        seed, "range-transpose", forms, n, (MODE_RANGE,), trials, 1e-9, workers
    )
    runs = []
    for (_, rules), (report,) in zip(forms, reports):
        runs.append(
            {
                "epsilon": rules["epsilon"],
                "sset": rules["sset"],
                "max_violation": report.max_violation,
                "passed": report.passed,
            }
        )
    return {
        "passed": all(r["passed"] for r in runs) and not refute.passed,
        "details": {
            "trials_per_config": trials,
            "identity_runs": runs,
            "identity_max_violation": float(max(r["max_violation"] for r in runs)),
            "transpose_counterexample_index": refute.first_violation_index,
            "transpose_max_violation": refute.max_violation,
        },
    }


# -- 8 ---------------------------------------------------------------------


def crit_dim2_forms(seed: int, scale: float, workers: int) -> dict:
    """All four dim-2 forms pass spectrum mode; the three metrics agree on
    a shared sample stream; cross-product commutator identity; rotation
    correspondence.  The cross-product and rotation checks draw each
    sample from its own (seed, i) stream and check them as one stack."""
    trials = _count(2000, scale)
    hash_rules = dict(sign=SIGN_HASH, shift=SHIFT_HASH)
    forms = [
        (f"dim2:{d}:{mirror}", dict(dagger=d, psi=mirror, **hash_rules))
        for d in (DAGGER_IDENTITY, DAGGER_TRANSPOSE)
        for mirror in (False, True)
    ]
    # One pass over the trial stream gives all three metrics.
    modes = (MODE_SPECTRUM, MODE_RANGE, MODE_RADIUS)
    reports = _form_reports(seed, "dim2", forms, 2, modes, trials, 1e-10, workers)
    form_runs = []
    for (_, rules), per_mode in zip(forms, reports):
        mode_violations = {r.mode: r.max_violation for r in per_mode}
        vals = list(mode_violations.values())
        spread = max(vals) - min(vals)
        form_runs.append(
            {
                "dagger": rules["dagger"],
                "mirror": rules["psi"],
                "violations": mode_violations,
                "mode_spread": float(spread),
                "passed": max(vals) <= 1e-10 and spread <= 1e-12,
            }
        )

    # A deliberately wrong transformation (A -> 2A) must be caught by all
    # three metrics at the same trials, with numerically equal violations.
    # No map can change a commutator that is zero (to 1e-12 ||A||_2 ||B||_2),
    # so a trial that is not caught is skipped if its commutator is zero and
    # fails the check otherwise; at least one trial must not be skipped.
    agree_seed = _derived_seed(seed, "dim2:agree")
    agree_trials = _count(200, scale)
    a, b = _sample_block(2, [(agree_seed, 0, agree_trials)])
    base = _commutator_spectrum(a, b)
    image = _commutator_spectrum(2.0 * a, 2.0 * b)
    violations = np.array([metric_violation(base, image, mode) for mode in MODES])
    caught = violations.min(axis=0) > 1e-10
    norms = np.linalg.norm(a, 2, axis=(1, 2)) * np.linalg.norm(b, 2, axis=(1, 2))
    skipped = ~caught & (np.abs(base).max(axis=1) <= 1e-12 * norms)
    agreement_ok = bool(
        not np.any(violations.max(axis=0) - violations.min(axis=0) > 1e-12)
        and np.all(caught | skipped)
        and skipped.sum() < agree_trials
    )

    cross_trials = _count(1000, scale)
    # the parts of A and then of B, as two ``random_hermitian`` calls draw them
    cross_seed = _derived_seed(seed, "dim2:cross")
    parts = _normal_draws([(cross_seed, i) for i in range(cross_trials)], (2, 2, 2, 2))
    a = _hermitian_stack(_gue(parts[:, 0]))
    b = _hermitian_stack(_gue(parts[:, 1]))
    cross = np.cross(_pauli_coords(a)[:, :3], _pauli_coords(b)[:, :3])
    coords = np.concatenate([cross, np.zeros((cross_trials, 1))], axis=1)
    recon = np.sqrt(2.0) * 1j * _hermitian_stack(_pauli_sum(coords))
    cross_worst = max_abs(a @ b - b @ a - recon)

    rot_trials = _count(1000, scale)
    rot_seed = _derived_seed(seed, "dim2:rot")
    rot_parts = _normal_draws([(rot_seed, i) for i in range(rot_trials)], (2, 2, 2))
    _, det_signs = _rotations(_haar(rot_parts))
    rot_ok = int((det_signs == 1).sum())

    passed = (
        all(r["passed"] for r in form_runs)
        and agreement_ok
        and cross_worst <= 1e-12
        and rot_ok == rot_trials
    )
    return {
        "passed": passed,
        "details": {
            "trials_per_form": trials,
            "forms": form_runs,
            "wrong_map_trials": agree_trials,
            "wrong_map_caught": int(caught.sum()),
            "wrong_map_skipped": int(skipped.sum()),
            "metric_agreement": agreement_ok,
            "cross_identity_worst": float(cross_worst),
            "rotation_trials": rot_trials,
            "rotation_det_plus_one": rot_ok,
        },
    }


# -- 9 ---------------------------------------------------------------------


def sampled_radius(a: np.ndarray, rng: np.random.Generator) -> float:
    """Sampling oracle for w(A): fixed-point ascent from 32 random unit
    vectors over 100 steps.

    Uses only matrix-vector products (no eigensolver), so it is independent
    of the level-set method it checks.  Each step takes every start v to
    (H_theta + b I) v / ||(H_theta + b I) v||, with theta = arg <Av, v> and
    b the start's best |<Av, v>| so far: a power step towards the top
    eigenvector of H_theta, which does not lower |<Av, v>| while
    H_theta + b I is positive semidefinite.  The best |<Av, v>| over all
    starts and steps is returned.
    """
    n = a.shape[0]
    adj = a.conj().T
    v = rng.standard_normal((n, 32)) + 1j * rng.standard_normal((n, 32))
    v /= np.linalg.norm(v, axis=0, keepdims=True)
    av = a @ v
    q = np.einsum("ij,ij->j", v.conj(), av)
    best = np.abs(q)
    for _ in range(100):
        phase = np.exp(-1j * np.angle(q))
        v = (phase * av + phase.conj() * (adj @ v)) / 2 + best * v
        v /= np.linalg.norm(v, axis=0, keepdims=True)
        av = a @ v
        q = np.einsum("ij,ij->j", v.conj(), av)
        best = np.maximum(best, np.abs(q))
    return float(best.max())


def crit_sweep_vs_sampling(seed: int, scale: float, workers: int) -> dict:
    """The level-set radius dominates the sampling oracle and agrees to 1e-3."""
    count = _count(100, scale)
    worst_gap = 0.0
    worst_onesided = 0.0
    for _, n, rng in _trials(seed, "sweep", count, (2, 3, 4, 5, 6)):
        a = _ginibre(rng.standard_normal((2, n, n)))
        swept = numerical_radius(a)
        sampled = sampled_radius(a, rng)
        worst_onesided = max(worst_onesided, sampled - swept)
        worst_gap = max(worst_gap, swept - sampled)
    return {
        "passed": worst_onesided <= 1e-9 and worst_gap <= 1e-3,
        "details": {
            "matrices": count,
            "worst_gap": float(worst_gap),
            "worst_onesided_excess": float(worst_onesided),
        },
    }


# -- 10 --------------------------------------------------------------------


def crit_determinism_probe(seed: int, scale: float, workers: int) -> dict:
    """Identical seeds reproduce identical serialized reports, including
    across worker counts.  Its 40 trials fit one engine block, so they never
    leave this process: ``tests/test_maps.py`` covers the process split in
    ``test_reports_byte_identical_across_worker_counts``."""
    forms = [("determinism", dict(sign=SIGN_HASH, shift=SHIFT_HASH))]
    trials = _count(40, scale)
    blobs = []
    for n_workers in (1, 1, max(2, min(workers, 4))):
        ((report,),) = _form_reports(
            seed, "determinism", forms, 3, (MODE_RADIUS,), trials, 1e-9, n_workers
        )
        blobs.append(
            json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))
        )
    return {
        "passed": blobs[0] == blobs[1] == blobs[2],
        "details": {"trials": trials, "report_bytes": len(blobs[0])},
    }


CRITERIA = (
    (1, "pauli-basis-fixtures", crit_pauli_fixtures),
    (2, "commutator-determinant-fixture", crit_determinant_fixture),
    (3, "rank1-projection-radius-identity", crit_rank1_radius_identity),
    (4, "affine-equivalence-oracle", crit_affine_equivalence_oracle),
    (5, "two-level-symmetry-dichotomy", crit_two_level_dichotomy),
    (6, "radius-preserver-forms", crit_radius_preserver_forms),
    (7, "range-preserver-forms", crit_range_preserver_forms),
    (8, "dim2-preserver-forms", crit_dim2_forms),
    (9, "sweep-vs-sampling-radius", crit_sweep_vs_sampling),
    (10, "determinism-probe", crit_determinism_probe),
)


def run_acceptance_suite(
    seed: int = DEFAULT_SEED, scale: float = 1.0, workers: int = 1
) -> dict:
    """Run the whole battery; the report is deterministic in (seed, scale).

    ``workers`` = N is an upper bound on the chunks of each engine call,
    which checks all its forms on one shared trial stream.  A call splits
    only when its estimated work pays for a spawn process pool, which it
    then opens and shuts down before it returns; at scale 1.0 or below no
    call does, so the run starts no process.  The first criterion that
    reads the scale refuses one that is not a finite number above 0.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    criteria = []
    for cid, name, fn in CRITERIA:
        out = fn(seed=seed, scale=scale, workers=workers)
        criteria.append({"id": cid, "name": name, **out})
    return {
        "seed": seed,
        "scale": scale,
        "criteria": criteria,
        "passed": all(c["passed"] for c in criteria),
    }
