"""The acceptance battery: fixed reference values and property checks.

Each criterion is a pure function of (seed, scale, workers) returning a
JSON-able result dict.  ``scale`` multiplies the trial counts (1.0 is the
full battery); reports contain no timing or host information, so a given
(seed, scale) always produces byte-identical output regardless of worker
count or execution order.  A suite run opens one process pool, which
every parallel ``check_preservation`` call in it shares.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .matcore import (
    DEFAULT_SEED,
    _commutator_spectrum,
    commutator,
    hermitian,
    max_abs,
    random_hermitian,
    random_unit_vector,
    random_unitary,
    rank_numeric,
    substream,
)
from .nrange import (
    commutator_interval,
    interval_symmetric,
    numerical_radius,
    rank1_commutator_radius,
)
from .structure import (
    asymmetry_witness,
    classify_two_level,
    radius_equivalence_check,
    symmetry_witness_unitary,
)
from .pauli2 import (
    PAULI_BASIS,
    cross_commutator,
    from_pauli,
    to_pauli,
    unitary_to_rotation,
)
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
    _random_two_level,
    check_preservation,
    metric_violation,
    sample_trial_pair,
    worker_pool,
)


def _derived_seed(seed: int, label: str) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(int(seed % (1 << 64)).to_bytes(8, "little"))
    h.update(label.encode("ascii"))
    return int.from_bytes(h.digest(), "little")


def _count(base: int, scale: float) -> int:
    return max(1, int(round(base * scale)))


def _seeded_spec(seed: int, label: str, n: int, **rules) -> MapSpec:
    """The map with ``rules`` whose Haar unitary is derived from ``label``
    and whose sign, shift and set seeds from ``label`` plus ":h", ":f" and
    ":s"; a seed its rules do not use is never read."""
    unitary_rng = substream(_derived_seed(seed, label), UNITARY_STREAM)
    return MapSpec(
        dim=n,
        unitary=random_unitary(n, unitary_rng),
        sign_seed=_derived_seed(seed, label + ":h"),
        shift_seed=_derived_seed(seed, label + ":f"),
        sset_seed=_derived_seed(seed, label + ":s"),
        **rules,
    )


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
    dims = (2, 3, 4, 5, 6)
    base = _derived_seed(seed, "rank1-radius")
    worst = 0.0
    for i in range(trials):
        rng = substream(base, i)
        n = dims[i % len(dims)]
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
    dims = (2, 3, 4, 5, 6)
    base = _derived_seed(seed, "equivalence")
    related_ok = 0
    beta_worst = 0.0
    gap_worst = 0.0
    for i in range(n_related):
        rng = substream(base, i)
        n = dims[i % len(dims)]
        a = random_hermitian(n, rng)
        alpha = 1 if i % 2 == 0 else -1
        beta = float(rng.uniform(-3.0, 3.0))
        b = hermitian(alpha * a + beta * np.eye(n))
        verdict = radius_equivalence_check(a, b, 200, rng)
        if (
            verdict.status == "related"
            and verdict.alpha == alpha
            and abs(verdict.beta - beta) <= 1e-9
            and verdict.worst_gap <= 1e-9
        ):
            related_ok += 1
        beta_worst = max(
            beta_worst,
            abs((verdict.beta if verdict.beta is not None else np.inf) - beta),
        )
        gap_worst = max(gap_worst, verdict.worst_gap)

    rejected_ok = 0
    for i in range(n_perturbed):
        rng = substream(base, 1_000_000 + i)
        n = dims[i % len(dims)]
        a = random_hermitian(n, rng)
        alpha = 1 if i % 2 == 0 else -1
        beta = float(rng.uniform(-3.0, 3.0))
        bump = float(rng.uniform(0.1, 1.0)) * (1.0 if rng.integers(2) else -1.0)
        x = random_unit_vector(n, rng)
        b = hermitian(alpha * a + beta * np.eye(n) + bump * np.outer(x, x.conj()))
        verdict = radius_equivalence_check(a, b, 200, rng)
        if verdict.status == "not-related":
            rejected_ok += 1
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


def crit_two_level_dichotomy(seed: int, scale: float, workers: int) -> dict:
    """Two-level matrices give symmetric intervals for every sampled B,
    certified by the conjugating unitary; all others yield an explicit
    asymmetry witness."""
    total = _count(500, scale)
    probes_per = _count(100, scale)
    dims = (3, 4, 5, 6)
    base = _derived_seed(seed, "dichotomy")
    sym_ok = 0
    sym_total = 0
    wit_ok = 0
    wit_total = 0
    worst_residual = 0.0
    worst_defect = np.inf
    for i in range(total):
        rng = substream(base, i)
        n = dims[i % len(dims)]
        if i % 2 == 0:
            sym_total += 1
            a = _random_two_level(n, rng)
            decomp = classify_two_level(a)
            if not decomp.two_level or asymmetry_witness(a) is not None:
                continue
            u = symmetry_witness_unitary(a)
            good = True
            for _ in range(probes_per):
                b = random_hermitian(n, rng)
                if not interval_symmetric(commutator_interval(a, b), 1e-8):
                    good = False
                    break
                comm = commutator(a, b)
                residual = max_abs(u @ comm @ u.conj().T + comm)
                worst_residual = max(worst_residual, residual)
                if residual > 1e-10:
                    good = False
                    break
            sym_ok += 1 if good else 0
        else:
            wit_total += 1
            a = random_hermitian(n, rng)
            for _ in range(10):
                if not classify_two_level(a).two_level:
                    break
                a = random_hermitian(n, rng)
            if classify_two_level(a).two_level:
                continue
            witness = asymmetry_witness(a)
            if witness is None:
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
    worst = 0.0
    for n in (3, 4, 6):
        for dagger in (DAGGER_IDENTITY, DAGGER_TRANSPOSE):
            for sign in (SIGN_PLUS, SIGN_HASH):
                for shift in (SHIFT_ZERO, SHIFT_TRACELESS, SHIFT_HASH):
                    label = f"radius:{n}:{dagger}:{sign}:{shift}"
                    m = _seeded_spec(
                        seed, label, n, dagger=dagger, sign=sign, shift=shift
                    )
                    report = check_preservation(
                        m,
                        MODE_RADIUS,
                        trials,
                        n,
                        _derived_seed(seed, label + ":trials"),
                        tol=1e-9,
                        workers=workers,
                    )
                    worst = max(worst, report.max_violation)
                    runs.append(
                        {
                            "dim": n,
                            "dagger": dagger,
                            "sign": sign,
                            "shift": shift,
                            "max_violation": report.max_violation,
                            "passed": report.passed,
                        }
                    )
    return {
        "passed": all(r["passed"] for r in runs),
        "details": {
            "trials_per_config": trials,
            "configs": len(runs),
            "max_violation": float(worst),
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
    runs = []
    worst = 0.0
    for epsilon in (1, -1):
        for sset in (SSET_EMPTY, SSET_ALL, SSET_RANDOM):
            label = f"range:{n}:{epsilon}:{sset}"
            m = _seeded_spec(
                seed, label, n, epsilon=epsilon, sset=sset, shift=SHIFT_HASH
            )
            report = check_preservation(
                m,
                MODE_RANGE,
                trials,
                n,
                _derived_seed(seed, label + ":trials"),
                tol=1e-9,
                workers=workers,
            )
            worst = max(worst, report.max_violation)
            runs.append(
                {
                    "epsilon": epsilon,
                    "sset": sset,
                    "max_violation": report.max_violation,
                    "passed": report.passed,
                }
            )

    label = "range-transpose"
    m_t = _seeded_spec(seed, label, n, dagger=DAGGER_TRANSPOSE, epsilon=1)
    refute = check_preservation(
        m_t,
        MODE_RANGE,
        trials,
        n,
        _derived_seed(seed, label + ":trials"),
        tol=1e-9,
        workers=workers,
    )
    return {
        "passed": all(r["passed"] for r in runs) and not refute.passed,
        "details": {
            "trials_per_config": trials,
            "identity_runs": runs,
            "identity_max_violation": float(worst),
            "transpose_counterexample_index": refute.first_violation_index,
            "transpose_max_violation": refute.max_violation,
        },
    }


# -- 8 ---------------------------------------------------------------------


def crit_dim2_forms(seed: int, scale: float, workers: int) -> dict:
    """All four dim-2 forms pass spectrum mode; the three metrics agree on
    a shared sample stream; cross-product commutator identity; rotation
    correspondence."""
    trials = _count(2000, scale)
    form_runs = []
    for dagger in (DAGGER_IDENTITY, DAGGER_TRANSPOSE):
        for mirror in (False, True):
            label = f"dim2:{dagger}:{mirror}"
            rules = dict(dagger=dagger, psi=mirror, sign=SIGN_HASH, shift=SHIFT_HASH)
            m = _seeded_spec(seed, label, 2, **rules)
            mode_violations = {}
            run_seed = _derived_seed(seed, label + ":trials")
            for mode, tol in (
                (MODE_SPECTRUM, 1e-10),
                (MODE_RANGE, 1e-10),
                (MODE_RADIUS, 1e-10),
            ):
                report = check_preservation(
                    m, mode, trials, 2, run_seed, tol=tol, workers=workers
                )
                mode_violations[mode] = report.max_violation
            vals = list(mode_violations.values())
            spread = max(vals) - min(vals)
            form_runs.append(
                {
                    "dagger": dagger,
                    "mirror": mirror,
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
    agreement_ok = True
    caught = 0
    skipped = 0
    for i in range(agree_trials):
        rng = substream(agree_seed, i)
        a, b = sample_trial_pair(2, rng, i)
        base = _commutator_spectrum(a, b)
        image = _commutator_spectrum(2.0 * a, 2.0 * b)
        violations = [metric_violation(base, image, mode) for mode in MODES]
        if max(violations) - min(violations) > 1e-12:
            agreement_ok = False
        if min(violations) > 1e-10:
            caught += 1
        elif np.abs(base).max() <= 1e-12 * np.linalg.norm(a, 2) * np.linalg.norm(b, 2):
            skipped += 1
        else:
            agreement_ok = False
    agreement_ok = agreement_ok and skipped < agree_trials

    cross_trials = _count(1000, scale)
    cross_seed = _derived_seed(seed, "dim2:cross")
    cross_worst = 0.0
    for i in range(cross_trials):
        rng = substream(cross_seed, i)
        a = random_hermitian(2, rng)
        b = random_hermitian(2, rng)
        recon = np.sqrt(2.0) * 1j * from_pauli(cross_commutator(to_pauli(a), to_pauli(b)))
        cross_worst = max(cross_worst, max_abs(commutator(a, b) - recon))

    rot_trials = _count(1000, scale)
    rot_seed = _derived_seed(seed, "dim2:rot")
    rot_ok = 0
    for i in range(rot_trials):
        u = random_unitary(2, substream(rot_seed, i))
        if unitary_to_rotation(u).det_sign == 1:
            rot_ok += 1

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
            "wrong_map_caught": caught,
            "wrong_map_skipped": skipped,
            "metric_agreement": agreement_ok,
            "cross_identity_worst": float(cross_worst),
            "rotation_trials": rot_trials,
            "rotation_det_plus_one": rot_ok,
        },
    }


# -- 9 ---------------------------------------------------------------------


def sampled_radius(
    a: np.ndarray,
    rng: np.random.Generator,
    starts: int = 32,
    steps: int = 400,
) -> float:
    """Sampling oracle for w(A): stochastic hill-climb over unit vectors.

    Uses only quadratic-form evaluations (no eigensolver), so it is
    independent of the support-function sweep it checks.  Proposals with a
    geometrically shrinking step are accepted per start when they increase
    |<Av, v>|; the best value over all starts is returned.
    """
    n = a.shape[0]
    v = rng.standard_normal((n, starts)) + 1j * rng.standard_normal((n, starts))
    v /= np.linalg.norm(v, axis=0, keepdims=True)
    best = np.abs(np.einsum("ij,ik,kj->j", v.conj(), a, v))
    step = 0.5
    for _ in range(steps):
        prop = v + step * (
            rng.standard_normal((n, starts)) + 1j * rng.standard_normal((n, starts))
        )
        prop /= np.linalg.norm(prop, axis=0, keepdims=True)
        vals = np.abs(np.einsum("ij,ik,kj->j", prop.conj(), a, prop))
        better = vals > best
        v[:, better] = prop[:, better]
        best = np.maximum(best, vals)
        step *= 0.98
    return float(best.max())


def crit_sweep_vs_sampling(seed: int, scale: float, workers: int) -> dict:
    """The angle sweep dominates the sampling oracle and agrees to 1e-3."""
    count = _count(100, scale)
    dims = (2, 3, 4, 5, 6)
    base = _derived_seed(seed, "sweep")
    worst_gap = 0.0
    worst_onesided = 0.0
    for i in range(count):
        rng = substream(base, i)
        n = dims[i % len(dims)]
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
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
    across worker counts."""
    label = "determinism"
    m = _seeded_spec(seed, label, 3, sign=SIGN_HASH, shift=SHIFT_HASH)
    run_seed = _derived_seed(seed, label + ":trials")
    trials = _count(40, scale)
    blobs = []
    for n_workers in (1, 1, max(2, min(workers, 4))):
        report = check_preservation(
            m, MODE_RADIUS, trials, 3, run_seed, tol=1e-9, workers=n_workers
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

    Every parallel ``check_preservation`` call of the run shares one spawn
    process pool of at most ``os.cpu_count()`` processes, shut down when
    the run ends, also when a criterion raises.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    criteria = []
    with worker_pool(workers):
        for cid, name, fn in CRITERIA:
            out = fn(seed=seed, scale=scale, workers=workers)
            criteria.append({"id": cid, "name": name, **out})
    return {
        "seed": seed,
        "scale": scale,
        "criteria": criteria,
        "passed": all(c["passed"] for c in criteria),
    }
