"""Acceptance battery: every criterion at full scale and stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and
enforces the criterion's runtime budget.
"""

import time

from commrange.cli import main
from commrange.suite import (
    crit_affine_equivalence_oracle,
    crit_determinant_fixture,
    crit_determinism_probe,
    crit_dim2_forms,
    crit_pauli_fixtures,
    crit_radius_preserver_forms,
    crit_range_preserver_forms,
    crit_rank1_radius_identity,
    crit_sweep_vs_sampling,
    crit_two_level_dichotomy,
)

SEED = 2026


def _run(cid, name, fn, budget_s, workers=1):
    start = time.time()
    out = fn(seed=SEED, scale=1.0, workers=workers)
    elapsed = time.time() - start
    status = "PASS" if out["passed"] else "FAIL"
    print(f"ACCEPTANCE {cid:2d} {name}: {status} ({elapsed:.1f}s)")
    assert out["passed"], out["details"]
    assert elapsed < budget_s, f"budget {budget_s}s exceeded: {elapsed:.1f}s"
    return out


def test_criterion_01_pauli_fixtures():
    out = _run(1, "pauli-basis-fixtures", crit_pauli_fixtures, 1.0)
    assert out["details"]["gram_deviation"] <= 1e-12
    assert out["details"]["product_deviation"] <= 1e-12
    assert out["details"]["interval_deviation"] <= 1e-12


def test_criterion_02_determinant_fixture():
    out = _run(2, "commutator-determinant-fixture", crit_determinant_fixture, 1.0)
    assert out["details"]["det_deviation"] <= 1e-10
    assert out["details"]["rank"] == 3


def test_criterion_03_rank1_radius_identity():
    out = _run(3, "rank1-projection-radius-identity", crit_rank1_radius_identity, 10.0)
    assert out["details"]["trials"] == 1000
    assert out["details"]["max_gap"] <= 1e-9


def test_criterion_04_affine_equivalence_oracle(hermitian_calls):
    out = _run(4, "affine-equivalence-oracle", crit_affine_equivalence_oracle, 60.0)
    d = out["details"]
    assert d["related_recovered"] == d["related_total"] == 500
    assert d["perturbed_rejected"] == d["perturbed_total"] == 500
    assert d["related_worst_beta_error"] <= 1e-9
    assert d["related_worst_consistency_gap"] <= 1e-9
    # each of the 1000 pairs is validated once, by radius_equivalence_check
    assert len(hermitian_calls) == 2000


def test_criterion_05_two_level_dichotomy():
    out = _run(5, "two-level-symmetry-dichotomy", crit_two_level_dichotomy, 120.0)
    d = out["details"]
    assert d["two_level_total"] + d["witness_total"] == 500
    assert d["two_level_symmetric"] == d["two_level_total"]
    assert d["witness_found"] == d["witness_total"]
    assert d["worst_conjugation_residual"] <= 1e-10
    assert d["smallest_witness_defect"] > 1e-6


def test_criterion_06_radius_preserver_forms():
    out = _run(6, "radius-preserver-forms", crit_radius_preserver_forms, 300.0)
    d = out["details"]
    assert d["configs"] == 36  # 12 (dagger x sign x shift) per dim in {3,4,6}
    assert d["trials_per_config"] == 1000
    assert d["max_violation"] <= 1e-9


def test_criterion_07_range_preserver_forms():
    out = _run(7, "range-preserver-forms", crit_range_preserver_forms, 120.0)
    d = out["details"]
    assert len(d["identity_runs"]) == 6  # epsilon x exceptional-set presets
    assert d["identity_max_violation"] <= 1e-9
    assert d["transpose_counterexample_index"] is not None
    assert d["transpose_counterexample_index"] < 1000


def test_criterion_08_dim2_forms():
    out = _run(8, "dim2-preserver-forms", crit_dim2_forms, 120.0)
    d = out["details"]
    assert len(d["forms"]) == 4
    assert d["trials_per_form"] == 2000
    for form in d["forms"]:
        assert max(form["violations"].values()) <= 1e-10
        assert form["mode_spread"] <= 1e-12
    assert d["metric_agreement"] is True
    assert d["cross_identity_worst"] <= 1e-12
    assert d["rotation_det_plus_one"] == d["rotation_trials"] == 1000


def test_criterion_08_wrong_map_check_every_seed():
    # at scale 0.02 (4 wrong-map trials) some draws have a zero base
    # commutator (a commuting pair, or a scalar two-level draw); those are
    # skipped, every other trial is caught
    for seed in range(100, 130):
        out = crit_dim2_forms(seed=seed, scale=0.02, workers=1)
        d = out["details"]
        assert out["passed"], (seed, d)
        assert d["wrong_map_caught"] + d["wrong_map_skipped"] == d["wrong_map_trials"]


def test_criterion_09_sweep_vs_sampling():
    out = _run(9, "sweep-vs-sampling-radius", crit_sweep_vs_sampling, 60.0)
    d = out["details"]
    assert d["matrices"] == 100
    assert d["worst_onesided_excess"] <= 1e-9  # sweep dominates samples
    assert d["worst_gap"] <= 1e-3


def test_criterion_10_suite_determinism(tmp_path):
    start = time.time()
    out = _run(10, "determinism-probe", crit_determinism_probe, 60.0)

    # full command-level check: same seed -> byte-identical reports.  At
    # scale 0.05 every run fits one engine block, so --workers 3 starts no
    # process; test_maps.py::test_reports_byte_identical_across_worker_counts
    # covers the process pool
    paths = [tmp_path / f"suite{i}.json" for i in range(3)]
    codes = [
        main(["suite", "--scale", "0.05", "--seed", "4242", "--out", str(paths[0])]),
        main(["suite", "--scale", "0.05", "--seed", "4242", "--out", str(paths[1])]),
        main(
            [
                "suite",
                "--scale",
                "0.05",
                "--seed",
                "4242",
                "--workers",
                "3",
                "--out",
                str(paths[2]),
            ]
        ),
    ]
    elapsed = time.time() - start
    blobs = [p.read_bytes() for p in paths]
    identical = blobs[0] == blobs[1] == blobs[2] and codes == [0, 0, 0]
    status = "PASS" if identical else "FAIL"
    print(f"ACCEPTANCE 10 suite-byte-identity: {status} ({elapsed:.1f}s)")
    assert codes == [0, 0, 0]
    assert blobs[0] == blobs[1], "same-seed reruns differ"
    assert blobs[0] == blobs[2], "worker count changed the report"
