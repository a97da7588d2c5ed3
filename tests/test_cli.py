import json

import numpy as np
import pytest

from commrange.cli import main
from commrange.matcore import save_matrix
from commrange.pauli2 import PAULI_X


@pytest.fixture
def matrix_file(tmp_path):
    def write(name, a):
        path = tmp_path / name
        save_matrix(path, np.asarray(a, dtype=complex))
        return str(path)

    return write


def test_pauli_command(matrix_file, capsys):
    path = matrix_file("x.json", PAULI_X)
    assert main(["pauli", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["a"], [1.0, 0.0, 0.0], atol=1e-12)
    assert out["t"] == 0.0


def test_pauli_rejects_wrong_dim(matrix_file, capsys):
    path = matrix_file("m3.json", np.eye(3))
    assert main(["pauli", path]) == 2


def test_classify_three_point(matrix_file, tmp_path):
    path = matrix_file("a.json", np.diag([1.0, 2.0, 3.0]))
    out = tmp_path / "report.json"
    assert main(["classify", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["two_level"] is False
    t_min, t_max = report["witness"]["interval"]
    assert abs(t_min + t_max) > 1e-6
    assert report["conjugation_unitary"] is None


def test_classify_scalar(matrix_file, capsys):
    path = matrix_file("s.json", np.diag([5.0, 5.0, 5.0]))
    assert main(["classify", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["two_level"] is True
    assert report["coeff"] == 0.0
    assert abs(report["shift"] - 5.0) < 1e-12
    # a scalar matrix has no spectral gap, so no margin
    assert report["margin"] is None


def test_classify_projection_unitary_convention(matrix_file, capsys):
    path = matrix_file("p.json", np.diag([1.0, 1.0, 0.0]))
    assert main(["classify", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["two_level"] is True
    u = np.array(report["conjugation_unitary"]["re"])
    assert np.allclose(np.diag(u), [1.0, 1.0, -1.0], atol=1e-12)


def test_classify_parse_failure(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["classify", str(missing)]) == 2


def test_boundary_segment(matrix_file, tmp_path):
    a = np.sqrt(2) * 1j * (1 / np.sqrt(2)) * np.diag([1.0, -1.0])
    path = matrix_file("z.json", a)
    out = tmp_path / "b.csv"
    assert main(["boundary", path, "--angles", "64", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,re,im"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows.shape == (64, 3)
    assert np.abs(rows[:, 1]).max() < 1e-9
    assert abs(np.abs(rows[:, 2]).max() - 1.0) < 1e-9


def test_boundary_zero_matrix(matrix_file, capsys):
    path = matrix_file("zero.json", np.zeros((2, 2)))
    assert main(["boundary", path, "--angles", "8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.abs(rows[:, 1:]).max() == 0.0


def test_boundary_angle_validation(matrix_file):
    path = matrix_file("m.json", np.eye(2))
    assert main(["boundary", path, "--angles", "4"]) == 2


def test_equiv_shifted(matrix_file, capsys):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    a = (a + a.T) / 2
    path_a = matrix_file("a.json", a)
    path_b = matrix_file("b.json", a - 7.0 * np.eye(3))
    assert main(["equiv", path_a, path_b, "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "related"
    assert report["alpha"] == 1
    assert abs(report["beta"] + 7.0) < 1e-9


def test_verify_radius_transpose_passes(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        [
            "verify",
            "radius",
            "--dagger",
            "transpose",
            "--dim",
            "4",
            "--trials",
            "150",
            "--seed",
            "11",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["max_violation"] <= 1e-9


def test_verify_range_transpose_fails(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        [
            "verify",
            "range",
            "--dagger",
            "transpose",
            "--dim",
            "3",
            "--trials",
            "500",
            "--seed",
            "11",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["first_counterexample"] is not None


def test_verify_dim2_mirror_passes(capsys):
    assert main(["verify", "dim2", "--psi", "--trials", "100", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "spectrum"
    assert report["map"]["psi"] is True


def test_verify_flag_validation():
    assert main(["verify", "range", "--psi", "--trials", "5"]) == 2
    assert main(["verify", "dim2", "--dim", "3", "--trials", "5"]) == 2
    assert main(["verify", "radius", "--dim", "2", "--trials", "5"]) == 2
    assert main(["verify", "radius", "--sset", "alld", "--trials", "5"]) == 2
    assert main(["verify", "bogus"]) == 2
    assert main(["nosuchcommand"]) == 2


def test_every_route_refuses_dimension_above_max(tmp_path, capsys):
    # as_matrix holds the one dimension limit, so every public route that
    # takes a matrix refuses a 17 x 17 one, Hermitian or not
    import commrange as cr
    from commrange.maps import MapSpec, apply_map

    big = [np.eye(17, dtype=complex), np.triu(np.ones((17, 17)))]
    x = np.eye(17)[0]
    rng = cr.substream(1, 0)
    routes = (
        cr.hermitian, cr.hermitian_eigen, cr.skew_hermitian_eigenvalues,
        cr.rank_numeric, cr.matrix_to_json, cr.numerical_radius,
        cr.classify_two_level, cr.independence_vector, cr.asymmetry_witness,
        cr.symmetry_witness_unitary, cr.to_pauli, cr.psi, cr.unitary_to_rotation,
        lambda a: cr.commutator(a, a), lambda a: cr.commutator_spectrum(a, a),
        lambda a: cr.commutator_interval(a, a), lambda a: cr.support_value(a, 0.0),
        lambda a: cr.rank1_commutator_radius(a, x),
        lambda a: cr.range_boundary(a, 16), lambda a: cr.affine_sign_match(a, a),
        lambda a: cr.radius_equivalence_check(a, a, 5, rng),
        lambda a: MapSpec(dim=17, unitary=a),
        lambda a: apply_map(MapSpec(dim=2, unitary=np.eye(2)), a),
        lambda a: cr.matrix_from_json(
            {"dim": 17, "re": a.real.tolist(), "im": a.imag.tolist()}
        ),
    )
    for a in big:
        for route in routes:
            with pytest.raises(cr.MatrixError):
                route(a)
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps({"dim": 17, "re": a.real.tolist(), "im": a.imag.tolist()})
        )
        for argv in (
            ["classify", str(path)],
            ["boundary", str(path)],
            ["equiv", str(path), str(path)],
            ["pauli", str(path)],
            ["verify", "radius", "--dim", "17", "--trials", "5"],
        ):
            assert main(argv) == 2
    assert capsys.readouterr().err.count("exceeds supported maximum 16") == 8


def test_worker_counts_below_one_exit_usage(capsys):
    assert main(["verify", "radius", "--trials", "5", "--workers", "0"]) == 2
    assert main(["suite", "--scale", "0.01", "--workers", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.count("workers must be at least 1") == 2


def test_tolerance_overrides(matrix_file, tmp_path):
    out1 = tmp_path / "a.json"
    args = ["verify", "radius", "--trials", "40", "--seed", "2", "--out", str(out1)]
    assert main(args + ["--tol.radius", "1e-6"]) == 0
    assert json.loads(out1.read_text())["tolerance"] == 1e-6
    assert main(args + ["--tol.radius=1e-7"]) == 0
    assert json.loads(out1.read_text())["tolerance"] == 1e-7
    assert main(args + ["--tol.bogus", "1e-6"]) == 2
    assert main(args + ["--tol.radius", "zero"]) == 2
    assert main(args + ["--tol.radius"]) == 2


def test_tolerance_options_belong_to_their_subcommand(matrix_file, capsys):
    assert main(["suite", "--scale", "0.01", "--tol.radius", "1e-3"]) == 2
    assert main(["verify", "radius", "--trials", "5", "--tol.range", "1e-3"]) == 2
    assert main(["verify", "dim2", "--trials", "5", "--tol.radius", "1e-3"]) == 2
    path = matrix_file("a.json", np.diag([1.0, 1.1, 3.0]))
    assert main(["classify", path, "--tol.radius", "1e-3"]) == 2
    capsys.readouterr()
    assert main(["classify", path]) == 0
    assert json.loads(capsys.readouterr().out)["two_level"] is False
    assert main(["classify", path, "--tol.gap", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["two_level"] is True
    assert main(["classify", path, "--tol.gap", "-0.5"]) == 2


def test_format_option_removed(matrix_file):
    # boundary writes CSV and every other report is JSON; nothing to select
    assert main(["verify", "dim2", "--trials", "5", "--format", "csv"]) == 2
    path = matrix_file("m.json", np.eye(2))
    assert main(["boundary", path, "--format", "csv"]) == 2


def test_seed_env_fallback(tmp_path, monkeypatch):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    monkeypatch.setenv("COMMRANGE_SEED", "77")
    assert main(["verify", "radius", "--trials", "30", "--out", str(out1)]) == 0
    monkeypatch.delenv("COMMRANGE_SEED")
    assert main(
        ["verify", "radius", "--trials", "30", "--seed", "77", "--out", str(out2)]
    ) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_reports_reproducible(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["verify", "range", "--trials", "60", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_classify_falsification_exit_code(matrix_file, monkeypatch):
    # a witness-search failure is an internal falsification event (exit 3)
    import commrange.cli as cli_mod
    from commrange.structure import WitnessSearchError

    def boom(*args, **kwargs):
        raise WitnessSearchError("forced for exit-code test")

    monkeypatch.setattr(cli_mod, "asymmetry_witness", boom)
    path = matrix_file("a.json", np.diag([1.0, 2.0, 3.0]))
    assert main(["classify", path]) == 3


def test_internal_error_exit_code(monkeypatch, capsys):
    # a crash outside the known error set is exit 4, never a verdict (exit 1)
    import commrange.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("forced for exit-code test")

    monkeypatch.setattr(cli_mod, "check_preservation", boom)
    assert main(["verify", "radius", "--trials", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("commrange: internal error: ")
    assert "forced for exit-code test" in err


# These run as the command line does, without warnings as errors, so the
# overflow of 1e308 * J reaches the report writer, which must refuse it.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["classify", "pauli"])
def test_non_finite_report_exits_internal(matrix_file, capsys, command):
    path = matrix_file("big.json", 1e308 * np.ones((2, 2)))
    assert main([command, path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "commrange: internal error: report holds NaN or an infinity\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_boundary_non_finite_point_exits_internal(matrix_file, capsys):
    # <A v, v> = 2e308 at theta = 0 is out of the float range
    path = matrix_file("big.json", 1e308 * np.ones((2, 2)))
    assert main(["boundary", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("commrange: internal error: ")


def test_suite_smoke(tmp_path):
    out = tmp_path / "suite.json"
    code = main(
        ["suite", "--scale", "0.01", "--seed", "9", "--out", str(out)]
    )
    report = json.loads(out.read_text())
    assert {c["id"] for c in report["criteria"]} == set(range(1, 11))
    assert code == 0
    assert report["passed"] is True
