import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commrange.cli import main
from commrange.matcore import (
    MAX_DIM,
    TOLERANCES,
    is_hermitian,
    matrix_to_json,
    random_unitary,
    substream,
)
from commrange.pauli2 import PAULI_X
from commrange.structure import classify_two_level


@pytest.fixture
def matrix_file(tmp_path):
    def write(name, a):
        path = tmp_path / name
        path.write_text(
            json.dumps(matrix_to_json(np.asarray(a, dtype=complex))), encoding="utf-8"
        )
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
        lambda a: cr.range_boundary(a, 16),
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


def test_trial_counts_below_one_exit_usage(matrix_file, capsys):
    path = matrix_file("a.json", np.eye(2))
    assert main(["verify", "radius", "--trials", "0"]) == 2
    assert main(["equiv", path, path, "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["commrange: --trials must be at least 1"] * 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "radius", "--tol", "1e-3"],
        ["verify", "radius", "--tri", "5"],
        ["verify", "range", "--ss", "alld"],
        ["suite", "--sc", "0.02"],
    ],
)
def test_abbreviated_options_exit_usage_in_one_line(capsys, argv):
    # a prefix would otherwise mean whichever option the parser declares
    # that starts with it: --tol would read as --tol.radius
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


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


def test_seeds_outside_zero_to_two_to_the_64_are_refused(monkeypatch, capsys):
    # streams are keyed by the seed mod 2**64, so -5 and 2**64 - 5 would
    # draw the same data under two recorded seeds
    argv = ["verify", "radius", "--trials", "5"]
    for seed in (0, 2**64 - 1):
        assert main(argv + ["--seed", str(seed)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == seed
    for seed in (-1, 2**64):
        assert main(argv + ["--seed", str(seed)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"commrange: seed {seed} (--seed) is outside [0, 2**64)\n"
    monkeypatch.setenv("COMMRANGE_SEED", "-5")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "commrange: seed -5 (COMMRANGE_SEED) is outside [0, 2**64)\n"
    monkeypatch.setenv("COMMRANGE_SEED", "abc")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "commrange: COMMRANGE_SEED='abc' is not an integer\n"


def test_subcommands_that_draw_nothing_refuse_seed(matrix_file, capsys):
    # classify, boundary and pauli read no seed, so --seed is an unknown
    # flag there: exit 2 with one line on stderr, whatever its value
    path = matrix_file("d.json", np.diag([1.0, 2.0]))
    for command in ("classify", "boundary", "pauli"):
        assert main([command, path]) == 0
        capsys.readouterr()
        for seed in ("1", "-1"):
            assert main([command, path, "--seed", seed]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert "unrecognized arguments: --seed" in captured.err


def test_verify_reports_reproducible(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["verify", "range", "--trials", "60", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "diagonal, argv, certified",
    [
        ([1001.0, 1002.0, 1003.0], [], True),
        ([0.0, 1e-5, 1.0], [], True),
        ([1e-3, 2e-3, 3e-3], [], True),
        ([1e6, 2e6, 3e6], [], True),
        ([0.0, 1e-8, 1.0], ["--tol.gap", "1e-9"], False),
        ([0.0, 1e-8, 1.0], ["--tol.gap", "1e-9", "--tol.witness", "1e-9"], True),
    ],
)
def test_classify_reports_the_witness_defect(
    matrix_file, capsys, diagonal, argv, certified
):
    # the witness exists for three or more clusters at every scale and
    # shift; its defect is relative to d ||B||_2 and judged by --tol.witness
    path = matrix_file("a.json", np.diag(diagonal))
    assert main(["classify", path, *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["two_level"] is False
    witness = report["witness"]
    t_min, t_max = witness["interval"]
    b = np.array(witness["matrix"]["re"]) + 1j * np.array(witness["matrix"]["im"])
    scale = (max(diagonal) - min(diagonal)) * np.linalg.norm(b, 2)
    defect = witness["defect"]
    assert abs(defect - abs(t_min + t_max) / scale) <= 1e-9 * defect
    assert witness["certified"] is certified


def test_classify_takes_one_eigensolve(matrix_file, capsys, monkeypatch):
    # the classification, its certificate and the diameter all come from
    # one split; the report equals the public functions' results
    from commrange.structure import (
        asymmetry_witness,
        classify_two_level,
        symmetry_witness_unitary,
    )

    two_level = np.diag([2.0, 2.0, 5.0])
    for a in (np.diag([1001.0, 1002.0, 1003.0]), two_level):
        decomp = classify_two_level(a).to_json()
        unitary = symmetry_witness_unitary(a)
        witness = asymmetry_witness(a)
        calls = []
        eigh = np.linalg.eigh

        def counting(m, *args, **kwargs):
            calls.append(1)
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        assert main(["classify", matrix_file("a.json", a)]) == 0
        monkeypatch.undo()
        assert len(calls) == 1
        report = json.loads(capsys.readouterr().out)
        assert {k: report[k] for k in decomp} == json.loads(json.dumps(decomp))
        if witness is None:
            assert report["witness"] is None
            assert report["conjugation_unitary"] == matrix_to_json(unitary)
        else:
            assert report["conjugation_unitary"] is None
            assert report["witness"]["matrix"] == matrix_to_json(witness[0])
            assert report["witness"]["interval"] == list(witness[1])


@st.composite
def _scaled_shifted_hermitian(draw, dims=st.integers(1, MAX_DIM)):
    """c A + d I for a Hermitian A with spectrum in [-1, 1], repeated
    eigenvalues allowed, c in +/-10^[-300, 300] and finite |d| <= 1e300,
    of a dimension drawn from ``dims``."""
    n = draw(dims)
    levels = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=n))
    picks = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    u = random_unitary(n, substream(draw(st.integers(0, 2**32 - 1)), 0))
    a = (u * picks) @ u.conj().T
    a = (a + a.conj().T) / 2
    c = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-300.0, 300.0))
    return c * a + draw(st.floats(-1e300, 1e300)) * np.eye(n)


def _refuse_constant(name):
    raise ValueError(f"report holds {name}")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_scaled_shifted_hermitian())
def test_classify_exits_zero_with_one_eigensolve_at_every_scale(a):
    # valid input at any scale and shift gives a finite report and exit 0,
    # never a falsification (3) or an internal error (4)
    calls = []
    eigh = np.linalg.eigh

    def counting(m, *args, **kwargs):
        calls.append(1)
        return eigh(m, *args, **kwargs)

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.json"
        path.write_text(json.dumps(matrix_to_json(a)), encoding="utf-8")
        np.linalg.eigh = counting
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["classify", str(path)])
        finally:
            np.linalg.eigh = eigh
    assert (code, err.getvalue(), len(calls)) == (0, "", 1)
    report = json.loads(out.getvalue(), parse_constant=_refuse_constant)
    assert report["two_level"] == classify_two_level(a).two_level


@st.composite
def _matrix_file_case(draw, dims, general=False):
    """A matrix for a matrix file and whether the file is valid input: a
    matrix of ``_scaled_shifted_hermitian`` (plus i times a second one when
    ``general``), that matrix with one non-finite entry, or a matrix of
    dimension 0 or MAX_DIM + 1."""
    kind = draw(st.sampled_from(["valid", "valid", "non-finite", "bad-dim"]))
    if kind == "bad-dim":
        n = draw(st.sampled_from([0, MAX_DIM + 1]))
        return np.ones((n, n), dtype=complex), False
    a = draw(_scaled_shifted_hermitian(dims)).astype(complex)
    if general:
        a = a + 1j * draw(_scaled_shifted_hermitian(st.just(len(a))))
    if kind == "non-finite":
        i, j = draw(st.tuples(*[st.integers(0, len(a) - 1)] * 2))
        part = a.real if draw(st.booleans()) else a.imag
        part[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return a, kind == "valid"


def _run_on_matrix(argv, a):
    """Exit code, stdout and stderr of ``main(argv + [file])`` on a file
    holding ``a`` as matrix JSON; Python's json writes a non-finite entry as
    NaN or Infinity."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.json"
        text = json.dumps({"dim": len(a), "re": a.real.tolist(), "im": a.imag.tolist()})
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
    return code, out.getvalue(), err.getvalue()


def _assert_refused_in_one_line(code, out, err):
    # exit 2 is a usage error and exit 4 an internal one, each one line of
    # stderr; exit 3 (falsification) never occurs for these subcommands
    assert code in (2, 4), (code, err)
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert code == 2 or err.startswith("commrange: internal error: ")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    _matrix_file_case(st.sampled_from([1, 2, 2, 2, 3])),
    st.sampled_from([None, 0.5, 0.9, 1.1, 2.0]),
)
def test_pauli_exit_codes_on_any_input(case, asymmetry):
    # a 2x2 Hermitian matrix at any scale and shift exits 0 with a finite
    # report; any other input, a 2x2 matrix whose off-diagonal asymmetry is
    # a multiple of the symmetry threshold included, exits 2 in one line
    a, valid = case
    if asymmetry is not None and valid and a.shape == (2, 2):
        a[0, 1] += asymmetry * TOLERANCES["hermitian"] * max(1.0, np.abs(a).max())
    code, out, err = _run_on_matrix(["pauli"], a)
    if valid and a.shape == (2, 2) and is_hermitian(a):
        assert (code, err) == (0, "")
        report = json.loads(out, parse_constant=_refuse_constant)
        assert len(report["a"]) == 3 and np.isfinite([*report["a"], report["t"]]).all()
    else:
        _assert_refused_in_one_line(code, out, err)
        assert code == 2


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_matrix_file_case(st.integers(1, MAX_DIM), general=True), st.integers(8, 41))
def test_boundary_exit_codes_on_any_input(case, angles):
    # any square matrix with finite entries, at any scale and shift, exits 0
    # with one finite CSV row per angle, odd or even, or else exits 4 in one
    # line if a boundary point leaves the float range; any other input exits
    # 2 in one line
    a, valid = case
    code, out, err = _run_on_matrix(["boundary", "--angles", str(angles)], a)
    if valid and code == 0:
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "theta,re,im" and len(lines) == angles + 1
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert np.isfinite(rows).all()
    else:
        _assert_refused_in_one_line(code, out, err)
        assert (code == 2) != valid


# Each option `verify` once declared on all three forms, with valid values,
# and the forms that read it; on any other form it is refused.
_ALL_FORMS = ("radius", "range", "dim2")
_VERIFY_OPTIONS = {
    "--dim": (st.integers(2, 4), ("radius", "range")),
    "--workers": (st.sampled_from([0, 1, 2]), _ALL_FORMS),
    "--dagger": (st.sampled_from(["id", "transpose"]), _ALL_FORMS),
    "--psi": (st.none(), ("dim2",)),
    "--sign": (st.sampled_from(["plus", "hash"]), ("radius", "dim2")),
    "--shift": (st.sampled_from(["zero", "traceless", "hash"]), _ALL_FORMS),
    "--sset": (st.sampled_from(["empty", "alld", "random"]), ("range",)),
    "--tol.radius": (st.floats(1e-15, 1.0), ("radius",)),
    "--tol.range": (st.floats(1e-15, 1.0), ("range",)),
    "--tol.spectrum": (st.floats(1e-15, 1.0), ("dim2",)),
    "--seed": (st.integers(0, 2**64 - 1), _ALL_FORMS),
    "--out": (st.just("report.json"), _ALL_FORMS),
}


@st.composite
def _verify_case(draw):
    """A form and a subset of the options, in drawn order, each with a
    valid value (None for the --psi switch); half the cases draw only
    options the form reads."""
    form = draw(st.sampled_from(_ALL_FORMS))
    names = sorted(_VERIFY_OPTIONS)
    if draw(st.booleans()):
        names = [name for name in names if form in _VERIFY_OPTIONS[name][1]]
    names = draw(st.lists(st.sampled_from(names), unique=True))
    return form, {name: draw(_VERIFY_OPTIONS[name][0]) for name in names}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_verify_case(), st.integers(1, 3))
@example(("range", {"--sign": "hash"}), 3)
@example(("radius", {"--sset": "alld"}), 3)
@example(("range", {"--psi": None}), 3)
@example(("dim2", {"--dim": 2}), 3)
def test_verify_exit_codes_and_the_rules_a_report_records(case, trials):
    # an option the form does not read exits 2 with one stderr line and no
    # report, as do dim 2 on radius and range and --workers 0; any other
    # run exits 0 or 1 with a finite report that records only applied rules
    form, options = case
    foreign = [name for name in options if form not in _VERIFY_OPTIONS[name][1]]
    refused = foreign or options.get("--workers") == 0 or (
        form != "dim2" and options.get("--dim") == 2
    )
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["verify", form, "--trials", str(trials)]
        for name, value in options.items():
            if name == "--out":
                value = str(Path(tmp) / value)
            argv += [name] if value is None else [name, str(value)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if refused:
            assert (code, out.getvalue(), err.getvalue().count("\n")) == (2, "", 1)
            if foreign:
                assert "unrecognized arguments: " + foreign[0] in err.getvalue()
            return
        assert code in (0, 1) and err.getvalue() == ""
        if "--out" in options:
            assert out.getvalue() == ""
            text = (Path(tmp) / options["--out"]).read_text(encoding="utf-8")
        else:
            text = out.getvalue()
    report = json.loads(text, parse_constant=_refuse_constant)
    assert (report["form"], report["trials"], code) == (form, trials, 1 - report["passed"])
    sets = {"empty": "empty", "alld": "all-two-level", "random": "random"}
    assert report["map"]["sign"]["rule"] == options.get("--sign", "plus")
    assert report["map"]["sset"]["rule"] == sets[options.get("--sset", "empty")]
    assert report["map"]["psi"] is ("--psi" in options)


def test_classify_reports_the_band_above_the_gap_threshold(matrix_file, capsys):
    # a middle eigenvalue just above the cluster threshold gives a defect
    # of about 0.3 g relative to d ||B||_2, under --tol.witness: reported
    # uncertified with its small margin, never as a falsification
    path = matrix_file("a.json", np.diag([0.0, 2e-6, 1.0]))
    assert main(["classify", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["two_level"] is False
    assert abs(report["margin"] - 1e-6) <= 1e-12
    assert report["witness"]["certified"] is False
    assert 5e-7 < report["witness"]["defect"] < 1e-6


def test_classify_falsification_exit_code(matrix_file, monkeypatch, capsys):
    # a WitnessSearchError is an internal falsification event (exit 3)
    import commrange.cli as cli_mod
    import commrange.structure as structure_mod
    from commrange.structure import WitnessSearchError

    def boom(*args, **kwargs):
        raise WitnessSearchError("forced for exit-code test")

    monkeypatch.setattr(cli_mod, "_certificate", boom)
    path = matrix_file("a.json", np.diag([1.0, 2.0, 3.0]))
    assert main(["classify", path]) == 3
    monkeypatch.undo()
    # the one source of the error: a two-cluster split whose spectral
    # projection fails its idempotency check, forced here
    monkeypatch.setattr(structure_mod, "max_abs", lambda m: 1.0)
    path = matrix_file("p.json", np.diag([1.0, 1.0, 0.0]))
    capsys.readouterr()
    assert main(["classify", path]) == 3
    assert "idempotency" in capsys.readouterr().err


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


def test_equiv_near_the_float_limit_is_related(matrix_file, capsys):
    # the rank-1 radii run on A/||A||_max, so 1e308 * J overflows nowhere
    path = matrix_file("big.json", 1e308 * np.ones((2, 2)))
    assert main(["equiv", path, path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "related"
    assert np.isfinite(report["worst_gap"])


def test_equiv_at_subnormal_scale_is_finite(matrix_file, capsys):
    # A/||A||_max divides each part by the real scale; a complex division
    # would multiply by 1/||A||_max = inf and fill the report with NaN
    a = 1e-310 * np.array([[1.0, 2.0], [2.0, -1.0]])
    path_a = matrix_file("a.json", a)
    path_b = matrix_file("b.json", a + 3e-310 * np.eye(2))
    assert main(["equiv", path_a, path_b]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "related"
    assert np.isfinite(report["beta"]) and np.isfinite(report["worst_gap"])


# ``suite --scale``: small valid scales (a subnormal among them), then
# values the scale check refuses, and text that is no number.
_SUITE_SCALES = st.one_of(
    st.floats(1e-300, 0.03).map(repr),
    st.sampled_from(["1e-320", "0", "-0.0", "-0.01", "nan", "inf", "-inf", "x"]),
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    _SUITE_SCALES,
    st.sampled_from([0, 1, 2]),
    st.sampled_from([0, 1, 2**63, 2**64 - 1, 2**64, -1]),
)
@example("0.02", 2, 2026)
@example("nan", 1, 0)
@example("0.01", 0, 0)
@example("0.01", 1, 2**64)
def test_suite_exit_codes_on_any_scale_workers_and_seed(scale, workers, seed):
    # a scale that is not a finite number above 0, --workers 0 and a seed
    # outside [0, 2**64) exit 2 with one stderr line and no report; any
    # other run exits 0 or 1, as its report's verdict says, with a finite
    # report and nothing on stderr
    refused = (
        not 0.0 < float(scale if scale != "x" else "nan") < np.inf
        or workers == 0
        or not 0 <= seed < 2**64
    )
    argv = ["suite", "--scale", scale, "--workers", str(workers), "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if refused:
        assert (code, out.getvalue(), err.getvalue().count("\n")) == (2, "", 1)
        return
    assert code in (0, 1) and err.getvalue() == ""
    report = json.loads(out.getvalue(), parse_constant=_refuse_constant)
    assert code == 1 - report["passed"]
    assert {c["id"] for c in report["criteria"]} == set(range(1, 11))


def test_suite_smoke(tmp_path):
    out = tmp_path / "suite.json"
    code = main(
        ["suite", "--scale", "0.01", "--seed", "9", "--out", str(out)]
    )
    report = json.loads(out.read_text())
    assert {c["id"] for c in report["criteria"]} == set(range(1, 11))
    assert code == 0
    assert report["passed"] is True


def test_tolerance_table_pinned_and_read_by_every_default(matrix_file, capsys):
    # one literal table holds every library threshold; each default of the
    # CLI, of check_preservation and of the two-level functions is its entry
    import inspect
    import re
    from pathlib import Path

    from commrange import structure
    from commrange.cli import _build_parser
    from commrange.maps import MapConfigError, MapSpec, check_preservation
    from commrange.matcore import TOLERANCES

    assert TOLERANCES == {
        "hermitian": 1e-12,
        "unitary": 1e-10,
        "rank": 1e-9,
        "unit_norm": 1e-12,
        "symmetry": 1e-8,
        "newton_step": 1e-8,
        "unimodular": 1e-6,
        "level_rise": 1e-13,
        "gap": 1e-6,
        "idempotency": 1e-9,
        "witness": 1e-6,
        "equiv_residual": 1e-8,
        "equiv_gap": 1e-6,
        "radius": 1e-9,
        "range": 1e-9,
        "spectrum": 1e-10,
    }
    args = _build_parser().parse_args(["classify", "a.json"])
    assert (args.tol_gap, args.tol_witness) == (TOLERANCES["gap"], TOLERANCES["witness"])
    forms = {"radius": ("radius", 3), "range": ("range", 3), "dim2": ("spectrum", 2)}
    for form, (mode, n) in forms.items():
        assert main(["verify", form, "--trials", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["tolerance"] == TOLERANCES[mode]
        m = MapSpec(dim=n, unitary=np.eye(n))
        assert check_preservation(m, mode, 3, n, 1).tolerance == TOLERANCES[mode]
    for name in ("bogus", "gap"):
        with pytest.raises(MapConfigError, match="unknown mode"):
            check_preservation(MapSpec(dim=3, unitary=np.eye(3)), name, 3, 3, 1)
    for fn in (
        structure.classify_two_level,
        structure.independence_vector,
        structure.asymmetry_witness,
        structure.symmetry_witness_unitary,
    ):
        assert inspect.signature(fn).parameters["gap_tol"].default == TOLERANCES["gap"]
    old_names = re.compile(r"_TOL\b|DEFAULT_TOLERANCES")
    src = Path(structure.__file__).parent
    assert [p.name for p in src.glob("*.py") if old_names.search(p.read_text())] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "radius", "--trials", "5", "--tol.radius", "inf"],
        ["verify", "radius", "--trials", "5", "--tol.radius", "1e400"],
        ["verify", "range", "--trials", "5", "--tol.range", "nan"],
        ["classify", "DIAG123", "--tol.gap", "inf"],
        ["classify", "DIAG123", "--tol.witness", "nan"],
        ["suite", "--scale", "inf"],
        ["suite", "--scale", "nan"],
        ["suite", "--scale", "1e400"],
        ["suite", "--scale", "0"],
    ],
)
def test_non_finite_numbers_exit_usage_in_one_line(matrix_file, capsys, argv):
    # a tolerance or scale must be finite and above 0: an infinite --tol.gap
    # would certify diag(1, 2, 3) as two-level, an infinite --scale would
    # overflow a trial count; each is refused while parsing
    path = matrix_file("d.json", np.diag([1.0, 2.0, 3.0]))
    argv = [path if arg == "DIAG123" else arg for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"invalid positive_float value: '{argv[-1]}'" in captured.err
    assert "Traceback" not in captured.err
