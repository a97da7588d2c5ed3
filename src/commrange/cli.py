"""Command-line batch harness.

Subcommands
-----------
verify    run preservation trials for a preserver form (radius / range /
          dim2 with flag-selected variants); exit 1 on a counterexample
classify  two-level classification of a Hermitian matrix plus the matching
          constructive witness
boundary  export numerical-range boundary samples as CSV
equiv     rank-1-projection radius equivalence verdict for a matrix pair
pauli     scaled-Pauli coordinates of a 2x2 Hermitian matrix
suite     the full acceptance battery

All randomness is seeded (--seed, or the COMMRANGE_SEED environment
variable); identical invocations produce byte-identical reports.  Each
option is declared on the subcommands that read it; tolerance overrides
are --tol.radius, --tol.range and --tol.spectrum on verify and --tol.gap
and --tol.witness on classify.  Exit
codes: 0 pass, 1 property violated, 2 usage or parse error, 3 internal
falsification event, 4 internal error (a crash or a non-finite value in
a report, never a verdict).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

import numpy as np

from .matcore import (
    DEFAULT_SEED,
    MAX_DIM,
    MatrixError,
    load_matrix,
    matrix_to_json,
    random_unitary,
    substream,
)
from .nrange import range_boundary
from .structure import (
    GAP_TOL,
    WITNESS_ASYMMETRY_TOL,
    WitnessSearchError,
    asymmetry_witness,
    classify_two_level,
    radius_equivalence_check,
    symmetry_witness_unitary,
)
from .pauli2 import to_pauli
from .maps import (
    DAGGER_IDENTITY,
    DAGGER_TRANSPOSE,
    MODE_RADIUS,
    MODE_RANGE,
    MODE_SPECTRUM,
    MODES,
    UNITARY_STREAM,
    MapConfigError,
    MapSpec,
    check_preservation,
)
from .suite import run_acceptance_suite

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_FALSIFICATION = 3
EXIT_INTERNAL = 4

_DAGGER_FLAGS = {"id": DAGGER_IDENTITY, "transpose": DAGGER_TRANSPOSE}
_SSET_FLAGS = {"empty": "empty", "alld": "all-two-level", "random": "random"}


class UsageError(Exception):
    """Raised for invalid flag combinations or malformed inputs."""


class NonFiniteReport(Exception):
    """Raised when a report holds NaN or an infinity, which is an internal
    error and never a verdict (and not valid JSON)."""


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj) -> str:
    try:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        raise NonFiniteReport("report holds NaN or an infinity") from None
    return text + "\n"


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("COMMRANGE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"COMMRANGE_SEED={env!r} is not an integer")
    return DEFAULT_SEED


def positive_float(text: str) -> float:
    """argparse type: a float above 0 (argparse reports the ValueError)."""
    value = float(text)
    if not value > 0:
        raise ValueError(text)
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commrange",
        description="numerical ranges, radii and commutator preserver checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None, help="rng seed (64-bit)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_verify = sub.add_parser(
        "verify", help="run preservation trials for a preserver form"
    )
    p_verify.add_argument(
        "form",
        choices=("radius", "range", "dim2"),
        help="radius/range preserver forms (dim >= 3) or the dim-2 forms",
    )
    p_verify.add_argument("--dim", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.add_argument("--dagger", choices=sorted(_DAGGER_FLAGS), default="id")
    p_verify.add_argument(
        "--psi", action="store_true", help="include the dim-2 mirror map"
    )
    p_verify.add_argument("--sign", choices=("plus", "hash"), default="plus")
    p_verify.add_argument(
        "--shift", choices=("zero", "traceless", "hash"), default="zero"
    )
    p_verify.add_argument("--sset", choices=sorted(_SSET_FLAGS), default="empty")
    # An unset mode tolerance stays None and selects the mode's default.
    for mode in MODES:
        p_verify.add_argument(f"--tol.{mode}", dest=f"tol_{mode}", type=positive_float)
    add_common(p_verify)

    p_classify = sub.add_parser(
        "classify", help="two-level classification with witness"
    )
    p_classify.add_argument("matrix_file")
    for name, default in (("gap", GAP_TOL), ("witness", WITNESS_ASYMMETRY_TOL)):
        p_classify.add_argument(
            f"--tol.{name}", dest=f"tol_{name}", type=positive_float, default=default
        )
    add_common(p_classify)

    p_boundary = sub.add_parser(
        "boundary", help="numerical range boundary samples as CSV"
    )
    p_boundary.add_argument("matrix_file")
    p_boundary.add_argument("--angles", type=int, default=360)
    add_common(p_boundary)

    p_equiv = sub.add_parser(
        "equiv", help="rank-1 projection radius equivalence of two matrices"
    )
    p_equiv.add_argument("matrix_file_a")
    p_equiv.add_argument("matrix_file_b")
    p_equiv.add_argument("--trials", type=int, default=200)
    add_common(p_equiv)

    p_pauli = sub.add_parser("pauli", help="scaled-Pauli coordinates (dim 2)")
    p_pauli.add_argument("matrix_file")
    add_common(p_pauli)

    p_suite = sub.add_parser("suite", help="run the acceptance battery")
    p_suite.add_argument("--scale", type=float, default=1.0)
    p_suite.add_argument("--workers", type=int, default=1)
    add_common(p_suite)

    return parser


def _cmd_verify(args) -> int:
    if args.form == "dim2":
        dim = 2 if args.dim is None else args.dim
        if dim != 2:
            raise UsageError("the dim2 forms are defined at dimension 2 only")
        mode = MODE_SPECTRUM
    else:
        dim = 3 if args.dim is None else args.dim
        if dim < 3:
            raise UsageError(f"form {args.form!r} requires dimension >= 3")
        if args.psi:
            raise UsageError("--psi applies to the dim2 form only")
        mode = MODE_RADIUS if args.form == "radius" else MODE_RANGE
    if not 2 <= dim <= MAX_DIM:
        raise UsageError(f"dimension must be between 2 and {MAX_DIM}")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")

    seed = _resolve_seed(args.seed)
    unitary = random_unitary(dim, substream(seed, UNITARY_STREAM))
    kwargs = dict(
        dim=dim,
        unitary=unitary,
        dagger=_DAGGER_FLAGS[args.dagger],
        psi=args.psi,
        sign=args.sign,
        sign_seed=seed + 1,
        shift=args.shift,
        shift_seed=seed + 2,
    )
    if mode == MODE_RANGE:
        kwargs.update(epsilon=1, sset=_SSET_FLAGS[args.sset], sset_seed=seed + 3)
    elif args.sset != "empty":
        raise UsageError("--sset applies to the range form only")
    for other in MODES:
        if other != mode and getattr(args, f"tol_{other}") is not None:
            raise UsageError(f"--tol.{other} does not apply to the {args.form} form")
    m = MapSpec(**kwargs)

    tol = getattr(args, f"tol_{mode}")
    report = check_preservation(
        m, mode, args.trials, dim, seed, tol=tol, workers=args.workers
    )
    payload = report.to_json()
    payload["form"] = args.form
    payload["map"] = m.to_json()
    _emit(_dump(payload), args.out)
    return EXIT_PASS if report.passed else EXIT_VIOLATION


def _cmd_classify(args) -> int:
    a = load_matrix(args.matrix_file)
    decomp = classify_two_level(a, args.tol_gap)
    payload = decomp.to_json()
    if decomp.two_level:
        payload["conjugation_unitary"] = matrix_to_json(
            symmetry_witness_unitary(a, args.tol_gap)
        )
        payload["witness"] = None
    else:
        witness, interval = asymmetry_witness(a, args.tol_witness)
        payload["conjugation_unitary"] = None
        payload["witness"] = {
            "matrix": matrix_to_json(witness),
            "interval": [interval.t_min, interval.t_max],
        }
    _emit(_dump(payload), args.out)
    return EXIT_PASS


def _cmd_boundary(args) -> int:
    if args.angles < 8:
        raise UsageError("--angles must be at least 8")
    a = load_matrix(args.matrix_file)
    boundary = range_boundary(a, args.angles)
    if not np.isfinite(boundary.points).all():
        raise NonFiniteReport("boundary point out of the float range")
    lines = ["theta,re,im"]
    for theta, point in zip(boundary.angles, boundary.points):
        lines.append(
            f"{float(theta)!r},{float(point.real)!r},{float(point.imag)!r}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS


def _cmd_equiv(args) -> int:
    a = load_matrix(args.matrix_file_a)
    b = load_matrix(args.matrix_file_b)
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    seed = _resolve_seed(args.seed)
    verdict = radius_equivalence_check(a, b, args.trials, substream(seed, 0))
    payload = verdict.to_json()
    payload["seed"] = seed
    _emit(_dump(payload), args.out)
    return EXIT_PASS


def _cmd_pauli(args) -> int:
    a = load_matrix(args.matrix_file)
    _emit(_dump(to_pauli(a).to_json()), args.out)
    return EXIT_PASS


def _cmd_suite(args) -> int:
    if args.scale <= 0:
        raise UsageError("--scale must be positive")
    seed = _resolve_seed(args.seed)
    report = run_acceptance_suite(seed=seed, scale=args.scale, workers=args.workers)
    _emit(_dump(report), args.out)
    return EXIT_PASS if report["passed"] else EXIT_VIOLATION


_COMMANDS = {
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "boundary": _cmd_boundary,
    "equiv": _cmd_equiv,
    "pauli": _cmd_pauli,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"commrange: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteReport as exc:
        print(f"commrange: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except WitnessSearchError as exc:
        print(f"commrange: falsification event: {exc}", file=sys.stderr)
        return EXIT_FALSIFICATION
    except (MatrixError, MapConfigError, ValueError, OSError) as exc:
        print(f"commrange: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"commrange: internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
