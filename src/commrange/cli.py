"""Command-line batch harness.

Subcommands
-----------
verify    run preservation trials for a preserver form, named right after
          ``verify``; exit 1 on a counterexample
classify  two-level classification of a Hermitian matrix plus the matching
          constructive witness
boundary  export numerical-range boundary samples as CSV
equiv     rank-1-projection radius equivalence verdict for a matrix pair
pauli     scaled-Pauli coordinates of a 2x2 Hermitian matrix
suite     the full acceptance battery

All randomness is seeded (--seed on verify, equiv and suite, or else the
COMMRANGE_SEED environment variable, an integer in [0, 2**64)); identical
invocations produce byte-identical reports.  Each option is declared on
the subcommands, and on the verify forms, that read it.  Every verify form
takes --trials, --workers, --dagger, --shift, --seed and --out; then
radius takes --dim, --sign and --tol.radius, range --dim, --sset and
--tol.range, and dim2 (fixed at dimension 2) --psi, --sign and
--tol.spectrum.  classify takes --tol.gap and --tol.witness.  Each
tolerance is a finite number above 0 that defaults to the
``matcore.TOLERANCES`` entry of its name.  A classify witness reports its
"defect" |t_min + t_max| / (d ||B||_2), d the spectral diameter of A, and
"certified" (defect above --tol.witness); an uncertified witness, as a
middle cluster just above the --tol.gap threshold gives, still exits 0.
Exit codes: 0 pass, 1 property violated, 2 usage or parse error, 3 internal
falsification event (a spectral projection failing its idempotency
check), 4 internal error (a crash or a non-finite value in a report,
never a verdict).
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
    TOLERANCES,
    MatrixError,
    load_matrix,
    matrix_to_json,
    random_unitary,
    substream,
)
from .nrange import range_boundary
from .structure import WitnessSearchError, _certificate, radius_equivalence_check
from .pauli2 import to_pauli
from .maps import (
    DAGGER_IDENTITY,
    DAGGER_TRANSPOSE,
    MODE_RADIUS,
    MODE_RANGE,
    MODE_SPECTRUM,
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
    """--seed, else COMMRANGE_SEED, else ``DEFAULT_SEED``; a seed outside
    [0, 2**64) is refused, since streams are keyed by the seed mod 2**64."""
    source = "--seed"
    if value is None:
        env = os.environ.get("COMMRANGE_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"COMMRANGE_SEED={env!r} is not an integer")
        source = "COMMRANGE_SEED"
    if not 0 <= value < 1 << 64:
        raise UsageError(f"seed {value} ({source}) is outside [0, 2**64)")
    return value


def positive_float(text: str) -> float:
    """argparse type: a finite float above 0 (argparse reports the ValueError)."""
    value = float(text)
    if not (value > 0 and np.isfinite(value)):
        raise ValueError(text)
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser, its sub-parsers included, whose parse errors are
    one line of stderr and whose options must be spelled out in full."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="commrange",
        description="numerical ranges, radii and commutator preserver checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeded: bool):
        if seeded:  # the subcommands that draw random numbers
            p.add_argument(
                "--seed", type=int, help="rng seed, an integer in [0, 2**64)"
            )
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_verify = sub.add_parser(
        "verify", help="run preservation trials for a preserver form"
    )
    # One sub-parser per form, declaring only the options that form reads.
    forms = p_verify.add_subparsers(dest="form", required=True)
    for form, mode, text in (
        ("radius", MODE_RADIUS, "radius preserver forms, dim >= 3"),
        ("range", MODE_RANGE, "range preserver forms, dim >= 3"),
        ("dim2", MODE_SPECTRUM, "the dim-2 forms"),
    ):
        p = forms.add_parser(form, help=text)
        p.set_defaults(mode=mode)
        if form == "dim2":
            p.set_defaults(dim=2)
            p.add_argument("--psi", action="store_true", help="include the mirror map")
        else:
            p.add_argument("--dim", type=int, default=3)
        if form == "range":
            p.add_argument("--sset", choices=sorted(_SSET_FLAGS), default="empty")
        else:
            p.add_argument("--sign", choices=("plus", "hash"), default="plus")
        # An unset tolerance stays None and selects the mode's default.
        p.add_argument(f"--tol.{mode}", dest="tol", type=positive_float)
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--dagger", choices=sorted(_DAGGER_FLAGS), default="id")
        p.add_argument("--shift", choices=("zero", "traceless", "hash"), default="zero")
        add_common(p, seeded=True)

    p_classify = sub.add_parser(
        "classify", help="two-level classification with witness"
    )
    p_classify.add_argument("matrix_file")
    for name in ("gap", "witness"):
        p_classify.add_argument(
            f"--tol.{name}", dest=f"tol_{name}", type=positive_float,
            default=TOLERANCES[name],
        )
    add_common(p_classify, seeded=False)

    p_boundary = sub.add_parser(
        "boundary", help="numerical range boundary samples as CSV"
    )
    p_boundary.add_argument("matrix_file")
    p_boundary.add_argument("--angles", type=int, default=360)
    add_common(p_boundary, seeded=False)

    p_equiv = sub.add_parser(
        "equiv", help="rank-1 projection radius equivalence of two matrices"
    )
    p_equiv.add_argument("matrix_file_a")
    p_equiv.add_argument("matrix_file_b")
    p_equiv.add_argument("--trials", type=int, default=200)
    add_common(p_equiv, seeded=True)

    p_pauli = sub.add_parser("pauli", help="scaled-Pauli coordinates (dim 2)")
    p_pauli.add_argument("matrix_file")
    add_common(p_pauli, seeded=False)

    p_suite = sub.add_parser("suite", help="run the acceptance battery")
    p_suite.add_argument("--scale", type=positive_float, default=1.0)
    p_suite.add_argument("--workers", type=int, default=1)
    add_common(p_suite, seeded=True)

    return parser


def _cmd_verify(args) -> int:
    if args.mode != MODE_SPECTRUM and args.dim < 3:
        raise UsageError(f"form {args.form!r} requires dimension >= 3")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")

    seed = _resolve_seed(args.seed)
    if args.mode == MODE_RANGE:
        rules = dict(epsilon=1, sset=_SSET_FLAGS[args.sset], sset_seed=seed + 3)
    else:
        rules = dict(sign=args.sign, psi=args.form == "dim2" and args.psi)
    m = MapSpec(
        dim=args.dim,
        unitary=random_unitary(args.dim, substream(seed, UNITARY_STREAM)),
        dagger=_DAGGER_FLAGS[args.dagger],
        sign_seed=seed + 1,
        shift=args.shift,
        shift_seed=seed + 2,
        **rules,
    )
    report = check_preservation(
        m, args.mode, args.trials, args.dim, seed, args.tol, args.workers
    )
    payload = report.to_json()
    payload["form"] = args.form
    payload["map"] = m.to_json()
    _emit(_dump(payload), args.out)
    return EXIT_PASS if report.passed else EXIT_VIOLATION


def _cmd_classify(args) -> int:
    # One split gives the classification, its certificate and the diameter.
    c = _certificate(load_matrix(args.matrix_file), args.tol_gap)
    payload = c.decomposition.to_json()
    payload["conjugation_unitary"] = None
    payload["witness"] = None
    if c.unitary is not None:
        payload["conjugation_unitary"] = matrix_to_json(c.unitary)
    else:
        witness, interval = c.witness
        scale = c.diameter * np.linalg.norm(witness, 2)
        defect = abs(interval.t_min + interval.t_max) / scale
        payload["witness"] = {
            "matrix": matrix_to_json(witness),
            "interval": [interval.t_min, interval.t_max],
            "defect": defect,
            "certified": bool(defect > args.tol_witness),
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
