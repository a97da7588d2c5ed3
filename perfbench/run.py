"""commrange benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload verify-trials --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run that gives the per-layer
metrics and writes every span to ``perfbench/out/``.  Human-readable
lines (host, digests, every metric by name with its unit) come first;
the last line of standard output is the JSON result.  The exit status is
0 only when every operation's output checked correct.  See README.md in
this directory for the metric map.
"""

import os

# One BLAS thread in this process and in the spawn-pool workers, which
# inherit the environment.  Must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import multiprocessing
import platform
import statistics
import subprocess
import sys
import traceback
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
for _p in (str(BENCH_DIR), str(SRC)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

SETUP_PROBES = 5
# The untraced run measures at least this many rounds, so that a workload
# whose round is long (suite-battery, ~17 s) still reports a true median.
MIN_ROUNDS = 3
# Kernel runs per calibration point (see calib.py).
REF_REPEAT = 3


def _percentile_tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    xs = sorted(values)
    if len(xs) < 11:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def _host_line() -> str:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return (
        f"host nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas!r} "
        f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def _setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median over fresh processes of import plus input generation:
    (scaled to reference speed, raw)."""
    import calib

    probe = BENCH_DIR / "setup_probe.py"
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            cwd=ROOT,
            env=os.environ.copy(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        setup_s, ref_s = map(float, out.stdout.split())
        scaled.append(setup_s * calib.NOMINAL_S / ref_s)
        raw.append(setup_s)
    return statistics.median(scaled), statistics.median(raw)


class Run:
    """Ops, failures and problems collected over one benchmark run."""

    def __init__(self):
        self.rounds = []  # one list of ops per round; [] for a crashed round
        self.failed = 0
        self.attempted = 0
        self.problems = []

    def add_round(self, round_fn, inputs, r, tracer):
        try:
            ops = round_fn(inputs, r, tracer)
        except Exception:  # a crash is a failed operation, not an abort
            self.problems.append(traceback.format_exc())
            self.attempted += 1
            self.failed += 1
            self.rounds.append([])
            return []
        self.attempted += len(ops)
        for op in ops:
            if not op.ok:
                self.failed += 1
                self.problems.append(f"wrong output: {op.verdict}")
        self.rounds.append(ops)
        return ops


def _verdict_digest(ops) -> str:
    blob = json.dumps([list(op.verdict) for op in ops], default=str)
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


def _class_rates(rounds, speed) -> dict:
    """class -> median over rounds of (units / seconds) of its correct ops,
    each round's rate multiplied by its ``speed`` factor."""
    per_class = {}
    for ops, factor in zip(rounds, speed):
        sums = {}
        for op in ops:
            if op.ok:
                u, s = sums.get(op.cls, (0, 0.0))
                sums[op.cls] = (u + op.units, s + op.seconds)
        for cls, (u, s) in sums.items():
            per_class.setdefault(cls, []).append(u / s * factor)
    return {cls: statistics.median(v) for cls, v in per_class.items()}


def _geomean(values) -> float:
    values = list(values)
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def _end_to_end(workload, run, setup, refs) -> tuple[dict, list]:
    """(JSON metrics, printed lines) for the untraced run.  ``refs`` holds
    the reference kernel time before each round and after the last, or
    is empty for a workload that is not scaled."""
    import calib

    rates = _class_rates(run.rounds, [1.0] * len(run.rounds))
    ops = [op for ops in run.rounds for op in ops if op.ok]
    lines = [
        ("setup_s", setup[0], "s", "scaled to reference speed"),
        ("setup_s.raw", setup[1], "s", None),
        ("fail_ratio", run.failed / max(1, run.attempted), "ratio", f"n={run.attempted}"),
    ]
    if refs:
        speed = [(a + b) / 2 / calib.NOMINAL_S for a, b in zip(refs, refs[1:])]
        geomean = _geomean(_class_rates(run.rounds, speed).values())
        lines += [
            ("ops_per_s.geomean", geomean, "1/s", f"n={len(ops)}, scaled to reference speed"),
            ("ops_per_s.geomean.raw", _geomean(rates.values()), "1/s", f"n={len(ops)}"),
            ("ref_kernel_ms", statistics.median(refs) * 1e3, "ms", f"n={len(refs)}"),
        ]
    else:
        geomean = _geomean(rates.values())
        lines.append(("ops_per_s.geomean", geomean, "1/s", f"n={len(ops)}"))
    if workload == "verify-trials":
        for cls in ("n2", "n3", "n6", "n16"):
            count = sum(op.units for op in ops if op.cls == cls)
            lines.append((f"trials_per_s.{cls}", rates.get(cls, 0.0), "1/s", f"n={count}"))
    elif workload == "matrix-oracles":
        for cls in ("classify", "equiv", "radius", "boundary"):
            ms = [op.seconds * 1e3 for op in ops if op.cls == cls]
            if not ms:
                continue
            tail, pct = _percentile_tail(ms)
            lines.append((f"{cls}_ms.p50", statistics.median(ms), "ms", f"n={len(ms)}"))
            lines.append((f"{cls}_ms.tail", tail, "ms", f"n={len(ms)}, p{pct:.1f}"))
    else:
        walls = [op.seconds for op in ops]
        if walls:
            lines.append(("suite_wall_s", statistics.median(walls), "s", f"n={len(walls)}"))
    metrics = {
        "setup_s": {"value": setup[0], "unit": "s"},
        "ops_per_s.geomean": {"value": geomean, "unit": "1/s"},
    }
    return metrics, lines


def _per_layer(workload, wl, tr, run, wall_a, wall_b, residuals, extra) -> tuple[dict, list]:
    """(JSON metrics, printed lines) for the traced run."""
    roots = [sid for ops in run.rounds for op in ops for sid in op.spans]
    root_total = sum(tr.duration(i) for i in roots) or 1.0
    layer_self = tr.layer_self(roots)
    with_children = {p for p in tr.parents if p is not None}
    selfs = tr.self_times()
    covered = [i for i in roots if i in with_children]
    unattributed = (
        sum(selfs[i] for i in covered) / sum(tr.duration(i) for i in covered)
        if covered else 0.0
    )
    overhead = wall_b / wall_a if wall_a else 0.0
    residual = max(residuals, default=0.0)

    metrics = {
        f"{layer}.self_share": {"value": layer_self.get(layer, 0.0) / root_total, "unit": "ratio"}
        for layer in wl.LAYERS
    }
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    metrics["trace.unattributed_share"] = {"value": unattributed, "unit": "ratio"}
    metrics["matcore.eigen_residual.max"] = {"value": residual, "unit": "rel"}

    lines = [(name, m["value"], m["unit"], None) for name, m in metrics.items()]
    by_name = tr.by_name()
    for name in sorted(by_name):
        agg = by_name[name]
        layer, func, *tag = name.split(".")
        if layer == "bench" or name == "cli.main":
            continue
        if layer == "suite":
            lines.append((f"{name}.s", agg["total_s"] / agg["calls"], "s", f"n={agg['calls']}"))
            continue
        metric = ".".join([layer, func, "us", *tag])
        lines.append((metric, agg["total_s"] / agg["calls"] * 1e6, "us", f"n={agg['calls']}"))

    if workload == "verify-trials":
        ops = [op for ops in run.rounds for op in ops]
        for n in sorted({op.data[0].n for op in ops}):
            real = by_name[f"maps.check_preservation.n{n}"]
            trials = sum(op.units for op in ops if op.cls == f"n{n}")
            skew = by_name.get(f"matcore.skew_hermitian_eigenvalues.n{n}", {"total_s": 0.0})
            note = f"n={trials}"
            lines.append((f"maps.trial.us.n{n}", real["total_s"] / trials * 1e6, "us", note))
            reenacted = real["total_s"] - real["self_s"]
            lines.append((f"maps.trial.eigen_share.n{n}", skew["total_s"] / reenacted, "ratio", note))
            lines.append((f"maps.trial.unattributed_share.n{n}", real["self_s"] / real["total_s"], "ratio", note))
    if workload == "suite-battery":
        main = by_name["cli.main"]
        lines.append(("cli.overhead.s", main["self_s"] / main["calls"], "s", f"n={main['calls']}"))
        sizes = [op.data for ops in run.rounds for op in ops]
        lines.append(("cli.report.bytes", sizes[-1], "count", f"n={len(sizes)}"))
    for name, (value, unit, note) in extra.items():
        lines.append((name, value, unit, note))
    return metrics, lines


def _stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Pool workers are joined by their executor, but the resource tracker
    that the ``spawn`` start method launches lives until its pipe closes;
    left alone it outlives this process.  Closing the pipe stops it, and
    ``_stop`` waits for it."""
    for child in multiprocessing.active_children():
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "commrange" / "__init__.py").is_file():
        print(f"perfbench: no commrange sources under {SRC}", file=sys.stderr)
        return 2
    import calib
    import commrange
    import workloads as wl
    from spans import NullTracer, Tracer

    if Path(commrange.__file__).resolve().parent != (SRC / "commrange").resolve():
        print(f"perfbench: imported commrange from {commrange.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    build, round_fn, reenact, scaled = wl.WORKLOADS[args.workload]

    print(_host_line())
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    inputs = build(args.seed)
    print(f"input_digest {inputs['digest']}")

    run = Run()
    r = 0
    if not args.trace:
        setup = _setup_seconds(args.workload, args.seed)
        t0 = perf_counter()
        refs = [calib.reference_seconds(REF_REPEAT)] if scaled else []
        while True:
            run.add_round(round_fn, inputs, r, NullTracer())
            if scaled:
                refs.append(calib.reference_seconds(REF_REPEAT))
            r += 1
            if r >= MIN_ROUNDS and perf_counter() - t0 >= args.seconds:
                break
        first = run.rounds[0]
        metrics, lines = _end_to_end(args.workload, run, setup, refs)
    else:
        t0 = perf_counter()
        tr = Tracer()
        untraced = Run()
        residuals = []
        wall_a = wall_b = 0.0
        first = []
        while True:
            ta = perf_counter()
            ops_a = untraced.add_round(round_fn, inputs, r, NullTracer())
            wall_a += perf_counter() - ta
            tb = perf_counter()
            ops_b = run.add_round(round_fn, inputs, r, tr)
            wall_b += perf_counter() - tb
            first = first or ops_a
            if [op.verdict for op in ops_a] != [op.verdict for op in ops_b]:
                run.failed += 1
                run.problems.append(f"round {r}: traced and untraced verdicts differ")
            with tr.span("bench.reenact") as probe_root:
                try:
                    mismatches = reenact(inputs, ops_b, tr, probe_root, residuals)
                    run.problems += mismatches
                    run.failed += len(mismatches)
                except Exception:
                    run.problems.append(traceback.format_exc())
                    run.failed += 1
            r += 1
            if perf_counter() - t0 >= args.seconds:
                break
        run.attempted += untraced.attempted
        run.failed += untraced.failed
        run.problems += untraced.problems
        extra = {}
        if args.workload == "verify-trials":
            with tr.span("bench.pool") as probe_root:
                extra["maps.pool_overhead_ms"] = (
                    wl.pool_overhead_ms(inputs, tr, probe_root), "ms", "median of 3 pairs"
                )
        metrics, lines = _per_layer(
            args.workload, wl, tr, run, wall_a, wall_b, residuals, extra
        )
        wl.OUT_DIR.mkdir(exist_ok=True)
        trace_path = wl.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tr.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                             "metrics": {name: v for name, v, _, _ in lines}})
        print(f"trace_file {trace_path.relative_to(ROOT)}")

    print(f"verdict_digest {_verdict_digest(first)}")
    print(f"rounds {r}")
    for name, value, unit, note in lines:
        suffix = "" if note is None else f"  ({note})"
        print(f"metric {name} = {value!r} {unit}{suffix}")
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
