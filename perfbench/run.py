"""missingmass benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-pairwise --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from ``src/``
there, and CLI cases start ``python -m missingmass.cli`` against the same
tree. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric with its unit and sample count. A fuller record (and,
with ``--trace 1``, every span) is written under ``perfbench/out/``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` reports the per-layer metrics: for half of ``--seconds`` it
runs the workload's cycles untraced and traced in turn (the difference
is the tracing overhead), then one census - set-up, one cycle and checks
of every workload - from which the exact work counts and per-layer self
times come.
"""

from __future__ import annotations

import os

# At most nproc threads: BLAS and OpenMP pools stay at one thread, here and
# in every CLI process, which inherits this environment. Set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import envinfo  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
STARTUP_PROBES = 5
TAIL_BEYOND = 10  # the tail percentile is the highest with this many cases beyond it


def _import_library(root: Path):
    src = root / "src"
    if not (src / "missingmass" / "__init__.py").is_file():
        raise SystemExit(f"error: no src/missingmass under {root}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import missingmass

    if Path(missingmass.__file__).resolve().parent != (src / "missingmass").resolve():
        raise SystemExit(f"error: imported {missingmass.__file__}, not the checkout's src/")
    return missingmass


def _cold_setup(name: str, ctx: workloads.Context, i: int) -> float:
    """``setup_s`` of one fresh interpreter (see setup_probe.py)."""
    workdir = ctx.workdir.with_name(f"{ctx.workdir.name}-probe{i}")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), name, str(ctx.seed), str(workdir)],
        env=ctx.child_env, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return float(proc.stdout)


def _prepare(name: str, ctx: workloads.Context) -> list:
    """Build the workload's inputs in this process and warm up on its first kind."""
    kinds = workloads.SETUPS[name](ctx)
    kinds[0].run()
    return kinds


def _run_case(ctx, kind, case_id: str) -> tuple[float, object, str | None]:
    if ctx.tracer is not None:
        ctx.tracer.case = case_id
    t0 = time.perf_counter()
    try:
        with ctx.span("bench.case", kind=kind.label):
            result, error = kind.run(), None
    except Exception as exc:  # a failed case is counted, not fatal
        result, error = None, f"raised {exc!r}"
    return time.perf_counter() - t0, result, error


def _timed_loop(ctx, kinds, seconds: float, tracer=None, between=lambda busy: None) -> list[dict]:
    """Whole cycles of the workload's kinds until ``seconds`` of them have run.

    Returns [untraced, traced] loops. With a tracer, cycles run in blocks
    of four - untraced, traced, traced, untraced - so a steady drift in
    machine speed hits both alike. ``between(busy)`` runs before each
    cycle, with the seconds of cycles so far; its own time is not counted.
    """
    loops = [{"cases": [], "elapsed": 0.0, "cycles": 0} for _ in range(2)]
    period = 1 if tracer is None else 4
    busy = 0.0
    cycle = 0
    while cycle % period or busy < seconds:
        between(busy)
        traced = int(period == 4 and cycle % 4 in (1, 2))
        undo = spans.instrument(tracer, ctx.mm) if traced else []
        ctx.tracer = tracer if traced else None
        t0 = time.perf_counter()
        try:
            for i, kind in enumerate(kinds):
                loops[traced]["cases"].append((i, *_run_case(ctx, kind, f"loop:{cycle}.{i}")))
        finally:
            elapsed = time.perf_counter() - t0
            loops[traced]["elapsed"] += elapsed
            ctx.tracer = None
            spans.restore(undo)
        busy += elapsed
        loops[traced]["cycles"] += 1
        cycle += 1
    return loops


def _check(kinds, cases) -> list[str | None]:
    """After the timed loop: one reason per case, None when it passed."""
    reasons = []
    for i, _, result, error in cases:
        if error is None:
            try:
                error = kinds[i].check(result)
            except Exception as exc:  # a broken result must not stop the other checks
                error = f"check raised {exc!r}"
        reasons.append(error)
    return reasons


def _end_to_end(loop: dict, reasons: list) -> dict:
    times = sorted(t for _, t, _, _ in loop["cases"])
    n = len(times)
    tail_rank = max(n - TAIL_BEYOND - 1, 0)
    failed = sum(r is not None for r in reasons)
    return {
        "cases_per_s": (n / loop["elapsed"], n),
        "case_ms_p50": (statistics.median(times) * 1e3, n),
        "case_ms_tail": (times[tail_rank] * 1e3, n),
        "ok_frac": ((n - failed) / n, n),
        "_tail_percentile": 100.0 * (tail_rank + 1) / n,
        "_failed": failed,
    }


def _peak_rss_mb(workload: str, ctx) -> float:
    if workload == "cli-pipeline":
        return ctx.cli_peak_kib / 1024.0  # Linux reports KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, (value, samples) in metrics.items():
        print(f"  {name:42s} {value:16.6g} {units[name]:6s} samples={samples}")


def _failure_lines(kinds, cases, reasons) -> list[str]:
    seen = Counter()
    lines = []
    for (i, *_), reason in zip(cases, reasons):
        if reason is not None and seen[i] < 3:
            seen[i] += 1
            lines.append(f"{kinds[i].label}: {reason}")
    return lines


def run_untraced(name: str, ctx, seconds: float, units: dict) -> tuple[dict, dict]:
    kinds = _prepare(name, ctx)
    setup_times = []

    def probe_when_due(busy: float) -> None:
        # Spread over the run: the machine's speed drifts over seconds, and
        # probes run back to back would all catch the same moment of it.
        if len(setup_times) < SETUP_PROBES and busy >= len(setup_times) * seconds / SETUP_PROBES:
            setup_times.append(_cold_setup(name, ctx, len(setup_times)))

    loop = _timed_loop(ctx, kinds, seconds, between=probe_when_due)[0]
    while len(setup_times) < SETUP_PROBES:
        probe_when_due(seconds)
    peak = _peak_rss_mb(name, ctx)
    reasons = _check(kinds, loop["cases"])
    e2e = _end_to_end(loop, reasons)
    metrics = {
        "setup_s": (statistics.median(setup_times), SETUP_PROBES),
        "cases_per_s": e2e["cases_per_s"],
        "case_ms_p50": e2e["case_ms_p50"],
        "case_ms_tail": e2e["case_ms_tail"],
        "peak_rss_mb": (peak, 1),
        "ok_frac": e2e["ok_frac"],
    }
    print(f"workload {name}: {loop['cycles']} cycles of {len(kinds)} kinds in {loop['elapsed']:.2f} s")
    _print_metrics(metrics, units)
    print(f"  case_ms_tail is the p{e2e['_tail_percentile']:.1f} case; failed_frac = {e2e['_failed']}/{len(reasons)}")
    print(f"  setup_s = median of {[round(t, 4) for t in setup_times]} s, cold, one fresh interpreter each")
    record = {
        "setup_s": setup_times,
        "kinds": _kind_table(kinds, loop["cases"]),
        "tail_percentile": e2e["_tail_percentile"],
        "failures": _failure_lines(kinds, loop["cases"], reasons),
    }
    return {"metrics": metrics, "attempted": len(reasons), "failed": e2e["_failed"]}, record


def _kind_table(kinds, cases) -> list[dict]:
    times = [[] for _ in kinds]
    for i, t, _, _ in cases:
        times[i].append(t)
    return [
        {"label": k.label, "layer": k.layer, "cases": len(ts), "median_ms": statistics.median(ts) * 1e3, **k.props}
        for k, ts in zip(kinds, times)
    ]


def run_traced(name: str, ctx, seconds: float, units: dict, out_dir: Path) -> tuple[dict, dict]:
    kinds = _prepare(name, ctx)
    for kind in kinds:  # one untimed cycle: no first-use cost lands on the untraced side
        kind.run()
    tracer = spans.Tracer()
    tracer.phase = "loop"
    # Half the time, so that loop and census together take about --seconds.
    untraced, traced = _timed_loop(ctx, kinds, seconds / 2.0, tracer)
    loop_cases = untraced["cases"] + traced["cases"]

    undo = spans.instrument(tracer, ctx.mm)
    ctx.tracer = tracer
    try:
        tracer.phase, tracer.case = "loop-check", None
        reasons = _check(kinds, loop_cases)
        failed_layers = Counter(kinds[i].layer for (i, *_), r in zip(loop_cases, reasons) if r)
        census_cases, census_failed = _census(ctx, tracer, failed_layers)
    finally:
        ctx.tracer = None
        spans.restore(undo)

    plain = _end_to_end(untraced, reasons[: len(untraced["cases"])])
    with_spans = _end_to_end(traced, reasons[len(untraced["cases"]):])
    overhead = {
        "trace.overhead_ms_p50": with_spans["case_ms_p50"][0] - plain["case_ms_p50"][0],
        "trace.overhead_cases_per_s": with_spans["cases_per_s"][0] - plain["cases_per_s"][0],
    }
    metrics = layers.per_layer(tracer.spans, failed_layers, overhead)
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"error: per-layer metrics not measured: {sorted(missing)}")
    metrics = {k: metrics[k] for k in units}

    spans_path = out_dir / f"spans-{name}-s{ctx.seed}.json"
    tracer.write(spans_path)
    print(f"workload {name} traced: {untraced['cycles']} untraced and {traced['cycles']} traced cycles")
    _print_metrics(metrics, units)
    self_ms = layers.self_ms_by_layer(tracer.spans, phase="loop")
    print("  self time in the traced cycles, ms: " + ", ".join(f"{k} {v:.1f}" for k, v in sorted(self_ms.items())))
    print(f"  {len(tracer.spans)} spans written to {spans_path}")
    record = {
        "untraced": plain,
        "traced": with_spans,
        "loop_self_ms": self_ms,
        "kinds": _kind_table(kinds, traced["cases"]),
        "failures": _failure_lines(kinds, loop_cases, reasons),
    }
    failed = sum(r is not None for r in reasons) + census_failed
    return {"metrics": metrics, "attempted": len(loop_cases) + census_cases, "failed": failed}, record


def _census(ctx, tracer, failed_layers: Counter) -> tuple[int, int]:
    """Set-up, one cycle and checks of every workload, plus bare-import CLI probes.

    Returns (cases run, cases failed); failures are also added to ``failed_layers``.
    """
    attempted = failed = 0
    for wname, setup in workloads.SETUPS.items():
        tracer.phase, tracer.case = f"census:{wname}", None
        kinds = setup(ctx)
        cases = [(i, *_run_case(ctx, k, f"census:{wname}:{i}")) for i, k in enumerate(kinds)]
        tracer.case = None
        for (i, *_), reason in zip(cases, _check(kinds, cases)):
            if reason is not None:
                failed += 1
                failed_layers[kinds[i].layer] += 1
                print(f"  census failure {kinds[i].label}: {reason}", file=sys.stderr)
        attempted += len(cases)
    tracer.phase = "census:startup"
    for i in range(STARTUP_PROBES):
        tracer.case = f"census:startup:{i}"
        code, _, err = workloads.cli_process(ctx, "cli.startup", ["-c", "import missingmass"])
        attempted += 1
        if code != 0:
            failed += 1
            failed_layers["cli"] += 1
            print(f"  census failure startup: {err.strip()[-200:]}", file=sys.stderr)
    return attempted, failed


def main(argv=None) -> int:
    root = Path.cwd()
    bench_file = root / "BENCHMARK.json"
    if not bench_file.is_file():
        print("error: BENCHMARK.json not found; run from the root of a checkout", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in bench["workloads"]}

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(whys))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    mm = _import_library(root)
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    child_env = dict(os.environ, PYTHONPATH=str(root / "src"))
    ctx = workloads.Context(mm, args.seed, out_dir / f"files-{os.getpid()}", child_env)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}

    try:
        if args.trace:
            result, record = run_traced(args.workload, ctx, args.seconds, units, out_dir)
        else:
            result, record = run_untraced(args.workload, ctx, args.seconds, units)
    finally:
        for f in ctx.workdir.glob("*.txt"):
            f.unlink()
        if ctx.workdir.is_dir():
            ctx.workdir.rmdir()

    record.update(
        workload=args.workload,
        why=whys[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        environment=envinfo.collect(root, mm),
        tolerances=workloads.TOLERANCES,
        metrics={k: {"value": v, "unit": units[k], "samples": s} for k, (v, s) in result["metrics"].items()},
    )
    record_path = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(f"  record written to {record_path}")

    values = [v for v, _ in result["metrics"].values()]
    if not all(math.isfinite(v) for v in values):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
