"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --save perfbench/baseline/<name>.json
    python3 perfbench/baseline.py --seeds 1-2 --trace 1
    python3 perfbench/baseline.py --compare first.json second.json

Each (workload, seed) is one ``run.py`` process measuring BENCHMARK.json's
``run_seconds``, run one after another from the root of the checkout. For
every end-to-end metric the table gives the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median against
the metric's bound in BENCHMARK.json; with ``--trace 1`` it lists the
per-layer metrics and checks that every count metric reads the same in
every run. ``--compare`` takes two untraced sets as ``--save`` writes them
and reports, per workload and end-to-end metric, how far the second
median is worse than the first, against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else 0.0, "runs": len(values)}


def compare(first: Path, second: Path, metrics: list[dict]) -> int:
    """Print how much worse each median of ``second`` is than that of ``first``."""
    sets = [json.loads(p.read_text(encoding="utf-8")) for p in (first, second)]
    if any(s["trace"] for s in sets):
        raise SystemExit("error: --compare takes untraced sets (saved with --trace 0)")
    a, b = (s["workloads"] for s in sets)
    worst = 0.0
    for name in a:
        print(f"\n{name}:")
        for metric in metrics:
            m1, m2 = (x[name]["summary"][metric["name"]]["median"] for x in (a, b))
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            verdict = "ok" if worse <= metric["bound"] else "WORSE"
            worst = max(worst, worse / metric["bound"])
            print(f"  {metric['name']:16s} {m1:12.6g} -> {m2:<12.6g} worse by {worse:+.4f}  bound {metric['bound']}  {verdict}")
    print(f"\nlargest change as a share of its bound: {worst:.3f}")
    return 0 if worst <= 1.0 else 1


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write runs and summaries as JSON")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"), help="compare two saved sets")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare, bench["end_to_end"])

    section = bench["per_layer" if args.trace else "end_to_end"]
    out = {"seeds": args.seeds, "seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = [_run(name, seed, bench["run_seconds"], args.trace) for seed in _seeds(args.seeds)]
        failed = sum(r["failed"] for r in runs)
        print(f"\n{name}: {len(runs)} runs, {sum(r['attempted'] for r in runs)} cases, {failed} failed, "
              f"correct in {sum(r['correct'] for r in runs)}/{len(runs)}")  # fmt: skip
        rows = {}
        for metric in section:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            rows[metric["name"]] = summary = summarise(values)
            if "bound" in metric:
                verdict = "ok" if summary["spread"] < metric["bound"] / 3 else "WIDE"
                note = f"bound {metric['bound']:<5} {verdict}"
            elif metric["unit"] in ("count", "bytes"):
                note = "repeats exactly" if len(set(values)) == 1 else f"VARIES {sorted(set(values))}"
            else:
                note = ""
            print(f"  {metric['name']:44s} {summary['median']:14.6g} {metric['unit']:6s} "
                  f"q1 {summary['q1']:<12.6g} q3 {summary['q3']:<12.6g} spread {summary['spread']:7.4f}  {note}")  # fmt: skip
        out["workloads"][name] = {"runs": runs, "summary": rows}
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(out, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
