"""Command-line front end.

Subcommands: variance, maximize, sweep, landscape, simulate, gap.
Single-record commands print one flat JSON object (default) or a
two-line CSV; sweep and landscape write multi-row CSV files. All floats
are rendered with 17 significant digits, so emitted files re-parse to the
same doubles and re-emit byte-identically.

Exit codes: 0 success, 2 input error (or a result that is not finite,
which is never printed as NaN or Infinity), 3 alphabet too large for
exact mode, 4 output I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Iterable, Sequence

import numpy as np

from . import dist, extremal, simulate
from .concentration import gap_report
from .variance import (
    AlphabetTooLargeError,
    VarianceMethod,
    approx_variance_thm1,
    exact_variance,
    poissonized_variance,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TOO_LARGE = 3
EXIT_IO = 4

_METHODS = {
    "exact": (VarianceMethod.EXACT, exact_variance),
    "thm1": (VarianceMethod.THM1, approx_variance_thm1),
    "poisson": (VarianceMethod.POISSONIZED, poissonized_variance),
}


def _fmt(x: object) -> str:
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"refusing to emit the non-finite value {x!r}")
        return format(x, ".17g")
    return str(x)


def _emit(header: Sequence[str], rows: Iterable[Sequence[object]], fmt: str, out: str | None) -> int:
    """Write ``rows`` under ``header`` as CSV, or one row as a flat JSON object."""
    if fmt == "json":
        (row,) = rows
        text = json.dumps(dict(zip(header, row)), allow_nan=False) + "\n"
    else:
        text = "".join(",".join(map(_fmt, line)) + "\n" for line in (header, *rows))
    if out is None or out == "-":
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _parse_alphabet(raw: str) -> float:
    if raw.strip().lower() == "inf":
        return dist.INFINITE
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'inf', got {raw!r}") from None


def _cmd_variance(args: argparse.Namespace) -> int:
    method, fn = _METHODS[args.method]
    d = dist.from_file(args.dist)
    est = fn(d, args.n)
    return _emit(("method", "n", "value"), [(method.value, args.n, est.value)], args.format, args.out)


def _cmd_maximize(args: argparse.Namespace) -> int:
    spec = extremal.worst_case_distribution(args.n, args.m)
    sol = spec.solution
    record = {
        "alpha": sol.alpha,
        "w": sol.w,
        "c": sol.c,
        "regime": sol.regime.value,
        "atom_count": spec.atom_count,
        "atom_mass": spec.atom_mass,
        "dirac_mass": spec.dirac_mass,
        "variance_estimate": sol.alpha / args.n,
    }
    return _emit(record.keys(), [record.values()], args.format, args.out)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not (0.0 < args.b_min < args.b_max < math.inf):
        raise ValueError(f"need 0 < b-min < b-max < inf, got {args.b_min}, {args.b_max}")
    if args.steps < 2:
        raise ValueError(f"need at least 2 steps, got {args.steps}")
    if args.spacing == "geometric":
        bs = np.geomspace(args.b_min, args.b_max, args.steps)
    else:
        bs = np.linspace(args.b_min, args.b_max, args.steps)
    rows = [(float(b), extremal.solve_alpha(float(b)).alpha) for b in bs]
    return _emit(("b", "val"), rows, "csv", args.out)


def _cmd_landscape(args: argparse.Namespace) -> int:
    if not 0.0 < args.c_max < math.inf:
        raise ValueError(f"c-max must be positive and finite, got {args.c_max}")
    if args.grid < 2:
        raise ValueError(f"grid must be at least 2, got {args.grid}")
    ws = np.linspace(0.0, 1.0, args.grid)
    cs = np.linspace(0.0, args.c_max, args.grid + 1)[1:]
    rows = [(w, c, extremal.objective_alpha(w, c)) for w in ws.tolist() for c in cs.tolist()]
    return _emit(("w", "c", "val"), rows, "csv", args.out)


def _cmd_simulate(args: argparse.Namespace) -> int:
    d = dist.from_file(args.dist)
    est = simulate.estimate_variance(d, args.n, args.trials, args.seed, workers=args.workers)
    record = dataclasses.asdict(est)
    return _emit(record.keys(), [record.values()], args.format, args.out)


def _cmd_gap(args: argparse.Namespace) -> int:
    d = dist.from_file(args.dist)
    report = gap_report(d, args.n, _METHODS[args.mode][0])
    record = {**dataclasses.asdict(report), "mode": report.mode.value}  # keeps the field order
    return _emit(record.keys(), [record.values()], args.format, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="missingmass", description="Missing-mass variance toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: bool = True) -> None:
        if formats:
            p.add_argument("--format", choices=("csv", "json"), default="json", help="record format")
        p.add_argument("--out", default=None, metavar="PATH", help="output path (default stdout)")

    p = sub.add_parser("variance", help="variance of the missing mass for a distribution file")
    p.add_argument("--dist", required=True, metavar="PATH", help="one probability per line")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--method", choices=tuple(_METHODS), default="exact")
    add_common(p)
    p.set_defaults(func=_cmd_variance)

    p = sub.add_parser("maximize", help="worst-case distribution and extremal constant")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--m", type=_parse_alphabet, default=dist.INFINITE, help="alphabet size or 'inf'")
    add_common(p)
    p.set_defaults(func=_cmd_maximize)

    p = sub.add_parser("sweep", help="extremal constant as a function of the alphabet ratio")
    p.add_argument("--b-min", type=float, required=True)
    p.add_argument("--b-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--spacing", choices=("linear", "geometric"), default="linear")
    add_common(p, formats=False)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("landscape", help="objective values on a (w, c) lattice")
    p.add_argument("--c-max", type=float, required=True)
    p.add_argument("--grid", type=int, default=100)
    add_common(p, formats=False)
    p.set_defaults(func=_cmd_landscape)

    p = sub.add_parser("simulate", help="Monte-Carlo estimate of the missing-mass variance")
    p.add_argument("--dist", required=True, metavar="PATH")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gap", help="concentration variance factors vs. the true variance")
    p.add_argument("--dist", required=True, metavar="PATH")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "poisson"), default="exact")
    add_common(p)
    p.set_defaults(func=_cmd_gap)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AlphabetTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (dist.DistributionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
