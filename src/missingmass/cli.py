"""Command-line front end.

Subcommands: variance, maximize, sweep, landscape, simulate, gap.
Single-record commands print one flat JSON object (default) or a
two-line CSV; sweep and landscape write multi-row CSV files. All floats
are rendered with 17 significant digits, so emitted files re-parse to the
same doubles and re-emit byte-identically.

Exit codes: 0 success, 2 input error (or a result that is not finite,
which is never printed as NaN or Infinity), 4 output I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import struct
import sys
from typing import Iterable, Sequence

from . import extremal
from .sizes import INFINITE

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 4

#: --method and --mode values: the VarianceMethod member and the variance
#: kernel each selects, by name, so that only the commands that read a
#: distribution import ``variance`` and numpy with it.
_METHODS = {
    "exact": ("EXACT", "exact_variance"),
    "thm1": ("THM1", "approx_variance_thm1"),
    "poisson": ("POISSONIZED", "poissonized_variance"),
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


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """``num`` >= 2 evenly spaced floats from lo to hi, bit-identical to ``np.linspace``.

    numpy's own formula: i * step + lo with step = (hi - lo) / (num - 1),
    or i / (num - 1) * (hi - lo) + lo where the step underflows to 0, and
    the last point pinned to hi.
    """
    div = num - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:
        return [i / div * delta + lo for i in range(div)] + [hi]
    return [i * step + lo for i in range(div)] + [hi]


def _float_index(x: float) -> int:
    """The position of a float >= 0 among the floats: consecutive floats get consecutive integers."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _require_floats(lo: float, hi: float, num: int) -> None:
    """Raise ValueError unless [lo, hi], 0 <= lo < hi, holds ``num`` or more floats, room for ``num`` grid points."""
    if _float_index(hi) - _float_index(lo) < num - 1:
        raise ValueError(f"[{lo!r}, {hi!r}] holds fewer than {num} floats, so no {num}-point grid")


def _require_increasing(grid: list[float]) -> list[float]:
    """Return ``grid``, or raise ValueError where rounding repeated a point.

    A range that holds enough floats can still repeat one where it crosses
    a power of two, since the float spacing halves there.
    """
    for x, y in zip(grid, grid[1:]):
        if not x < y:
            raise ValueError(f"a {len(grid)}-point grid on [{grid[0]!r}, {grid[-1]!r}] repeats {y!r}")
    return grid


def _geomspace(lo: float, hi: float, num: int) -> list[float]:
    """``num`` >= 2 strictly increasing floats from lo > 0 to hi in geometric progression, both ends exact.

    numpy's formula for ``np.geomspace``: 10 to the powers of an even grid
    from log10(lo) to log10(hi), with the ends pinned to lo and hi. It
    differs from numpy only where numpy's log10 or power rounds other than
    the C library's (see the tests for the bound), and where a power rounds
    onto or past its neighbour or an end, which happens only when [lo, hi]
    holds few floats per step: point i is then moved to the nearest float
    above point i - 1 and at least num - 1 - i floats below hi. A range
    that holds fewer than ``num`` floats has no such grid and is a
    ValueError.
    """
    _require_floats(lo, hi, num)
    top = _float_index(hi)
    grid = [lo]
    for i, x in enumerate(_linspace(math.log10(lo), math.log10(hi), num)[1:-1], start=1):
        cap = struct.unpack("<d", struct.pack("<q", top - (num - 1 - i)))[0]
        grid.append(min(max(10.0**x, math.nextafter(grid[-1], math.inf)), cap))
    return grid + [hi]


def _parse_alphabet(raw: str) -> float:
    if raw.strip().lower() == "inf":
        return INFINITE
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'inf', got {raw!r}") from None


def _cmd_variance(args: argparse.Namespace) -> int:
    from . import dist, variance

    d = dist.from_file(args.dist)
    est = getattr(variance, _METHODS[args.method][1])(d, args.n)
    return _emit(("method", "n", "value"), [(est.method.value, args.n, est.value)], args.format, args.out)


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
    _require_floats(args.b_min, args.b_max, args.steps)
    grid = _geomspace if args.spacing == "geometric" else _linspace
    bs = _require_increasing(grid(args.b_min, args.b_max, args.steps))
    rows = [(b, extremal.solve_alpha(b).alpha) for b in bs]
    return _emit(("b", "val"), rows, "csv", args.out)


def _cmd_landscape(args: argparse.Namespace) -> int:
    if not 0.0 < args.c_max < math.inf:
        raise ValueError(f"c-max must be positive and finite, got {args.c_max}")
    if args.grid < 2:
        raise ValueError(f"grid must be at least 2, got {args.grid}")
    _require_floats(math.ulp(0.0), args.c_max, args.grid)  # the c points, from c-max / grid up
    cs = _require_increasing(_linspace(0.0, args.c_max, args.grid + 1))[1:]
    rows = [(w, c, extremal.objective_alpha(w, c)) for w in _linspace(0.0, 1.0, args.grid) for c in cs]
    return _emit(("w", "c", "val"), rows, "csv", args.out)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import dist, simulate

    d = dist.from_file(args.dist)
    est = simulate.estimate_variance(d, args.n, args.trials, args.seed, workers=args.workers)
    record = dataclasses.asdict(est)
    return _emit(record.keys(), [record.values()], args.format, args.out)


def _cmd_gap(args: argparse.Namespace) -> int:
    from . import concentration, dist, variance

    d = dist.from_file(args.dist)
    report = concentration.gap_report(d, args.n, variance.VarianceMethod[_METHODS[args.mode][0]])
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
    p.add_argument("--m", type=_parse_alphabet, default=INFINITE, help="alphabet size or 'inf'")
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
    p.add_argument("--workers", type=int, default=1, help="an integer >= 1; changes neither the result nor the work")
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
    except (ValueError, OSError) as exc:  # DistributionError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
