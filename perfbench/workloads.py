"""The four workloads: their case kinds, inputs and output checks.

A case is one user task. Each workload is a fixed cycle of case kinds,
the first of which also serves as the warm-up; the timed loop runs whole
cycles, so every run has the same mix of kinds. Every kind carries a ``check`` that compares one
case's result with a reference computed after the timed loop; the
tolerance of each check is stated where the check is made.
"""

from __future__ import annotations

import functools
import json
import math
import os
import select
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import refs

# Exact pairwise kernel against the E[M0^2] - E[M0]^2 reference: relative to
# E[M0^2] + E[M0]^2, the size of the terms that cancel.
RTOL_EXACT = 1e-10
# O(m) power sums against the plain-numpy or mpmath reference, relative to
# the sum of the absolute terms of each formula.
RTOL_SUMS = 1e-10
# Monte-Carlo mean and variance against E[M0] and exact_variance, in units
# of the estimate's own standard error.
MC_SIGMAS = 7.0
# CLI records against the same quantity computed in-process: the library is
# deterministic, so only formatting could differ, and 17 digits round-trip.
RTOL_CLI = 1e-12
# A CLI process still running after this long is killed, and its case fails.
CLI_TIMEOUT_S = 120

TOLERANCES = {
    "exact-pairwise": f"Var within {RTOL_EXACT:g} x (E[M0^2] + E[M0]^2) of mpmath (<= 8 distinct masses) or of "
    f"plain-numpy E[M0^2] - E[M0]^2; gap_report factors within {RTOL_SUMS:g} of their term sums",
    "large-alphabet": f"each power sum within {RTOL_SUMS:g} x the sum of its absolute terms, "
    "against mpmath (<= 8 distinct masses) or plain numpy",
    "monte-carlo": f"mean and variance within {MC_SIGMAS:g} standard errors of expected_missing_mass and "
    "exact_variance; workers=2 bit-identical to workers=1",
    "cli-pipeline": f"exit code 0, output parses, every number within {RTOL_CLI:g} relative of the in-process value",
}


@dataclass
class Context:
    mm: object  # the imported missingmass package
    seed: int
    workdir: Path  # scratch space for distribution files, inside the checkout
    child_env: dict  # environment of CLI processes
    tracer: object = None  # spans.Tracer in the traced phases, else None
    cli_peak_kib: int = 0  # largest peak RSS of a CLI process so far

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer is not None else nullcontext()


@dataclass
class Kind:
    label: str
    layer: str  # the layer a failed case of this kind is counted under
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the result is within tolerance
    props: dict = field(default_factory=dict)


SHAPES = {"zipf": gen.zipf, "near-uniform": gen.near_uniform, "dirichlet": gen.dirichlet}


def _first_error(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r is not None), None)


def _reference(p, n: int) -> dict:
    """Exact mpmath values for few distinct masses, else plain numpy."""
    prof = gen.profile(p)
    if prof is not None:
        return refs.mp_profile(*prof, n)
    out = refs.np_power_sums(p, n)
    if p.size <= 5000:  # the O(m^2) reference only where exact_variance is checked
        out.update(refs.np_moments(p, n))
    return out


def _check_gap(rep, ref: dict, mode, true_key: str, true_scale: str, rtol: float) -> str | None:
    return _first_error(
        None if rep.mode == mode else f"mode {rep.mode}",
        refs.mismatch(rep.true_variance, ref[true_key], ref[true_scale], rtol),
        refs.mismatch(rep.subgamma_v, ref["subgamma"], ref["subgamma"], RTOL_SUMS),
        refs.mismatch(rep.iid_major_v, ref["iid"], ref["iid_scale"], RTOL_SUMS),
        None if rep.gap_subgamma == rep.subgamma_v - rep.true_variance else "gap_subgamma != subgamma_v - true",
        None if rep.gap_iid == rep.iid_major_v - rep.true_variance else "gap_iid != iid_major_v - true",
    )


# --- exact-pairwise ---------------------------------------------------------

EXACT_KINDS = [  # (shape, m, n, call); sizes chosen so every kind costs about the same
    ("zipf", 1600, 1_000, "exact"),
    ("zipf", 1100, 100_000, "gap"),
    ("near-uniform", 1800, 100_000, "gap"),
    ("dirichlet", 1200, 100_000, "exact"),
    ("dirichlet", 1200, 100_000, "gap"),
    ("near-uniform", 2100, 1_000, "exact"),
    ("zipf", 1650, 1_000, "gap"),
]


def setup_exact(ctx: Context) -> list[Kind]:
    mm = ctx.mm
    kinds = []
    for i, (shape, m, n, call) in enumerate(EXACT_KINDS):
        d = mm.from_probs(SHAPES[shape](gen.rng_for(ctx.seed, f"exact-{i}"), m))
        ref = functools.cache(functools.partial(_reference, d.probs, n))
        props = {"shape": shape, "call": call, **gen.properties(d.probs, n)}
        if call == "exact":
            run = lambda d=d, n=n: mm.exact_variance(d, n)  # noqa: E731
            check = lambda r, ref=ref: refs.mismatch(  # noqa: E731
                r.value, ref()["variance"], ref()["variance_scale"], RTOL_EXACT
            )
            layer = "variance"
        else:
            run = lambda d=d, n=n: mm.gap_report(d, n, mm.VarianceMethod.EXACT)  # noqa: E731
            check = lambda r, ref=ref: _check_gap(  # noqa: E731
                r, ref(), mm.VarianceMethod.EXACT, "variance", "variance_scale", RTOL_EXACT
            )
            layer = "concentration"
        kinds.append(Kind(f"{shape}-m{m}-n{n}-{call}", layer, run, check, props))
    return kinds


# --- large-alphabet ---------------------------------------------------------

LARGE_KINDS = [  # (source, m, n), cheapest first; worst-case m is the alphabet bound
    ("uniform", 100_000, 1_000),
    ("worst-case", 100_000, 1_000_000),
    ("zipf", 100_000, 1_000),
    ("zipf", 100_000, 1_000_000),
    ("worst-case", math.inf, 1_000_000),
    ("uniform", 1_000_000, 1_000_000),
    ("zipf", 1_000_000, 1_000),
]


def _full_report(mm, raw, n: int) -> dict:
    d = mm.from_probs(raw)
    return {
        "thm1": mm.approx_variance_thm1(d, n).value,
        "poisson": mm.poissonized_variance(d, n).value,
        "expected": mm.expected_missing_mass(d, n),
        "subgamma": mm.subgamma_v(d, n),
        "iid": mm.iid_majorization_v(d, n),
        "gap": mm.gap_report(d, n, mm.VarianceMethod.POISSONIZED),
    }


def _check_report(r: dict, ref: dict, mode) -> str | None:
    return _first_error(
        refs.mismatch(r["thm1"], ref["thm1"], ref["thm1_scale"], RTOL_SUMS),
        refs.mismatch(r["poisson"], ref["poisson"], ref["poisson_scale"], RTOL_SUMS),
        refs.mismatch(r["expected"], ref["expected"], ref["expected"], RTOL_SUMS),
        refs.mismatch(r["subgamma"], ref["subgamma"], ref["subgamma"], RTOL_SUMS),
        refs.mismatch(r["iid"], ref["iid"], ref["iid_scale"], RTOL_SUMS),
        _check_gap(r["gap"], ref, mode, "poisson", "poisson_scale", RTOL_SUMS),
    )


def setup_large(ctx: Context) -> list[Kind]:
    mm = ctx.mm
    kinds = []
    for i, (source, m, n) in enumerate(LARGE_KINDS):
        if source == "zipf":
            raw = gen.zipf(gen.rng_for(ctx.seed, f"large-{i}"), m)
        elif source == "uniform":
            raw = mm.uniform(m).probs
        else:
            with ctx.span("extremal.worst_case", n=n):
                raw = mm.worst_case_distribution(n, m).to_distribution().probs
        ref = functools.cache(functools.partial(_reference, raw, n))
        kinds.append(
            Kind(
                f"{source}-m{raw.size}-n{n}",
                "concentration",
                lambda raw=raw, n=n: _full_report(mm, raw, n),
                lambda r, ref=ref: _check_report(r, ref(), mm.VarianceMethod.POISSONIZED),
                {"shape": source, **gen.properties(raw, n)},
            )
        )
    return kinds


# --- monte-carlo ------------------------------------------------------------

MC_KINDS = [  # (source, n, trials); each runs at workers = 1 and 2
    ("worst-case", 100, 4000),
    ("worst-case", 1000, 500),
    ("zipf", 1000, 400),  # m = 2000
]
MC_ZIPF_M = 2000


def _check_mc(est, ref: dict, trials: int) -> str | None:
    same = ref["workers1"]
    return _first_error(
        None if est.trials == trials else f"trials {est.trials}",
        None if est == same else "differs from the workers=1 result",
        refs.mismatch(est.mean, ref["expected"], MC_SIGMAS * est.se_mean, 1.0),
        refs.mismatch(est.variance, ref["variance"], MC_SIGMAS * est.se_variance, 1.0),
    )


def setup_mc(ctx: Context) -> list[Kind]:
    mm = ctx.mm
    seeds = gen.rng_for(ctx.seed, "mc-seeds").integers(0, 2**32, size=len(MC_KINDS))
    kinds = []
    for i, (source, n, trials) in enumerate(MC_KINDS):
        if source == "zipf":
            d = mm.from_probs(gen.zipf(gen.rng_for(ctx.seed, f"mc-{i}"), MC_ZIPF_M))
        else:
            d = mm.worst_case_distribution(n).to_distribution()
        seed = int(seeds[i])

        def reference(d=d, n=n, trials=trials, seed=seed) -> dict:
            return {
                "expected": mm.expected_missing_mass(d, n),
                "variance": mm.exact_variance(d, n).value,
                "workers1": mm.estimate_variance(d, n, trials, seed, workers=1),
            }

        ref = functools.cache(reference)
        for workers in (1, 2):
            kinds.append(
                Kind(
                    f"{source}-m{d.support_size}-n{n}-t{trials}-w{workers}",
                    "simulate",
                    lambda d=d, n=n, t=trials, s=seed, w=workers: mm.estimate_variance(d, n, t, s, workers=w),
                    lambda r, ref=ref, t=trials: _check_mc(r, ref(), t),
                    {"shape": source, "trials": trials, "workers": workers, **gen.properties(d.probs, n)},
                )
            )
    return kinds


# --- cli-pipeline -----------------------------------------------------------

CLI_FILES = {  # name: (shape, m); the worst-case file holds worst_case_distribution(1000)
    "zipf-100k": ("zipf", 100_000),
    "zipf-2k": ("zipf", 2000),
    "worst-1000": ("worst-case", None),
}
SWEEP = {"b-min": 0.01, "b-max": 2.0, "steps": 200}
LANDSCAPE = {"c-max": 6.0, "grid": 100}
CLI_KINDS = [  # (subcommand, arguments, distribution file or None), cheapest first
    ("maximize", {"n": 1000}, None),
    ("maximize", {"n": 1000, "m": 300}, None),
    ("maximize", {"n": 1_000_000}, None),
    ("maximize", {"n": 1_000_000, "m": 100_000}, None),
    ("sweep", SWEEP, None),
    ("simulate", {"n": 1000, "trials": 200}, "worst-1000"),  # --seed is the run's seed
    ("landscape", LANDSCAPE, None),
    ("variance", {"n": 1_000_000, "method": "poisson"}, "zipf-100k"),
    ("variance", {"n": 1000, "method": "exact"}, "zipf-2k"),
    ("gap", {"n": 1000, "mode": "exact"}, "zipf-2k"),
]


def _close_records(got: dict, want: dict) -> str | None:
    if list(got) != list(want):
        return f"fields {list(got)} != {list(want)}"
    for key, val in want.items():
        if isinstance(val, float):
            reason = refs.mismatch(float(got[key]), val, val, RTOL_CLI)
            if reason is not None:
                return f"{key}: {reason}"
        elif got[key] != val:
            return f"{key}: {got[key]!r} != {val!r}"
    return None


def _close_rows(text: str, header: str, want: list[tuple]) -> str | None:
    lines = text.splitlines()
    if not lines or lines[0] != header or len(lines) != len(want) + 1:
        return f"expected header {header!r} and {len(want)} rows"
    for line, row in zip(lines[1:], want):
        got = [float(x) for x in line.split(",")]
        if len(got) != len(row):
            return f"row {line!r} has {len(got)} fields, expected {len(row)}"
        for g, w in zip(got, row):
            if refs.mismatch(g, w, w, RTOL_CLI) is not None:
                return f"row {line!r} != {row!r}"
    return None


def _cli_expected(mm, sub: str, a: dict, path: Path | None):
    """What the subcommand should print, computed in-process."""
    if sub == "maximize":
        m = a.get("m", mm.INFINITE)
        spec = mm.worst_case_distribution(a["n"], m)
        sol = mm.solve_alpha(m / a["n"] if math.isfinite(m) else mm.INFINITE)
        return {
            "alpha": sol.alpha, "w": sol.w, "c": sol.c, "regime": sol.regime.value,
            "atom_count": spec.atom_count, "atom_mass": spec.atom_mass, "dirac_mass": spec.dirac_mass,
            "variance_estimate": sol.alpha / a["n"],
        }  # fmt: skip
    if sub == "sweep":
        bs = np.linspace(a["b-min"], a["b-max"], a["steps"])
        return [(float(b), mm.solve_alpha(float(b)).alpha) for b in bs]
    if sub == "landscape":
        cs = np.linspace(0.0, a["c-max"], a["grid"] + 1)[1:]
        return [
            (float(w), float(c), mm.objective_alpha(float(w), float(c)))
            for w in np.linspace(0.0, 1.0, a["grid"])
            for c in cs
        ]
    d = mm.from_file(path)
    if sub == "variance":
        fn = {"exact": mm.exact_variance, "poisson": mm.poissonized_variance}[a["method"]]
        method = {"exact": "exact", "poisson": "poissonized"}[a["method"]]
        return {"method": method, "n": a["n"], "value": fn(d, a["n"]).value}
    if sub == "simulate":
        est = mm.estimate_variance(d, a["n"], a["trials"], a["seed"])
        return {
            "trials": est.trials, "mean": est.mean, "variance": est.variance,
            "se_mean": est.se_mean, "se_variance": est.se_variance, "seed": est.seed,
        }  # fmt: skip
    rep = mm.gap_report(d, a["n"], mm.VarianceMethod.EXACT)
    return {
        "n": rep.n, "mode": rep.mode.value, "true_variance": rep.true_variance,
        "subgamma_v": rep.subgamma_v, "iid_major_v": rep.iid_major_v,
        "gap_subgamma": rep.gap_subgamma, "gap_iid": rep.gap_iid,
    }  # fmt: skip


def _check_cli(res, sub: str, want) -> str | None:
    code, out, err = res
    if code != 0:
        return f"exit code {code}: {err.strip()[-200:]}"
    try:
        if sub == "sweep":
            return _close_rows(out, "b,val", want())
        if sub == "landscape":
            return _close_rows(out, "w,c,val", want())
        return _close_records(json.loads(out), want())
    except ValueError as exc:
        return f"unparsable output: {exc}"


def cli_process(ctx: Context, name: str, argv: list[str], nbytes: int = 0):
    """One CLI process from start to exit, as a case or a startup probe.

    The process is reaped with os.wait4, which gives its own peak RSS
    (``ctx.cli_peak_kib`` keeps the largest); RUSAGE_CHILDREN would also
    count the set-up probes. So its output goes to files in the workdir,
    not to pipes that would have to be drained before it exits.
    """
    with tempfile.TemporaryFile(dir=ctx.workdir) as out, tempfile.TemporaryFile(dir=ctx.workdir) as err:
        with ctx.span(name, bytes=nbytes):
            proc = subprocess.Popen([sys.executable, *argv], env=ctx.child_env, stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            try:
                if not select.select([pidfd], [], [], CLI_TIMEOUT_S)[0]:
                    proc.kill()
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        ctx.cli_peak_kib = max(ctx.cli_peak_kib, usage.ru_maxrss)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode()


def setup_cli(ctx: Context) -> list[Kind]:
    mm = ctx.mm
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    paths, sizes, props = {}, {}, {}
    for name, (shape, m) in CLI_FILES.items():
        if shape == "worst-case":
            p = mm.worst_case_distribution(1000).to_distribution().probs
        else:
            p = SHAPES[shape](gen.rng_for(ctx.seed, f"cli-{name}"), m)
        paths[name] = ctx.workdir / f"{name}.txt"
        sizes[name] = gen.write_masses(paths[name], p)
        props[name] = gen.properties(p, 1000)
    kinds = []
    for sub, a, fname in CLI_KINDS:
        if sub == "simulate":
            a = {**a, "seed": ctx.seed}
        argv = ["-m", "missingmass.cli", sub]
        for key, val in a.items():
            argv += [f"--{key}", str(val)]
        path = paths.get(fname)
        if path is not None:
            argv += ["--dist", str(path)]
        want = functools.cache(functools.partial(_cli_expected, mm, sub, a, path))
        nbytes = sizes.get(fname, 0)
        label = sub + "".join(f"-{k}{v}" for k, v in a.items()) + (f"-{fname}" if fname else "")
        kinds.append(
            Kind(
                label,
                "cli",
                lambda sub=sub, argv=argv, nbytes=nbytes: cli_process(ctx, f"cli.{sub}", argv, nbytes),
                lambda r, sub=sub, want=want: _check_cli(r, sub, want),
                {"subcommand": sub, "file_bytes": nbytes, **({"file": props[fname]} if fname else {})},
            )
        )
    return kinds


SETUPS = {
    "exact-pairwise": setup_exact,
    "large-alphabet": setup_large,
    "monte-carlo": setup_mc,
    "cli-pipeline": setup_cli,
}
