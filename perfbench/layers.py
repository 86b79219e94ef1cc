"""Per-layer metrics from the spans of a traced run.

Times come from every span of the run (traced loop, census set-up, cycle
and checks), so each is a median or a total over all calls seen. Work
counts and self times come from the census alone: one set-up, one cycle
and one check pass of every workload, whose work does not depend on the
seed or on timing, so the counts repeat exactly from run to run.

The counts are of work the benchmark hands to each layer, computed from
the sizes of the calls it wraps: atoms passed in, m(m-1)/2 atom pairs per
exact_variance call, trials requested, processes started, and bytes of
the distribution files handed to CLI processes (each read once by
``from_file`` in the child; the in-process ``from_file`` calls of the
CLI checks are not counted). They change when a layer is called more or
less often or on other sizes, not when a kernel inside it does less work.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import layer_of, self_times

LAYERS = ("dist", "variance", "concentration", "extremal", "simulate", "cli", "bench")
CLI_SUBCOMMANDS = ("variance", "maximize", "sweep", "landscape", "simulate", "gap")
POWER_SUMS = ("variance.approx_variance_thm1", "variance.poissonized_variance", "variance.expected_missing_mass")


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def self_ms_by_layer(spans: list[dict], phase: str) -> dict:
    """Milliseconds each layer spent in its own code, over spans of ``phase`` ("loop", "census")."""
    out = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        if s["phase"].split(":")[0] == phase:
            out[layer_of(s["name"])] += own * 1e3
    return dict(out)


def per_layer(spans: list[dict], failed_layers, overhead: dict) -> dict:
    """{metric name: (value, samples)} for every per-layer metric."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    census = [s for s in spans if s["phase"].startswith("census")]

    def median_of(name: str, scale: float):
        ds = [_dur(s) for s in by_name[name]]
        return (statistics.median(ds) * scale, len(ds)) if ds else None

    def per_unit(names, size, scale: float, keep=lambda s: True):
        chosen = [s for name in names for s in by_name[name] if keep(s)]
        work = sum(size(s) for s in chosen)
        return (sum(_dur(s) for s in chosen) / work * scale, len(chosen)) if work else None

    def count(pred, size=lambda s: 1):
        chosen = [s for s in census if pred(s)]
        return (sum(size(s) for s in chosen), len(chosen))

    pairs = lambda s: s["m"] * (s["m"] - 1) // 2  # noqa: E731
    atoms = lambda s: s["m"]  # noqa: E731
    w1 = per_unit(["simulate.estimate_variance"], lambda s: s["trials"], 1e6, lambda s: s.get("workers", 1) == 1)
    w2 = per_unit(["simulate.estimate_variance"], lambda s: s["trials"], 1e6, lambda s: s.get("workers", 1) == 2)

    m = {
        "dist.from_probs.ms": median_of("dist.from_probs", 1e3),
        "dist.from_probs.ns_per_atom": per_unit(["dist.from_probs"], atoms, 1e9),
        "dist.atoms": count(lambda s: s["name"] == "dist.from_probs", atoms),
        "dist.file_bytes": count(lambda s: layer_of(s["name"]) == "cli", lambda s: s["bytes"]),
        "variance.exact.ms": median_of("variance.exact_variance", 1e3),
        "variance.exact.ns_per_pair": per_unit(["variance.exact_variance"], pairs, 1e9),
        "variance.exact.pairs": count(lambda s: s["name"] == "variance.exact_variance", pairs),
        "variance.thm1.ns_per_atom": per_unit([POWER_SUMS[0]], atoms, 1e9),
        "variance.poissonized.ns_per_atom": per_unit([POWER_SUMS[1]], atoms, 1e9),
        "variance.expected.ns_per_atom": per_unit([POWER_SUMS[2]], atoms, 1e9),
        "variance.atoms": count(lambda s: s["name"] in POWER_SUMS, atoms),
        "concentration.subgamma_v.ns_per_atom": per_unit(["concentration.subgamma_v"], atoms, 1e9),
        "concentration.iid_majorization_v.ns_per_atom": per_unit(["concentration.iid_majorization_v"], atoms, 1e9),
        "concentration.gap_report.ms": median_of("concentration.gap_report", 1e3),
        "concentration.atoms": count(
            lambda s: s["name"] in ("concentration.subgamma_v", "concentration.iid_majorization_v"), atoms
        ),
        "extremal.find_cstar.us": median_of("extremal.find_cstar", 1e6),
        "extremal.solve_alpha.us": median_of("extremal.solve_alpha", 1e6),
        "extremal.worst_case.ms": median_of("extremal.worst_case", 1e3),
        "extremal.calls": count(lambda s: layer_of(s["name"]) == "extremal"),
        "simulate.us_per_trial": w1,
        "simulate.us_per_trial_w2": w2,
        "simulate.scaling_eff_w2": (w1[0] / (2.0 * w2[0]), w1[1] + w2[1]) if w1 and w2 else None,
        "simulate.trials": count(lambda s: s["name"] == "simulate.estimate_variance", lambda s: s["trials"]),
        "cli.startup_ms": median_of("cli.startup", 1e3),
        "cli.processes": count(lambda s: layer_of(s["name"]) == "cli"),
        "trace.spans": (len(census), len(census)),
    }
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.ms"] = median_of(f"cli.{sub}", 1e3)
    census_self = self_ms_by_layer(spans, phase="census")
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (census_self.get(layer, 0.0), len(census))
        m[f"{layer}.failed"] = (failed_layers.get(layer, 0), 1)
    for name, value in overhead.items():
        m[name] = (value, 2)
    return {k: v for k, v in m.items() if v is not None}
