"""Print every public numeric output of missingmass on fixed inputs, one ``label<TAB>float.hex`` line each.

Two trees print the same lines exactly when their outputs are bit-identical
on these inputs, so a diff of two runs is a parity check between them:

    PYTHONPATH=src python3 tools/parity.py > change.txt
    PYTHONPATH=path/to/other/src python3 tools/parity.py > other.txt
    diff other.txt change.txt

The inputs are seeded uniform, worst-case, Zipf, Dirichlet(0.1) and
near-uniform masses whose sizes straddle 768, 1024 and 2048 atoms, the
size steps of the compensated sum, up to 1e5. Each is read at
n = 1, 12, 13, 1e3, 1e5 and 1e6: exact, Theorem-1 and poissonized
variance, E[M0], both concentration factors and both ``gap_report``
modes; the smaller ones also by seeded ``estimate_variance`` and
``sample_missing_mass``. The solver's outputs, ``solve_alpha`` and the
``worst_case_distribution`` fields, come from their own grid. Integers
are printed as floats, exact below 2^53. Runs in a few seconds.

Usage: PYTHONPATH=src python3 tools/parity.py
"""

from __future__ import annotations

import sys
import numpy as np

from missingmass import (
    INFINITE,
    VarianceMethod,
    approx_variance_thm1,
    estimate_variance,
    exact_variance,
    expected_missing_mass,
    find_cstar,
    from_probs,
    gap_report,
    iid_majorization_v,
    max_subgamma_uniform_dirac,
    poissonized_variance,
    sample_missing_mass,
    solve_alpha,
    subgamma_v,
    uniform,
    worst_case_distribution,
)

SIZES = (3, 100, 767, 768, 1023, 1024, 1025, 2047, 2048, 2049, 5000, 10**5)
NS = (1, 12, 13, 10**3, 10**5, 10**6)
#: Monte-Carlo outputs are read only on these sizes and sample sizes, which keeps the run short.
MC_SIZES = (100, 1025, 2049)
MC_NS = (12, 13, 10**3)
RATIOS = (1e-300, 1e-6, 0.01, 0.1, 0.2, 0.3, 0.4, 0.45, 0.5, 1.0, 100.0, INFINITE)


def _inputs(size: int):
    """(kind, distribution) for each input kind at ``size`` atoms, seeded by the size."""
    rng = np.random.default_rng(size)
    zipf = 1.0 / np.arange(1, size + 1)
    yield "uniform", uniform(size)
    yield "worst-case", worst_case_distribution(10 * size, size).to_distribution()
    yield "zipf", from_probs(zipf, normalize=True)
    yield "dirichlet", from_probs(rng.dirichlet(np.full(size, 0.1)), normalize=True)
    yield "near-uniform", from_probs(1.0 + 0.01 * rng.uniform(-1.0, 1.0, size), normalize=True)


def _outputs(d, n: int, mc: bool):
    """(name, value) for each public numeric output on (d, n)."""
    yield "exact", exact_variance(d, n).value
    yield "thm1", approx_variance_thm1(d, n).value
    yield "poissonized", poissonized_variance(d, n).value
    yield "E[M0]", expected_missing_mass(d, n)
    yield "subgamma_v", subgamma_v(d, n)
    yield "iid_majorization_v", iid_majorization_v(d, n)
    for mode in (VarianceMethod.EXACT, VarianceMethod.POISSONIZED):
        report = gap_report(d, n, mode)
        for field in ("true_variance", "subgamma_v", "iid_major_v", "gap_subgamma", "gap_iid"):
            yield f"gap_report[{mode.value}].{field}", getattr(report, field)
    if mc:
        est = estimate_variance(d, n, trials=200, seed=7)
        for field in ("mean", "variance", "se_mean", "se_variance"):
            yield f"estimate_variance.{field}", getattr(est, field)
        yield "sample_missing_mass", sample_missing_mass(d, n, seed=7)


def lines():
    """Every ``label<TAB>float.hex`` line, in a fixed order."""
    yield f"find_cstar\t{find_cstar().hex()}"
    for b in RATIOS:
        sol = solve_alpha(b)
        for field in ("alpha", "w", "c"):
            yield f"solve_alpha(b={b!r}).{field}\t{getattr(sol, field).hex()}"
    for n in NS:
        for m in (2, 3, 100, 2049, 10**5, INFINITE):
            spec = worst_case_distribution(n, m)
            for field in ("atom_count", "atom_mass", "dirac_mass"):
                yield f"worst_case_distribution(n={n}, m={m!r}).{field}\t{float(getattr(spec, field)).hex()}"
            yield f"worst_case_distribution(n={n}, m={m!r}).alpha\t{spec.solution.alpha.hex()}"
        result = max_subgamma_uniform_dirac(n, max_atoms=1000)
        yield f"max_subgamma_uniform_dirac(n={n}).scaled_value\t{result.scaled_value.hex()}"
        yield f"max_subgamma_uniform_dirac(n={n}).uniform_mass\t{result.uniform_mass.hex()}"
    for size in SIZES:
        for kind, d in _inputs(size):
            for n in NS:
                mc = size in MC_SIZES and n in MC_NS
                for name, value in _outputs(d, n, mc):
                    yield f"{kind}/m={size}/n={n}/{name}\t{float(value).hex()}"


def main() -> int:
    for line in lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
