"""Missing-mass variance toolkit.

Exact variance of the unseen probability mass and two closed-form
approximations of it (see ``missingmass.variance`` for how far they are
off), the extremal program that maximizes it over all distributions with a
given alphabet size, Monte-Carlo validation, and concentration-gap
reports.

The public names load lazily (PEP 562): ``import missingmass`` imports no
submodule, and a name's module, with numpy where that module needs it, is
imported on the name's first use. The extremal solver needs no numpy.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule it lives in.
_EXPORTS = {
    "AlphabetBound": "sizes",
    "BracketError": "extremal",
    "DiscreteDistribution": "dist",
    "DistributionError": "dist",
    "EmptyDistributionError": "dist",
    "ExtremalSolution": "extremal",
    "GapReport": "concentration",
    "INFINITE": "sizes",
    "InvalidAlphabetError": "extremal",
    "InvalidRatioError": "extremal",
    "NegativeMassError": "dist",
    "NotNormalizedError": "dist",
    "Regime": "extremal",
    "SimulationEstimate": "simulate",
    "SubgammaSearchResult": "concentration",
    "VarianceEstimate": "variance",
    "VarianceMethod": "variance",
    "WorstCaseSpec": "extremal",
    "ZeroSumError": "dist",
    "approx_variance_thm1": "variance",
    "estimate_variance": "simulate",
    "exact_variance": "variance",
    "expected_missing_mass": "variance",
    "find_cstar": "extremal",
    "from_file": "dist",
    "from_probs": "dist",
    "gap_report": "concentration",
    "iid_majorization_v": "concentration",
    "max_subgamma_uniform_dirac": "concentration",
    "objective_alpha": "extremal",
    "poissonized_variance": "variance",
    "sample_missing_mass": "simulate",
    "solve_alpha": "extremal",
    "subgamma_v": "concentration",
    "uniform": "dist",
    "uniform_dirac": "dist",
    "worst_case_distribution": "extremal",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    """Import a public name's module on first use, and keep the name as a plain attribute."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
