"""Missing-mass variance toolkit.

Exact variance of the unseen probability mass and two closed-form
approximations of it (see ``missingmass.variance`` for how far they are
off), the extremal program that maximizes it over all distributions with a
given alphabet size, Monte-Carlo validation, and concentration-gap
reports.
"""

from .concentration import (
    GapReport,
    SubgammaSearchResult,
    gap_report,
    iid_majorization_v,
    max_subgamma_uniform_dirac,
    subgamma_v,
)
from .dist import (
    INFINITE,
    AlphabetBound,
    DiscreteDistribution,
    DistributionError,
    EmptyDistributionError,
    NegativeMassError,
    NotNormalizedError,
    ZeroSumError,
    from_file,
    from_probs,
    uniform,
    uniform_dirac,
)
from .extremal import (
    BracketError,
    ExtremalSolution,
    InvalidAlphabetError,
    InvalidRatioError,
    Regime,
    WorstCaseSpec,
    find_cstar,
    objective_alpha,
    solve_alpha,
    worst_case_distribution,
)
from .simulate import SimulationEstimate, estimate_variance, sample_missing_mass
from .variance import (
    EXACT_ALPHABET_LIMIT,
    AlphabetTooLargeError,
    VarianceEstimate,
    VarianceMethod,
    approx_variance_thm1,
    exact_variance,
    expected_missing_mass,
    poissonized_variance,
)

__version__ = "0.1.0"

__all__ = [
    "AlphabetBound",
    "AlphabetTooLargeError",
    "BracketError",
    "DiscreteDistribution",
    "DistributionError",
    "EmptyDistributionError",
    "EXACT_ALPHABET_LIMIT",
    "ExtremalSolution",
    "GapReport",
    "INFINITE",
    "InvalidAlphabetError",
    "InvalidRatioError",
    "NegativeMassError",
    "NotNormalizedError",
    "Regime",
    "SimulationEstimate",
    "SubgammaSearchResult",
    "VarianceEstimate",
    "VarianceMethod",
    "WorstCaseSpec",
    "ZeroSumError",
    "approx_variance_thm1",
    "estimate_variance",
    "exact_variance",
    "expected_missing_mass",
    "find_cstar",
    "from_file",
    "from_probs",
    "gap_report",
    "iid_majorization_v",
    "max_subgamma_uniform_dirac",
    "objective_alpha",
    "poissonized_variance",
    "sample_missing_mass",
    "solve_alpha",
    "subgamma_v",
    "uniform",
    "uniform_dirac",
    "worst_case_distribution",
]
