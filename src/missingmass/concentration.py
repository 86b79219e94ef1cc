"""Concentration variance factors and their gap to the true variance.

Sub-gamma tail bounds for the missing mass use the variance factor

    v = sum_s p_s^2 (1-p_s)^n + (1/n) sum_s p_s (1-p_s)^n,

while bounding the negatively dependent unseen-symbol indicators by
independent copies keeps only the diagonal variance term

    sum_s p_s^2 ((1-p_s)^n - (1-p_s)^{2n}).

Both dominate the exact Var[M0]; the report quantifies by how much. They
need not dominate the poissonized value: for ``worst_case_distribution(1000)``
``gap_report`` in POISSONIZED mode gives gap_iid = -2.7e-4 and
gap_subgamma = -1.4e-4.

Both factors are power sums: like those in ``variance``, they evaluate
their terms once per run of equal consecutive masses where the
distribution has a run profile (see ``dist``), and they share that
module's kept sums (``variance._binomial_sums``): each of sum p q,
sum p^2 q and sum p^2 q (1-q) is computed at most once per
(instance, n), and a call that lacks some computes n log1p(-p) and
q = (1-p)^n once for them, so a lone ``gap_report`` does so once for
both factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import DiscreteDistribution
from .sizes import _require_int, _require_sample_size
from .variance import VarianceMethod, _binomial_sums, _pow_one_minus, exact_variance, poissonized_variance


@dataclass(frozen=True, slots=True)
class GapReport:
    n: int
    mode: VarianceMethod
    true_variance: float
    subgamma_v: float
    iid_major_v: float
    gap_subgamma: float
    gap_iid: float


@dataclass(frozen=True)
class SubgammaSearchResult:
    """Best n*v found over the uniform-plus-point-mass family."""

    scaled_value: float
    atom_count: int
    uniform_mass: float


def subgamma_v(dist: DiscreteDistribution, n: int) -> float:
    """Sub-gamma variance factor sum p^2 q + (1/n) sum p q, q = (1-p)^n."""
    n = _require_sample_size(n)
    p2q, pq = _binomial_sums(dist, n, ("p^2 q", "p q"))
    return p2q + pq / n


def iid_majorization_v(dist: DiscreteDistribution, n: int) -> float:
    """Variance term left after dropping all (negative) covariances.

    Equals sum p^2 ((1-p)^n - (1-p)^{2n}), i.e. exact_variance without the
    pairwise part, so it upper-bounds the true variance.
    """
    n = _require_sample_size(n)
    return _binomial_sums(dist, n, ("p^2 q (1-q)",))[0]


def gap_report(dist: DiscreteDistribution, n: int, mode: VarianceMethod = VarianceMethod.EXACT) -> GapReport:
    """Assemble both factors and their gaps against the chosen true variance."""
    n = _require_sample_size(n)
    if mode == VarianceMethod.EXACT:
        true = exact_variance(dist, n).value
    elif mode == VarianceMethod.POISSONIZED:
        true = poissonized_variance(dist, n).value
    else:
        raise ValueError(f"mode must be EXACT or POISSONIZED, got {mode}")
    _binomial_sums(dist, n, ("p^2 q", "p q", "p^2 q (1-q)"))  # keeps all three from one q; both factors read them
    sub = subgamma_v(dist, n)
    iid = iid_majorization_v(dist, n)
    return GapReport(
        n=n,
        mode=mode,
        true_variance=true,
        subgamma_v=sub,
        iid_major_v=iid,
        gap_subgamma=sub - true,
        gap_iid=iid - true,
    )


def max_subgamma_uniform_dirac(n: int, max_atoms: int | None = None) -> SubgammaSearchResult:
    """Numerically maximize n*subgamma_v over k equal atoms plus one point mass.

    Best-effort scan of the uniform-block mass w over 201 evenly spaced
    points of [0, 1], with the block split into k = ``max_atoms`` (default
    50*n) atoms of mass w/k and the point mass 1 - w. No smaller k does
    better: n*v sums p h(p) over the atoms, h(p) = (1-p)^n (1 + n p), and
    h'(p) = -n(n+1) p (1-p)^{n-1} <= 0, so h falls as p grows. A block of k
    atoms adds w h(w/k), which grows with k, so for every w the finest
    allowed block is best. The scaled factor keeps growing as the atoms get
    finer (it approaches 1 when k -> infinity with w = 1), so the reported
    maximum is a property of the searched range, not a universal constant.
    """
    n = _require_sample_size(n)
    k = 50 * n if max_atoms is None else _require_int(max_atoms, "max_atoms", 1)
    ws = np.linspace(0.0, 1.0, 201)
    p = ws / k
    d = 1.0 - ws
    q = _pow_one_minus(p, n)
    qd = _pow_one_minus(d, n)
    v = k * p * p * q + d * d * qd + (k * p * q + d * qd) / n
    i = int(np.argmax(v))
    return SubgammaSearchResult(scaled_value=float(n * v[i]), atom_count=k, uniform_mass=float(ws[i]))
