"""Variance of the missing mass under IID sampling.

Let xi_s indicate that symbol s is unseen after n draws, so the missing
mass is M0 = sum_s p_s * xi_s. This module evaluates Var[M0] three ways:

* ``exact_variance``: the full identity
  Var[M0] = sum_s p_s^2 Var[xi_s] + sum_{s != s'} p_s p_s' Cov[xi_s, xi_s']
  with Var[xi_s] = (1-p_s)^n - (1-p_s)^{2n} and
  Cov[xi_s, xi_s'] = (1-p_s-p_s')^n - (1-p_s)^n (1-p_s')^n.
  With u = p/(1-p) and q = (1-p)^n the covariance factorises as
  q q' [(1 - u u')^n - 1]. Atoms with t = sqrt(n) u > 1/2 are *heavy*
  (fewer than 2 sqrt(n) + 1 of them); masses are sorted in descending
  order, so the heavy atoms are a prefix. Their rows of the pair sum are
  evaluated one row at a time, each against its later columns only, and
  TwoSum-added into two m-length accumulators (column sums and their
  rounding errors) that the compensated sum reduces once at the end, so
  memory stays O(m). The light-light pairs are the binomial series
  sum_k (-1)^k c_k (T_k^2 - E_k)/2,  c_k = C(n,k)/n^k,
  T_k = sum p q t^k,  E_k = sum (p q t^k)^2,
  whose k = 1 term is Theorem 1's covariance term -n (sum p^2 q)^2 with
  p/(1-p) in place of p and the s = s' pairs left out, and which ends at
  k = n. Since t <= 1/2 and c_k <= 1/k!, the terms past K add at most
  T_0^2/2 * sum_{k>K} 0.25^k/k!; the series stops once that computed
  bound falls below one unit roundoff of T_0^2/2. Cost
  O(m log m + h m + K m) for h heavy atoms and K terms (K <= 12),
  against m(m-1)/2 pair terms for the plain identity; the cap
  :data:`EXACT_ALPHABET_LIMIT` still applies.
* ``approx_variance_thm1``: -n (sum p^2 (1-p)^n)^2 + n sum p^3 (1-p)^n.
* ``poissonized_variance``: the same shape with e^{-np} in place of
  (1-p)^n, friendlier for analysis.

Neither approximation is O(1/n^2)-accurate against the exact value. For
``worst_case_distribution(1000)`` (442 atoms), n times exact Var[M0] is
0.15535 and a 20 000-trial Monte-Carlo estimate gives 0.1558 (standard
error 0.0016), while n times thm1 is 0.47628 and n times poissonized is
0.47736.

Powers are evaluated as exp(n*log1p(-p)) so that p near 0 with large n
keeps full relative accuracy, and atom sums go through the vectorised
compensated sum ``dist._compensated_sum`` (Sum2 of Ogita, Rump & Oishi),
so that 1e6-atom inputs do not drown the O(1/n) signal in rounding noise.
The light series' T_k and E_k, sums of positive terms over the sorted
masses, use numpy's pairwise summation instead (relative error
O(eps log m)), and its at most 12 terms one ``math.fsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dist import DiscreteDistribution, _compensated_sum, _two_sum

#: exact_variance refuses alphabets beyond this size; the approximations
#: are the intended tool for large m.
EXACT_ALPHABET_LIMIT = 20000

#: Atoms with sqrt(n) * p/(1-p) above this are heavy (see the module docstring).
_HEAVY_T = 0.5

_UNIT_ROUNDOFF = 2.0**-53


class VarianceMethod(Enum):
    EXACT = "exact"
    THM1 = "thm1"
    POISSONIZED = "poissonized"


class AlphabetTooLargeError(ValueError):
    """Raised when exact evaluation is asked for more than EXACT_ALPHABET_LIMIT atoms."""


@dataclass(frozen=True)
class VarianceEstimate:
    """Variance value tagged with the method and sample size that produced it."""

    value: float
    method: VarianceMethod
    n: int


def _require_sample_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")


def _pow_one_minus(p: np.ndarray, exponent: float) -> np.ndarray:
    """(1-p)**exponent via exp(exponent*log1p(-p)); exact 0 at p == 1."""
    with np.errstate(divide="ignore"):
        return np.exp(exponent * np.log1p(-p))


def _light_pair_sum(a: np.ndarray, t: np.ndarray, n: int) -> tuple[float, int, float]:
    """sum_{i<j} a_i a_j [(1 - t_i t_j / n)^n - 1] for 0 <= t <= _HEAVY_T.

    Expands the bracket binomially into sum_k (-1)^k c_k (T_k^2 - E_k)/2
    with c_k = C(n,k)/n^k, T_k = sum a t^k and E_k = sum (a t^k)^2. Returns
    (value, terms summed, bound on the dropped remainder); the bound is
    exactly 0 when the series ran to its last term k = n.
    """
    t0 = float(np.sum(a))
    scale = 0.5 * t0 * t0
    if scale == 0.0:
        return 0.0, 0, 0.0
    x = _HEAVY_T * _HEAVY_T
    w = a
    c = 1.0
    tail = x  # x^(k+1)/(k+1)!: bounds term k+1 relative to scale
    terms = []
    for k in range(1, n + 1):
        c *= (n - k + 1) / (n * k)
        w = w * t
        tk = float(np.sum(w))
        terms.append((-1) ** k * c * 0.5 * (tk * tk - float(np.sum(w * w))))
        tail *= x / (k + 1)
        remainder = scale * tail / (1.0 - x / (k + 2))
        if remainder <= _UNIT_ROUNDOFF * scale:
            break
    return math.fsum(terms), k, (0.0 if k == n else remainder)


def _diagonal_variance(p: np.ndarray, n: int) -> float:
    """sum p^2 ((1-p)^n - (1-p)^{2n}): Var[M0] with every covariance dropped."""
    return _compensated_sum(p * p * (_pow_one_minus(p, n) - _pow_one_minus(p, 2 * n)))


def exact_variance(dist: DiscreteDistribution, n: int) -> VarianceEstimate:
    """Exact Var[M0]: heavy rows of the pair sum term by term, light pairs by series.

    The masses are sorted first, so the result does not depend on atom
    order. The heavy rows are built one at a time and TwoSum-added into
    two m-length accumulators, so memory is O(m), and both accumulators
    are reduced by one compensated sum; the light series is truncated
    only below one unit roundoff of its own scale (see the module
    docstring).
    """
    _require_sample_size(n)
    m = dist.probs.size
    if m > EXACT_ALPHABET_LIMIT:
        raise AlphabetTooLargeError(
            f"{m} atoms exceeds the exact-mode limit of {EXACT_ALPHABET_LIMIT}; "
            "use approx_variance_thm1 or poissonized_variance"
        )
    p = np.ascontiguousarray(np.sort(dist.probs)[::-1])
    q = _pow_one_minus(p, n)
    with np.errstate(divide="ignore"):
        t = math.sqrt(n) * (p / (1.0 - p))  # inf at p == 1, a heavy atom
    h = int(np.count_nonzero(t > _HEAVY_T))  # a prefix: t grows with p
    acc = np.zeros((5, m))  # column sums and their errors over rows i < j, then scratch
    s, e, s_next, z, w = acc
    for i in range(h):
        c = slice(i + 1, m)
        row = p[i] * p[c] * (_pow_one_minus(np.minimum(p[i] + p[c], 1.0), n) - q[i] * q[c])
        _two_sum(s[c], row, e[c], s_next[c], z[c], w[c])
        s[c] = s_next[c]
    heavy = _compensated_sum(acc[:2])
    light, _, _ = _light_pair_sum(p[h:] * q[h:], t[h:], n)
    value = _diagonal_variance(p, n) + 2.0 * (heavy + light)
    if -1e-12 < value < 0.0:
        value = 0.0  # cancellation noise only; a real negative would be a bug
    return VarianceEstimate(value=value, method=VarianceMethod.EXACT, n=n)


def approx_variance_thm1(dist: DiscreteDistribution, n: int) -> VarianceEstimate:
    """Theorem-1 approximation -n (sum p^2 q)^2 + n sum p^3 q, q = (1-p)^n.

    Not O(1/n^2)-accurate against ``exact_variance`` (see the module
    docstring).

    Returned unclamped: slightly negative outputs on degenerate inputs are
    informative and must stay visible to regression tests.
    """
    _require_sample_size(n)
    p = dist.probs
    q = _pow_one_minus(p, n)
    a = _compensated_sum(p * p * q)
    b = _compensated_sum(p * p * p * q)
    return VarianceEstimate(value=-n * a * a + n * b, method=VarianceMethod.THM1, n=n)


def poissonized_variance(dist: DiscreteDistribution, n: int) -> VarianceEstimate:
    """Poissonized approximation -n (sum p^2 e^{-np})^2 + n sum p^3 e^{-np}.

    Not O(1/n^2)-accurate against ``exact_variance`` (see the module
    docstring).

    Each summand p^k e^{-np} is evaluated as exp(k*log(p) - n*p), the
    log-domain form that neither overflows nor loses the small-p regime;
    zero-mass atoms contribute exactly zero.
    """
    _require_sample_size(n)
    p = dist.probs
    with np.errstate(divide="ignore"):
        logp = np.log(p)  # p == 0 -> -inf -> exp -> 0
    a = _compensated_sum(np.exp(2.0 * logp - n * p))
    b = _compensated_sum(np.exp(3.0 * logp - n * p))
    return VarianceEstimate(value=-n * a * a + n * b, method=VarianceMethod.POISSONIZED, n=n)


def expected_missing_mass(dist: DiscreteDistribution, n: int) -> float:
    """E[M0] = sum_s p_s (1-p_s)^n."""
    _require_sample_size(n)
    p = dist.probs
    return _compensated_sum(p * _pow_one_minus(p, n))
