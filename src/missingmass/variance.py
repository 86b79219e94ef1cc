"""Variance of the missing mass under IID sampling.

Let xi_s indicate that symbol s is unseen after n draws, so the missing
mass is M0 = sum_s p_s * xi_s. This module evaluates Var[M0] three ways:

* ``exact_variance``: the full identity
  Var[M0] = sum_s p_s^2 Var[xi_s] + sum_{s != s'} p_s p_s' Cov[xi_s, xi_s']
  with Var[xi_s] = (1-p_s)^n - (1-p_s)^{2n} and
  Cov[xi_s, xi_s'] = (1-p_s-p_s')^n - (1-p_s)^n (1-p_s')^n.
  With u = p/(1-p), q = (1-p)^n, a = p q and t = sqrt(n) u the covariance
  term of a pair is a a' [(1 - t t'/n)^n - 1]. Masses are sorted in
  descending order, so t descends too, and one rule splits the pairs
  i < j: a pair with t_i t_j <= 1/4 goes to the binomial series, any
  other pair is evaluated directly as p p' [(1-p-p')^n - q q']. The
  series columns of row i are therefore a suffix j >= J_i, and one
  ``searchsorted`` finds J_i for every row. Only rows with t_i > 1/2
  (fewer than 2 sqrt(n) + 1 of them) have direct terms; each such row is
  reduced by the compensated sum on its own, so memory stays O(m). The
  series is
  sum_k (-1)^k c_k sum_i a_i t_i^k S_k[J_i],  c_k = C(n,k)/n^k,
  S_k[j] = sum_{l >= j} a_l t_l^k,
  whose k = 1 term, with every pair in the series, is Theorem 1's
  covariance term -n (sum p^2 q)^2 with p/(1-p) in place of p and the
  s = s' pairs left out, and which ends at k = n. Since t_i t_j <= 1/4
  and c_k <= 1/k!, the terms past K add at most
  scale * sum_{k>K} 0.25^k/k!, scale = sum_i a_i S_0[J_i]; the series
  stops once that computed bound falls below one unit roundoff of scale.
  Each S_k is a running sum from the last atom, which adds its
  nonnegative terms smallest first with relative error at most
  (m-1) eps, eps = 2^-53; since sum_k c_k 0.25^k <= e^{1/4} - 1 and
  scale <= E[M0]^2/2, rounding moves the series by at most about
  0.15 m eps E[M0]^2 (3.2e-13 E[M0]^2 at the cap). Cost
  O(m log m + D + K m) for D direct terms and K series terms (K <= 12),
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
The series' suffix sums are plain running sums with the bound above, and
its at most 12 terms go through one ``math.fsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dist import DiscreteDistribution, _compensated_sum

#: exact_variance refuses alphabets beyond this size. For larger m,
#: iid_majorization_v, Var[M0] with every covariance dropped, bounds it from
#: above, since the covariances are negative; approx_variance_thm1 and
#: poissonized_variance are no stand-in, being about 3x the exact value at
#: worst_case_distribution(1000).
EXACT_ALPHABET_LIMIT = 20000

#: A pair with t_i t_j at most this goes to the series, any other pair is
#: evaluated term by term (see the module docstring).
_SERIES_X = 0.25

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


def _pair_series(a: np.ndarray, t: np.ndarray, cut: np.ndarray, n: int) -> tuple[float, int, float]:
    """sum_i a_i sum_{j >= cut[i]} a_j [(1 - t_i t_j / n)^n - 1] for pairs with t_i t_j <= _SERIES_X.

    Expands the bracket binomially into sum_k (-1)^k c_k sum_i a_i t_i^k S_k[cut[i]]
    with c_k = C(n,k)/n^k and the suffix power sums S_k[j] = sum_{l >= j} a_l t_l^k,
    each a running sum taken from the end of the array, so for masses in
    descending order the smallest terms are added first. Returns (value,
    terms summed, bound on the dropped remainder); the bound is exactly 0
    when the series ran to its last term k = n.
    """
    t = np.where(a > 0.0, t, 0.0)  # an atom with a = 0 adds nothing, even at t = inf (p = 1)
    suffix = np.zeros(a.size + 1)  # suffix[a.size] = 0 closes every row that ends at the last atom
    w = a
    c = 1.0
    tail = 1.0  # x^(k+1)/(k+1)! with x = _SERIES_X: bounds term k+1 relative to terms[0]
    terms = []  # terms[0] = sum_i a_i S_0[cut[i]], the scale, is not part of the value
    for k in range(n + 1):
        np.cumsum(w[::-1], out=suffix[-2::-1])
        terms.append((-1) ** k * c * float(np.sum(w * suffix[cut])))
        tail *= _SERIES_X / (k + 1)
        remainder = terms[0] * tail / (1.0 - _SERIES_X / (k + 2))
        if remainder <= _UNIT_ROUNDOFF * terms[0]:  # at k = 0 only for a zero scale
            break
        c *= (n - k) / (n * (k + 1))
        w = w * t
    return math.fsum(terms[1:]), k, (0.0 if k == n else remainder)


def _diagonal_variance(p: np.ndarray, q: np.ndarray, n: int) -> float:
    """sum p^2 (q - (1-p)^{2n}) with q = (1-p)^n: Var[M0] with every covariance dropped."""
    return _compensated_sum(p * p * (q - _pow_one_minus(p, 2 * n)))


def exact_variance(dist: DiscreteDistribution, n: int) -> VarianceEstimate:
    """Exact Var[M0]: pairs with t_i t_j > 1/4 term by term, all others by one series.

    The masses are sorted first, so the result does not depend on atom
    order. The direct terms are built and compensated-summed one row at a
    time, so memory is O(m); the series is truncated only below one unit
    roundoff of its own scale, and its suffix sums' rounding is bounded
    in the module docstring. Cost O(m log m + D + K m) for D direct terms
    and K <= 12 series terms.
    """
    _require_sample_size(n)
    m = dist.probs.size
    if m > EXACT_ALPHABET_LIMIT:
        raise AlphabetTooLargeError(
            f"{m} atoms exceeds the exact-mode limit of {EXACT_ALPHABET_LIMIT}; "
            "iid_majorization_v gives an upper bound on Var[M0] at any size"
        )
    p = np.ascontiguousarray(np.sort(dist.probs)[::-1])
    q = _pow_one_minus(p, n)
    with np.errstate(divide="ignore", over="ignore"):  # inf at p == 1 and for t_i near 0
        t = math.sqrt(n) * (p / (1.0 - p))  # descending
        cut = np.searchsorted(-t, -_SERIES_X / t)  # first j with t_j <= _SERIES_X / t_i
    first = np.arange(1, m + 1)
    cut = np.maximum(cut, first)  # the series columns of row i start after i
    row_sums = []
    for i in np.flatnonzero(cut > first):  # only rows with t_i > 1/2 have direct terms
        c = slice(i + 1, cut[i])
        row = p[i] * p[c] * (_pow_one_minus(np.minimum(p[i] + p[c], 1.0), n) - q[i] * q[c])
        row_sums.append(_compensated_sum(row))
    direct = _compensated_sum(np.array(row_sums))
    series, _, _ = _pair_series(p * q, t, cut, n)
    value = _diagonal_variance(p, q, n) + 2.0 * (direct + series)
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
