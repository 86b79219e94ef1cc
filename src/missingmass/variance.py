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
  (h < 2 sqrt(n) + 1 of them) have direct terms, each in [-a_i a_j, 0]
  since (1-p_i-p_j)^n <= q_i q_j. A row whose terms therefore add up to
  less than eps diag / h in size (eps = 2^-53, diag = sum p^2 q (1-q))
  is left out before any of them is built; the rows left out raise the
  result by at most 2 eps diag, never lower it. At n = 1e5 a row with
  direct terms has a_i < e^-158, and on Zipf, near-uniform and
  Dirichlet(0.1) inputs all of them go. The kept rows' terms are numbered
  row after row into one array and reduced by one compensated sum. Few
  are kept at any m: row i's partners j have n p_i p_j above about 1/4,
  so there are at most about 4 n p_i of them, and the row is kept only while
  q_i = (1-p_i)^n is not far below eps, which holds n p_i to a few dozen
  (an argument, not a proof). A search over about 30 000 inputs up to
  m = 20000 kept at most 12 314 terms, for 160 near-uniform atoms at
  n = 6442. The series is
  sum_k (-1)^k c_k sum_i a_i t_i^k S_k[J_i],  c_k = C(n,k)/n^k,
  S_k[j] = sum_{l >= j} a_l t_l^k,
  whose k = 1 term, with every pair in the series, is Theorem 1's
  covariance term -n (sum p^2 q)^2 with p/(1-p) in place of p and the
  s = s' pairs left out, and which ends at k = n. Since t_i t_j <= 1/4
  and c_k <= 1/k!, the terms past K add at most
  scale * sum_{k>K} 0.25^k/k!, scale = sum_i a_i S_0[J_i], and
  K = 12 is the least K that puts this below one unit roundoff of scale
  (2.44e-18 scale); so the series always sums k = 1 ... min(12, n).
  Each S_k is a running sum from the last atom, which adds its
  nonnegative terms smallest first with relative error at most
  (m-1) eps; since sum_k c_k 0.25^k <= e^{1/4} - 1 and
  scale <= E[M0]^2/2, rounding moves the series by at most about
  0.15 m eps E[M0]^2, a bound that grows with m; the rows left out add
  their 2 eps diag to that. Cost O(m log m + D_kept + K m) for the D_kept
  direct terms of the kept rows and K = min(12, n) series terms, against
  m(m-1)/2 pair terms for the plain identity, and memory O(m) at any m.
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

The O(m) power sums (thm1, poissonized, ``expected_missing_mass`` and
the factors of ``concentration``) run over the distribution's
run profile where it has one: each term is evaluated once per run of
equal consecutive masses, and count x term is added exactly by
``dist._weighted_sum``, so ``uniform(m)`` and the worst case cost
O(1), not O(m), beyond the run scan. Below one row of atoms the result
is still ``math.fsum`` over the per-atom terms; above it the compensated
sum's bound holds. The scan follows atom order, so a shuffled vector of
repeated masses takes the per-atom path. Each of the six sums, sum p q,
p^2 q, p^3 q and p^2 q (1-q) with q = (1-p)^n, and sum p^2 e^{-np} and
p^3 e^{-np}, is computed at most once per (instance, n): the instance
keeps the last n's sums of each family (:func:`_binomial_sums` and
``poissonized_variance``), and a call computes q or log p once for the
sums it lacks. ``exact_variance`` sorts the masses, does not use the
profile and keeps no sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dist import _UNIT_ROUNDOFF, DiscreteDistribution, _compensated_sum, _weighted_sum
from .sizes import _require_sample_size

#: A pair with t_i t_j at most this goes to the series, any other pair is
#: evaluated term by term (see the module docstring).
_SERIES_X = 0.25

#: The series terms summed, k = 1 ... min(_SERIES_TERMS, n): the least K with
#: x^(K+1)/(K+1)! / (1 - x/(K+2)) <= 2^-53, x = _SERIES_X. The terms past K
#: add at most scale times the left side (a geometric bound on
#: sum_{k>K} x^k/k!), so they stay below one unit roundoff of the scale.
_SERIES_TERMS = 12


class VarianceMethod(Enum):
    EXACT = "exact"
    THM1 = "thm1"
    POISSONIZED = "poissonized"


@dataclass(frozen=True, slots=True)
class VarianceEstimate:
    """Variance value tagged with the method and sample size that produced it."""

    value: float
    method: VarianceMethod
    n: int


def _log_one_minus(p: np.ndarray, exponent: float) -> np.ndarray:
    """exponent*log1p(-p), the log of (1-p)**exponent; -inf at p == 1."""
    with np.errstate(divide="ignore"):
        return exponent * np.log1p(-p)


def _pow_one_minus(p: np.ndarray, exponent: float) -> np.ndarray:
    """(1-p)**exponent via exp(exponent*log1p(-p)); exact 0 at p == 1."""
    return np.exp(_log_one_minus(p, exponent))


def _atoms(dist: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray | None]:
    """(masses, counts) for the power sums: the run profile, or (probs, None) where there is none.

    Either pair goes to ``_weighted_sum`` with the terms evaluated on its
    masses, so a term is evaluated once per run of equal consecutive atoms.
    """
    runs = dist._runs
    return (dist.probs, None) if runs is None else runs


def _suffix_sums(w: np.ndarray) -> np.ndarray:
    """S[j] = sum_{l >= j} w_l for j = 0 ... w.size, a running sum from the last entry.

    S[w.size] = 0 closes every row that ends at the last entry.
    """
    suffix = np.zeros(w.size + 1)
    np.cumsum(w[::-1], out=suffix[-2::-1])
    return suffix


def _pair_series(a: np.ndarray, t: np.ndarray, cut: np.ndarray, n: int) -> float:
    """sum_i a_i sum_{j >= cut[i]} a_j [(1 - t_i t_j / n)^n - 1] for pairs with t_i t_j <= _SERIES_X.

    Expands the bracket binomially into sum_k (-1)^k c_k sum_i a_i t_i^k S_k[cut[i]]
    with c_k = C(n,k)/n^k and the suffix power sums S_k[j] = sum_{l >= j} a_l t_l^k,
    each a running sum taken from the end of the array, so for masses in
    descending order the smallest terms are added first. The terms
    k = 1 ... min(_SERIES_TERMS, n) go through one ``math.fsum``; the
    terms past k = 12 add at most scale * 0.25^13/13!/(1 - 1/56), about
    2.44e-18 scale, with scale = sum_i a_i S_0[cut[i]], and none are left
    when n <= 12.
    """
    t = np.where(a > 0.0, t, 0.0)  # an atom with a = 0 adds nothing, even at t = inf (p = 1)
    w = a
    c = 1.0
    terms = []
    for k in range(1, min(_SERIES_TERMS, n) + 1):
        c *= (n - k + 1) / (n * k)
        w = w * t
        terms.append((-1) ** k * c * float(np.sum(w * _suffix_sums(w)[cut])))
    return math.fsum(terms)


def _diagonal_terms(p: np.ndarray, q: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """p^2 q (1 - q) with q = (1-p)^n = exp(log_q): their sum is Var[M0] with every covariance dropped.

    1 - q is -expm1(log_q), which keeps full relative accuracy where n p
    is below eps and q - q^2 would round to 0; log_q = -inf at p == 1
    gives 1 - q = 1.
    """
    return p * p * q * -np.expm1(log_q)


#: The binomial power sums an instance keeps, by name: each term from the
#: masses p, q = (1-p)^n and log_q = n log1p(-p). The order of each
#: product is the one the pinned outputs were computed in; another order
#: can move a term by an ulp.
_BINOMIAL_TERMS = {
    "p q": lambda p, q, log_q: p * q,
    "p^2 q": lambda p, q, log_q: p * p * q,
    "p^3 q": lambda p, q, log_q: p * p * p * q,
    "p^2 q (1-q)": _diagonal_terms,
}


def _memo(dist: DiscreteDistribution, family: str, n: int) -> dict[str, float]:
    """The sums of one family that ``dist`` holds for sample size n: {name: sum}, empty at first.

    The instance keeps, under the attribute ``family`` next to its cached
    ``_runs``, (n, sums) for the last n asked. Another n replaces it with
    a fresh dict. A dict belongs to one n and only ever gains entries, each
    the same float whoever computes it, so threads that share the instance
    read the values a serial run gives; a race can only cost a recomputation.
    """
    slot = dist.__dict__.get(family)
    if slot is None or slot[0] != n:
        slot = dist.__dict__[family] = (n, {})
    return slot[1]


def _binomial_sums(dist: DiscreteDistribution, n: int, names: tuple[str, ...]) -> list[float]:
    """The named sums of :data:`_BINOMIAL_TERMS` at sample size n, each computed at most once per (dist, n).

    A call that lacks some of them evaluates n log1p(-p) and q once and
    then only the terms it lacks, each freed once summed: filling all four
    at once would make a lone call pay for sums it never reads. n must have
    passed ``_require_sample_size``.
    """
    sums = _memo(dist, "_binomial_sums", n)
    missing = [name for name in names if name not in sums]
    if missing:
        p, w = _atoms(dist)
        log_q = _log_one_minus(p, n)
        q = np.exp(log_q)
        if "p^2 q (1-q)" not in missing:
            log_q = None  # freed now, so that the terms' temporaries can reuse its pages
        for name in missing:
            sums[name] = _weighted_sum(_BINOMIAL_TERMS[name](p, q, log_q), w)
    return [sums[name] for name in names]


def _direct_rows(a: np.ndarray, s0: np.ndarray, cut: np.ndarray, diag: float) -> np.ndarray:
    """The rows i with direct terms (i + 1 < cut[i]) whose terms can reach the rounding of the result.

    Each direct term lies in [-a_i a_j, 0], a = p q, since (1-p_i-p_j)^n <=
    q_i q_j (negative association), so row i's terms add up to at least
    -a_i (S_0[i+1] - S_0[cut[i]]) with S_0 = ``_suffix_sums(a)``. Each
    computed suffix sum is a running sum of nonnegative terms within (m-1)
    eps of its value, so 2 (m+1) eps S_0[i+1] added to the computed
    difference covers the rounding of both and of this bound. A row whose
    bound is at most eps diag / h, for h rows with direct terms, is left out:
    the rows left out move the result, diag + 2 (direct + series), up by at
    most 2 eps diag, and never down.
    """
    rows = np.flatnonzero(cut > np.arange(1, a.size + 1))  # only rows with t_i > 1/2 have direct terms
    reach = s0[rows + 1]
    bound = a[rows] * (reach - s0[cut[rows]] + 2.0 * (a.size + 1) * _UNIT_ROUNDOFF * reach)
    # strictly above, so that rows whose a_i underflowed to 0 go even where diag did too
    return rows[bound > _UNIT_ROUNDOFF * diag / max(rows.size, 1)]


def _direct_sum(p: np.ndarray, q: np.ndarray, rows: np.ndarray, cut: np.ndarray, n: int) -> float:
    """sum over the given rows i and i < j < cut[i] of p_i p_j [(1-p_i-p_j)^n - q_i q_j], q = (1-p)^n.

    The pairs are numbered row after row, ``np.repeat`` over the rows'
    starts and lengths gives each term's (i, j), and one compensated sum
    adds them all.
    """
    if not rows.size:  # most inputs keep no row; this skips a dozen numpy calls on empty arrays
        return 0.0
    lengths = cut[rows] - rows - 1
    offset = rows + 1 - (np.cumsum(lengths) - lengths)  # j = pair number + its row's offset
    i = np.repeat(rows, lengths)
    j = np.repeat(offset, lengths) + np.arange(i.size)
    pi, pj = p[i], p[j]
    return _compensated_sum(pi * pj * (_pow_one_minus(np.minimum(pi + pj, 1.0), n) - q[i] * q[j]))


def exact_variance(dist: DiscreteDistribution, n: int) -> VarianceEstimate:
    """Exact Var[M0]: pairs with t_i t_j > 1/4 term by term, all others by one series.

    The masses are sorted first, so the result does not depend on atom
    order. Direct rows whose terms cannot reach eps diag / h in all are
    left out (:func:`_direct_rows`), which raises the result by at most
    2 eps diag, diag = sum p^2 q (1-q). The kept direct terms, few at any
    m (see the module docstring), are built and compensated-summed in one
    pass; the series is truncated after 12 terms, below one unit roundoff
    of its own scale, and its suffix sums' rounding, about 0.15 m eps
    E[M0]^2, grows with m. Cost O(m log m + D_kept + K m) for D_kept kept
    direct terms and K = min(12, n) series terms, memory O(m), at any
    alphabet size.

    A negative result within (m + 16) eps of sum p^2 q + 2(|direct| +
    |series|), the gross size of the terms that cancel, is rounding and
    becomes 0; anything below that is returned as it is, so that a fault
    shows however small the variance.
    """
    n = _require_sample_size(n)
    m = dist.probs.size
    p = np.ascontiguousarray(np.sort(dist.probs)[::-1])
    log_q = _log_one_minus(p, n)
    q = np.exp(log_q)
    with np.errstate(divide="ignore", over="ignore"):  # inf at p == 1 and for t_i near 0
        t = math.sqrt(n) * (p / (1.0 - p))  # descending
        cut = np.searchsorted(-t, -_SERIES_X / t)  # first j with t_j <= _SERIES_X / t_i
    cut = np.maximum(cut, np.arange(1, m + 1))  # the series columns of row i start after i
    diag = _weighted_sum(_diagonal_terms(p, q, log_q), None)
    a = p * q
    direct = _direct_sum(p, q, _direct_rows(a, _suffix_sums(a), cut, diag), cut, n)
    series = _pair_series(a, t, cut, n)
    value = diag + 2.0 * (direct + series)
    if value < 0.0:
        # The diagonal's reference is p^2 q, which bounds its value
        # p^2 q (1 - q). The (m-1) eps covers the series' running sums,
        # 16 eps the other roundings.
        scale = _compensated_sum(p * p * q) + 2.0 * (abs(direct) + abs(series))
        if -value <= (m + 16) * _UNIT_ROUNDOFF * scale:
            value = 0.0
    return VarianceEstimate(value=value, method=VarianceMethod.EXACT, n=n)


def approx_variance_thm1(dist: DiscreteDistribution, n: int) -> VarianceEstimate:
    """Theorem-1 approximation -n (sum p^2 q)^2 + n sum p^3 q, q = (1-p)^n.

    Not O(1/n^2)-accurate against ``exact_variance`` (see the module
    docstring).

    Returned unclamped: slightly negative outputs on degenerate inputs are
    informative and must stay visible to regression tests.
    """
    n = _require_sample_size(n)
    a, b = _binomial_sums(dist, n, ("p^2 q", "p^3 q"))
    return VarianceEstimate(value=-n * a * a + n * b, method=VarianceMethod.THM1, n=n)


def poissonized_variance(dist: DiscreteDistribution, n: int) -> VarianceEstimate:
    """Poissonized approximation -n (sum p^2 e^{-np})^2 + n sum p^3 e^{-np}.

    Not O(1/n^2)-accurate against ``exact_variance`` (see the module
    docstring).

    Each summand p^k e^{-np} is evaluated as exp(k*log(p) - n*p), the
    log-domain form that neither overflows nor loses the small-p regime;
    zero-mass atoms contribute exactly zero. Both sums are computed at most
    once per (dist, n) (see :func:`_memo`).
    """
    n = _require_sample_size(n)
    sums = _memo(dist, "_poisson_sums", n)
    if len(sums) < 2:
        p, w = _atoms(dist)
        with np.errstate(divide="ignore"):
            logp = np.log(p)  # p == 0 -> -inf -> exp -> 0
        sums["p^2 e^{-np}"] = _weighted_sum(np.exp(2.0 * logp - n * p), w)
        sums["p^3 e^{-np}"] = _weighted_sum(np.exp(3.0 * logp - n * p), w)
    a, b = sums["p^2 e^{-np}"], sums["p^3 e^{-np}"]
    return VarianceEstimate(value=-n * a * a + n * b, method=VarianceMethod.POISSONIZED, n=n)


def expected_missing_mass(dist: DiscreteDistribution, n: int) -> float:
    """E[M0] = sum_s p_s (1-p_s)^n."""
    n = _require_sample_size(n)
    return _binomial_sums(dist, n, ("p q",))[0]
