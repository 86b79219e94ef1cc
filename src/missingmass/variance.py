"""Variance of the missing mass under IID sampling.

Let xi_s indicate that symbol s is unseen after n draws, so the missing
mass is M0 = sum_s p_s * xi_s. This module evaluates Var[M0] three ways:

* ``exact_variance``: the full identity
  Var[M0] = sum_s p_s^2 Var[xi_s] + sum_{s != s'} p_s p_s' Cov[xi_s, xi_s']
  with Var[xi_s] = (1-p_s)^n - (1-p_s)^{2n} and
  Cov[xi_s, xi_s'] = (1-p_s-p_s')^n - (1-p_s)^n (1-p_s')^n.
  Quadratic in the alphabet size, hence capped at
  :data:`EXACT_ALPHABET_LIMIT` atoms.
* ``approx_variance_thm1``: -n (sum p^2 (1-p)^n)^2 + n sum p^3 (1-p)^n,
  accurate to O(1/n^2).
* ``poissonized_variance``: the same shape with e^{-np} in place of
  (1-p)^n, also O(1/n^2) and friendlier for analysis.

Powers are evaluated as exp(n*log1p(-p)) so that p near 0 with large n
keeps full relative accuracy, and atom sums use compensated summation so
that 1e6-atom inputs do not drown the O(1/n) signal in rounding noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dist import DiscreteDistribution

#: exact_variance refuses alphabets beyond this size; the pairwise sum is
#: O(m^2) and the approximations are the intended tool for large m.
EXACT_ALPHABET_LIMIT = 20000

_CHUNK_ROWS = 256


class VarianceMethod(Enum):
    EXACT = "exact"
    THM1 = "thm1"
    POISSONIZED = "poissonized"


class AlphabetTooLargeError(ValueError):
    """Raised when exact evaluation would exceed the O(m^2) size cap."""


@dataclass(frozen=True)
class VarianceEstimate:
    """Variance value tagged with the method and sample size that produced it."""

    value: float
    method: VarianceMethod
    n: int


def _require_sample_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")


def _fsum(values: np.ndarray) -> float:
    """Compensated (exact) sum of a float64 vector."""
    return math.fsum(values.tolist())


def _pow_one_minus(p: np.ndarray, exponent: float) -> np.ndarray:
    """(1-p)**exponent via exp(exponent*log1p(-p)); exact 0 at p == 1."""
    with np.errstate(divide="ignore"):
        return np.exp(exponent * np.log1p(-p))


def _pairwise_chunk(p: np.ndarray, q: np.ndarray, n: int, start: int) -> float:
    """Covariance contribution of pairs (i, j), start <= i < start+chunk, j > i.

    The chunk's pair terms are reduced with fsum, which is exact, so for
    alphabets that fit in one chunk the whole pair sum is independent of
    atom order down to the last bit.
    """
    stop = min(start + _CHUNK_ROWS, p.size)
    pi = p[start:stop, None]
    qi = q[start:stop, None]
    s = np.minimum(pi + p[None, start:], 1.0)
    cov = _pow_one_minus(s, n) - qi * q[None, start:]
    terms = pi * p[None, start:] * cov
    upper = ~np.tri(terms.shape[0], terms.shape[1], k=0, dtype=bool)
    return math.fsum(terms[upper].tolist())


def _diagonal_variance(p: np.ndarray, n: int) -> float:
    """sum p^2 ((1-p)^n - (1-p)^{2n}): Var[M0] with every covariance dropped."""
    return _fsum(p * p * (_pow_one_minus(p, n) - _pow_one_minus(p, 2 * n)))


def exact_variance(dist: DiscreteDistribution, n: int) -> VarianceEstimate:
    """Exact Var[M0] from the pairwise covariance identity, no truncation.

    Pair terms are reduced per fixed row chunk, then across chunks in order.
    """
    _require_sample_size(n)
    p = dist.probs
    m = p.size
    if m > EXACT_ALPHABET_LIMIT:
        raise AlphabetTooLargeError(
            f"{m} atoms exceeds the exact-mode limit of {EXACT_ALPHABET_LIMIT}; "
            "use approx_variance_thm1 or poissonized_variance"
        )
    q = _pow_one_minus(p, n)
    off = 2.0 * math.fsum([_pairwise_chunk(p, q, n, a) for a in range(0, m, _CHUNK_ROWS)])
    value = _diagonal_variance(p, n) + off
    if -1e-12 < value < 0.0:
        value = 0.0  # cancellation noise only; a real negative would be a bug
    return VarianceEstimate(value=value, method=VarianceMethod.EXACT, n=n)


def approx_variance_thm1(dist: DiscreteDistribution, n: int) -> VarianceEstimate:
    """O(1/n^2)-accurate approximation -n (sum p^2 q)^2 + n sum p^3 q, q = (1-p)^n.

    Returned unclamped: slightly negative outputs on degenerate inputs are
    informative and must stay visible to regression tests.
    """
    _require_sample_size(n)
    p = dist.probs
    q = _pow_one_minus(p, n)
    a = _fsum(p * p * q)
    b = _fsum(p * p * p * q)
    return VarianceEstimate(value=-n * a * a + n * b, method=VarianceMethod.THM1, n=n)


def poissonized_variance(dist: DiscreteDistribution, n: int) -> VarianceEstimate:
    """Poissonized approximation -n (sum p^2 e^{-np})^2 + n sum p^3 e^{-np}.

    Each summand p^k e^{-np} is evaluated as exp(k*log(p) - n*p), the
    log-domain form that neither overflows nor loses the small-p regime;
    zero-mass atoms contribute exactly zero.
    """
    _require_sample_size(n)
    p = dist.probs
    with np.errstate(divide="ignore"):
        logp = np.log(p)  # p == 0 -> -inf -> exp -> 0
    a = _fsum(np.exp(2.0 * logp - n * p))
    b = _fsum(np.exp(3.0 * logp - n * p))
    return VarianceEstimate(value=-n * a * a + n * b, method=VarianceMethod.POISSONIZED, n=n)


def expected_missing_mass(dist: DiscreteDistribution, n: int) -> float:
    """E[M0] = sum_s p_s (1-p_s)^n."""
    _require_sample_size(n)
    p = dist.probs
    return _fsum(p * _pow_one_minus(p, n))
