"""Reference values that share no code path with the library.

* ``mp_profile``: mpmath at 50 digits over (distinct mass, multiplicity)
  pairs. Exact for inputs with few distinct masses at any alphabet size
  (uniform, near-uniform, worst-case shapes).
* ``np_moments`` / ``np_power_sums``: the same formulas written as plain
  numpy reductions (pairwise float64 sums, no compensated summation), with
  the variance taken as E[M0^2] - E[M0]^2 over all ordered pairs rather
  than the library's diagonal-plus-covariance identity.

Each value comes with a ``scale``: the sum of the absolute terms the
formula cancels, so a tolerance stated relative to it is meaningful even
where the result itself is tiny.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

MP_DIGITS = 50
_ROW_BLOCK = 512


def _q(p: np.ndarray, n: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.exp(n * np.log1p(-np.minimum(p, 1.0)))


def np_moments(p: np.ndarray, n: int) -> dict:
    """E[M0] and Var[M0] = E[M0^2] - E[M0]^2 by plain numpy sums."""
    q = _q(p, n)
    e1 = float(np.sum(p * q))
    e2 = float(np.sum(p * p * q))
    for lo in range(0, p.size, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, p.size)
        both = p[lo:hi, None] * p[None, :] * _q(p[lo:hi, None] + p[None, :], n)
        rows = np.arange(lo, hi)
        both[rows - lo, rows] = 0.0  # s == s' is the diagonal term, already in e2
        e2 += float(both.sum())
    return {"expected": e1, "variance": e2 - e1 * e1, "variance_scale": e2 + e1 * e1}


def np_power_sums(p: np.ndarray, n: int) -> dict:
    """thm1, poissonized, E[M0], sub-gamma and iid-majorization factors."""
    q = _q(p, n)
    a, b = float(np.sum(p * p * q)), float(np.sum(p**3 * q))
    e = np.exp(-n * p)
    pa, pb = float(np.sum(p * p * e)), float(np.sum(p**3 * e))
    pq = float(np.sum(p * q))
    iid_terms = p * p * q
    return {
        "thm1": -n * a * a + n * b,
        "thm1_scale": n * a * a + n * b,
        "poisson": -n * pa * pa + n * pb,
        "poisson_scale": n * pa * pa + n * pb,
        "expected": pq,
        "subgamma": a + pq / n,
        "iid": float(np.sum(iid_terms - iid_terms * q)),
        "iid_scale": a,
    }


def mp_profile(values: np.ndarray, counts: np.ndarray, n: int) -> dict:
    """Every quantity above, exactly, from (distinct mass, multiplicity) pairs."""
    with mpmath.workdps(MP_DIGITS):
        ps = [mpmath.mpf(float(v)) for v in values]
        cs = [int(c) for c in counts]
        q = [(1 - p) ** n for p in ps]
        e = [mpmath.exp(-n * p) for p in ps]
        s = lambda f: mpmath.fsum(c * f(i) for i, c in enumerate(cs))  # noqa: E731
        e1 = s(lambda i: ps[i] * q[i])
        a, b = s(lambda i: ps[i] ** 2 * q[i]), s(lambda i: ps[i] ** 3 * q[i])
        pa, pb = s(lambda i: ps[i] ** 2 * e[i]), s(lambda i: ps[i] ** 3 * e[i])
        pairs = mpmath.fsum(
            cs[g] * (cs[h] - (g == h)) * ps[g] * ps[h] * max(1 - ps[g] - ps[h], 0) ** n
            for g in range(len(ps))
            for h in range(len(ps))
        )
        e2 = a + pairs
        out = {
            "expected": e1,
            "variance": e2 - e1 * e1,
            "variance_scale": e2 + e1 * e1,
            "thm1": -n * a * a + n * b,
            "thm1_scale": n * a * a + n * b,
            "poisson": -n * pa * pa + n * pb,
            "poisson_scale": n * pa * pa + n * pb,
            "subgamma": a + e1 / n,
            "iid": s(lambda i: ps[i] ** 2 * (q[i] - q[i] ** 2)),
            "iid_scale": a,
        }
        return {k: float(v) for k, v in out.items()}


def mismatch(got: float, ref: float, scale: float, rtol: float) -> str | None:
    """None when |got - ref| <= rtol * scale, else a one-line reason."""
    if not math.isfinite(got) or abs(got - ref) > rtol * abs(scale):
        return f"got {got!r}, reference {ref!r} (tolerance {rtol:g} x {abs(scale):.3g})"
    return None
