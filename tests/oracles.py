"""Independent brute-force oracles used to validate the library.

Everything here is deliberately naive: full outcome enumeration and the
plain all-pairs covariance identity for the variance, ``math.fsum`` over
Python floats for compensated sums, a 50-digit mpmath
evaluation over (mass, multiplicity) groups, a 60-digit mpmath binomial
expansion over power sums for the light atoms, dense lattice scans for the
optimizer, one-draw-at-a-time CDF lookups for a Monte-Carlo sample. These stay independent of the code paths they check.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np


def enumeration_moments(probs: list[float], n: int) -> tuple[float, float]:
    """(E[M0], Var[M0]) by enumerating all m^n equally-typed outcomes."""
    m = len(probs)
    first: list[float] = []
    second: list[float] = []
    for outcome in itertools.product(range(m), repeat=n):
        pr = 1.0
        for i in outcome:
            pr *= probs[i]
        seen = set(outcome)
        m0 = math.fsum(probs[s] for s in range(m) if s not in seen)
        first.append(pr * m0)
        second.append(pr * m0 * m0)
    em = math.fsum(first)
    em2 = math.fsum(second)
    return em, em2 - em * em


def per_draw_missing_mass(probs, u_row) -> tuple[set[int], float]:
    """(unseen atoms, their fsum'd mass) for one sample given its uniforms
    in draw order. Each draw is looked up on its own in the running-sum CDF:
    it lands on the first atom whose cumulative mass exceeds it, or on the
    last atom when rounding leaves the total below the draw."""
    cdf = list(itertools.accumulate(float(p) for p in probs))
    seen = {min(bisect.bisect_right(cdf, float(u)), len(cdf) - 1) for u in u_row}
    unseen = set(range(len(cdf))) - seen
    return unseen, math.fsum(float(probs[i]) for i in unseen)


def fsum_reference(x) -> float:
    """Correctly rounded sum of a float64 vector: math.fsum over its entries
    as Python floats, sharing no code with the library's vectorised kernel."""
    return math.fsum(np.asarray(x, dtype=np.float64).ravel().tolist())


def pairwise_variance(probs, n: int) -> float:
    """Var[M0] from the full identity: every one of the m(m-1)/2 covariance
    terms p p' [(1-p-p')^n - (1-p)^n (1-p')^n] evaluated directly, in row
    chunks reduced with fsum, O(m^2) time."""
    p = np.asarray(probs, dtype=np.float64)
    chunk_rows = 256
    with np.errstate(divide="ignore"):
        q = np.exp(n * np.log1p(-p))
        q2 = np.exp(2 * n * np.log1p(-p))
        chunks = []
        for start in range(0, p.size, chunk_rows):
            stop = min(start + chunk_rows, p.size)
            pi = p[start:stop, None]
            s = np.minimum(pi + p[None, start:], 1.0)
            cov = np.exp(n * np.log1p(-s)) - q[start:stop, None] * q[None, start:]
            terms = pi * p[None, start:] * cov
            upper = ~np.tri(terms.shape[0], terms.shape[1], k=0, dtype=bool)
            chunks.append(math.fsum(terms[upper].tolist()))
    return math.fsum((p * p * (q - q2)).tolist()) + 2.0 * math.fsum(chunks)


def profile_variance_mpmath(masses: list[float], counts: list[int], n: int) -> float:
    """Var[M0] for ``counts[g]`` atoms of mass ``masses[g]`` each, in mpmath at
    50 digits over pairs of groups; O(k^2) for k groups. The masses
    are taken as the exact binary values of the given floats."""
    import mpmath

    with mpmath.workdps(50):
        x = [mpmath.mpf(v) for v in masses]
        q = [(1 - v) ** n for v in x]
        var = mpmath.fsum(c * v * v * (qv - qv * qv) for c, v, qv in zip(counts, x, q))
        for g, (cg, xg, qg) in enumerate(zip(counts, x, q)):
            for h, (ch, xh, qh) in enumerate(zip(counts, x, q)):
                pairs = cg * (ch - 1) if g == h else cg * ch
                var += pairs * xg * xh * ((1 - xg - xh) ** n - qg * qh)
        return float(var)


def light_variance_mpmath(probs, n: int, dps: int = 60) -> tuple[float, float]:
    """(Var[M0], bound) in mpmath at ``dps`` digits, with u = p/(1-p), for the
    atoms with n u^2 <= 1/4 only, and the bound on what the others add.

    For those light atoms the pairs' covariance terms, a a' [(1 - u u')^n - 1]
    with a = p (1-p)^n, add up by the binomial theorem to
    sum_{k=1}^{n} (-1)^k C(n, k) (A_k^2 - B_k), with A_k = sum a u^k and
    B_k = sum a^2 u^(2k) taking out the s = s' terms. Since n u u' <= 1/4,
    term k is at most A_0^2 0.25^k / k!, and the sum stops once that falls
    below 10^-dps A_0^2. No pair is evaluated, so the cost is O(m k). Every
    other atom is left out: its own term p^2 q (1-q) is at most p a, and its
    covariance terms lie in [-a a', 0] (negative association), so all it adds
    lies within a (p + 2 sum a') of 0; the bound is the sum of that over the
    atoms left out. The masses are taken as the exact binary values of the
    given floats."""
    import mpmath

    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(v)) for v in probs]
        a = [v * (1 - v) ** n for v in x]
        total_a = mpmath.fsum(a)
        var = left_out = mpmath.mpf(0)
        w, u = [], []  # a and u of the light atoms
        for av, v in zip(a, x):
            uv = v / (1 - v) if v < 1 else mpmath.inf
            if n * uv * uv <= 0.25:
                var += av * v * (1 - (1 - v) ** n)
                w.append(av)
                u.append(uv)
            else:
                left_out += av * (v + 2 * total_a)
        w2 = [wv * wv for wv in w]
        step = mpmath.mpf(1)  # 0.25^k / k!
        for k in range(1, n + 1):
            step /= 4 * k
            if step < mpmath.mpf(10) ** -dps:
                break
            w = [wv * uv for wv, uv in zip(w, u)]
            w2 = [wv * uv * uv for wv, uv in zip(w2, u)]
            var += (-1) ** k * mpmath.binomial(n, k) * (mpmath.fsum(w) ** 2 - mpmath.fsum(w2))
        return float(var), float(left_out)


def profile_power_sums_mpmath(masses: list[float], counts: list[int], n: int) -> dict[str, tuple[float, float]]:
    """The five power sums for ``counts[g]`` atoms of mass ``masses[g]`` each, in
    mpmath at 50 digits, as {name: (value, scale)}; the scale is the sum of the
    absolute values of the terms that make up the value, such as n a^2 + n b
    for -n a^2 + n b. Names: thm1, poissonized, expected, subgamma, iid. The
    masses are taken as the exact binary values of the given floats."""
    import mpmath

    with mpmath.workdps(50):
        x = [mpmath.mpf(v) for v in masses]

        def total(term):
            return mpmath.fsum(c * term(v) for c, v in zip(counts, x))

        def q(v):
            return (1 - v) ** n

        a, b = total(lambda v: v * v * q(v)), total(lambda v: v**3 * q(v))
        pa, pb = total(lambda v: v * v * mpmath.exp(-n * v)), total(lambda v: v**3 * mpmath.exp(-n * v))
        expected = total(lambda v: v * q(v))
        iid = total(lambda v: v * v * (q(v) - q(v) ** 2))
        out = {
            "thm1": (-n * a * a + n * b, n * a * a + n * b),
            "poissonized": (-n * pa * pa + n * pb, n * pa * pa + n * pb),
            "expected": (expected, expected),
            "subgamma": (a + expected / n, a + expected / n),
            "iid": (iid, iid),
        }
        return {k: (float(v), float(s)) for k, (v, s) in out.items()}


def lattice_alpha_max(b: float, grid: int = 2000, c_max: float = 20.0) -> float:
    """Max of -w^2 c^2 e^{-2c} + w c^2 e^{-c} on a grid x grid lattice of
    the feasible region {0 <= w <= min(1, b*c), 0 < c <= c_max}.

    The corner (w = 1, c = 1/b), where the bounds w <= 1 and w <= b*c meet,
    is scanned as well whenever 1/b <= c_max: the objective's gradient is not
    zero there, so a c-grid that misses 1/b would lose the optimum to first
    order in its step."""
    cs = np.linspace(0.0, c_max, grid + 1)[1:]
    if not math.isinf(b) and 1.0 / b <= c_max:
        cs = np.append(cs, 1.0 / b)
    us = np.linspace(0.0, 1.0, grid)
    wmax = np.ones_like(cs) if math.isinf(b) else np.minimum(1.0, b * cs)
    w = us[:, None] * wmax[None, :]
    c = cs[None, :]
    vals = -w * w * c * c * np.exp(-2.0 * c) + w * c * c * np.exp(-c)
    return float(vals.max())


def scan_branch2_max(b: float, points: int = 100000, c_max: float | None = None) -> tuple[float, float]:
    """(value, argmax) of -b^2 c^4 e^{-2c} + b c^3 e^{-c} on a dense grid of
    (0, c_max or 1/b]."""
    cap = 1.0 / b if c_max is None else c_max
    cs = np.linspace(0.0, cap, points + 1)[1:]
    vals = -(b * b) * cs**4 * np.exp(-2.0 * cs) + b * cs**3 * np.exp(-cs)
    i = int(np.argmax(vals))
    return float(vals[i]), float(cs[i])


def simplex_grid(atoms: int, step_parts: int = 10) -> list[list[float]]:
    """All probability vectors with ``atoms`` entries on a 1/step_parts grid."""
    if atoms == 1:
        return [[1.0]]
    out = []
    for cuts in itertools.combinations_with_replacement(range(step_parts + 1), atoms - 1):
        parts = [cuts[0]] + [cuts[i] - cuts[i - 1] for i in range(1, atoms - 1)] + [step_parts - cuts[-1]]
        out.append([p / step_parts for p in parts])
    return out


def subgamma_family_scan(n: int, max_atoms: int) -> tuple[float, int, float]:
    """(max of n*subgamma_v, k, w) over k equal atoms of mass w/k plus a point
    mass 1 - w: every k of a 200-point log-spaced grid up to ``max_atoms``,
    each against 201 evenly spaced w in [0, 1]; the first best point wins."""
    ks = np.unique(np.geomspace(1, max_atoms, num=200).astype(np.int64))
    ws = np.linspace(0.0, 1.0, 201)
    best = (-math.inf, 1, 0.0)
    with np.errstate(divide="ignore"):
        for k in ks:
            p = ws / k
            d = 1.0 - ws
            q = np.exp(n * np.log1p(-p))
            qd = np.exp(n * np.log1p(-d))
            v = k * p * p * q + d * d * qd + (k * p * q + d * qd) / n
            i = int(np.argmax(v))
            if n * v[i] > best[0]:
                best = (float(n * v[i]), int(k), float(ws[i]))
    return best
