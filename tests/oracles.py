"""Independent brute-force oracles used to validate the library.

Everything here is deliberately naive: full outcome enumeration and the
plain all-pairs covariance identity for the variance, ``math.fsum`` over
Python floats for compensated sums, a 50-digit mpmath
evaluation over (mass, multiplicity) groups, dense lattice scans for the
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
