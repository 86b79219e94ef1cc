"""Worst-case missing-mass variance over all distributions.

For alphabet ratio b = m/n, the leading constant of the maximal variance
(which scales as alpha/n) solves the two-variable program

    maximize  alpha(w, c) = -w^2 c^2 e^{-2c} + w c^2 e^{-c}
    subject to 0 <= w <= 1,  w <= b*c,

where w is the total mass of a uniform block and c the rescaled atom mass
(c = p*n). The program reduces to one dimension: above the critical ratio
1/c* the maximizer is the unconstrained uniform block (w = 1, c = c*),
below it the alphabet constraint binds and c is found by maximizing
g_b(c) = -b^2 c^4 e^{-2c} + b c^3 e^{-c} over (0, min(1/b, 4)]. The threshold c*
is the unique root in (2, 3) of 2 - 2 e^c + c(-2 + e^c) = 0.

``worst_case_distribution`` rounds the continuous maximizer to an integer
number of equal atoms plus one point mass; the rounding perturbs the
objective only at O(1/n^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .dist import INFINITE, AlphabetBound, DiscreteDistribution, from_probs, uniform_dirac
from .variance import _require_sample_size

#: Points in the coarse scan that brackets the 1-D maximizer.
GRID_POINTS = 1000

#: g_b decreases on [SCAN_C_MAX, 1/b]: g_b'(c) = b c^2 e^{-c} [(3 - c) +
#: b c e^{-c} (2c - 4)], and for c >= 4 the first part is <= -1 while
#: b c <= 1 bounds the second by 4 e^{-4} < 0.08. So the maximizer lies
#: in (0, min(1/b, SCAN_C_MAX)] and the scan needs no wider range.
SCAN_C_MAX = 4.0

#: Bracket width at which golden-section refinement stops.
GOLDEN_TOL = 1e-10

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Regime(Enum):
    UNIFORM = "UNIFORM"
    UNIFORM_DIRAC = "UNIFORM_DIRAC"


class BracketError(ArithmeticError):
    """The root bracket for c* has inconsistent signs (arithmetic corruption)."""


class InvalidRatioError(ValueError):
    """Alphabet ratio b must be positive (or INFINITE)."""


class InvalidAlphabetError(ValueError):
    """Finite alphabets need at least two symbols."""


@dataclass(frozen=True)
class ExtremalSolution:
    """Optimal (alpha, w, c) for a given alphabet ratio b."""

    alpha: float
    w: float
    c: float
    regime: Regime
    b: float


@dataclass(frozen=True)
class WorstCaseSpec:
    """Integer-feasible rounding of the continuous maximizer.

    ``atom_count`` equal atoms of ``atom_mass`` plus one point mass of
    ``dirac_mass`` (reported as 0 when it vanishes). ``atom_count`` can be 0
    only in the degenerate regime n < c*, where the whole mass collapses
    onto the point.
    """

    n: int
    atom_count: int
    atom_mass: float
    dirac_mass: float

    def to_distribution(self) -> DiscreteDistribution:
        if self.atom_count == 0:
            return from_probs([1.0])
        return uniform_dirac(self.atom_count, self.atom_mass, self.dirac_mass)


def _transition_equation(c: float) -> float:
    return 2.0 - 2.0 * math.exp(c) + c * (-2.0 + math.exp(c))


def find_cstar() -> float:
    """Root of 2 - 2 e^c + c(-2 + e^c) = 0 in [2, 3], to 1e-12.

    Plain bracketing bisection; the bracket signs are checked first so a
    corrupted evaluation cannot silently return garbage.
    """
    lo, hi = 2.0, 3.0
    flo = _transition_equation(lo)
    if flo * _transition_equation(hi) >= 0.0:
        raise BracketError("no sign change on [2, 3]")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if flo * _transition_equation(mid) <= 0.0:
            hi = mid
        else:
            lo, flo = mid, _transition_equation(mid)
    return 0.5 * (lo + hi)


def objective_alpha(w: float, c: float) -> float:
    """alpha(w, c) = -w^2 c^2 e^{-2c} + w c^2 e^{-c}, for w >= 0, c >= 0.

    Evaluated as w c^2 e^{-c} (1 - w e^{-c}) with c^2 e^{-c} =
    exp(2 log c - c), so neither c^2 overflows nor e^{-c} underflows
    before the product is formed.
    """
    if c == 0.0:
        return 0.0
    return w * math.exp(2.0 * math.log(c) - c) * (1.0 - w * math.exp(-c))


def _golden_section_max(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Maximizer of ``fn`` on [lo, hi] to within GOLDEN_TOL."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > GOLDEN_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def solve_alpha(b: float) -> ExtremalSolution:
    """Optimal solution of the reduced program for alphabet ratio ``b``.

    For b >= 1/c* (or b = INFINITE) the alphabet constraint is slack and
    the answer is (w=1, c=c*). Otherwise g_b is maximized over
    (0, min(1/b, SCAN_C_MAX)] with a coarse scan (g_b is smooth but not
    proven unimodal, so the scan guards against a missed hump) followed by
    golden-section refinement on the bracketing cell; ties in the scan
    resolve to the smallest c. Both maximize
    log g_b(c) - log b = 3 log c - c + log1p(-b c e^{-c}), which has the same
    maximizer and stays finite for any b > 0, including subnormal b.
    """
    if isinstance(b, AlphabetBound):
        b = b.value
    if not b > 0.0:
        raise InvalidRatioError(f"alphabet ratio must be positive, got {b!r}")
    cstar = find_cstar()
    if b >= 1.0 / cstar:
        c, w, regime = cstar, 1.0, Regime.UNIFORM
    else:
        cap = min(1.0 / b, SCAN_C_MAX)

        def log_g(c: float) -> float:
            return 3.0 * math.log(c) - c + math.log1p(-b * c * math.exp(-c))

        grid = np.linspace(0.0, cap, GRID_POINTS + 1)[1:]
        vals = 3.0 * np.log(grid) - grid + np.log1p(-b * grid * np.exp(-grid))
        i = int(np.argmax(vals))  # first occurrence, i.e. smallest c on ties
        lo = grid[i - 1] if i > 0 else 0.0
        hi = grid[i + 1] if i + 1 < grid.size else cap
        c = _golden_section_max(log_g, lo, hi)
        w = b * c
        regime = Regime.UNIFORM_DIRAC
    return ExtremalSolution(alpha=objective_alpha(w, c), w=w, c=c, regime=regime, b=b)


def worst_case_distribution(n: int, m: AlphabetBound | int | float = INFINITE) -> WorstCaseSpec:
    """Variance-maximizing uniform-plus-point-mass shape for (n, m).

    With (w, c) from ``solve_alpha`` set p1 = c/n and k = w/p1; the atom
    count is ceil(k) capped at m-1, falling back to floor(k) whenever the
    ceiling would overshoot total mass 1 (a negative point mass is not a
    distribution). The remainder becomes the point mass, reported as 0
    below 1e-12.
    """
    _require_sample_size(n)
    bound = m if isinstance(m, AlphabetBound) else AlphabetBound(m)
    if bound.is_finite and bound.value < 2:
        raise InvalidAlphabetError(f"need at least 2 alphabet symbols, got {bound.value:g}")
    sol = solve_alpha(INFINITE if not bound.is_finite else bound.value / n)
    p1 = sol.c / n
    k = sol.w / p1
    cap = bound.value - 1.0 if bound.is_finite else math.inf
    atom_count = int(min(math.ceil(k), cap))
    if atom_count * p1 > 1.0:
        atom_count = int(min(math.floor(k), cap))
    dirac = 1.0 - atom_count * p1
    if dirac < 1e-12:
        dirac = 0.0
    return WorstCaseSpec(n=n, atom_count=atom_count, atom_mass=p1, dirac_mass=dirac)
