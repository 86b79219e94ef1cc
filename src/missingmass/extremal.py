"""Worst-case missing-mass variance over all distributions.

For alphabet ratio b = m/n, the leading constant of the maximal variance
(which scales as alpha/n) solves the two-variable program

    maximize  alpha(w, c) = -w^2 c^2 e^{-2c} + w c^2 e^{-c}
    subject to 0 <= w <= 1,  w <= b*c,

where w is the total mass of a uniform block and c the rescaled atom mass
(c = p*n). The program reduces to one dimension: above the critical ratio
1/c* the maximizer is the unconstrained uniform block (w = 1, c = c*),
below it the alphabet constraint binds (w = b*c) and c maximizes
g_b(c) = -b^2 c^4 e^{-2c} + b c^3 e^{-c} over (0, 1/b]. That maximizer is
min(r, 1/b), where r is the one root in [3, 4) of d/dc log g_b. The
threshold c* is the unique root in (2, 3) of 2 - 2 e^c + c(-2 + e^c) = 0.
One bisection finds both roots, to within 1e-13.

``worst_case_distribution`` rounds the continuous maximizer to an integer
number of equal atoms plus one point mass; the rounding perturbs the
objective only at O(1/n^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .dist import DIRAC_OMIT_THRESHOLD, INFINITE, AlphabetBound, DiscreteDistribution, from_probs, uniform_dirac
from .variance import _require_sample_size

class Regime(Enum):
    UNIFORM = "UNIFORM"
    UNIFORM_DIRAC = "UNIFORM_DIRAC"


class BracketError(ArithmeticError):
    """A bisection bracket whose ends have the same nonzero sign, so it
    holds no root (a wrong bracket or corrupted arithmetic)."""


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
    onto the point: ``atom_mass`` is then 0 and ``dirac_mass`` 1.
    ``solution`` is the continuous maximizer that was rounded.
    """

    n: int
    atom_count: int
    atom_mass: float
    dirac_mass: float
    solution: ExtremalSolution

    def to_distribution(self) -> DiscreteDistribution:
        if self.atom_count == 0:
            return from_probs([1.0])
        return uniform_dirac(self.atom_count, self.atom_mass, self.dirac_mass)


def _transition_equation(c: float) -> float:
    return 2.0 - 2.0 * math.exp(c) + c * (-2.0 + math.exp(c))


def _bisect(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of ``fn`` in [lo, hi] to within 1e-13, by bisection.

    The end values are checked first: if they have the same nonzero sign,
    :class:`BracketError` is raised, so a wrong bracket or a corrupted
    evaluation cannot silently return garbage. A zero at an end is allowed.
    """
    flo = fn(lo)
    if flo * fn(hi) > 0.0:
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = fn(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


#: c*, solved once, at import.
_CSTAR = _bisect(_transition_equation, 2.0, 3.0)


def find_cstar() -> float:
    """Root of 2 - 2 e^c + c(-2 + e^c) = 0 in [2, 3], to within 1e-13.

    The root is solved once, at import; every call returns that value.
    """
    return _CSTAR


def objective_alpha(w: float, c: float) -> float:
    """alpha(w, c) = -w^2 c^2 e^{-2c} + w c^2 e^{-c}, for w >= 0, c >= 0.

    Evaluated as w c^2 e^{-c} (1 - w e^{-c}) with c^2 e^{-c} =
    exp(2 log c - c), so neither c^2 overflows nor e^{-c} underflows
    before the product is formed.
    """
    if c == 0.0:
        return 0.0
    return w * math.exp(2.0 * math.log(c) - c) * (1.0 - w * math.exp(-c))


# Below 1/c* the constraint w = b c binds and c maximizes
# g_b(c) = b c^3 e^{-c} (1 - b c e^{-c}) over (0, 1/b]. Multiplied by the
# positive c (1 - b c e^{-c}), d/dc log g_b is
#     N(c) = (3 - c) + 2 b c e^{-c} (c - 2),
# and N has exactly one root r, in [3, 4), since b < 1/c* < 0.4420:
#   - on (0, 2], 3 - c >= 1 while 2 b c e^{-c} (2 - c) <= 0.884 * 0.461 < 0.41
#     (0.461 is the maximum of c (2 - c) e^{-c});
#   - on [2, 3] both terms are >= 0, and N > 0 before 3. N(3) = 6 b e^{-3}
#     underflows to 0 at b = 5e-324, so the bracket check rejects only ends
#     of the same nonzero sign;
#   - on [3, 4], N' = -1 + 2 b e^{-c} (4c - c^2 - 2) <= -1 + 0.884 e^{-3} < 0,
#     and N(4) = -1 + 16 b e^{-4} < 0;
#   - on [4, 1/b], 3 - c <= -1 while b c <= 1 bounds the second term by
#     4 e^{-4} < 0.08.
# So g_b rises up to r and falls after it, and the maximizer is min(r, 1/b).


def solve_alpha(b: float) -> ExtremalSolution:
    """Optimal solution of the reduced program for alphabet ratio ``b``.

    For b >= 1/c* (or b = INFINITE) the alphabet constraint is slack and
    the answer is (w=1, c=c*). Otherwise w = b c, and c is the root r of
    d/dc log g_b in [3, 4), found by the bisection that gives c*, to
    within 1e-13. When 1/b < r the optimum is the corner c = 1/b, w = 1
    exactly. The sign of the derivative is evaluated in a form that stays
    finite for any b > 0, including subnormal b.
    """
    if isinstance(b, AlphabetBound):
        b = b.value
    if not b > 0.0:
        raise InvalidRatioError(f"alphabet ratio must be positive, got {b!r}")
    cstar = find_cstar()
    if b >= 1.0 / cstar:
        c, w, regime = cstar, 1.0, Regime.UNIFORM
    else:
        root = _bisect(lambda c: 3.0 - c + 2.0 * b * c * math.exp(-c) * (c - 2.0), 3.0, 4.0)
        c, w = (1.0 / b, 1.0) if 1.0 / b < root else (root, b * root)
        regime = Regime.UNIFORM_DIRAC
    return ExtremalSolution(alpha=objective_alpha(w, c), w=w, c=c, regime=regime, b=b)


def worst_case_distribution(n: int, m: AlphabetBound | int | float = INFINITE) -> WorstCaseSpec:
    """Variance-maximizing uniform-plus-point-mass shape for (n, m).

    With (w, c) from ``solve_alpha`` set p1 = c/n and k = w/p1; the atom
    count is ceil(k) capped at m-1, falling back to floor(k) whenever the
    ceiling would overshoot total mass 1 (a negative point mass is not a
    distribution). The remainder becomes the point mass, reported as 0
    below :data:`~missingmass.dist.DIRAC_OMIT_THRESHOLD`. With no atom
    (n < c*) ``atom_mass`` is 0, not p1.
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
    if dirac < DIRAC_OMIT_THRESHOLD:
        dirac = 0.0
    atom_mass = p1 if atom_count else 0.0
    return WorstCaseSpec(n=n, atom_count=atom_count, atom_mass=atom_mass, dirac_mass=dirac, solution=sol)
