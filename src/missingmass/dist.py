"""Discrete probability distributions over finite alphabets.

Every other module consumes the validated vectors built here. Zero-mass
atoms are legal and count toward the support size: the extremal solver
reasons about alphabet slots, not occupied slots.

This module is also the one home of the library's compensated atom sum,
:func:`_compensated_sum`, since it is the module every other one imports.
From one 2048-term row up it runs a vectorised TwoSum fold, and the
result is within one rounding of the exact sum plus a term of order
eps^2 sum|x|. Below one row it returns the correctly rounded sum, what
``math.fsum`` over the terms returns, and size alone picks the path.
Fewer than 768 terms get plain fsum. From 768 to 2047 terms the same
fold runs down to 64 lanes, and ``math.fsum`` over their 128 sums and
errors gives a value r and its residual d. A certificate,
r + d +- gamma_2h^2 sum|x| inside the interval that rounds to r for h
halvings, proves r is the correctly rounded sum. Where it cannot, fsum
runs over the terms. On the ``perfbench`` inputs, seeds 1-10, 230 of
the 790 short sums had 768 or more terms, and a cost model that
estimated fsum's cost from the terms' span folded all 230: size alone
routes them the same way.

A distribution whose masses come in long runs of equal consecutive atoms,
like ``uniform(m)`` and the worst case (equal atoms and one point mass),
also has a run profile: the (values, counts) of those runs, found on
first use by one adjacent-difference scan in atom order, with no sort.
The power sums in ``variance`` and ``concentration`` evaluate their terms
once per run and add count x term through :func:`_weighted_sum`, which
hands the compensated sum exact pieces of each product, so they cost
O(runs), not O(m). A shuffled vector of repeated masses has short runs
and keeps the per-atom vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .sizes import DIRAC_OMIT_THRESHOLD, _require_int
from .sizes import INFINITE, AlphabetBound  # only re-exported

#: Absolute tolerance on |sum(probs) - 1|. Loose enough to absorb rounding
#: accumulated over ~1e6 atoms, tight enough to catch construction bugs.
NORMALIZATION_ATOL = 1e-9

#: Column count of the (rows, _SUM_WIDTH) view that :func:`_compensated_sum`
#: runs down; a shorter input that is folded is zero-padded to a power of two.
_SUM_WIDTH = 2048

#: A short input is folded down to this many lanes, whose sums and errors
#: then go to ``math.fsum``: 128 partials over few binades, where fsum is
#: fast, while each further halving would cost more than it saves there.
_SHORT_LANES = 64

#: Inputs shorter than this get plain ``math.fsum``, which reads them
#: through a memoryview; longer ones, up to one row, get the fold and its
#: certificate. Timed per call on a 2-core Xeon, the fold costs 35-50 us
#: from 768 to 2047 terms whatever they span, and breaks even with fsum
#: at about 2000 terms within a few binades and below 512 terms over 1000
#: binades; from 768 terms up it costs close terms at most about 15 us
#: more than fsum, and saves 60-250 us on terms over 1000 binades.
_SHORT_FOLD_MIN = 768

_UNIT_ROUNDOFF = 2.0**-53

#: :func:`_weighted_sum` splits each count at this power of two, and each
#: term into its top 26 significand bits and the other 27, so that a count
#: piece times a term piece has at most 53 significant bits.
_COUNT_RADIX = 2**26
_LOW_27_BITS = np.uint64(2**27 - 1)

#: The run profile is kept only when its runs average at least this many
#: atoms, so its 2 pieces per run leave the compensated sum at most a
#: quarter as long as the vector. Timed over the five power-sum functions
#: and ``gap_report`` on a 2-core Xeon, runs of 8 atoms were then 2-3.4
#: times faster than the vector from 2000 to 1e6 atoms and within 20 us of
#: it at 442; runs of 2 or 3 atoms were up to 1.9 times slower at 1e6.
_MIN_MEAN_RUN = 8


def _two_sum(s: np.ndarray, x: np.ndarray, e: np.ndarray, t: np.ndarray, z: np.ndarray, w: np.ndarray) -> None:
    """Elementwise TwoSum (Knuth): t <- fl(s + x), and e += the exact rounding error s + x - t.

    z and w are scratch arrays of the same shape; s and x are only read.
    """
    np.add(s, x, out=t)
    np.subtract(t, s, out=z)
    np.subtract(t, z, out=w)
    np.subtract(s, w, out=w)
    np.subtract(x, z, out=z)
    np.add(w, z, out=w)
    np.add(e, w, out=e)


def _fold(s: np.ndarray, e: np.ndarray, t: np.ndarray, z: np.ndarray, w: np.ndarray, lanes: int) -> np.ndarray:
    """Fold the columns of s in half by TwoSum until ``lanes`` are left, adding e along the same halvings.

    s.size must be ``lanes`` times a power of two; t, z and w are scratch
    arrays as long as s. Returns the array, s or t, that holds the sums in
    its first ``lanes`` entries; e holds the errors in its own.
    """
    width = s.size
    while width > lanes:
        width //= 2
        np.add(e[:width], e[width : 2 * width], out=e[:width])
        _two_sum(s[:width], s[width : 2 * width], e[:width], t[:width], z[:width], w[:width])
        s, t = t, s
    return s


def _short_sum(x: np.ndarray) -> float:
    """Sum of fewer than _SUM_WIDTH terms, correctly rounded: equal to ``math.fsum`` over them.

    Size alone picks the path. Fewer than _SHORT_FOLD_MIN terms get plain
    fsum. Longer ones, with sum|x| finite and below 2^1023, are zero-padded
    to a power of two and folded by :func:`_fold` down to _SHORT_LANES
    lanes in h halvings. The lanes' sums and errors are the partials;
    r = fsum(partials) and d = fsum(partials + [-r]), so r + d is their
    exact total. The TwoSums are exact, their rounding errors add up to at
    most gamma_h sum|x|, and each error reaches the lanes through at most
    2h roundings, so the exact sum lies within gamma_2h^2 sum|x| of r + d.
    When that whole interval, with a margin, lies within half the spacing
    to the floats next to r, on each side, the exact sum rounds to r,
    which is what fsum returns. Otherwise the result is ``math.fsum`` over
    the terms, or NaN where fsum raises. The 2^1023 cap keeps the fold and
    fsum's running sums from overflowing; inf and NaN terms fail it.
    """
    if x.size >= _SHORT_FOLD_MIN:
        scale = float(np.add.reduce(np.abs(x)))
        if 0.0 < scale < 2.0**1023:
            lanes = 1 << (x.size - 1).bit_length()  # the next power of two
            s, e, t, z, w = np.zeros((5, lanes))
            s[: x.size] = x
            s = _fold(s, e, t, z, w, _SHORT_LANES)
            partials = s[:_SHORT_LANES].tolist() + e[:_SHORT_LANES].tolist()
            r = math.fsum(partials)
            partials.append(-r)
            d = math.fsum(partials)
            depth = 2 * ((lanes // _SHORT_LANES).bit_length() - 1)  # 2h
            gamma = depth * _UNIT_ROUNDOFF / (1.0 - depth * _UNIT_ROUNDOFF)
            # the factor 2 and the 2^-20 |d| cover the roundings of sum|x|, of d and of these lines
            err = 2.0 * gamma * gamma * scale + abs(d) * 2.0**-20
            if 2.0 * (d + err) < math.nextafter(r, math.inf) - r and 2.0 * (err - d) < r - math.nextafter(r, -math.inf):
                return r
    try:
        return math.fsum(memoryview(x))  # the same floats as x.tolist(), without building the list
    except (OverflowError, ValueError):  # fsum raises on overflow and on inf - inf
        return math.nan


def _compensated_sum(x: np.ndarray) -> float:
    """Sum of every entry of a float64 array, as if in twice the working precision.

    Sum2 of Ogita, Rump & Oishi (2005, "Accurate sum and dot product"): the
    leading rows of :data:`_SUM_WIDTH` terms are added down the columns of
    one accumulator by a cascaded TwoSum, vectorised across the columns;
    one more TwoSum adds the leftover tail into the first columns. The
    columns are then folded in half log2(_SUM_WIDTH) = 11 times by the
    same vectorised TwoSum (:func:`_fold`), the column errors are added
    along the same halvings, and the result is s[0] + e[0]. Every term
    thus passes through at most rows + 12 TwoSums and every error through
    at most rows + 23 roundings, and their argument for Sum2, with these
    depths in place of the term count, puts the result within one
    rounding of the exact sum plus gamma_{rows+23}^2 * sum|x|,
    gamma_k = k eps / (1 - k eps); the tests hold it to one ulp plus
    rows * eps^2 * sum|x|. With no full row the result is the correctly
    rounded sum, equal to ``math.fsum`` over the entries: plain fsum on
    fewer than 768 entries, otherwise the same fold down to 64 lanes and a
    certificate that their fsum is correctly rounded (see
    :func:`_short_sum`). Memory is
    O(_SUM_WIDTH) beyond the input, and the cost past the column pass is
    a fixed 12 vectorised TwoSums. A non-finite entry or an overflowing
    sum gives the plain numpy sum, inf or NaN, not an exception.
    """
    x = np.ravel(x)
    rows, k = divmod(x.size, _SUM_WIDTH)
    with np.errstate(over="ignore", invalid="ignore"):
        if not rows:
            total = _short_sum(x)
        else:
            s, e, t, z, w = np.zeros((5, _SUM_WIDTH))
            for row in x[: rows * _SUM_WIDTH].reshape(rows, _SUM_WIDTH):
                _two_sum(s, row, e, t, z, w)
                s, t = t, s
            _two_sum(s[:k], x[rows * _SUM_WIDTH :], e[:k], t[:k], z[:k], w[:k])
            s[:k] = t[:k]
            s = _fold(s, e, t, z, w, 1)
            total = float(s[0] + e[0])
        return total if math.isfinite(total) else float(np.sum(x))


def _weighted_sum(x: np.ndarray, w: np.ndarray | None) -> float:
    """sum_i w_i x_i for integer counts w_i >= 1 and finite terms |x_i| <= 1; with w None, _compensated_sum(x).

    The result is :func:`_compensated_sum` over exact pieces of the
    products, so it is what that sum gives over the per-atom vector, x_i
    repeated w_i times, without building it. Each term is split into hi,
    its bit pattern with the low 27 of the 52 stored significand bits
    cleared (at most 26 significant bits, sign kept), and lo = x - hi,
    exact, with at most 27; each count into its residue below 2^26 and
    the rest, a multiple of 2^26 below 2^52. Every product of a count piece
    and a term piece is then an integer below 2^53 times a power of two no
    smaller than 2^-1074, so it is exact, subnormals included, and the
    pieces add up to sum_i w_i x_i exactly. The second count piece is zero
    unless a run holds 2^26 atoms or more. So there are 2 pieces per run,
    at most m/4 for the at most m/8 runs of m atoms that a run profile
    keeps: below one row of atoms the result is the correctly rounded sum,
    ``math.fsum`` over the per-atom terms bit for bit, and above it the
    kernel's bound holds with fewer rows than over the atoms.
    """
    if w is None:
        return _compensated_sum(x)
    hi = (x.view(np.uint64) & ~_LOW_27_BITS).view(np.float64)
    lo = x - hi
    low = w % _COUNT_RADIX
    high = w - low
    pieces = [low * hi, low * lo]
    if high.any():
        pieces += [high * hi, high * lo]
    return _compensated_sum(np.concatenate(pieces))


class DistributionError(ValueError):
    """A probability vector violates its invariants."""


class EmptyDistributionError(DistributionError):
    """No atoms were supplied."""


class NegativeMassError(DistributionError):
    """Some atom carries negative mass."""


class NotNormalizedError(DistributionError):
    """Masses do not sum to 1 within :data:`NORMALIZATION_ATOL`."""


class ZeroSumError(DistributionError):
    """Normalization was requested but the masses sum to zero."""


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Validated probability vector.

    The underlying array is made read-only, so instances are safe to share
    across threads. Re-validating any constructed instance never raises.
    Next to the cached run profile ``_runs``, ``variance`` keeps on the
    instance the scalar power sums of the last sample size asked, one
    family per attribute, so a repeated call at that n adds no O(m) pass.
    Equality and hashing go by identity, as those cached values do: two
    instances with equal masses are different keys.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.probs, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise DistributionError(f"masses must form a 1-D vector, got shape {arr.shape}")
        if arr.size == 0:
            raise EmptyDistributionError("a distribution needs at least one atom")
        if np.any(arr < 0.0):
            raise NegativeMassError(f"negative mass: min entry {arr.min()!r}")
        # m nonnegative masses summed in any order give a total within (m-1)
        # eps of the exact sum, and the compensated sum is within about one
        # rounding of it. So a plain total inside the tolerance by more than
        # 2 m eps times itself is accepted, as the compensated sum would
        # accept it; any other total, NaN and inf included, is decided by the
        # compensated sum, which also words the rejection.
        with np.errstate(over="ignore"):
            total = float(np.add.reduce(arr))
        if not abs(total - 1.0) <= NORMALIZATION_ATOL - 2.0 * arr.size * _UNIT_ROUNDOFF * total:
            total = _compensated_sum(arr)
            if not abs(total - 1.0) <= NORMALIZATION_ATOL:
                raise NotNormalizedError(f"masses sum to {total!r}, not 1")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __setstate__(self, state: dict) -> None:
        # An unpickled or copied array is writable; keep it read-only, as
        # validation and the cached run profile both rely on.
        self.__dict__.update(state)
        self.probs.setflags(write=False)

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(values, counts) of the maximal runs of equal consecutive masses, or None for more than m/8 runs.

        One O(m) adjacent-difference scan in atom order, with no sort, on
        first use, so validation and the callers that never read it do not
        pay for it. Kept only when the runs average at least
        :data:`_MIN_MEAN_RUN` atoms. Runs follow atom order: equal masses
        that are not neighbours form separate runs, so a shuffled vector of
        repeated masses keeps the per-atom vector.
        """
        p = self.probs
        change = p[1:] != p[:-1]
        if _MIN_MEAN_RUN * (1 + int(np.count_nonzero(change))) > p.size:
            return None
        starts = np.concatenate(([0], np.flatnonzero(change) + 1))
        return p[starts], np.diff(starts, append=p.size)

    @property
    def support_size(self) -> int:
        """Number of stored atoms, zero-mass atoms included."""
        return int(self.probs.size)

    def __len__(self) -> int:
        return self.support_size


def from_probs(values: Iterable[float], normalize: bool = False) -> DiscreteDistribution:
    """Build a distribution from raw masses, optionally rescaling to sum 1.

    The masses must form a 1-D vector; :class:`DiscreteDistribution`
    checks that and their signs.
    """
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=np.float64)
    if arr.size == 0:
        raise EmptyDistributionError("no masses supplied")
    if normalize:
        if np.any(arr < 0.0):  # checked before dividing: [-1, -1] would normalize to [0.5, 0.5]
            raise NegativeMassError(f"negative mass: min entry {arr.min()!r}")
        total = _compensated_sum(arr)
        if not math.isfinite(total):  # dividing by it would zero or NaN every mass
            raise NotNormalizedError(f"masses sum to {total!r}, which cannot be normalized")
        if total == 0.0:
            raise ZeroSumError("cannot normalize an all-zero vector")
        arr = arr / total
    return DiscreteDistribution(arr)


def uniform(m: int) -> DiscreteDistribution:
    """Uniform distribution on ``m`` atoms; a non-integer ``m`` is a ValueError."""
    if m < 1:
        raise EmptyDistributionError(f"need at least one atom, got m={m}")
    m = _require_int(m, "m", 1)
    return DiscreteDistribution(np.full(m, 1.0 / m))


def uniform_dirac(atom_count: int, atom_mass: float, dirac_mass: float) -> DiscreteDistribution:
    """``atom_count`` equal atoms followed by one point mass.

    The point mass is omitted when it falls below
    :data:`DIRAC_OMIT_THRESHOLD`. A non-integer ``atom_count`` is a
    ValueError.
    """
    if atom_count < 1:
        raise EmptyDistributionError(f"need at least one uniform atom, got {atom_count}")
    atom_count = _require_int(atom_count, "atom_count", 1)
    if atom_mass < 0.0 or dirac_mass < 0.0:
        raise NegativeMassError(f"masses must be nonnegative, got {atom_mass!r}, {dirac_mass!r}")
    total = atom_count * atom_mass + dirac_mass
    if not abs(total - 1.0) <= NORMALIZATION_ATOL:
        raise NotNormalizedError(f"atom_count*atom_mass + dirac_mass = {total!r}, not 1")
    masses = np.full(atom_count, atom_mass)
    if dirac_mass >= DIRAC_OMIT_THRESHOLD:
        masses = np.append(masses, dirac_mass)
    return DiscreteDistribution(masses)


def from_file(path: str | Path) -> DiscreteDistribution:
    """Read one probability per line; '#' comments and blank lines ignored."""
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise DistributionError(f"{path}:{lineno}: not a number: {line!r}") from None
    return from_probs(values, normalize=False)
