"""Discrete probability distributions over finite alphabets.

Every other module consumes the validated vectors built here. Zero-mass
atoms are legal and count toward the support size: the extremal solver
reasons about alphabet slots, not occupied slots.

This module is also the one home of the library's compensated atom sum,
:func:`_compensated_sum`, since it is the module every other one imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

#: Absolute tolerance on |sum(probs) - 1|. Loose enough to absorb rounding
#: accumulated over ~1e6 atoms, tight enough to catch construction bugs.
NORMALIZATION_ATOL = 1e-9

#: Point masses below this are dropped by :func:`uniform_dirac`; under double
#: precision they cannot influence any downstream objective.
DIRAC_OMIT_THRESHOLD = 1e-12

#: Marker for an unbounded alphabet.
INFINITE = math.inf

#: Column count of the (rows, _SUM_WIDTH) view that :func:`_compensated_sum`
#: runs down; shorter inputs go to one ``math.fsum`` directly.
_SUM_WIDTH = 2048


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


def _compensated_sum(x: np.ndarray) -> float:
    """Sum of every entry of a float64 array, as if in twice the working precision.

    Sum2 of Ogita, Rump & Oishi (2005, "Accurate sum and dot product"): the
    leading rows of :data:`_SUM_WIDTH` terms are added down the columns of
    one accumulator by a cascaded TwoSum, vectorised across the columns,
    and the column sums, the column errors and the leftover tail go
    through one ``math.fsum``. The result is within one rounding of the
    exact sum plus gamma_rows^2 * sum|x|, gamma_k = k eps / (1 - k eps)
    (their bound for Sum2, applied per column); the tests hold it to one
    ulp plus rows * eps^2 * sum|x|. With no full row it is ``math.fsum``
    over the entries. Memory is O(_SUM_WIDTH) beyond the input. A
    non-finite entry or an overflowing sum gives the plain numpy sum, inf
    or NaN, not an exception.
    """
    x = np.ravel(x)
    rows = x.size // _SUM_WIDTH
    parts = x[rows * _SUM_WIDTH :].tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        if rows:
            s, e, t, z, w = np.zeros((5, _SUM_WIDTH))
            for row in x[: rows * _SUM_WIDTH].reshape(rows, _SUM_WIDTH):
                _two_sum(s, row, e, t, z, w)
                s, t = t, s
            parts += s.tolist() + e.tolist()
        try:
            total = math.fsum(parts)
        except (OverflowError, ValueError):  # fsum raises on overflow and on inf - inf
            total = math.nan
        return total if math.isfinite(total) else float(np.sum(x))


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


@dataclass(frozen=True)
class DiscreteDistribution:
    """Validated probability vector.

    The underlying array is made read-only, so instances are safe to share
    across threads. Re-validating any constructed instance never raises.
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
        total = _compensated_sum(arr)
        if not abs(total - 1.0) <= NORMALIZATION_ATOL:  # also catches a NaN or infinite total
            raise NotNormalizedError(f"masses sum to {total!r}, not 1")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def support_size(self) -> int:
        """Number of stored atoms, zero-mass atoms included."""
        return int(self.probs.size)

    def __len__(self) -> int:
        return self.support_size


@dataclass(frozen=True)
class AlphabetBound:
    """Alphabet size constraint: a positive integer or :data:`INFINITE`."""

    value: float

    def __post_init__(self) -> None:
        v = self.value
        if math.isinf(v) and v > 0:
            return
        if not (float(v).is_integer() and v >= 1):
            raise ValueError(f"alphabet bound must be a positive integer or INFINITE, got {v!r}")
        object.__setattr__(self, "value", float(v))

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


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
    """Uniform distribution on ``m`` atoms."""
    if m < 1:
        raise EmptyDistributionError(f"need at least one atom, got m={m}")
    return DiscreteDistribution(np.full(int(m), 1.0 / m))


def uniform_dirac(atom_count: int, atom_mass: float, dirac_mass: float) -> DiscreteDistribution:
    """``atom_count`` equal atoms followed by one point mass.

    The point mass is omitted when it falls below
    :data:`DIRAC_OMIT_THRESHOLD`.
    """
    if atom_count < 1:
        raise EmptyDistributionError(f"need at least one uniform atom, got {atom_count}")
    if atom_mass < 0.0 or dirac_mass < 0.0:
        raise NegativeMassError(f"masses must be nonnegative, got {atom_mass!r}, {dirac_mass!r}")
    total = atom_count * atom_mass + dirac_mass
    if not abs(total - 1.0) <= NORMALIZATION_ATOL:
        raise NotNormalizedError(f"atom_count*atom_mass + dirac_mass = {total!r}, not 1")
    masses = np.full(int(atom_count), atom_mass)
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
