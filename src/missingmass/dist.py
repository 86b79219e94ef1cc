"""Discrete probability distributions over finite alphabets.

Every other module consumes the validated vectors built here. Zero-mass
atoms are legal and count toward the support size: the extremal solver
reasons about alphabet slots, not occupied slots.
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
        if arr.ndim != 1 or arr.size == 0:
            raise EmptyDistributionError("a distribution needs at least one atom")
        if np.any(arr < 0.0):
            raise NegativeMassError(f"negative mass: min entry {arr.min()!r}")
        total = math.fsum(arr.tolist())
        if not abs(total - 1.0) <= NORMALIZATION_ATOL:  # also catches a NaN total
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
    """Build a distribution from raw masses, optionally rescaling to sum 1."""
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=np.float64)
    if arr.size == 0:
        raise EmptyDistributionError("no masses supplied")
    if np.any(arr < 0.0):
        raise NegativeMassError(f"negative mass: min entry {arr.min()!r}")
    if normalize:
        total = math.fsum(arr.tolist())
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
