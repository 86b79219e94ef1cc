"""Sample and alphabet sizes: the checks and markers every module shares.

This module imports no numpy, so the extremal solver and the commands
that use only it start without numpy. ``dist`` and ``variance``
re-export its names.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

#: Point masses below this are dropped by ``dist.uniform_dirac``; under
#: double precision they cannot influence any downstream objective.
DIRAC_OMIT_THRESHOLD = 1e-12

#: Marker for an unbounded alphabet.
INFINITE = math.inf


class AlphabetTooLargeError(ValueError):
    """Raised when exact evaluation is asked for more than ``variance.EXACT_ALPHABET_LIMIT`` atoms."""


def _require_sample_size(n: int) -> None:
    """Reject a sample size below 1, or one that no float can hold."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if n > sys.float_info.max:  # compared exactly; float(n) would overflow
        raise ValueError(f"sample size must be at most {sys.float_info.max:g}, the largest float")


@dataclass(frozen=True)
class AlphabetBound:
    """Alphabet size constraint: a positive integer or :data:`INFINITE`."""

    value: float

    def __post_init__(self) -> None:
        v = self.value
        if v == INFINITE:
            return
        if v > sys.float_info.max:  # compared exactly; float(v) would overflow
            raise ValueError(f"alphabet bound must be at most {sys.float_info.max:g}, the largest float, or INFINITE")
        if not (float(v).is_integer() and v >= 1):
            raise ValueError(f"alphabet bound must be a positive integer or INFINITE, got {v!r}")
        object.__setattr__(self, "value", float(v))

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

