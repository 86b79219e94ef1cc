"""Sample and alphabet sizes: the checks and markers every module shares.

This module imports no numpy, so the extremal solver and the commands
that use only it start without numpy. ``dist`` re-exports
``INFINITE`` and ``AlphabetBound``.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

#: Point masses below this are dropped by ``dist.uniform_dirac``; under
#: double precision they cannot influence any downstream objective.
DIRAC_OMIT_THRESHOLD = 1e-12

#: Marker for an unbounded alphabet.
INFINITE = math.inf


def _require_int(value: int, name: str, least: int) -> int:
    """``value`` as a Python int, or ValueError: ``name`` must be an integer >= ``least``.

    Any integer type passes, numpy's included (``operator.index``), and
    comes back as a Python int, so that no fixed-width integer overflows
    downstream; a float does not pass, even one with an integral value
    such as 1000.0.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _require_sample_size(n: int) -> int:
    """The sample size n as a Python int, or ValueError: n must be an integer from 1 to the largest float."""
    n = _require_int(n, "sample size", 1)
    if n > sys.float_info.max:  # compared exactly; float(n) would overflow
        raise ValueError(f"sample size must be at most {sys.float_info.max:g}, the largest float")
    return n


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

