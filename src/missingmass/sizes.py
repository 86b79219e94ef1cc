"""Sample and alphabet sizes: the checks and markers every module shares.

Each check is a ``_require_*`` function that returns the size as a Python
int (or, for the alphabet, :data:`INFINITE`) and raises ValueError for
anything else; :func:`_orders` lets a check that compares first give a
string or None that ValueError too. This module imports no numpy, so the
extremal solver and the commands that use only it start without numpy.
"""

from __future__ import annotations

import math
import operator
import sys

#: Point masses below this are dropped by ``dist.uniform_dirac``; under
#: double precision they cannot influence any downstream objective.
DIRAC_OMIT_THRESHOLD = 1e-12

#: Marker for an unbounded alphabet.
INFINITE = math.inf


def _orders(value: object) -> bool:
    """Whether ``value`` orders against numbers: False for a string, None or a complex, where ``<`` raises TypeError.

    A size check that compares first guards the comparison with it, so such
    a value gets the check's own ValueError, not a bare TypeError.
    """
    try:
        value < 0
    except TypeError:
        return False
    return True


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


def _require_alphabet(m: int | float) -> int | float:
    """The alphabet size m as a Python int, or :data:`INFINITE`; ValueError otherwise.

    Any integral value from 1 to the largest float passes, numpy's integers
    and integral floats such as 20.0 included, and comes back as an exact
    int, so that m - 1 does not round back to m above 2**53.
    """
    if m == INFINITE:
        return INFINITE
    if _orders(m) and m > sys.float_info.max:  # compared exactly; float(m) would overflow
        raise ValueError(f"alphabet bound must be at most {sys.float_info.max:g}, the largest float, or INFINITE")
    if not (_orders(m) and float(m).is_integer() and m >= 1):
        raise ValueError(f"alphabet bound must be a positive integer or INFINITE, got {m!r}")
    return int(m)
