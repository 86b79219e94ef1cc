"""Seeded inputs for the benchmark.

Every mass vector and distribution file is built here from the ``--seed``
argument and a fixed stream id, so the same seed gives the same inputs
and the library only ever sees the generated numbers.

Sizes (m, n, trial counts) are fixed per case kind and do not depend on
the seed: the seed moves mass values and atom order, never the amount of
work, so work counts repeat exactly and timings stay comparable across
seeds.
"""

from __future__ import annotations

import math

import numpy as np

ZIPF_EXPONENT = 1.1
ZIPF_JITTER = 0.1  # masses are i^-a times U(1 - j, 1 + j), so all atoms are distinct
NEAR_UNIFORM_LEVELS = (1.0, 2.0, 3.0)
DIRICHLET_ALPHA = 0.1

# Fixed-width rendering: 17 significant digits round-trip a double, and a
# fixed width keeps file sizes (a work count) independent of the seed.
FILE_FORMAT = "%.16e"


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, input stream)."""
    return np.random.default_rng([seed, *stream.encode()])


def zipf(rng: np.random.Generator, m: int, exponent: float = ZIPF_EXPONENT) -> np.ndarray:
    """Heavy-tailed, all-distinct masses in random order."""
    w = np.arange(1, m + 1, dtype=np.float64) ** -exponent
    w *= rng.uniform(1.0 - ZIPF_JITTER, 1.0 + ZIPF_JITTER, size=m)
    return rng.permutation(w / w.sum())


def near_uniform(rng: np.random.Generator, m: int) -> np.ndarray:
    """Masses proportional to 1, 2 or 3: three distinct values, many repeats."""
    w = np.asarray(NEAR_UNIFORM_LEVELS)[rng.integers(0, len(NEAR_UNIFORM_LEVELS), size=m)]
    return w / w.sum()


def dirichlet(rng: np.random.Generator, m: int) -> np.ndarray:
    """Dirichlet(0.1) masses: a few dozen heavy atoms and a long light tail."""
    return rng.dirichlet(np.full(m, DIRICHLET_ALPHA))


def profile(p: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(distinct masses, multiplicities) when there are at most 8 distinct masses."""
    values, counts = np.unique(p, return_counts=True)
    if values.size > 8:
        return None
    return values, counts


def properties(p: np.ndarray, n: int) -> dict:
    """The input properties the workloads vary, for the run record."""
    distinct = int(np.unique(p).size)
    return {
        "m": int(p.size),
        "n": int(n),
        "repeated_share": round(1.0 - distinct / p.size, 6),
        "heavy_atoms": int(np.count_nonzero(p * math.sqrt(n) > 0.5)),
    }


def write_masses(path, p: np.ndarray) -> int:
    """Write one mass per line; return the file size in bytes."""
    if np.any((p > 0.0) & (p < 1e-99)):
        raise ValueError("masses below 1e-99 would break the fixed-width format")
    np.savetxt(path, p, fmt=FILE_FORMAT)
    return path.stat().st_size
