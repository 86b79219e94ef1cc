"""Monte-Carlo oracle for the missing mass.

Samples IID draws by inverse CDF, records which symbols were seen, and
estimates mean and variance of the realized missing mass with standard
errors.

Trials run in fixed-size blocks. A block holds
r = max(1, min(1024, 2**14 // max(n, m))) trials, a function of (n, m)
only. Block b draws its uniforms from one counter-based Philox stream
(Salmon et al., SC'11): the master seed fixes the key and counter word 2
is b, so stream b starts b * 2**128 counter steps in and no block can
run into the next. Trial t is row t % r of block t // r, and a shorter last block
draws a prefix of the same stream, so every trial value is a pure function
of (dist, n, seed, t), whatever the trial count or worker count.

Within a block the kernel draws the r x n raw 64-bit words of the
block's stream; word w stands for the uniform u = (w >> 11) * 2**-53 that
``Generator.random`` makes of it, and u lands on the atom
searchsorted(cdf, u, "right"), clamped to m - 1. A guide table (Chen &
Asau 1974; Devroye 1986, section III.2.4) of G = 2**bits buckets, built
once per call and read by every block and thread, maps w >> (64 - bits),
which is floor(u G), straight to that atom. Only a draw whose bucket has
a CDF value strictly inside it, a miss, is looked up in the CDF. G is the
power of two from 32 m up, capped at 2**20 and at a quarter of the call's
draws; uncapped, at most 1/32 of the buckets miss. A trial's seen set does not
depend on draw order, so nothing is sorted but the misses. The kernel
then zeroes each row's seen atoms in an r x m copy of the masses and sums
each row. The 2**14 budget keeps a block's arrays near 400 KB
per thread. Budgets of 2**16 and 2**18 raised the peak RSS of a
`perfbench` monte-carlo run from 44.3 MB to 47.3 and 57.7 MB (2-core
Xeon, one run each) with no speed-up beyond run-to-run noise.

Blocks are spread over at most min(workers, blocks, os.cpu_count())
threads, each filling its own slice of one trial-indexed array, and the
statistics are reduced from that array in index order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dist import DiscreteDistribution
from .sizes import _require_int, _require_sample_size

BLOCK_BUDGET = 2**14
"""Upper bound on max(n, m) * trials per block."""
MAX_BLOCK_TRIALS = 1024
MAX_TABLE_BITS = 20
"""The guide table has at most 2**20 buckets."""
_MISS = -1


@dataclass(frozen=True, slots=True)
class SimulationEstimate:
    """Empirical mean/variance of M0 over independent replications."""

    trials: int
    mean: float
    variance: float
    se_mean: float
    se_variance: float
    seed: int


def _block_trials(n: int, m: int) -> int:
    """Trials per block for sample size n over an m-atom alphabet."""
    return max(1, min(MAX_BLOCK_TRIALS, BLOCK_BUDGET // max(n, m)))


def _master_key(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def _table_bits(m: int, draws: int) -> int:
    """log2 of the guide-table size G for ``draws`` draws over m atoms.

    The smallest power of two from 32 m up, so that the buckets that miss,
    at most m, are at most 1/32 of them; capped at 2**20 and at draws / 4,
    so that building the table costs a small share of the lookups it
    replaces, and never below 2 buckets.
    """
    return max(1, min(MAX_TABLE_BITS, (32 * m - 1).bit_length(), (draws // 4).bit_length() - 1))


def _guide_table(cdf: np.ndarray, bits: int) -> np.ndarray:
    """Guide table of G = 2**bits buckets for the inverse-CDF lookup in ``cdf``.

    Bucket g holds searchsorted(cdf, u, "right"), clamped to m - 1 (cdf[-1]
    can round just below 1), for every u in [g/G, (g+1)/G): the count of
    CDF values at most g/G, which serves the whole bucket unless a CDF value
    lies strictly inside it. Such a bucket holds ``_MISS``.

    The shorter of the two sorted sequences, the m CDF values and the G + 1
    bucket edges, is placed in the longer: O(m + G) time when m < G and
    O(G log m) otherwise, and no temporary longer than min(m, G) + 1.
    """
    size = 1 << bits
    last = cdf.size - 1
    dtype = np.int32 if last < 2**31 else np.int64
    if cdf.size < size:
        # CDF value i sits at scaled[i] buckets, exactly (a power-of-two
        # scaling); the buckets from ceil(scaled[i - 1]) up to ceil(scaled[i]) hold i
        scaled = cdf * size
        up = np.minimum(np.ceil(scaled), size)
        atoms = np.arange(last + 2, dtype=dtype)
        atoms[-1] = last
        table = np.repeat(atoms, np.diff(up, prepend=0.0, append=size).astype(np.intp))
        inside = scaled[(scaled != up) & (scaled < size)]
        table[inside.astype(np.intp)] = _MISS
        return table
    edges = np.arange(size + 1) / size
    below = np.searchsorted(cdf, edges[:-1], side="right")
    atom = np.minimum(below, last)
    # no CDF value inside: none above g/G at all, or the next one up is >= (g+1)/G
    hit = (below > last) | (cdf[atom] >= edges[1:])
    return np.where(hit, atom, _MISS).astype(dtype)


def _draw_atoms(cdf: np.ndarray, table: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The atoms the raw Philox ``words`` (rows, n) fall on, row by row.

    Word w is the uniform u = (w >> 11) 2**-53 that ``Generator.random``
    makes of it, and lands on searchsorted(cdf, u, "right") clamped to
    m - 1. Each row of the result holds its row's atoms, the misses among
    them in another order.
    """
    bits = table.size.bit_length() - 1
    idx = table[(words >> (64 - bits)).view(np.int64)]  # w >> (64 - bits) is floor(u G)
    miss = np.flatnonzero(idx == _MISS)
    # misses are looked up in increasing order, which walks a large CDF
    # through the cache; the row index above the 53 bits of u keeps each
    # row's atoms among that row's misses (rows <= 1024 < 2**11)
    keys = np.sort(words.take(miss) >> 11 | (miss // words.shape[1]).astype(np.uint64) << 53)
    u = (keys & (2**53 - 1)) * 2.0**-53
    idx.put(miss, np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1))
    return idx


def _trial_block(
    probs: np.ndarray, cdf: np.ndarray, table: np.ndarray, n: int, key: np.ndarray, block: int, rows: int
) -> np.ndarray:
    """Missing mass of the first ``rows`` trials of block ``block``."""
    m = probs.size
    words = np.random.Philox(counter=[0, 0, block, 0], key=key).random_raw((rows, n))
    idx = _draw_atoms(cdf, table, words)
    unseen = np.empty((rows, m))  # row t: the masses trial t did not see
    unseen[...] = probs
    unseen.reshape(-1)[idx + np.arange(0, rows * m, m)[:, None]] = 0.0
    return unseen.sum(axis=1)


def _missing_masses(dist: DiscreteDistribution, n: int, trials: int, seed: int, workers: int) -> np.ndarray:
    """Missing mass of trials 0 to ``trials`` - 1, for checked arguments."""
    probs = dist.probs
    cdf = np.cumsum(probs)
    table = _guide_table(cdf, _table_bits(probs.size, trials * n))
    key = _master_key(seed)
    rows = _block_trials(n, probs.size)
    values = np.empty(trials, dtype=np.float64)

    def fill(block: int) -> None:
        lo = block * rows
        hi = min(lo + rows, trials)
        values[lo:hi] = _trial_block(probs, cdf, table, n, key, block, hi - lo)

    blocks = range(-(-trials // rows))
    threads = min(workers, len(blocks), os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, blocks))
    else:
        for block in blocks:
            fill(block)
    return values


def sample_missing_mass(dist: DiscreteDistribution, n: int, seed: int) -> float:
    """Total mass of the symbols unseen in one n-draw sample: trial 0 of
    ``estimate_variance`` with the same seed."""
    n = _require_sample_size(n)
    seed = _require_int(seed, "seed", 0)
    return float(_missing_masses(dist, n, 1, seed, 1)[0])


def estimate_variance(
    dist: DiscreteDistribution,
    n: int,
    trials: int,
    seed: int,
    workers: int = 1,
) -> SimulationEstimate:
    """Unbiased empirical variance of M0 over ``trials`` replications.

    ``workers`` caps the threads that run trial blocks; the output is a
    pure function of (dist, n, trials, seed) for every worker count.
    ``seed`` must be an integer >= 0.
    """
    n = _require_sample_size(n)
    trials = _require_int(trials, "trials", 2)
    seed = _require_int(seed, "seed", 0)
    workers = _require_int(workers, "workers", 1)
    values = _missing_masses(dist, n, trials, seed, workers)

    mean = float(np.mean(values))
    variance = float(np.var(values, ddof=1))
    se_mean = math.sqrt(variance / trials)
    # Moment-based standard error of the sample variance:
    # Var(s^2) = m4/R - s^4 (R-3)/(R(R-1)), with m4 the central 4th moment.
    centered = values - mean
    m4 = float(np.mean(centered**4))
    var_of_var = m4 / trials - variance * variance * (trials - 3) / (trials * (trials - 1))
    # mu4 >= sigma^4 for every distribution, so Var(s^2) is never below
    # 2 sigma^4 / (R(R-1)); flooring the plug-in there keeps the estimate
    # sane when the sample kurtosis sits near that bound, where the two
    # plug-in terms nearly cancel.
    floor = 2.0 * variance * variance / (trials * (trials - 1.0))
    se_variance = math.sqrt(max(var_of_var, floor))
    return SimulationEstimate(
        trials=trials,
        mean=mean,
        variance=variance,
        se_mean=se_mean,
        se_variance=se_variance,
        seed=seed,
    )
