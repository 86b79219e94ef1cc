"""Monte-Carlo oracle for the missing mass.

Samples IID draws by inverse CDF, records which symbols were seen, and
estimates mean and variance of the realized missing mass with standard
errors. Randomness comes from counter-based Philox streams: the master
seed fixes the key and the trial index fixes the start counter, so every
trial is reproducible on its own and results are bit-identical regardless
of execution order or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dist import DiscreteDistribution
from .variance import _require_sample_size

_EMPTY_BUFFER = np.zeros(4, dtype=np.uint64)


@dataclass(frozen=True)
class SimulationEstimate:
    """Empirical mean/variance of M0 over independent replications."""

    trials: int
    mean: float
    variance: float
    se_mean: float
    se_variance: float
    seed: int


def _master_key(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def _stream_state(key: np.ndarray, trial: int) -> dict:
    # Counter word 2 is the trial index, so stream t starts t * 2**128 blocks
    # into the Philox sequence; one trial can never run into the next.
    return {
        "bit_generator": "Philox",
        "state": {"counter": np.array([0, 0, trial, 0], dtype=np.uint64), "key": key},
        "buffer": _EMPTY_BUFFER,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _draw_missing_mass(probs: np.ndarray, cdf: np.ndarray, n: int, rng: np.random.Generator) -> float:
    u = rng.random(n)
    idx = np.searchsorted(cdf, u, side="right")
    np.minimum(idx, probs.size - 1, out=idx)  # cdf[-1] can round just below 1
    seen = np.zeros(probs.size, dtype=bool)
    seen[idx] = True
    return float(probs[~seen].sum())


def sample_missing_mass(dist: DiscreteDistribution, n: int, seed: int) -> float:
    """Total mass of the symbols unseen in one n-draw sample."""
    _require_sample_size(n)
    bg = np.random.Philox(key=0)
    bg.state = _stream_state(_master_key(seed), 0)
    cdf = np.cumsum(dist.probs)
    return _draw_missing_mass(dist.probs, cdf, n, np.random.Generator(bg))


def _trial_block(
    probs: np.ndarray, cdf: np.ndarray, n: int, key: np.ndarray, lo: int, hi: int, out: np.ndarray
) -> None:
    bg = np.random.Philox(key=0)
    rng = np.random.Generator(bg)
    for t in range(lo, hi):
        bg.state = _stream_state(key, t)
        out[t] = _draw_missing_mass(probs, cdf, n, rng)


def estimate_variance(
    dist: DiscreteDistribution,
    n: int,
    trials: int,
    seed: int,
    workers: int = 1,
) -> SimulationEstimate:
    """Unbiased empirical variance of M0 over ``trials`` replications.

    Worker threads fill disjoint blocks of one trial-indexed array, and all
    statistics are reduced from that array in index order, so the output is
    a pure function of (dist, n, trials, seed).
    """
    _require_sample_size(n)
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    probs = dist.probs
    cdf = np.cumsum(probs)
    key = _master_key(seed)
    values = np.empty(trials, dtype=np.float64)
    if workers > 1:
        block = (trials + workers - 1) // workers
        spans = [(lo, min(lo + block, trials)) for lo in range(0, trials, block)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda s: _trial_block(probs, cdf, n, key, s[0], s[1], values), spans))
    else:
        _trial_block(probs, cdf, n, key, 0, trials, values)

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
