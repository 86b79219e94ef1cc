import math
import os

import numpy as np
import pytest

from missingmass import (
    INFINITE,
    estimate_variance,
    exact_variance,
    expected_missing_mass,
    from_probs,
    sample_missing_mass,
    uniform,
    worst_case_distribution,
)
from missingmass import simulate
from oracles import per_draw_missing_mass

# (probs, n) pairs with different trials per block: 1024 and 32
LAYOUTS = [([0.5, 0.3, 0.2], 10), ([1.0 / 40] * 40, 500)]


class TestSampleMissingMass:
    def test_point_mass_always_seen(self):
        d = from_probs([1.0])
        for seed in (0, 1, 12345):
            for n in (1, 3, 10):
                assert sample_missing_mass(d, n, seed) == 0.0

    def test_two_atoms_one_draw(self):
        d = from_probs([0.5, 0.5])
        for seed in range(20):
            assert sample_missing_mass(d, 1, seed) == 0.5

    def test_deterministic_given_seed(self):
        d = uniform(30)
        assert sample_missing_mass(d, 10, 99) == sample_missing_mass(d, 10, 99)

    def test_output_is_a_subset_sum(self):
        probs = [0.4, 0.3, 0.2, 0.1]
        d = from_probs(probs)
        subset_sums = set()
        for mask in range(16):
            subset_sums.add(round(math.fsum(p for i, p in enumerate(probs) if mask >> i & 1), 12))
        for seed in range(25):
            v = sample_missing_mass(d, 3, seed)
            assert 0.0 <= v <= 1.0
            assert round(v, 12) in subset_sums

    def test_zero_mass_atom_never_observed(self):
        # the zero atom always counts as unseen but adds no mass
        with_zero = from_probs([0.5, 0.0, 0.5])
        without = from_probs([0.5, 0.5])
        for seed in range(10):
            assert sample_missing_mass(with_zero, 2, seed) == sample_missing_mass(without, 2, seed)

    def test_bad_sample_size(self):
        with pytest.raises(ValueError):
            sample_missing_mass(uniform(2), 0, 1)


class TestEstimateVariance:
    def test_degenerate_exact_zero(self):
        est = estimate_variance(from_probs([1.0]), 5, 100, seed=3)
        assert est.mean == 0.0
        assert est.variance == 0.0
        assert est.se_mean == 0.0 and est.se_variance == 0.0

    def test_reproducible(self):
        d = uniform(6)
        a = estimate_variance(d, 4, 500, seed=11)
        b = estimate_variance(d, 4, 500, seed=11)
        assert a == b

    def test_worker_count_invisible(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)  # so that 3 and 7 workers really start 3 and 7 threads
        for probs, n in LAYOUTS:
            d = from_probs(probs)
            r = simulate._block_trials(n, d.support_size)
            for trials in (2, r - 1, r, r + 1, 3 * r + 5):
                results = {estimate_variance(d, n, trials, seed=5, workers=w) for w in (1, 2, 3, 7)}
                assert len(results) == 1, f"m={d.support_size} n={n} trials={trials}"

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_worker_count_below_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            estimate_variance(uniform(2), 2, 10, seed=0, workers=workers)

    def test_thread_count_capped_by_blocks_and_cpus(self, monkeypatch):
        requested = []

        class RecordingPool:  # runs the blocks in this thread and starts none
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        d = uniform(40)
        r = simulate._block_trials(500, 40)
        few = estimate_variance(d, 500, 3 * r, seed=1, workers=10**6)
        estimate_variance(d, 500, 100 * r, seed=1, workers=10**6)
        assert requested == [3, 8]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        estimate_variance(d, 500, 100 * r, seed=1, workers=10**6)
        assert requested == [3, 8]
        assert few == estimate_variance(d, 500, 3 * r, seed=1)

    def test_seed_changes_stream(self):
        d = uniform(6)
        assert estimate_variance(d, 4, 500, seed=1) != estimate_variance(d, 4, 500, seed=2)

    def test_metadata(self):
        est = estimate_variance(uniform(2), 2, 10, seed=7)
        assert est.trials == 10 and est.seed == 7

    def test_needs_two_trials(self):
        with pytest.raises(ValueError):
            estimate_variance(uniform(2), 2, 1, seed=0)

    def test_two_fair_atoms_variance(self):
        est = estimate_variance(from_probs([0.5, 0.5]), 2, 100000, seed=2024)
        assert abs(est.variance - 0.0625) <= 3 * est.se_variance

    def test_mean_matches_expectation(self):
        d = from_probs([0.5, 0.3, 0.2])
        est = estimate_variance(d, 10, 100000, seed=303)
        assert abs(est.mean - expected_missing_mass(d, 10)) <= 4 * est.se_mean

    def test_worst_case_against_exact_variance(self):
        d = worst_case_distribution(100, INFINITE).to_distribution()
        est = estimate_variance(d, 100, 1000000, seed=606)
        assert abs(est.variance - exact_variance(d, 100).value) <= 3 * est.se_variance


class TestBlockKernel:
    @pytest.mark.parametrize(
        "probs, n",
        [
            ([0.5, 0.0, 0.3, 0.0, 0.2], 7),  # zero-mass atoms
            ([0.1] * 10, 12),  # cdf[-1] rounds below 1
            ([0.0, 1.0, 0.0], 3),  # a p = 1 atom
            ([1.0], 4),  # m = 1
            ([0.5, 0.3, 0.2], 2**14),  # one trial per block
            ([1.0 / 40] * 40, 500),
        ],
    )
    def test_rows_match_per_draw_oracle(self, probs, n):
        probs = from_probs(probs).probs
        cdf = np.cumsum(probs)
        key = simulate._master_key(2024)
        r = simulate._block_trials(n, probs.size)
        for block in (0, 1, 6):
            # block b is the Philox stream whose counter word 2 is b
            u = np.random.Generator(np.random.Philox(counter=[0, 0, block, 0], key=key)).random((r, n))
            values = simulate._trial_block(probs, cdf, n, key, block, r)
            unseen = simulate._unseen_atoms(cdf, u.copy())
            assert values.shape == unseen.shape[:1] == (r,)
            for row in range(r):
                want_unseen, want = per_draw_missing_mass(probs, u[row])
                assert set(np.flatnonzero(unseen[row]).tolist()) == want_unseen
                assert abs(values[row] - want) <= 1e-15 * want

    def test_draws_past_rounded_total_land_on_last_atom(self):
        probs = from_probs([0.1] * 10).probs
        cdf = np.cumsum(probs)
        assert cdf[-1] < 1.0
        u = np.array([[np.nextafter(1.0, 0.0), 0.0, cdf[3]], [cdf[-1], cdf[0], 0.5]])
        unseen = simulate._unseen_atoms(cdf, u.copy())
        for row in range(2):
            assert set(np.flatnonzero(unseen[row]).tolist()) == per_draw_missing_mass(probs, u[row])[0]
        assert not unseen[:, -1].any()

    @pytest.mark.parametrize("probs, n", LAYOUTS)
    def test_sample_is_trial_zero(self, probs, n):
        d = from_probs(probs)
        r = simulate._block_trials(n, d.support_size)
        for seed in (0, 17):
            block = simulate._trial_block(d.probs, np.cumsum(d.probs), n, simulate._master_key(seed), 0, r)
            assert sample_missing_mass(d, n, seed) == block[0]
