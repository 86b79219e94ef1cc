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

    @pytest.mark.parametrize("trials, workers", [(10.0, 1), (2.5, 1), ("10", 1), (10, 2.5), (10, 2.0), (10, "2")])
    def test_counts_must_be_integers(self, trials, workers):
        with pytest.raises(ValueError, match="must be an integer"):
            estimate_variance(uniform(2), 2, trials, seed=0, workers=workers)

    def test_numpy_integer_counts_pass(self):
        want = estimate_variance(uniform(3), 2, 10, seed=0, workers=2)
        assert estimate_variance(uniform(3), 2, np.int64(10), seed=0, workers=np.uint8(2)) == want

    @pytest.mark.parametrize(
        "seed, message", [(2.5, "must be an integer"), ("3", "must be an integer"), (-1, "must be >= 0")]
    )
    def test_seed_must_be_a_nonnegative_integer(self, seed, message):
        with pytest.raises(ValueError, match=f"seed {message}"):
            estimate_variance(uniform(2), 10, 10, seed=seed)
        with pytest.raises(ValueError, match=f"seed {message}"):
            sample_missing_mass(uniform(2), 10, seed)

    def test_numpy_integer_seed_is_stored_as_int(self):
        est = estimate_variance(uniform(3), 2, 10, seed=np.int64(3))
        assert type(est.seed) is int and est == estimate_variance(uniform(3), 2, 10, seed=3)
        assert sample_missing_mass(uniform(3), 2, np.uint8(3)) == sample_missing_mass(uniform(3), 2, 3)

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


def _zipf(m: int) -> np.ndarray:
    return from_probs(np.arange(1, m + 1, dtype=np.float64) ** -1.1, normalize=True).probs


# Masses for the guide-table tests: zero-mass atoms, a Zipf tail with many
# atoms below 1/G in one bucket, dyadic masses whose CDF values sit on
# bucket edges g/G, a total that rounds below 1, a p = 1 atom and m = 1.
TABLE_INPUTS = {
    "zero-mass": [0.5, 0.0, 0.3, 0.0, 0.2],
    "zipf-tail": _zipf(3000),
    "dyadic": [0.5, 0.25, 0.125, 0.0625, 0.0625],
    "below-one": [0.1] * 10,
    "point-mass": [0.0, 1.0, 0.0],
    "one-atom": [1.0],
}
# both ways of building a table: m >= G for the small sizes, m < G for the large
TABLE_BITS = [1, 3, 7, 12, 16]


def _cdf(probs) -> np.ndarray:
    return np.cumsum(from_probs(probs).probs)


def _searchsorted_atoms(cdf: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Atom of every raw word looked up on its own: the clamped searchsorted
    of the uniform Generator.random makes of the word."""
    return np.minimum(np.searchsorted(cdf, (words >> 11) * 2.0**-53, side="right"), cdf.size - 1)


class TestBlockKernel:
    @pytest.mark.parametrize("bits", TABLE_BITS)
    @pytest.mark.parametrize("name", sorted(TABLE_INPUTS))
    def test_table_is_the_lookup_of_its_whole_bucket(self, name, bits):
        cdf = _cdf(TABLE_INPUTS[name])
        size = 1 << bits
        table = simulate._guide_table(cdf, bits)
        assert table.shape == (size,)
        lower = np.arange(size) / size
        upper = np.arange(1, size + 1) / size
        # searchsorted is monotone, so a bucket whose two ends look up the
        # same atom looks it up for every u in it
        first = np.minimum(np.searchsorted(cdf, lower, side="right"), cdf.size - 1)
        last = np.minimum(np.searchsorted(cdf, np.nextafter(upper, 0.0), side="right"), cdf.size - 1)
        inside = np.searchsorted(cdf, upper, side="left") > np.searchsorted(cdf, lower, side="right")
        miss = table == simulate._MISS
        assert np.array_equal(miss, inside)
        assert np.array_equal(table[~miss], first[~miss])
        assert np.array_equal(table[~miss], last[~miss])
        assert miss.sum() <= cdf.size

    @pytest.mark.parametrize("name", sorted(TABLE_INPUTS))
    def test_lookups_match_searchsorted(self, name):
        cdf = _cdf(TABLE_INPUTS[name])
        rng = np.random.default_rng(7)
        words = rng.integers(0, 2**64, size=(6, 400), dtype=np.uint64, endpoint=False)
        # words just at and just above every CDF value, on bucket edges and at both ends of [0, 1)
        at_cdf = np.minimum(np.floor(cdf * 2.0**53), 2.0**53 - 1).astype(np.uint64) << 11
        ends = np.array([0, 2**64 - 1], dtype=np.uint64)
        special = np.concatenate([at_cdf, at_cdf + (1 << 11), np.arange(64, dtype=np.uint64) << 58, ends])
        words[2, : special.size] = special[:400]
        words[5, -special.size :] = special[-400:]
        want = _searchsorted_atoms(cdf, words)
        for bits in TABLE_BITS:
            atoms = simulate._draw_atoms(cdf, simulate._guide_table(cdf, bits), words)
            assert atoms.shape == words.shape
            for row in range(words.shape[0]):
                assert np.array_equal(np.sort(atoms[row]), np.sort(want[row])), f"bits={bits} row={row}"

    def test_raw_words_are_the_generator_uniforms(self):
        # the identity the guide table's bit-identity rests on
        key = simulate._master_key(2024)
        for block in (0, 1, 6):
            for shape in ((1, 1), (3, 7), (32, 500)):
                words = np.random.Philox(counter=[0, 0, block, 0], key=key).random_raw(shape)
                u = np.random.Generator(np.random.Philox(counter=[0, 0, block, 0], key=key)).random(shape)
                assert np.array_equal((words >> 11) * 2.0**-53, u)

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
        for bits in (1, simulate._table_bits(probs.size, 10 * r * n)):
            table = simulate._guide_table(cdf, bits)
            for block in (0, 1, 6):
                # block b is the Philox stream whose counter word 2 is b
                u = np.random.Generator(np.random.Philox(counter=[0, 0, block, 0], key=key)).random((r, n))
                words = np.random.Philox(counter=[0, 0, block, 0], key=key).random_raw((r, n))
                values = simulate._trial_block(probs, cdf, table, n, key, block, r)
                atoms = simulate._draw_atoms(cdf, table, words)
                assert values.shape == (r,)
                for row in range(r):
                    want_unseen, want = per_draw_missing_mass(probs, u[row])
                    assert set(range(probs.size)) - set(atoms[row].tolist()) == want_unseen
                    assert abs(values[row] - want) <= 1e-15 * want

    def test_draws_past_rounded_total_land_on_last_atom(self):
        probs = from_probs([0.1] * 10).probs
        cdf = np.cumsum(probs)
        assert cdf[-1] < 1.0
        us = [[np.nextafter(1.0, 0.0), 0.0, cdf[3]], [cdf[-1], cdf[0], 0.5]]
        words = np.array([[int(u * 2**53) << 11 for u in row] for row in us], dtype=np.uint64)
        assert ((words[:, 0] >> 11) * 2.0**-53).tolist() == [np.nextafter(1.0, 0.0), cdf[-1]]
        for bits in TABLE_BITS:
            atoms = simulate._draw_atoms(cdf, simulate._guide_table(cdf, bits), words)
            for row in range(2):
                unseen = set(range(10)) - set(atoms[row].tolist())
                assert unseen == per_draw_missing_mass(probs, (words[row] >> 11) * 2.0**-53)[0]
                assert 9 not in unseen

    @pytest.mark.parametrize("probs, n", LAYOUTS)
    def test_sample_is_trial_zero(self, probs, n):
        d = from_probs(probs)
        cdf = np.cumsum(d.probs)
        r = simulate._block_trials(n, d.support_size)
        table = simulate._guide_table(cdf, simulate._table_bits(d.support_size, 1000 * n))
        for seed in (0, 17):
            block = simulate._trial_block(d.probs, cdf, table, n, simulate._master_key(seed), 0, r)
            assert sample_missing_mass(d, n, seed) == block[0]

    # (source, m, n, trials) of the perfbench monte-carlo kinds; the Zipf
    # masses there are jittered and shuffled like these
    BENCHMARK_SHAPES = [("worst-case", None, 100, 4000), ("worst-case", None, 1000, 500), ("zipf", 2000, 1000, 400)]

    @pytest.mark.parametrize("source, m, n, trials", BENCHMARK_SHAPES)
    def test_table_size_and_misses_on_benchmark_shapes(self, source, m, n, trials):
        if source == "zipf":
            rng = np.random.default_rng(11)
            w = np.arange(1, m + 1) ** -1.1 * rng.uniform(0.9, 1.1, m)
            probs = from_probs(rng.permutation(w / w.sum())).probs
        else:
            probs = worst_case_distribution(n).to_distribution().probs
        bits = simulate._table_bits(probs.size, trials * n)
        table = simulate._guide_table(np.cumsum(probs), bits)
        assert table.size == 2**bits <= min(2**simulate.MAX_TABLE_BITS, trials * n)
        assert np.mean(table == simulate._MISS) < 0.05, "the guide table has turned into a miss path"


# float.hex of estimate_variance's (mean, variance, se_mean, se_variance)
# and of sample_missing_mass at seeds s, s + 1 and s + 2. Seeded outputs
# are part of the interface: these came from the per-row sorted
# searchsorted kernel the guide table replaced, and must not move.
PINNED_CASES = {
    "worst-100": (lambda: worst_case_distribution(100).to_distribution(), 100, 3000, 11),
    "worst-1000": (lambda: worst_case_distribution(1000).to_distribution(), 1000, 300, 12),
    "zipf-2000": (lambda: from_probs(_zipf(2000)), 1000, 200, 13),
    "zipf-1e5-n100": (lambda: from_probs(_zipf(10**5)), 100, 40, 14),
    "dyadic-4": (lambda: from_probs([0.5, 0.25, 0.125, 0.125]), 3, 2000, 15),
}
PINNED = {
    "worst-100": (('0x1.aa26cda8c1f3bp-4', '0x1.9039da0bb73b5p-10', '0x1.76047d80bcaffp-11', '0x1.3ecb116148bdbp-15'), ['0x1.1efd9aea0bea2p-3', '0x1.967c2625adf03p-5', '0x1.72bd22c140dc3p-6']),
    "worst-1000": (('0x1.ab9780f0cac52p-4', '0x1.5015844598788p-13', '0x1.7f31920e340f2p-11', '0x1.8dcd46d365851p-17'), ['0x1.b39e3c097902bp-4', '0x1.97d00ca160f23p-4', '0x1.7c01dd3948e1ap-4']),
    "zipf-2000": (('0x1.cb169693f772fp-3', '0x1.232ef36f0d78dp-15', '0x1.b4d743e77275ap-12', '0x1.bf94817576b73p-19'), ['0x1.bdbd6ac552324p-3', '0x1.d4fa637754c54p-3', '0x1.cd522ca0a9787p-3']),
    "zipf-1e5-n100": (('0x1.2e3f3c6e70408p-1', '0x1.cf55b56d657e2p-12', '0x1.b3a3c24dcec02p-9', '0x1.b8f94c6718523p-14'), ['0x1.3179a47a407ebp-1', '0x1.3d4cc1a96a667p-1', '0x1.4149ce59cd740p-1']),
    "dyadic-4": (('0x1.5428f5c28f5c3p-2', '0x1.a3965f6eedd72p-6', '0x1.d506735053f20p-9', '0x1.9f3efc3d732dbp-11'), ['0x1.0000000000000p-2', '0x1.0000000000000p-2', '0x1.0000000000000p-2']),
}


@pytest.mark.parametrize("name", sorted(PINNED_CASES))
def test_seeded_outputs_are_pinned(name):
    make, n, trials, seed = PINNED_CASES[name]
    estimate, samples = PINNED[name]
    d = make()
    for workers in (1, 2):
        est = estimate_variance(d, n, trials, seed, workers=workers)
        assert tuple(map(float.hex, (est.mean, est.variance, est.se_mean, est.se_variance))) == estimate
    assert [float.hex(sample_missing_mass(d, n, seed + k)) for k in range(3)] == samples
