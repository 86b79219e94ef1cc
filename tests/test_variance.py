import math
import tracemalloc

import numpy as np
import pytest

from missingmass import (
    EXACT_ALPHABET_LIMIT,
    AlphabetTooLargeError,
    VarianceMethod,
    approx_variance_thm1,
    exact_variance,
    expected_missing_mass,
    from_probs,
    iid_majorization_v,
    poissonized_variance,
    subgamma_v,
    uniform,
)
from missingmass.variance import _light_pair_sum
from oracles import enumeration_moments, pairwise_variance, profile_variance_mpmath, simplex_grid


def _zipf(m: int, seed: int = 0) -> np.ndarray:
    w = 1.0 / np.arange(1, m + 1)
    return np.random.default_rng(seed).permutation(w / w.sum())


def _dirichlet(m: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).dirichlet(np.full(m, 0.1))


def _near_uniform(m: int, seed: int = 0) -> np.ndarray:
    w = 1.0 + 0.1 * np.random.default_rng(seed).random(m)
    return w / w.sum()


SHAPES = {"zipf": _zipf, "dirichlet": _dirichlet, "near_uniform": _near_uniform, "uniform": lambda m: np.full(m, 1.0 / m)}


def _light_t(p: np.ndarray, n: int) -> np.ndarray:
    """sqrt(n) p/(1-p); atoms above 1/2 are heavy."""
    with np.errstate(divide="ignore"):
        return math.sqrt(n) * (p / (1.0 - p))


def _cancel_scale(d, n: int) -> float:
    """E[M0]^2 + sum p^2 (1-p)^n: the size of the terms that cancel in Var[M0]."""
    p = d.probs
    with np.errstate(divide="ignore"):
        q = np.exp(n * np.log1p(-p))
    return expected_missing_mass(d, n) ** 2 + math.fsum((p * p * q).tolist())


def _assert_matches_pairwise(d, n: int) -> None:
    want = pairwise_variance(d.probs, n)
    assert abs(exact_variance(d, n).value - want) <= 1e-12 * _cancel_scale(d, n)


class TestExactVariance:
    def test_point_mass_never_missing(self):
        assert exact_variance(from_probs([1.0]), 5).value == 0.0

    def test_two_atoms_one_draw(self):
        # exactly one symbol observed, M0 is always 0.5
        assert exact_variance(from_probs([0.5, 0.5]), 1).value == pytest.approx(0.0, abs=1e-15)

    def test_two_atoms_two_draws(self):
        # enumeration: M0 = 0.5 w.p. 1/2, else 0
        assert exact_variance(from_probs([0.5, 0.5]), 2).value == pytest.approx(0.0625, abs=1e-15)

    def test_metadata(self):
        est = exact_variance(uniform(3), 4)
        assert est.method is VarianceMethod.EXACT and est.n == 4

    @pytest.mark.parametrize("probs", simplex_grid(3, 5))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_enumeration_m3(self, probs, n):
        _, var = enumeration_moments(probs, n)
        assert exact_variance(from_probs(probs), n).value == pytest.approx(var, abs=1e-12)

    @pytest.mark.parametrize("probs", [[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_matches_enumeration_m4(self, probs, n):
        _, var = enumeration_moments(probs, n)
        assert exact_variance(from_probs(probs), n).value == pytest.approx(var, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    @pytest.mark.parametrize("m", [1, 2, 5, 17])
    def test_range(self, m, n):
        assert 0.0 <= exact_variance(uniform(m), n).value <= 0.25

    def test_alphabet_cap(self):
        d = uniform(20001)
        with pytest.raises(AlphabetTooLargeError):
            exact_variance(d, 10)

    def test_memory_is_linear_in_alphabet(self):
        # Zipf at the cap with n = 1e4 has 19 heavy rows and 3.8e5 heavy pair
        # terms (76 x 8m bytes as Python floats); a row at a time needs only
        # a few m-length temporaries.
        m = EXACT_ALPHABET_LIMIT
        d = from_probs(_zipf(m))
        tracemalloc.start()
        try:
            exact_variance(d, 10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 8 * m

    def test_bad_sample_size(self):
        with pytest.raises(ValueError):
            exact_variance(uniform(2), 0)


class TestExactAgainstPairwise:
    """Heavy rows plus the light series against the plain all-pairs identity,
    within 1e-12 of E[M0]^2 + sum p^2 q."""

    @pytest.mark.parametrize(
        "shape, m, n, heavy",
        [
            ("near_uniform", 2000, 1000, "none"),
            ("near_uniform", 2000, 100000, "none"),
            ("zipf", 1000, 1000, "few"),
            ("zipf", 1100, 100000, "many"),
            ("dirichlet", 600, 100000, "many"),
            ("uniform", 10, 1000, "all"),
            ("zipf", 300, 1000000, "all"),
        ],
    )
    def test_heavy_counts(self, shape, m, n, heavy):
        d = from_probs(SHAPES[shape](m), normalize=True)
        h = int(np.count_nonzero(_light_t(d.probs, n) > 0.5))
        assert {"none": h == 0, "few": 0 < h <= 10, "many": 50 < h < m, "all": h == m}[heavy]
        _assert_matches_pairwise(d, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 1000, 100000, 1000000])
    @pytest.mark.parametrize("shape", ["zipf", "dirichlet"])
    def test_sample_sizes(self, shape, n):
        _assert_matches_pairwise(from_probs(SHAPES[shape](300), normalize=True), n)

    @pytest.mark.parametrize(
        "probs, n",
        [
            ([0.2] * 5, 4),
            ([0.6, 0.2, 0.2], 4),
            ([0.004975124378109453] * 100 + [(1.0 - 100 * 0.004975124378109453) / 1000] * 1000, 10000),
        ],
    )
    def test_atoms_at_the_threshold(self, probs, n):
        d = from_probs(probs)
        assert np.any(_light_t(d.probs, n) == 0.5)
        _assert_matches_pairwise(d, n)

    @pytest.mark.parametrize("n", [1, 3, 1000])
    def test_point_mass_and_zero_mass_atoms(self, n):
        assert exact_variance(from_probs([0.0, 1.0, 0.0]), n).value == 0.0
        padded = np.random.default_rng(1).permutation(np.concatenate([_zipf(500), np.zeros(100)]))
        _assert_matches_pairwise(from_probs(padded), n)

    @pytest.mark.parametrize(
        "masses, counts, n",
        [
            ([(1.0 + d) / 2000 for d in (-0.35, -0.25, -0.15, -0.05, 0.05, 0.15, 0.25, 0.35)], [250] * 8, 1000),
            ([(1.0 + d) / 2000 for d in (-0.35, -0.25, -0.15, -0.05, 0.05, 0.15, 0.25, 0.35)], [250] * 8, 100000),
            ([0.1, 0.001], [3, 700], 1000),
        ],
    )
    def test_profile_matches_mpmath(self, masses, counts, n):
        pytest.importorskip("mpmath")
        probs = np.random.default_rng(2).permutation(np.repeat(masses, counts))
        d = from_probs(probs)
        want = profile_variance_mpmath(masses, counts, n)
        assert abs(exact_variance(d, n).value - want) <= 1e-12 * _cancel_scale(d, n)


class TestLightSeries:
    def test_truncation_within_stated_bound(self):
        mpmath = pytest.importorskip("mpmath")
        n = 200
        rng = np.random.default_rng(3)
        t = 0.5 - 1e-3 * rng.random(40)  # just below the heavy cut, where the tail is largest
        a = 1e-2 * rng.random(40)
        value, terms, bound = _light_pair_sum(a, t, n)
        assert terms < n
        assert bound <= 2.0**-53 * 0.5 * math.fsum(a) ** 2  # the stopping rule
        with mpmath.workdps(40):
            ma = [mpmath.mpf(x) for x in a]
            mt = [mpmath.mpf(x) for x in t]
            full = mpmath.fsum(
                ma[i] * ma[j] * ((1 - mt[i] * mt[j] / n) ** n - 1) for i in range(40) for j in range(i + 1, 40)
            )
            partial = 0
            for k in range(1, terms + 1):
                tk = mpmath.fsum(x * y**k for x, y in zip(ma, mt))
                ek = mpmath.fsum((x * y**k) ** 2 for x, y in zip(ma, mt))
                partial += (-1) ** k * mpmath.binomial(n, k) / mpmath.mpf(n) ** k * (tk * tk - ek) / 2
            assert abs(full - partial) <= bound  # the dropped tail
            assert abs(value - full) <= bound + 1e-15 * abs(full)

    def test_short_series_runs_to_its_last_term(self):
        a = np.array([0.3, 0.2, 0.1])
        t = np.array([0.5, 0.4, 0.1])
        n = 5
        value, terms, bound = _light_pair_sum(a, t, n)
        assert (terms, bound) == (n, 0.0)
        want = sum(a[i] * a[j] * ((1 - t[i] * t[j] / n) ** n - 1) for i in range(3) for j in range(i + 1, 3))
        assert value == pytest.approx(want, rel=1e-14)


class TestThm1:
    def test_point_mass(self):
        for n in (1, 5, 100):
            assert approx_variance_thm1(from_probs([1.0]), n).value == 0.0

    def test_two_atoms_two_draws(self):
        # sum p^2 q = 0.125, sum p^3 q = 0.0625 -> -2*0.125^2 + 2*0.0625
        assert approx_variance_thm1(from_probs([0.5, 0.5]), 2).value == pytest.approx(0.09375, abs=1e-15)

    def test_uniform10(self):
        assert approx_variance_thm1(uniform(10), 10).value == pytest.approx(0.02271, abs=1e-5)

    def test_matches_direct_formula(self):
        est = approx_variance_thm1(from_probs([0.5, 0.5]), 1)
        assert est.value == pytest.approx(-((2 * 0.25 * 0.5) ** 2) + 2 * 0.125 * 0.5, abs=1e-15)


class TestPoissonized:
    def test_point_mass(self):
        # 5 e^-5 (1 - e^-5)
        want = 5 * math.exp(-5) - 5 * math.exp(-10)
        assert poissonized_variance(from_probs([1.0]), 5).value == pytest.approx(want, abs=1e-12)
        assert poissonized_variance(from_probs([1.0]), 5).value == pytest.approx(0.033463, abs=1e-6)

    def test_zero_atoms_do_not_contribute(self):
        base = from_probs([0.5, 0.3, 0.2])
        padded = from_probs([0.5, 0.0, 0.3, 0.0, 0.2, 0.0])
        for n in (1, 4, 33):
            assert poissonized_variance(padded, n).value == poissonized_variance(base, n).value

    def test_uniform10(self):
        assert poissonized_variance(uniform(10), 10).value == pytest.approx(0.023254, abs=1e-6)


class TestExpectedMissingMass:
    def test_point_mass(self):
        assert expected_missing_mass(from_probs([1.0]), 3) == 0.0

    def test_two_atoms(self):
        assert expected_missing_mass(from_probs([0.5, 0.5]), 2) == pytest.approx(0.25, abs=1e-15)

    def test_uniform10(self):
        assert expected_missing_mass(uniform(10), 10) == pytest.approx(0.348678, abs=1e-6)

    def test_in_unit_interval(self):
        for n in (1, 10, 1000):
            v = expected_missing_mass(uniform(50), n)
            assert 0.0 <= v <= 1.0


class TestSymmetry:
    @pytest.mark.parametrize("probs", [[0.5, 0.3, 0.2], [0.1, 0.2, 0.3, 0.4], [0.05] * 20])
    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_permutation_invariance_exact_equality(self, probs, n):
        d = from_probs(probs)
        rng = np.random.default_rng(0)
        for _ in range(3):
            perm = from_probs(rng.permutation(probs))
            assert exact_variance(perm, n).value == exact_variance(d, n).value
            assert approx_variance_thm1(perm, n).value == approx_variance_thm1(d, n).value
            assert poissonized_variance(perm, n).value == poissonized_variance(d, n).value
            assert expected_missing_mass(perm, n) == expected_missing_mass(d, n)

    @pytest.mark.parametrize("n", [1000, 100000])
    def test_exact_permutation_invariance_large_alphabet(self, n):
        d = from_probs(_zipf(5000))
        for seed in range(3):
            perm = from_probs(np.random.default_rng(seed).permutation(d.probs))
            assert exact_variance(perm, n).value == exact_variance(d, n).value


class TestProperties:
    """Random distributions of up to 256 atoms. exact_variance sorts the masses
    first, so atom order leaves it bit-identical at any alphabet size."""

    def test_permutation_invariance_and_bounds(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        weights = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=256).filter(
            lambda w: sum(w) > 0.0
        )

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(w=weights, n=st.integers(min_value=1, max_value=10**5), data=st.data())
        def check(w, n, data):
            d = from_probs(w, normalize=True)
            order = data.draw(st.permutations(range(len(w))))
            perm = from_probs(d.probs[list(order)])
            for fn in (exact_variance, approx_variance_thm1, poissonized_variance):
                assert fn(perm, n).value == fn(d, n).value
            for fn in (expected_missing_mass, subgamma_v, iid_majorization_v):
                assert fn(perm, n) == fn(d, n)
            assert 0.0 <= exact_variance(d, n).value <= iid_majorization_v(d, n) + 1e-15

        check()


class TestOccupancyMapMaxima:
    """p^k (1-p)^n peaks at k/(k+n); p^k e^{-np} peaks at k/n."""

    GRID = np.linspace(0.0, 1.0, 100001)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [10, 100])
    def test_binomial_form(self, k, n):
        vals = self.GRID**k * (1.0 - self.GRID) ** n
        assert abs(self.GRID[np.argmax(vals)] - k / (k + n)) <= 1e-5 + 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [10, 100])
    def test_poisson_form(self, k, n):
        vals = self.GRID**k * np.exp(-n * self.GRID)
        assert abs(self.GRID[np.argmax(vals)] - k / n) <= 1e-5 + 1e-12
