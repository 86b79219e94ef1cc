import math

import numpy as np
import pytest

from missingmass import (
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
from oracles import enumeration_moments, simplex_grid


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

    def test_bad_sample_size(self):
        with pytest.raises(ValueError):
            exact_variance(uniform(2), 0)


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


class TestProperties:
    """Random distributions of at most 256 atoms, so the pair sum is one fsum."""

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
