import pytest

from missingmass import (
    INFINITE,
    AlphabetTooLargeError,
    VarianceMethod,
    exact_variance,
    from_probs,
    gap_report,
    iid_majorization_v,
    max_subgamma_uniform_dirac,
    poissonized_variance,
    subgamma_v,
    uniform,
    uniform_dirac,
    worst_case_distribution,
)
from oracles import simplex_grid, subgamma_family_scan


class TestSubgammaV:
    def test_point_mass(self):
        for n in (1, 5, 50):
            assert subgamma_v(from_probs([1.0]), n) == 0.0

    def test_two_atoms(self):
        # 0.125 + (1/2) * 0.25
        assert subgamma_v(from_probs([0.5, 0.5]), 2) == pytest.approx(0.25, abs=1e-15)

    def test_uniform10(self):
        assert subgamma_v(uniform(10), 10) == pytest.approx(0.069736, abs=1e-6)


class TestIidMajorizationV:
    def test_point_mass(self):
        for n in (1, 5, 50):
            assert iid_majorization_v(from_probs([1.0]), n) == 0.0

    def test_two_atoms(self):
        assert iid_majorization_v(from_probs([0.5, 0.5]), 2) == pytest.approx(0.09375, abs=1e-15)

    def test_uniform10(self):
        assert iid_majorization_v(uniform(10), 10) == pytest.approx(0.022710, abs=1e-6)


class TestDominance:
    @pytest.mark.parametrize("probs", simplex_grid(3, 5))
    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_iid_term_dominates_exact_variance(self, probs, n):
        d = from_probs(probs)
        assert iid_majorization_v(d, n) >= exact_variance(d, n).value - 1e-15

    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_nonnegative(self, n):
        for d in (uniform(5), from_probs([0.9, 0.1]), uniform_dirac(4, 0.15, 0.4)):
            assert subgamma_v(d, n) >= 0.0
            assert iid_majorization_v(d, n) >= 0.0


class TestGapReport:
    def test_point_mass_all_zero(self):
        r = gap_report(from_probs([1.0]), 5)
        assert (r.true_variance, r.subgamma_v, r.iid_major_v, r.gap_subgamma, r.gap_iid) == (0, 0, 0, 0, 0)

    def test_two_atoms_exact_mode(self):
        r = gap_report(from_probs([0.5, 0.5]), 2, VarianceMethod.EXACT)
        assert r.true_variance == pytest.approx(0.0625, abs=1e-15)
        assert r.subgamma_v == pytest.approx(0.25, abs=1e-15)
        assert r.iid_major_v == pytest.approx(0.09375, abs=1e-15)
        assert r.gap_iid == pytest.approx(0.03125, abs=1e-15)
        assert r.mode is VarianceMethod.EXACT

    def test_uniform10_gap_positive(self):
        r = gap_report(uniform(10), 10)
        assert r.gap_iid > 0.0
        assert r.gap_iid == pytest.approx(0.022710 - exact_variance(uniform(10), 10).value, abs=1e-6)

    def test_poissonized_mode(self):
        d = uniform(50)
        r = gap_report(d, 20, VarianceMethod.POISSONIZED)
        assert r.true_variance == poissonized_variance(d, 20).value
        assert r.mode is VarianceMethod.POISSONIZED

    def test_rejects_thm1_mode(self):
        with pytest.raises(ValueError):
            gap_report(uniform(2), 2, VarianceMethod.THM1)

    def test_size_limit_propagates(self):
        with pytest.raises(AlphabetTooLargeError):
            gap_report(uniform(20001), 10, VarianceMethod.EXACT)

    def test_scaled_iid_gap_persists(self):
        for n in (100, 1000):
            d = worst_case_distribution(n, INFINITE).to_distribution()
            r = gap_report(d, n)
            assert n * r.gap_iid >= 0.05


class TestSubgammaSearch:
    def test_beats_the_worst_case_value(self):
        best = max_subgamma_uniform_dirac(1000)
        d = worst_case_distribution(1000, INFINITE).to_distribution()
        assert best.scaled_value >= 1000 * subgamma_v(d, 1000)

    def test_reports_search_point(self):
        best = max_subgamma_uniform_dirac(200, max_atoms=2000)
        assert 1 <= best.atom_count <= 2000
        assert 0.0 <= best.uniform_mass <= 1.0
        # the factor keeps growing with finer atoms; the family cap binds
        assert best.scaled_value <= 1.0 + 1e-9

    @pytest.mark.parametrize("n", [1, 2, 10, 100, 1000, 10**4, 10**5])
    def test_matches_scan_over_every_block_size(self, n):
        # w h(w/k) grows with k (see the docstring), so the one-k scan finds the k x w scan's value and w
        for max_atoms in (1, 2, 10, 1000, 10**5, 10**6, None):
            best = max_subgamma_uniform_dirac(n, max_atoms)
            value, _, w = subgamma_family_scan(n, 50 * n if max_atoms is None else max_atoms)
            assert (best.scaled_value, best.uniform_mass) == (value, w)

    @pytest.mark.parametrize("max_atoms", [0, -5, 0.5])
    def test_rejects_empty_block(self, max_atoms):
        with pytest.raises(ValueError, match="max_atoms"):
            max_subgamma_uniform_dirac(10, max_atoms)
