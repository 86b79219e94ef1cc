import copy
import math
import pickle
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from missingmass import (
    VarianceMethod,
    approx_variance_thm1,
    exact_variance,
    expected_missing_mass,
    from_probs,
    gap_report,
    iid_majorization_v,
    poissonized_variance,
    subgamma_v,
    uniform,
    worst_case_distribution,
)
from missingmass import variance
from missingmass.dist import _SUM_WIDTH
from missingmass.variance import _pair_series, _suffix_sums
from oracles import (
    enumeration_moments,
    fsum_reference,
    light_variance_mpmath,
    pairwise_variance,
    profile_power_sums_mpmath,
    profile_variance_mpmath,
    simplex_grid,
)


def _zipf(m: int, seed: int = 0) -> np.ndarray:
    w = 1.0 / np.arange(1, m + 1)
    return np.random.default_rng(seed).permutation(w / w.sum())


def _dirichlet(m: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).dirichlet(np.full(m, 0.1))


def _near_uniform(m: int, seed: int = 0) -> np.ndarray:
    w = 1.0 + 0.1 * np.random.default_rng(seed).random(m)
    return w / w.sum()


SHAPES = {"zipf": _zipf, "dirichlet": _dirichlet, "near_uniform": _near_uniform, "uniform": lambda m: np.full(m, 1.0 / m)}


def _t(p: np.ndarray, n: int) -> np.ndarray:
    """sqrt(n) p/(1-p); an atom above 1/2 has pairs evaluated term by term."""
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

    @pytest.mark.parametrize(
        "build, n",
        [(lambda: uniform(10**5), 10**5), (lambda: worst_case_distribution(10**6).to_distribution(), 10**6)],
        ids=["uniform-1e5", "worst-case-1e6"],
    )
    def test_above_the_old_cap_matches_mpmath(self, build, n):
        # past the 20000 atoms exact mode once refused; the worst case at
        # n = 1e6 has 441 929 atoms
        pytest.importorskip("mpmath")
        d = build()
        masses, counts = np.unique(d.probs, return_counts=True)
        want = profile_variance_mpmath(masses.tolist(), counts.tolist(), n)
        assert abs(exact_variance(d, n).value - want) <= 1e-12 * _cancel_scale(d, n)

    def test_memory_is_linear_in_alphabet(self):
        # At m = 1e5, Zipf with n = 1e4 has 16 rows with direct terms (820
        # terms) and Dirichlet(0.1) with n = 1e6 has 21 (830 terms), none of
        # them kept; the traced peak is about 11 x 8m bytes on both.
        m = 10**5
        for probs, n in ((_zipf(m), 10**4), (_dirichlet(m), 10**6)):
            d = from_probs(probs, normalize=True)
            tracemalloc.start()
            try:
                exact_variance(d, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * 8 * m

    def test_bad_sample_size(self):
        with pytest.raises(ValueError):
            exact_variance(uniform(2), 0)


class TestExactAgainstPairwise:
    """Direct terms plus the pair series against the plain all-pairs identity,
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
        h = int(np.count_nonzero(_t(d.probs, n) > 0.5))
        assert {"none": h == 0, "few": 0 < h <= 10, "many": 50 < h < m, "all": h == m}[heavy]
        _assert_matches_pairwise(d, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 11, 12, 13, 1000, 100000, 1000000])
    @pytest.mark.parametrize("shape", ["zipf", "dirichlet"])
    def test_sample_sizes(self, shape, n):
        _assert_matches_pairwise(from_probs(SHAPES[shape](300), normalize=True), n)

    @pytest.mark.parametrize(
        "probs, n",
        [
            ([0.2] * 5, 4),
            ([0.6, 0.2, 0.2], 4),
            ([0.004975124378109453] * 100 + [(1.0 - 100 * 0.004975124378109453) / 1000] * 1000, 10000),
            ([0.2] + [1 / 17] * 13 + [0.8 - 13 / 17], 16),
        ],
    )
    def test_atoms_at_the_threshold(self, probs, n):
        # some pair sits exactly on the series cut t_i t_j = 1/4: two atoms
        # at t = 1/2, or t_0 = 1 with t_1 = 1/4 in the last input
        d = from_probs(probs)
        t = _t(d.probs, n)
        assert np.any(np.multiply.outer(t, t)[np.triu_indices(t.size, 1)] == 0.25)
        _assert_matches_pairwise(d, n)

    @pytest.mark.parametrize("n", [1, 3, 1000])
    def test_point_mass_and_zero_mass_atoms(self, n):
        assert exact_variance(from_probs([0.0, 1.0, 0.0]), n).value == 0.0
        padded = np.random.default_rng(1).permutation(np.concatenate([_zipf(500), np.zeros(100)]))
        _assert_matches_pairwise(from_probs(padded), n)

    @pytest.mark.parametrize("probs, n", [([1.0, 5e-10, 4e-10, 0.0], 3), ([0.0, 4e-10, 1.0, 5e-10], 1000)])
    def test_unit_mass_atom_beside_tiny_atoms(self, probs, n):
        # t = inf and a = p q = 0 for the unit atom; its row must add nothing
        _assert_matches_pairwise(from_probs(probs), n)

    @pytest.mark.parametrize(
        "masses, counts, n",
        [
            ([(1.0 + d) / 2000 for d in (-0.35, -0.25, -0.15, -0.05, 0.05, 0.15, 0.25, 0.35)], [250] * 8, 1000),
            ([(1.0 + d) / 2000 for d in (-0.35, -0.25, -0.15, -0.05, 0.05, 0.15, 0.25, 0.35)], [250] * 8, 100000),
            ([0.1, 0.001], [3, 700], 1000),
            ([(1.0 + d) / 20000 for d in (-0.35, -0.25, -0.15, -0.05, 0.05, 0.15, 0.25, 0.35)], [2500] * 8, 1000),
            ([(1.0 + d) / 20000 for d in (-0.35, -0.25, -0.15, -0.05, 0.05, 0.15, 0.25, 0.35)], [2500] * 8, 10**6),
        ],
    )
    def test_profile_matches_mpmath(self, masses, counts, n):
        pytest.importorskip("mpmath")
        probs = np.random.default_rng(2).permutation(np.repeat(masses, counts))
        d = from_probs(probs)
        want = profile_variance_mpmath(masses, counts, n)
        assert abs(exact_variance(d, n).value - want) <= 1e-12 * _cancel_scale(d, n)

    def test_tiny_atoms_beside_a_unit_atom_match_mpmath(self):
        # n p is about 1.9e-29 for the tiny atoms, so q - q^2 rounds to 0
        # while p^2 q (1 - q), the diagonal's value, is about 2.1e-91.
        pytest.importorskip("mpmath")
        masses, counts, n = [1.0, 1.9273517e-32], [1, 29], 1000
        want = profile_variance_mpmath(masses, counts, n)
        assert abs(exact_variance(from_probs(np.repeat(masses, counts)), n).value - want) <= 1e-12 * want

    @pytest.mark.parametrize("n, scaled", [(1000, 0.1553505), (10000, 0.1554943)])
    def test_worst_case_matches_mpmath(self, n, scaled):
        # n Var[M0] at the poissonized program's maximizer, far below its 0.4774
        pytest.importorskip("mpmath")
        spec = worst_case_distribution(n)
        d = spec.to_distribution()
        want = profile_variance_mpmath([spec.atom_mass, spec.dirac_mass], [spec.atom_count, 1], n)
        value = exact_variance(d, n).value
        assert abs(value - want) <= 1e-12 * _cancel_scale(d, n)
        assert n * want == pytest.approx(scaled, abs=1e-7)


def _buffer_sizes(monkeypatch) -> list[int]:
    """Make exact_variance record the size of each compensated sum its direct
    sum makes; the returned list fills as it runs and adds up to the direct
    terms built."""
    sizes = []
    direct_sum, compensated_sum = variance._direct_sum, variance._compensated_sum

    def buffer_sum(x):
        sizes.append(x.size)
        return compensated_sum(x)

    def recorded(*args):
        with monkeypatch.context() as mp:
            mp.setattr(variance, "_compensated_sum", buffer_sum)
            return direct_sum(*args)

    monkeypatch.setattr(variance, "_direct_sum", recorded)
    return sizes


def _direct_partners(probs: np.ndarray, n: int) -> list[tuple[int, np.ndarray]]:
    """For the masses in descending order, each row's partners j > i with
    t_i t_j > 1/4, the pairs evaluated term by term, by brute force; rows
    without partners are left out."""
    p = np.sort(probs)[::-1]
    t = _t(p, n)
    rows = [np.flatnonzero(t[i] * t[i + 1 :] > 0.25) + i + 1 for i in range(p.size)]
    return [(i, js) for i, js in enumerate(rows) if js.size]


def _direct_pairs(probs: np.ndarray, n: int, kept: bool = True) -> int:
    """Pairs evaluated term by term, by brute force: with ``kept``, only
    those of the rows whose terms can reach the result's rounding. Every
    direct term lies in [-a_i a_j, 0], a = p (1-p)^n, and a row is kept when
    a_i sum_j a_j over its partners, with the 2 (m+1) eps margin
    exact_variance allows for its own running sums, exceeds eps sum p^2 q (1-q)
    over the number of rows with direct terms."""
    rows = _direct_partners(probs, n)
    if kept and rows:
        p = np.sort(probs)[::-1]
        with np.errstate(divide="ignore"):
            log_q = n * np.log1p(-p)
        a = (p * np.exp(log_q)).tolist()
        floor = 2.0**-53 * math.fsum((p * p * np.exp(log_q) * -np.expm1(log_q)).tolist()) / len(rows)
        margin = 2.0 * (p.size + 1) * 2.0**-53
        rows = [(i, js) for i, js in rows if a[i] * (math.fsum(a[j] for j in js) + margin * math.fsum(a[i + 1 :])) > floor]
    return sum(js.size for _, js in rows)


#: At n = 100 only the first atom's row has direct terms, all 40 of them
#: (t_0 t_j = 0.256), and with q_0 = 0.9^100 they are far above rounding.
_ONE_HEAVY_ROW = np.r_[0.1, np.full(40, 0.9 / 40)]


class TestDirectBuffers:
    """exact_variance's kept direct terms, numbered row after row into one
    buffer and reduced by one compensated sum, against the all-pairs identity
    within 1e-12 of E[M0]^2 + sum p^2 q. Only the rows that can reach the
    result's rounding reach the buffer."""

    @pytest.mark.parametrize(
        "probs, n",
        [
            (_near_uniform(150), 5775),  # 9136 terms in 105 kept rows (2 left out)
            (_near_uniform(20), 100),  # 189 terms in rows of 2 to 19
            (_ONE_HEAVY_ROW, 100),  # one row of 40 terms
        ],
    )
    def test_buffers_match_pairwise(self, monkeypatch, probs, n):
        d = from_probs(probs, normalize=True)
        sizes = _buffer_sizes(monkeypatch)
        _assert_matches_pairwise(d, n)
        assert sizes == [_direct_pairs(d.probs, n)]

    def test_calls_grow_with_buffers_not_rows(self, monkeypatch):
        # Python-level sums per exact_variance: a few fixed ones plus one
        # compensated sum for all the direct terms. Here the diagonal (150
        # terms, through dist's own compensated sum) adds one math.fsum, the
        # direct and the series' sums one each, and the 105 kept rows share one
        # buffer of 9136 terms, longer than a 2048-term row, which adds no
        # math.fsum.
        d, n = from_probs(_near_uniform(150), normalize=True), 5775
        sizes, fsums = [], []
        compensated_sum, fsum = variance._compensated_sum, math.fsum
        monkeypatch.setattr(variance, "_compensated_sum", lambda x: sizes.append(x.size) or compensated_sum(x))
        monkeypatch.setattr(math, "fsum", lambda x: fsums.append(1) or fsum(x))
        exact_variance(d, n)
        monkeypatch.undo()
        assert len(_direct_partners(d.probs, n)) > 100 and sizes == [_direct_pairs(d.probs, n)]
        assert len(sizes) + len(fsums) <= 4


class TestDirectRowSkip:
    """Rows whose direct terms cannot reach the result's rounding are left out."""

    @pytest.mark.parametrize(
        "probs, n, kept, built_before",
        [
            (_dirichlet(1200), 100000, 0, 25214),  # 163 rows, every a_i below e^-158
            (_zipf(1600), 1000, 26, 147),  # 4 of 7 rows kept
            (_near_uniform(2000), 10**8, 0, 1999000),  # every pair direct, every q and the diagonal underflow to 0
        ],
    )
    def test_direct_terms_built(self, monkeypatch, probs, n, kept, built_before):
        d = from_probs(probs, normalize=True)
        sizes = _buffer_sizes(monkeypatch)
        exact_variance(d, n)
        assert sum(sizes) == kept == _direct_pairs(d.probs, n)
        assert _direct_pairs(d.probs, n, kept=False) == built_before

    def test_largest_kept_input_found(self, monkeypatch):
        # The most direct terms kept in a search over about 30 000 inputs
        # (equal and near-equal blocks, block mixtures, power laws; m from 2
        # to 20000, n from 1 to 1e8): n > m^2/4 puts every pair in a direct
        # row, while q = e^(-n/m) is still far above eps.
        d, n = from_probs(1.0 + 0.01 * np.random.default_rng(0).random(160), normalize=True), 6442
        rows, direct_rows = [], variance._direct_rows
        monkeypatch.setattr(variance, "_direct_rows", lambda *args: rows.append(direct_rows(*args)) or rows[-1])
        sizes = _buffer_sizes(monkeypatch)
        _assert_matches_pairwise(d, n)
        assert rows[0].size == 131
        assert sizes == [12314] == [_direct_pairs(d.probs, n)]

    def test_all_rows_left_out_matches_mpmath(self):
        pytest.importorskip("mpmath")
        d, n = from_probs(_dirichlet(1200), normalize=True), 100000
        want, left_out = light_variance_mpmath(d.probs, n)
        scale = _cancel_scale(d, n)
        assert left_out <= 1e-20 * scale
        assert abs(exact_variance(d, n).value - want) <= 1e-12 * scale

    def test_properties(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            shape=st.sampled_from(["zipf", "dirichlet"]),
            m=st.integers(min_value=2, max_value=400),
            n=st.sampled_from([1, 2, 10, 100, 1000, 10**4, 10**5, 10**6]),
            seed=st.integers(min_value=0, max_value=2**32 - 1),
        )
        def check(shape, m, n, seed):
            d = from_probs(SHAPES[shape](m, seed), normalize=True)
            value = exact_variance(d, n).value
            perm = from_probs(np.random.default_rng(seed).permutation(d.probs))
            assert exact_variance(perm, n).value == value
            # the rows left out raise the result by at most 2 eps sum p^2 q (1-q),
            # and the diagonal and iid_majorization_v are each within one rounding
            assert 0.0 <= value <= iid_majorization_v(d, n) * (1.0 + 4 * 2.0**-53)
            _assert_matches_pairwise(d, n)

        check()


class TestClamp:
    """Only rounding-sized negatives become 0."""

    def test_injected_error_stays_visible(self, monkeypatch):
        # masses proportional to 1, 2 or 3: Var[M0] is about 3.7e-17 at
        # n = 1e5, so an absolute 1e-12 clamp would hide an error of 1e-14
        w = np.random.default_rng(0).integers(1, 4, 1800).astype(float)
        d = from_probs(w, normalize=True)
        n = 100000
        assert 1e-17 < exact_variance(d, n).value < 1e-16
        pair_series = variance._pair_series
        monkeypatch.setattr(variance, "_pair_series", lambda *args: pair_series(*args) - 1e-14)
        assert exact_variance(d, n).value < -1e-14

    def test_rounding_below_zero_is_cleared(self, monkeypatch):
        # uniform(m) at n = 1: every sample leaves M0 = 1 - 1/m, so Var[M0]
        # is 0 and the computed value is rounding noise, about -1.3e-20 at
        # m = 1000. Moving the series down by m eps / 4 times sum p^2 q
        # (eps = 2^-53) moves the value by twice that, about half the
        # (m + 16) eps bound.
        m, n = 1000, 1
        d = uniform(m)
        assert exact_variance(d, n).value == 0.0
        shift = m * 2.0**-55 * (m - 1) / m**2  # sum p^2 q = (m - 1) / m^2
        pair_series = variance._pair_series
        monkeypatch.setattr(variance, "_pair_series", lambda *args: pair_series(*args) - shift)
        assert exact_variance(d, n).value == 0.0


def _pair_cut(t: np.ndarray) -> np.ndarray:
    """For t in descending order, the first j > i with t_i t_j <= 1/4, by brute force."""
    return np.array([next((j for j in range(i + 1, t.size) if t[i] * t[j] <= 0.25), t.size) for i in range(t.size)])


def _tail_bound(terms: int) -> Fraction:
    """x^(K+1)/(K+1)! / (1 - x/(K+2)), x = 1/4: the terms past K relative to the scale."""
    x = Fraction(1, 4)
    return x ** (terms + 1) / math.factorial(terms + 1) / (1 - x / (terms + 2))


def _count_suffix_sums(monkeypatch) -> list[int]:
    """Record the size of every suffix sum built: the pair series builds one per term."""
    sizes = []
    monkeypatch.setattr(variance, "_suffix_sums", lambda w: sizes.append(w.size) or _suffix_sums(w))
    return sizes


class TestPairSeries:
    def test_term_count_is_the_least_below_one_roundoff(self):
        # 12 is the first K with (1/4)^(K+1)/(K+1)! <= 2^-53 (1 - 1/(4(K+2))),
        # derived in exact rationals
        eps = Fraction(1, 2**53)
        assert [k for k in range(40) if _tail_bound(k) <= eps][0] == variance._SERIES_TERMS == 12
        assert f"{float(_tail_bound(12)):.3g}" == "2.44e-18"  # the bound the docstrings state

    def test_truncation_within_stated_bound(self, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        n = 200
        rng = np.random.default_rng(3)
        # near-cut pairs, where the tail is largest: t near 1/2 with itself,
        # and t = 2 with t near 1/8; t = 1 pairs directly with t near 1/2
        t = np.sort(np.concatenate([[2.0, 1.0], 0.5 - 1e-3 * rng.random(30), 0.125 - 1e-3 * rng.random(8)]))[::-1]
        a = 1e-2 * rng.random(t.size)
        cut = _pair_cut(t)
        pairs = [(i, j) for i in range(t.size) for j in range(cut[i], t.size)]
        scale = math.fsum(a[i] * a[j] for i, j in pairs)
        terms = variance._SERIES_TERMS
        bound = scale * float(_tail_bound(terms))
        built = _count_suffix_sums(monkeypatch)
        value = _pair_series(a, t, cut, n)
        assert len(built) == terms < n
        assert bound <= 2.0**-53 * scale  # the stopping rule
        with mpmath.workdps(40):
            ma = [mpmath.mpf(x) for x in a]
            mt = [mpmath.mpf(x) for x in t]
            full = mpmath.fsum(ma[i] * ma[j] * ((1 - mt[i] * mt[j] / n) ** n - 1) for i, j in pairs)
            partial = 0
            for k in range(1, terms + 1):
                sk = mpmath.fsum(ma[i] * ma[j] * (mt[i] * mt[j]) ** k for i, j in pairs)
                partial += (-1) ** k * mpmath.binomial(n, k) / mpmath.mpf(n) ** k * sk
            assert abs(full - partial) <= bound  # the dropped tail
            assert abs(value - full) <= bound + 1e-15 * abs(full)

    def test_short_series_runs_to_its_last_term(self, monkeypatch):
        a = np.array([0.3, 0.2, 0.1])
        t = np.array([1.0, 0.4, 0.1])  # t_0 t_1 = 0.4: the pair (0, 1) is not in the series
        cut = _pair_cut(t)
        assert cut.tolist() == [2, 2, 3]
        n = 5
        built = _count_suffix_sums(monkeypatch)
        value = _pair_series(a, t, cut, n)
        assert len(built) == n
        want = sum(a[i] * a[j] * ((1 - t[i] * t[j] / n) ** n - 1) for i in range(3) for j in range(cut[i], 3))
        assert value == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 11, 12])
    def test_series_up_to_12_terms_is_complete(self, monkeypatch, n):
        # for n <= 12 the series ends at k = n, so it is the closed form up to rounding
        a = np.array([0.3, 0.2, 0.1, 0.05])
        t = np.array([1.0, 0.4, 0.25, 0.1])
        cut = _pair_cut(t)
        built = _count_suffix_sums(monkeypatch)
        value = _pair_series(a, t, cut, n)
        assert len(built) == n
        want = math.fsum(a[i] * a[j] * ((1 - t[i] * t[j] / n) ** n - 1) for i in range(4) for j in range(cut[i], 4))
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

    @pytest.mark.parametrize("n", [10, 1000, 10**6])
    def test_permutation_invariance_on_the_vectorised_path(self, n):
        # 1e5 atoms fill 48 rows of the compensated sum's column view, which
        # the draws above never reach. The kernel is within one rounding of
        # the exact sum, so a permutation could in principle move a result by
        # one ulp; on these inputs every output is bit-identical.
        d = from_probs(_zipf(10**5))
        perm = from_probs(np.random.default_rng(1).permutation(d.probs))
        for fn in (approx_variance_thm1, poissonized_variance):
            assert fn(perm, n).value == fn(d, n).value
        for fn in (expected_missing_mass, subgamma_v, iid_majorization_v):
            assert fn(perm, n) == fn(d, n)


def _power_sums_over_atoms(p: np.ndarray, n: int) -> dict[str, float]:
    """The five power sums from their per-atom terms, each sum by fsum_reference."""
    with np.errstate(divide="ignore"):
        log_q = n * np.log1p(-p)
        logp = np.log(p)
    q = np.exp(log_q)
    a, b = fsum_reference(p * p * q), fsum_reference(p * p * p * q)
    pa, pb = fsum_reference(np.exp(2.0 * logp - n * p)), fsum_reference(np.exp(3.0 * logp - n * p))
    return {
        "thm1": -n * a * a + n * b,
        "poissonized": -n * pa * pa + n * pb,
        "expected": fsum_reference(p * q),
        "subgamma": a + fsum_reference(p * q) / n,
        "iid": fsum_reference(p * p * q * -np.expm1(log_q)),
    }


def _power_sums(d, n: int) -> dict[str, float]:
    return {
        "thm1": approx_variance_thm1(d, n).value,
        "poissonized": poissonized_variance(d, n).value,
        "expected": expected_missing_mass(d, n),
        "subgamma": subgamma_v(d, n),
        "iid": iid_majorization_v(d, n),
    }


RUN_INPUTS = {
    "uniform-8": lambda: uniform(8),
    "uniform-2047": lambda: uniform(2047),
    "worst-case-1000": lambda: worst_case_distribution(1000).to_distribution(),
    "zero-padded": lambda: from_probs(np.concatenate((np.full(300, 1 / 300), np.zeros(700)))),
    # counts 1023 and 1024: ten binary digits and one
    "ten-digit-counts": lambda: from_probs(np.repeat([0.3 / 1023, 0.7 / 1024], [1023, 1024]), normalize=True),
    # at n = 1e9 the block's q is about 1e-304 and its terms are subnormal
    "underflowing": lambda: from_probs(np.append(np.full(1000, 7e-7), 1.0 - 7e-4)),
}


class TestRunProfilePowerSums:
    """thm1, poissonized, expected_missing_mass, subgamma_v and iid_majorization_v
    on inputs with a run profile, which they evaluate once per run."""

    @pytest.mark.parametrize("name", sorted(RUN_INPUTS))
    @pytest.mark.parametrize("n", [1, 1000, 10**9])
    def test_below_a_row_equal_fsum_over_the_atoms(self, name, n):
        d = RUN_INPUTS[name]()
        assert d._runs is not None and d.probs.size < _SUM_WIDTH
        assert _power_sums(d, n) == _power_sums_over_atoms(d.probs, n)

    def test_underflowing_terms_are_subnormal(self):
        p = RUN_INPUTS["underflowing"]().probs
        q = np.exp(10**9 * np.log1p(-p[:1]))
        assert 0.0 < (p[:1] * p[:1] * q)[0] < 2.0**-1022

    @pytest.mark.parametrize(
        "build",
        [lambda: uniform(10**6), lambda: worst_case_distribution(10**6).to_distribution()],
        ids=["uniform-1e6", "worst-case-1e6"],
    )
    def test_long_runs_match_mpmath(self, build):
        # Bound fixed before the first run: each term has a relative error of
        # a few eps (n log1p(-p) is O(1) here) and each sum is correctly
        # rounded, so 1e-13 of the scale, the sum of the absolute terms.
        pytest.importorskip("mpmath")
        n = 10**6
        d = build()
        values, counts = d._runs
        want = profile_power_sums_mpmath(values.tolist(), counts.tolist(), n)
        for name, got in _power_sums(d, n).items():
            value, scale = want[name]
            assert abs(got - value) <= 1e-13 * scale, name

    def test_long_runs_equal_fsum_over_the_atoms(self):
        # One or two runs give 2 or 4 pieces, fewer than one row, so every sum
        # is the correctly rounded one, fsum over the 4.4e5 atoms' terms.
        d = worst_case_distribution(10**6).to_distribution()
        assert _power_sums(d, 10**6) == _power_sums_over_atoms(d.probs, 10**6)

    def test_memory_is_independent_of_the_atoms(self):
        # Only the run scan's m-byte comparison is as long as the vector; the
        # per-atom path needs several 8m-byte temporaries.
        m, n = 10**6, 10**6
        d = uniform(m)
        tracemalloc.start()
        try:
            _power_sums(d, n)
            gap_report(d, n, VarianceMethod.POISSONIZED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * m


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


#: The six power-sum entry points, in the order of the benchmark's full report.
ENTRY_POINTS = {
    "thm1": lambda d, n: approx_variance_thm1(d, n).value,
    "poissonized": lambda d, n: poissonized_variance(d, n).value,
    "expected": expected_missing_mass,
    "subgamma": subgamma_v,
    "iid": iid_majorization_v,
    "gap": lambda d, n: gap_report(d, n, VarianceMethod.POISSONIZED),
}

KEPT_SUM_INPUTS = {
    "zipf-1e5": lambda: _zipf(10**5),  # per-atom, above one row
    "worst-case-1000": lambda: worst_case_distribution(1000).to_distribution().probs,  # a run profile
    "dirichlet-1000": lambda: _dirichlet(1000),  # per-atom, below one row
}


def _fresh_values(probs: np.ndarray, n: int) -> dict[str, object]:
    """Each entry point's value, each from its own new instance."""
    return {name: fn(from_probs(probs), n) for name, fn in ENTRY_POINTS.items()}


def _counting(monkeypatch, name: str) -> list[int]:
    """Count the calls of ``variance.<name>``; returns the one-entry counter."""
    calls = [0]
    inner = getattr(variance, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(variance, name, counted)
    return calls


class TestKeptPowerSums:
    """The instance keeps each power sum of the last n, per family; a kept sum
    must be the value a fresh instance computes, bit for bit."""

    @pytest.fixture(params=sorted(KEPT_SUM_INPUTS))
    def probs(self, request):
        p = KEPT_SUM_INPUTS[request.param]()
        d = from_probs(p)
        assert (d._runs is None) == (request.param != "worst-case-1000")
        assert (d.probs.size >= _SUM_WIDTH) == (request.param == "zipf-1e5")
        return p

    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_each_call_after_the_other_five_equals_a_lone_call(self, probs, order):
        n = 1000
        fresh = _fresh_values(probs, n)
        names = list(ENTRY_POINTS) if order == "forward" else list(reversed(ENTRY_POINTS))
        for name in names:
            d = from_probs(probs)
            for other in names:
                if other != name:
                    ENTRY_POINTS[other](d, n)
            assert ENTRY_POINTS[name](d, n) == fresh[name], name

    def test_another_n_in_between(self, probs):
        n1, n2 = 1000, 10**5
        want = {n: _fresh_values(probs, n) for n in (n1, n2)}
        d = from_probs(probs)
        for n in (n1, n2, n1):
            for name, fn in ENTRY_POINTS.items():
                assert fn(d, n) == want[n][name], (n, name)

    def test_numpy_integer_hits_and_bad_n_still_raises(self, probs):
        n = 1000
        fresh = _fresh_values(probs, n)
        d = from_probs(probs)
        for name, fn in ENTRY_POINTS.items():
            assert fn(d, n) == fresh[name]
            assert fn(d, np.int64(n)) == fresh[name], name
            for bad in (2.5, 0):
                with pytest.raises(ValueError):
                    fn(d, bad)
            assert fn(d, n) == fresh[name], name

    @pytest.mark.parametrize("clone", [lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_copies_give_the_same_values(self, probs, clone):
        n = 1000
        fresh = {n: _fresh_values(probs, n), 10: _fresh_values(probs, 10)}
        d = from_probs(probs)
        for fn in ENTRY_POINTS.values():
            fn(d, n)
        twin = clone(d)
        assert not twin.probs.flags.writeable
        for m in (n, 10, n):
            for name, fn in ENTRY_POINTS.items():
                assert fn(twin, m) == fresh[m][name], (m, name)
                assert fn(d, m) == fresh[m][name], (m, name)

    def test_threads_sharing_an_instance_get_the_serial_values(self, probs):
        # Four threads, more than the cores of a small box, two per n, switching
        # as often as the interpreter allows: each keeps replacing the slot the
        # others read, and every value must still be the serial one.
        sizes = (1000, 10**5, 1000, 10**5)
        want = {n: _fresh_values(probs, n) for n in set(sizes)}
        d = from_probs(probs)
        rounds = 3 if probs.size >= _SUM_WIDTH else 40
        start = threading.Barrier(len(sizes))
        got = [[] for _ in sizes]

        def worker(k):
            start.wait()
            for _ in range(rounds):
                got[k].append({name: fn(d, sizes[k]) for name, fn in ENTRY_POINTS.items()})

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(sizes))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, n in enumerate(sizes):
            assert got[k] == [want[n]] * rounds, n

    def test_full_report_computes_each_sum_once(self, monkeypatch):
        # thm1 computes sum p^2 q and p^3 q, poissonized its two sums,
        # expected sum p q, iid the diagonal; subgamma and gap_report find
        # theirs kept. Without the kept sums: 13 sums and 5 log passes.
        d = from_probs(_zipf(10**5))
        sums = _counting(monkeypatch, "_weighted_sum")
        logs = _counting(monkeypatch, "_log_one_minus")
        for fn in ENTRY_POINTS.values():
            fn(d, 1000)
        assert (sums[0], logs[0]) == (6, 3)

    @pytest.mark.parametrize(
        "name, want", [("thm1", (2, 1)), ("poissonized", (2, 0)), ("expected", (1, 1)), ("subgamma", (2, 1)), ("iid", (1, 1)), ("gap", (5, 1))]
    )
    def test_lone_call_does_the_work_it_always_did(self, monkeypatch, name, want):
        d = from_probs(_zipf(10**5))
        sums = _counting(monkeypatch, "_weighted_sum")
        logs = _counting(monkeypatch, "_log_one_minus")
        ENTRY_POINTS[name](d, 1000)
        assert (sums[0], logs[0]) == want

    def test_full_report_memory(self):
        # The peak is the diagonal's: log_q, q and two 8m-byte temporaries,
        # about 4.06 x 8m bytes as measured, as before the sums were kept.
        # The kept sums may hold no array past the call that made it.
        m = 2 * 10**5
        d = from_probs(_zipf(m))
        tracemalloc.start()
        try:
            for fn in ENTRY_POINTS.values():
                fn(d, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.25 * 8 * m

    #: float.hex of thm1, poissonized, expected, subgamma_v, iid_majorization_v
    #: and gap_report(POISSONIZED)'s gap_subgamma and gap_iid, recorded before
    #: the sums were kept, at every term's evaluation order then.
    PINNED = {
        ("zipf-1e5", 1000): (
            "0x1.3d4a83682086ap-14", "0x1.3e45ab66b2bf7p-14", "0x1.142421fbc957bp-1", "0x1.460de3ded536ap-11",
            "0x1.5a66324e7c18ep-15", "0x1.1e452e71fedebp-11", "-0x1.2225247ee9660p-15",
        ),
        ("zipf-1e5", 10**6): (
            "0x1.1639c442aa751p-24", "0x1.163a07cc1286fp-24", "0x1.90e1401617b3ep-6", "0x1.047096bcb76c8p-24",
            "0x1.e5887044a9d4ap-26", "-0x1.1c9710f5b1a70p-28", "-0x1.39afd775d0239p-25",
        ),
        ("worst-case-1000", 1000): (
            "0x1.f369eda01a407p-12", "0x1.f48bf31be2540p-12", "0x1.a94946fdca692p-4", "0x1.6330721a8b56ep-12",
            "0x1.b97afaa200b8bp-13", "-0x1.22b70202adfa4p-13", "-0x1.17ce75cae1f7ap-12",
        ),
    }  # fmt: skip

    @pytest.mark.parametrize("name, n", sorted(PINNED))
    def test_outputs_are_pinned(self, name, n):
        d = from_probs(KEPT_SUM_INPUTS[name]())
        values = [fn(d, n) for fn in ENTRY_POINTS.values()]
        gap = values.pop()
        values += [gap.gap_subgamma, gap.gap_iid]
        assert tuple(v.hex() for v in values) == self.PINNED[name, n]
