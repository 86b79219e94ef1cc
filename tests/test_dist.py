import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from missingmass import (
    INFINITE,
    AlphabetBound,
    DiscreteDistribution,
    DistributionError,
    EmptyDistributionError,
    NegativeMassError,
    NotNormalizedError,
    VarianceMethod,
    ZeroSumError,
    exact_variance,
    expected_missing_mass,
    from_file,
    from_probs,
    gap_report,
    uniform,
    uniform_dirac,
    worst_case_distribution,
)
from missingmass import dist
from missingmass.dist import NORMALIZATION_ATOL, _SUM_WIDTH, _compensated_sum, _weighted_sum
from oracles import fsum_reference


class TestAlphabetBound:
    def test_finite(self):
        b = AlphabetBound(7)
        assert b.is_finite and b.value == 7.0

    def test_infinite(self):
        assert not AlphabetBound(INFINITE).is_finite

    @pytest.mark.parametrize("value", [0, -3, 2.5, float("nan"), -math.inf, 10**400])
    def test_rejects_bad_values(self, value):
        with pytest.raises(ValueError):
            AlphabetBound(value)


class TestFromProbs:
    def test_identity(self):
        d = from_probs([0.5, 0.5], normalize=False)
        assert d.probs.tolist() == [0.5, 0.5]
        assert d.support_size == 2

    def test_normalize(self):
        d = from_probs([2, 2], normalize=True)
        assert d.probs.tolist() == [0.5, 0.5]

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            from_probs([0.3, 0.3], normalize=False)

    def test_negative(self):
        with pytest.raises(NegativeMassError):
            from_probs([1.5, -0.5])

    def test_negative_before_normalizing(self):
        for values in ([-1.0, -1.0], [1.5, -0.5]):
            with pytest.raises(NegativeMassError):
                from_probs(values, normalize=True)

    def test_empty(self):
        with pytest.raises(EmptyDistributionError):
            from_probs([])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: from_probs([[0.5, 0.5]]),
            lambda: from_probs([[0.5, 0.5]], normalize=True),
            lambda: from_probs(np.array(0.5)),
            lambda: DiscreteDistribution(np.array([[0.5, 0.5]])),
        ],
        ids=["nested", "nested-normalized", "zero-d", "direct-2-d"],
    )
    def test_not_one_dimensional(self, build):
        with pytest.raises(DistributionError, match="shape") as info:
            build()
        assert not isinstance(info.value, EmptyDistributionError)

    @pytest.mark.parametrize(
        "values, normalize",
        [([np.nan, 1.0], False), ([np.nan, 0.5], True), ([1e308, 1e308], False), ([1e308, 1e308], True)],
    )
    def test_nan_rejected(self, values, normalize):
        with pytest.raises(NotNormalizedError):
            from_probs(values, normalize=normalize)

    def test_zero_sum(self):
        with pytest.raises(ZeroSumError):
            from_probs([0.0, 0.0], normalize=True)

    def test_zero_atoms_kept(self):
        d = from_probs([0.5, 0.0, 0.5])
        assert d.support_size == 3

    def test_accepts_array_and_iterator(self):
        assert from_probs(np.array([0.25, 0.75])).probs.tolist() == [0.25, 0.75]
        assert from_probs(iter([0.25, 0.75])).probs.tolist() == [0.25, 0.75]

    def test_tolerance_boundary(self):
        from_probs([0.5, 0.5 + 9e-10])  # inside 1e-9
        with pytest.raises(NotNormalizedError):
            from_probs([0.5, 0.5 + 2e-9])


class TestUniform:
    def test_point_mass(self):
        assert uniform(1).probs.tolist() == [1.0]

    def test_four(self):
        assert uniform(4).probs.tolist() == [0.25] * 4

    def test_sums_to_one(self):
        import math

        assert abs(math.fsum(uniform(3).probs.tolist()) - 1.0) < 1e-12

    def test_empty(self):
        with pytest.raises(EmptyDistributionError):
            uniform(0)

    @pytest.mark.parametrize("m", [2.5, 3.0])
    def test_count_must_be_an_integer(self, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            uniform(m)

    def test_numpy_integer_count_passes(self):
        assert uniform(np.int64(4)).probs.tolist() == [0.25] * 4


class TestUniformDirac:
    def test_direct(self):
        d = uniform_dirac(2, 0.3, 0.4)
        assert d.probs.tolist() == [0.3, 0.3, 0.4]

    def test_vanishing_dirac_omitted(self):
        d = uniform_dirac(4, 0.25, 0.0)
        assert d.probs.tolist() == [0.25] * 4

    def test_below_threshold_omitted(self):
        d = uniform_dirac(2, 0.5 - 1e-13 / 2, 1e-13)
        assert d.support_size == 2

    def test_at_threshold_kept(self):
        d = uniform_dirac(2, (1 - 1e-12) / 2, 1e-12)
        assert d.support_size == 3

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            uniform_dirac(2, 0.3, 0.3)

    def test_negative(self):
        with pytest.raises(NegativeMassError):
            uniform_dirac(2, 0.6, -0.2)

    def test_nan_mass(self):
        with pytest.raises(NotNormalizedError):
            uniform_dirac(2, np.nan, 0.0)

    @pytest.mark.parametrize("count", [2.5, 2.0])
    def test_count_must_be_an_integer(self, count):
        with pytest.raises(ValueError, match="atom_count must be an integer"):
            uniform_dirac(count, 0.9 / count, 0.1)  # count * atom_mass + dirac_mass is 1

    def test_empty(self):
        with pytest.raises(EmptyDistributionError):
            uniform_dirac(0, 0.5, 1.0)


class TestValidation:
    @pytest.mark.parametrize(
        "d",
        [
            from_probs([0.2, 0.8]),
            uniform(7),
            uniform_dirac(3, 0.2, 0.4),
            from_probs([0, 1, 0]),
        ],
    )
    def test_revalidation_never_errors(self, d):
        DiscreteDistribution(d.probs)  # must not raise

    def test_equality_and_hash_go_by_identity(self):
        # a generated __eq__ would compare the arrays and raise on their truth value
        d, e = from_probs([0.5, 0.5]), from_probs([0.5, 0.5])
        assert d == d
        assert not d == e
        assert d != e
        assert hash(d) == hash(d)
        assert {d, e, d} == {d, e}

    def test_probs_read_only(self):
        d = uniform(3)
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_plain_total_gives_the_compensated_verdict(self):
        # The plain total decides only where it is within 2 m eps of the total
        # inside the tolerance; totals drawn within a few such margins of
        # 1 +- 1e-9 get the compensated sum's verdict and rejection message.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            m=st.integers(min_value=1, max_value=5000),
            power=st.integers(min_value=1, max_value=30),
            margins=st.floats(min_value=-4.0, max_value=4.0),
            sign=st.sampled_from([-1.0, 1.0]),
            seed=st.integers(min_value=0, max_value=2**32 - 1),
        )
        def check(m, power, margins, sign, seed):
            w = np.random.default_rng(seed).random(m) ** power
            target = 1.0 + sign * (NORMALIZATION_ATOL + margins * 2.0 * m * 2.0**-53)
            arr = w * (target / math.fsum(w.tolist()))
            total = _compensated_sum(arr)
            if abs(total - 1.0) <= NORMALIZATION_ATOL:
                DiscreteDistribution(arr)
            else:
                with pytest.raises(NotNormalizedError) as info:
                    DiscreteDistribution(arr)
                assert str(info.value) == f"masses sum to {total!r}, not 1"

        check()

    def test_a_plain_total_far_inside_the_tolerance_needs_no_compensated_sum(self, monkeypatch):
        probs = uniform(10**6).probs
        calls = []
        monkeypatch.setattr(dist, "_compensated_sum", lambda x: calls.append(x.size) or _compensated_sum(x))
        from_probs(probs)
        assert calls == []


class TestFromFile:
    def test_reads_comments_and_blanks(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("# header\n0.5\n\n0.25\n0.25\n\n\n")
        assert from_file(f).probs.tolist() == [0.5, 0.25, 0.25]

    def test_scientific_notation(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("9.999e-1\n1e-4\n")
        assert from_file(f).support_size == 2

    def test_parse_error(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0.5\nhalf\n")
        with pytest.raises(DistributionError, match="not a number"):
            from_file(f)

    def test_not_normalized(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0.5\n0.6\n")
        with pytest.raises(NotNormalizedError):
            from_file(f)


W = _SUM_WIDTH
EPS = float(np.finfo(np.float64).eps)


def _signed_wide(rng, size: int) -> np.ndarray:
    """Mixed signs, exponents spread from 1e-300 to 1."""
    return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300.0, 0.0, size)


def _cancelling(rng, size: int) -> np.ndarray:
    """Terms in [-1, 1] with 1e16, 1, -1e16 triples spread through the array:
    a plain or column-wise float sum loses every 1 of a triple."""
    x = rng.uniform(-1.0, 1.0, size)
    slots = rng.permutation(size)[: 3 * (size // 30)].reshape(3, -1)
    x[slots[0]], x[slots[1]], x[slots[2]] = 1e16, 1.0, -1e16
    return x


def _subnormal(rng, size: int) -> np.ndarray:
    """Subnormal multiples of the smallest double, a few normal terms mixed in."""
    x = rng.integers(-(2**20), 2**20, size) * 5e-324
    x[:: max(1, size // 7)] = 1e-300
    return x


def _heavy_row_terms(rng, size: int) -> np.ndarray:
    """All negative, like p p' [(1-p-p')^n - q q'] terms of exact_variance."""
    p = rng.dirichlet(np.full(size, 0.1)) if size else np.empty(0)
    return -p * p * rng.random(size)


def _masses(rng, size: int) -> np.ndarray:
    """Dirichlet(0.1) masses scaled to sum 1: the exact sum sits next to the
    power of two 1.0, where the float spacing below is half that above."""
    p = rng.dirichlet(np.full(size, 0.1)) if size else np.empty(0)
    return p / p.sum()


INPUTS = {
    "masses": _masses,
    "signed-wide": _signed_wide,
    "cancelling": _cancelling,
    "exponents": lambda rng, size: 10.0 ** rng.uniform(-300.0, 0.0, size),
    "subnormal": _subnormal,
    "heavy-row": _heavy_row_terms,
}


def _record_fsum(monkeypatch) -> list[int]:
    """Make math.fsum append each call's item count to the returned list."""
    sizes = []
    fsum = math.fsum

    def counted(items):
        items = list(items)
        sizes.append(len(items))
        return fsum(items)

    monkeypatch.setattr(math, "fsum", counted)
    return sizes


class TestCompensatedSum:
    """The vectorised Sum2 kernel against math.fsum over Python floats.

    Bound, fixed before the first run: within one ulp of the correctly rounded
    sum, plus rows * eps^2 * sum|x| for the rows of the column view (eps the
    machine epsilon). Below a full row the kernel returns the correctly
    rounded sum, which is that fsum, so equal.
    """

    @pytest.mark.parametrize("kind", sorted(INPUTS))
    @pytest.mark.parametrize(
        "size", [0, 1, 2, 64, 1024, W - 1, W, W + 1, 2 * W + 1, 3 * W - 1, 4 * W, 5 * W + 7, 10**6]
    )
    def test_against_fsum(self, kind, size):
        x = INPUTS[kind](np.random.default_rng(size), size)
        want = fsum_reference(x)
        got = _compensated_sum(x)
        if size < W:
            assert got == want
        bound = math.ulp(want) + (size // W) * EPS**2 * fsum_reference(np.abs(x))
        assert abs(got - want) <= bound

    def test_short_inputs_equal_fsum(self):
        # Random mantissas over a drawn exponent range (subnormals included),
        # mixed signs, and drawn finite values placed as v, -v pairs so that
        # the sum cancels. Every term is below 2^1001, so no sum overflows.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        finite = st.floats(min_value=-(2.0**1000), max_value=2.0**1000, allow_subnormal=True)

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            size=st.integers(0, W - 1),
            seed=st.integers(0, 2**32 - 1),
            low=st.integers(-1100, 1000),
            span=st.integers(0, 2100),
            pairs=st.lists(finite, max_size=8),
        )
        def check(size, seed, low, span, pairs):
            rng = np.random.default_rng(seed)
            x = rng.choice([-1.0, 1.0], size) * np.exp2(rng.uniform(low, min(low + span, 1000), size))
            v = np.array(pairs[: size // 2])
            slots = rng.permutation(size)[: 2 * v.size].reshape(2, -1)
            x[slots[0]], x[slots[1]] = v, -v
            assert _compensated_sum(x) == fsum_reference(x)

        check()

    @pytest.mark.parametrize("seed", range(8))
    def test_atom_sums_take_no_per_atom_fsum(self, monkeypatch, seed):
        # gap_report on Dirichlet(0.1) masses, m = 1200 at n = 1e5: the
        # diagonal, the power sums and the last direct buffer are shorter
        # than one row, and their terms span about a thousand binades. No
        # fsum may take more than the 129 partials of a certified short sum,
        # so none of them falls back to fsum over its terms.
        d = from_probs(np.random.default_rng(seed).dirichlet(np.full(1200, 0.1)), normalize=True)
        sizes = _record_fsum(monkeypatch)
        gap_report(d, 100000, VarianceMethod.EXACT)
        assert sizes and max(sizes) <= 129

    # Size alone routes a short sum. Close terms, where fsum is cheapest,
    # show it: below 768 terms fsum runs once, over all of them; from 768
    # up the fold runs and its certificate holds, so fsum sees only the 128
    # lane partials, then those and -r.

    @staticmethod
    def _close_terms_fsum_calls(monkeypatch, size):
        x = np.random.default_rng(size).uniform(1.0, 3.0, size)
        want = fsum_reference(x)
        sizes = _record_fsum(monkeypatch)
        assert _compensated_sum(x) == want
        return sizes

    @pytest.mark.parametrize("size", [65, 767])
    def test_close_terms_take_plain_fsum(self, monkeypatch, size):
        assert self._close_terms_fsum_calls(monkeypatch, size) == [size]

    @pytest.mark.parametrize("size", [768, 1024, 1500, W - 1])
    def test_close_terms_are_folded_from_768(self, monkeypatch, size):
        assert self._close_terms_fsum_calls(monkeypatch, size) == [2 * 64, 2 * 64 + 1]

    @pytest.mark.parametrize("gap", [5, 7])
    def test_certificate_uses_each_sides_spacing(self, monkeypatch, gap):
        # Wide-span masses whose exact sum is 1 + gap * 2^-56: it rounds to
        # 1.0, whose spacing above (2^-52) is twice that below, and lies more
        # than half the spacing below (2^-54) above 1.0. Held to the smaller
        # spacing on both sides, the certificate would fall back.
        x = _masses(np.random.default_rng(gap), W - 48)
        x[0] += gap * 2.0**-56 - math.fsum(x.tolist() + [-1.0])
        sizes = _record_fsum(monkeypatch)
        assert _compensated_sum(x) == 1.0
        assert sizes == [2 * 64, 2 * 64 + 1]

    def test_cancelling_short_sum_falls_back(self, monkeypatch):
        x = _cancelling(np.random.default_rng(0), W - 1)
        sizes = _record_fsum(monkeypatch)
        got = _compensated_sum(x)
        assert sizes[-1] == W - 1
        assert got == fsum_reference(x)

    @pytest.mark.parametrize("size", [3, 3 * W])
    def test_non_finite_sums_do_not_raise(self, size):
        big = np.full(size, 1e308)
        assert _compensated_sum(big) == math.inf
        assert _compensated_sum(-big) == -math.inf
        big[1], big[2] = math.inf, -math.inf
        assert math.isnan(_compensated_sum(big))
        big[1] = math.nan
        assert math.isnan(_compensated_sum(big))


def _runs(d):
    """The run profile as plain lists, or None."""
    runs = d._runs
    return None if runs is None else (runs[0].tolist(), runs[1].tolist())


class TestRunProfile:
    """(values, counts) of the runs of equal consecutive masses, kept when the
    runs average at least 8 atoms."""

    def test_uniform_is_one_run(self):
        assert _runs(uniform(1000)) == ([1e-3], [1000])

    def test_worst_case_is_two_runs(self):
        spec = worst_case_distribution(1000)
        got = _runs(spec.to_distribution())
        assert got == ([spec.atom_mass, spec.dirac_mass], [spec.atom_count, 1])
        assert got[1] == [441, 1]

    def test_distinct_masses_keep_the_vector(self):
        w = 1.0 / np.arange(1, 1001)
        assert _runs(from_probs(np.random.default_rng(0).permutation(w / w.sum()))) is None

    def test_zero_padding_is_a_run(self):
        d = from_probs(np.concatenate((np.full(300, 1 / 300), np.zeros(700))))
        assert _runs(d) == ([1 / 300, 0.0], [300, 700])

    def test_single_atom_keeps_the_vector(self):
        assert _runs(from_probs([1.0])) is None

    def test_runs_follow_atom_order(self):
        # 500 atoms of 1/1000 and 250 of 1/500: two runs when grouped, about
        # 330 runs shuffled, so the shuffled vector keeps the per-atom path.
        p = np.concatenate((np.full(500, 1e-3), np.full(250, 2e-3)))
        assert _runs(from_probs(p)) == ([1e-3, 2e-3], [500, 250])
        assert _runs(from_probs(np.random.default_rng(0).permutation(p))) is None

    def test_too_many_runs_keep_the_vector(self):
        # Runs of 8 atoms are kept, runs of 7 are not.
        for length, kept in ((8, True), (7, False)):
            p = np.repeat(np.arange(1, 41.0), length)
            assert (_runs(from_probs(p / p.sum())) is not None) == kept

    def test_computed_only_on_first_use(self):
        d = uniform(1000)
        exact_variance(d, 100)
        assert "_runs" not in vars(d)
        expected_missing_mass(d, 100)
        assert "_runs" in vars(d)

    def test_filled_profile_pickles(self):
        d = worst_case_distribution(1000).to_distribution()
        want = expected_missing_mass(d, 1000)
        back = pickle.loads(pickle.dumps(d))
        assert np.array_equal(back.probs, d.probs)
        assert not back.probs.flags.writeable
        assert _runs(back) == _runs(d)
        assert expected_missing_mass(back, 1000) == want


class TestWeightedSum:
    """sum w x over exact pieces of each product: correctly rounded while the
    pieces, 2 per run, number fewer than one row."""

    @staticmethod
    def _exact(x, w) -> float:
        return float(sum(Fraction(v) * int(c) for v, c in zip(x.tolist(), w.tolist())))

    def test_none_is_the_compensated_sum(self):
        x = _masses(np.random.default_rng(0), 3 * W + 5)
        assert _weighted_sum(x, None) == _compensated_sum(x)

    @pytest.mark.parametrize("seed", range(20))
    def test_correctly_rounded(self, seed):
        # Terms over the whole range up to 1, subnormals included, and counts
        # of up to 52 binary digits, across the 2^26 split.
        rng = np.random.default_rng(seed)
        runs = int(rng.integers(1, 200))
        x = rng.choice([-1.0, 1.0], runs) * rng.random(runs) * np.exp2(rng.integers(-1100, 1, runs))
        x[::7] = 5e-324 * rng.integers(1, 2**20, x[::7].size)
        w = rng.integers(1, 2 ** rng.integers(1, 53, runs), dtype=np.int64)
        assert _weighted_sum(x, w) == self._exact(x, w)

    def test_all_ones_counts(self):
        x = np.array([1.0 - 2.0**-53, 2.0**-1022 - 5e-324, 5e-324, 0.1])
        w = np.array([2**52 - 1, 2**26 - 1, 2**26, 2**27 - 1], dtype=np.int64)
        assert _weighted_sum(x, w) == self._exact(x, w)
