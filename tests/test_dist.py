import math

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
    from_file,
    from_probs,
    gap_report,
    uniform,
    uniform_dirac,
)
from missingmass.dist import _SUM_WIDTH, _compensated_sum
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

    def test_probs_read_only(self):
        d = uniform(3)
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


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

    @pytest.mark.parametrize("size", [65, 767, 768, 1024, 1500, W - 1])
    def test_close_terms_take_plain_fsum(self, monkeypatch, size):
        # Terms within a few binades of each other: fsum over them is cheaper
        # than the fold at every size below a row, so it runs once, over all
        # of them, and nothing is folded.
        x = np.random.default_rng(size).uniform(1.0, 3.0, size)
        want = fsum_reference(x)
        sizes = _record_fsum(monkeypatch)
        assert _compensated_sum(x) == want
        assert sizes == [size]

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
