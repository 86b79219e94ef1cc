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
    ZeroSumError,
    from_file,
    from_probs,
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

    @pytest.mark.parametrize("value", [0, -3, 2.5, float("nan")])
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


INPUTS = {
    "signed-wide": _signed_wide,
    "cancelling": _cancelling,
    "exponents": lambda rng, size: 10.0 ** rng.uniform(-300.0, 0.0, size),
    "subnormal": _subnormal,
    "heavy-row": _heavy_row_terms,
}


class TestCompensatedSum:
    """The vectorised Sum2 kernel against math.fsum over Python floats.

    Bound, fixed before the first run: within one ulp of the correctly rounded
    sum, plus rows * eps^2 * sum|x| for the rows of the column view (eps the
    machine epsilon). Below a full row the kernel is that fsum, so equal.
    """

    @pytest.mark.parametrize("kind", sorted(INPUTS))
    @pytest.mark.parametrize("size", [0, 1, W - 1, W, W + 1, 2 * W + 1, 3 * W - 1, 4 * W, 5 * W + 7, 10**6])
    def test_against_fsum(self, kind, size):
        x = INPUTS[kind](np.random.default_rng(size), size)
        want = fsum_reference(x)
        got = _compensated_sum(x)
        if size < W:
            assert got == want
        bound = math.ulp(want) + (size // W) * EPS**2 * fsum_reference(np.abs(x))
        assert abs(got - want) <= bound

    @pytest.mark.parametrize("size", [3, 3 * W])
    def test_non_finite_sums_do_not_raise(self, size):
        big = np.full(size, 1e308)
        assert _compensated_sum(big) == math.inf
        assert _compensated_sum(-big) == -math.inf
        big[1], big[2] = math.inf, -math.inf
        assert math.isnan(_compensated_sum(big))
        big[1] = math.nan
        assert math.isnan(_compensated_sum(big))
