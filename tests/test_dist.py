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

    def test_empty(self):
        with pytest.raises(EmptyDistributionError):
            from_probs([])

    @pytest.mark.parametrize("values, normalize", [([np.nan, 1.0], False), ([np.nan, 0.5], True)])
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
