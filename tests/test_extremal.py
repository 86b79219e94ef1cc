import math
import sys

import numpy as np
import pytest

from missingmass import (
    INFINITE,
    AlphabetBound,
    BracketError,
    InvalidAlphabetError,
    InvalidRatioError,
    Regime,
    find_cstar,
    from_probs,
    objective_alpha,
    poissonized_variance,
    solve_alpha,
    worst_case_distribution,
)
from missingmass import extremal
from missingmass.extremal import _bisect, _transition_equation
from oracles import lattice_alpha_max, scan_branch2_max


class TestFindCstar:
    def test_value(self):
        assert find_cstar() == pytest.approx(2.26281, abs=1e-4)

    def test_residual(self):
        assert abs(_transition_equation(find_cstar())) < 1e-10

    def test_root_interior(self):
        assert 2.0 < find_cstar() < 3.0

    def test_bracket_signs(self):
        # algebraic: 2 - 2e^2 + 2(e^2 - 2) = -2, and f(3) = e^3 - 4
        assert _transition_equation(2.0) == -2.0
        assert _transition_equation(3.0) == pytest.approx(math.exp(3) - 4.0, abs=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_same_sign_bracket_raises(self, sign):
        with pytest.raises(BracketError):
            _bisect(lambda c: sign * (c * c + 1.0), -1.0, 1.0)

    def test_solved_once(self, monkeypatch):
        assert find_cstar().hex() == _bisect(_transition_equation, 2.0, 3.0).hex() == (2.262810129196936).hex()

        def fail(c):
            raise AssertionError("c* solved again")

        monkeypatch.setattr(extremal, "_transition_equation", fail)
        find_cstar()
        solve_alpha(0.2)
        solve_alpha(INFINITE)
        worst_case_distribution(1000, 300)


    @pytest.mark.parametrize("b", [0.2, INFINITE])
    def test_solve_alpha_reads_cstar_through_find_cstar(self, monkeypatch, b):
        # `perfbench/run.py --trace 1` measures extremal.find_cstar.us only
        # through this call and exits when that metric has no span, so
        # solve_alpha must not read _CSTAR directly.
        calls = []
        monkeypatch.setattr(extremal, "find_cstar", lambda: calls.append(b) or extremal._CSTAR)
        solve_alpha(b)
        assert calls == [b]


class TestObjective:
    def test_zero_mass(self):
        for c in (0.0, 0.5, 2.0, 10.0):
            assert objective_alpha(0.0, c) == 0.0

    def test_at_transition(self):
        assert objective_alpha(1.0, find_cstar()) == pytest.approx(0.477, abs=1e-3)

    def test_huge_c_does_not_overflow(self):
        # c^2 overflows and e^{-c} underflows; their product is 0
        assert objective_alpha(1.0, 1e308) == 0.0

    def test_direct_evaluation(self):
        want = -0.25 * math.exp(-2.0) + 0.5 * math.exp(-1.0)
        assert objective_alpha(0.5, 1.0) == pytest.approx(want, abs=1e-12)


class TestSolveAlpha:
    def test_unbounded(self):
        sol = solve_alpha(INFINITE)
        assert sol.alpha == pytest.approx(0.477, abs=1e-3)
        assert sol.w == 1.0
        assert sol.c == pytest.approx(2.26281, abs=1e-3)
        assert sol.regime is Regime.UNIFORM

    def test_large_ratio_matches_unbounded(self):
        a, b = solve_alpha(1.0), solve_alpha(INFINITE)
        assert (a.alpha, a.w, a.c, a.regime) == (b.alpha, b.w, b.c, b.regime)

    def test_dirac_regime_b02(self):
        sol = solve_alpha(0.2)
        val, c = scan_branch2_max(0.2, points=100000, c_max=5.0)
        assert sol.alpha == pytest.approx(val, abs=1e-6)
        assert sol.c == pytest.approx(3.06, abs=1e-2)
        assert sol.w == pytest.approx(0.61, abs=1e-2)
        assert sol.regime is Regime.UNIFORM_DIRAC

    def test_alpha_equals_objective(self):
        for b in (0.05, 0.2, 0.35, 0.44, 0.7, INFINITE):
            sol = solve_alpha(b)
            assert abs(sol.alpha - objective_alpha(sol.w, sol.c)) <= 1e-12

    def test_feasible(self):
        for b in (0.05, 0.2, 0.35, 0.44, 0.7, 3.0):
            sol = solve_alpha(b)
            assert sol.w <= 1.0 + 1e-12
            assert sol.w <= b * sol.c + 1e-12

    def test_boundary_constraint_active(self):
        # the optimum never sits strictly inside the feasible region
        for b in (0.05, 0.2, 0.35, 0.44, 0.7, INFINITE):
            sol = solve_alpha(b)
            w_active = abs(sol.w - 1.0) <= 1e-9
            edge_active = math.isfinite(b) and abs(sol.w - b * sol.c) <= 1e-9
            assert w_active or edge_active

    def test_monotone_in_b_and_flat_beyond_transition(self):
        cstar = find_cstar()
        bs = np.linspace(0.05, 1.2, 60)
        alphas = [solve_alpha(float(b)).alpha for b in bs]
        for lo, hi in zip(alphas, alphas[1:]):
            assert hi >= lo - 1e-12
        flat = [a for b, a in zip(bs, alphas) if b >= 1.0 / cstar]
        assert max(flat) - min(flat) <= 1e-9

    def test_regime_iff_transition_ratio(self):
        cstar = find_cstar()
        for b in (0.05, 0.3, 0.4, 1 / cstar - 1e-6, 1 / cstar, 1 / cstar + 1e-6, 1.0, INFINITE):
            sol = solve_alpha(b)
            assert (sol.regime is Regime.UNIFORM) == (b >= 1.0 / cstar)

    @pytest.mark.parametrize("b", [0.0, -1.0, -0.5])
    def test_invalid_ratio(self, b):
        with pytest.raises(InvalidRatioError):
            solve_alpha(b)

    def test_oracle_agreement_sample(self):
        # the full 9-point sweep runs in the acceptance suite
        for b in (0.1, 0.3, 1.0):
            assert solve_alpha(b).alpha == pytest.approx(lattice_alpha_max(b), abs=1e-5)

    def test_corner_optimum_matches_mpmath(self):
        # below 1/c* and close to it the optimum is the corner (w = 1, c = 1/b),
        # so alpha(b) = f(1/b) with f(c) = c^2 e^{-c} (1 - e^{-c})
        mpmath = pytest.importorskip("mpmath")
        for b in (0.4, 0.44, 1.0 / find_cstar() - 1e-3):
            with mpmath.workdps(60):
                c = 1 / mpmath.mpf(b)
                want = float(c * c * mpmath.exp(-c) * (1 - mpmath.exp(-c)))
            assert solve_alpha(b).alpha == pytest.approx(want, abs=1e-9)

    def test_tiny_ratio_survives_grid_underflow(self):
        # the hump near c = 3 must be found however small b is; below about
        # 1e-100 a plain evaluation of g_b overflows or underflows
        for b in (1e-4, 1e-6, 1e-8, 1e-100, 1e-160, 1e-300):
            sol = solve_alpha(b)
            want, _ = scan_branch2_max(b, points=3000000, c_max=30.0)
            assert sol.alpha == pytest.approx(want, rel=1e-9)
            assert sol.c == pytest.approx(3.0, abs=1e-3)

    def test_subnormal_ratio(self):
        # N(3) = 6 b e^{-3} underflows to 0, which must still count as a bracket
        assert abs(solve_alpha(5e-324).c - 3.0) <= 1e-12

    @pytest.mark.parametrize("b", [0.36, 0.4, 0.41, 0.44])
    def test_corner_is_exact(self, b):
        # b * (1/b) rounds below 1 at 0.36 and 0.41
        sol = solve_alpha(b)
        assert sol.c == 1.0 / b
        assert sol.w == 1.0

    def test_matches_mpmath_maximizer(self):
        # the oracle maximizes log g_b(c) = 3 log c - c + log(1 - b c e^{-c})
        # (up to log b) over (0, 1/b] with mpmath's own numeric derivative:
        # the stationary point near 3 or the corner 1/b, whichever is higher
        mpmath = pytest.importorskip("mpmath")
        ratios = np.concatenate([np.geomspace(1e-300, 0.2, 25), np.linspace(0.25, 0.44, 20), [1.0 / find_cstar() - 1e-6]])
        for b in ratios.tolist():
            with mpmath.workdps(50):
                bb = mpmath.mpf(b)

                def log_g(c):
                    return 3 * mpmath.log(c) - c + mpmath.log1p(-bb * c * mpmath.exp(-c))

                stationary = mpmath.findroot(lambda c: mpmath.diff(log_g, c), mpmath.mpf(3.5))
                c = max((x for x in (stationary, 1 / bb) if x <= 1 / bb), key=log_g)
                w = min(bb * c, mpmath.mpf(1))
                want_c = float(c)
                want_alpha = float(w * c * c * mpmath.exp(-c) * (1 - w * mpmath.exp(-c)))
            sol = solve_alpha(b)
            assert abs(sol.c - want_c) <= 1e-12 * want_c, b
            assert abs(sol.alpha - want_alpha) <= 1e-14 * want_alpha, b

    def test_accepts_alphabet_bound_ratio(self):
        assert solve_alpha(AlphabetBound(INFINITE)).alpha == solve_alpha(INFINITE).alpha


class TestWorstCase:
    def test_unbounded_n1000(self):
        spec = worst_case_distribution(1000, INFINITE)
        # ceil(k) = 442 would overshoot: 442 * 0.00226281 > 1
        assert spec.atom_count == 441
        assert spec.atom_mass == pytest.approx(0.00226281, abs=1e-8)
        assert spec.dirac_mass == pytest.approx(0.002100, abs=1e-5)

    def test_dirac_regime_n100_m20(self):
        spec = worst_case_distribution(100, 20)
        assert spec.atom_count == 19
        assert spec.atom_mass == pytest.approx(0.0306, abs=1e-3)
        assert spec.dirac_mass == pytest.approx(0.418, abs=1e-3)

    @pytest.mark.parametrize("n,m", [(10, INFINITE), (1000, INFINITE), (100, 20), (50, 7), (3, INFINITE), (2, INFINITE)])
    def test_valid_distribution(self, n, m):
        spec = worst_case_distribution(n, m)
        d = spec.to_distribution()
        assert float(d.probs.min()) >= 0.0
        assert math.fsum(d.probs.tolist()) == pytest.approx(1.0, abs=1e-9)
        if isinstance(m, int):
            assert d.support_size <= m

    @pytest.mark.parametrize("n", [1, 2])
    def test_point_mass_below_cstar(self, n):
        # n < c*: no atom fits, so the spec is the point mass [1.0]
        spec = worst_case_distribution(n, INFINITE)
        assert (spec.atom_count, spec.atom_mass, spec.dirac_mass) == (0, 0.0, 1.0)
        assert spec.to_distribution().probs.tolist() == [1.0]

    @pytest.mark.parametrize("n,m", [(1000, INFINITE), (100, 20), (1, 2)])
    def test_carries_its_solution(self, n, m):
        b = INFINITE if not math.isfinite(m) else m / n
        assert worst_case_distribution(n, m).solution == solve_alpha(b)

    def test_alphabet_bound_type(self):
        spec = worst_case_distribution(100, AlphabetBound(20))
        assert spec.atom_count == 19

    def test_rejects_tiny_alphabet(self):
        with pytest.raises(InvalidAlphabetError):
            worst_case_distribution(100, 1)

    @pytest.mark.parametrize("n, m", [(10**400, INFINITE), (1000, 10**400)])
    def test_rejects_sizes_beyond_float_range(self, n, m):
        # float(n) or float(m) would overflow
        with pytest.raises(ValueError, match="largest float"):
            worst_case_distribution(n, m)

    def test_largest_float_sample_size_is_accepted(self):
        n = int(sys.float_info.max)
        spec = worst_case_distribution(n)
        assert spec.atom_mass == spec.solution.c / n

    def test_scaled_poissonized_variance_approaches_alpha(self):
        for n, m in ((1000, INFINITE), (1000, 200)):
            spec = worst_case_distribution(n, m)
            b = INFINITE if not math.isfinite(m) else m / n
            alpha = solve_alpha(b).alpha
            scaled = n * poissonized_variance(spec.to_distribution(), n).value
            assert abs(scaled - alpha) <= 0.02

    def test_perturbing_dirac_mass_gains_nothing(self):
        # moving 10% of the point mass onto one uniform atom must not raise
        # the poissonized variance by more than 1/n^2
        for n in (100, 1000):
            spec = worst_case_distribution(n, INFINITE)
            base = poissonized_variance(spec.to_distribution(), n).value
            moved = 0.1 * spec.dirac_mass
            probs = [spec.atom_mass] * spec.atom_count + [spec.dirac_mass - moved]
            probs[0] += moved
            perturbed = poissonized_variance(from_probs(probs), n).value
            assert perturbed - base <= 1.0 / n**2
