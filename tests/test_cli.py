import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from missingmass import cli, dist, extremal, variance
from missingmass.cli import _geomspace, _linspace, main
from oracles import profile_variance_mpmath

#: A size past the largest float: any float(n) on it overflows.
HUGE = str(10**400)


@pytest.fixture
def dist_file(tmp_path):
    def write(content: str, name: str = "dist.txt"):
        f = tmp_path / name
        f.write_text(content)
        return str(f)

    return write


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVarianceCommand:
    def test_exact_json(self, capsys, dist_file):
        code, out, _ = run(capsys, "variance", "--dist", dist_file("0.5\n0.5\n"), "--n", "2", "--method", "exact")
        assert code == 0
        record = json.loads(out)
        assert record == {"method": "exact", "n": 2, "value": 0.0625}

    def test_thm1_point_mass(self, capsys, dist_file):
        code, out, _ = run(capsys, "variance", "--dist", dist_file("1.0\n"), "--n", "5", "--method", "thm1")
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_poisson_method(self, capsys, dist_file):
        code, out, _ = run(capsys, "variance", "--dist", dist_file("1.0\n"), "--n", "5", "--method", "poisson")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.033463, abs=1e-6)

    def test_csv_format(self, capsys, dist_file):
        code, out, _ = run(capsys, "variance", "--dist", dist_file("0.5\n0.5\n"), "--n", "2", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "method,n,value"
        assert row == "exact,2,0.0625"

    def test_unnormalized_exits_2(self, capsys, dist_file):
        code, _, err = run(capsys, "variance", "--dist", dist_file("0.5\n0.6\n"), "--n", "2")
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "variance", "--dist", "/no/such/file", "--n", "2")
        assert code == 2

    def test_parse_error_exits_2(self, capsys, dist_file):
        code, _, _ = run(capsys, "variance", "--dist", dist_file("0.5\nxyz\n"), "--n", "2")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, field",
        [(("variance", "--method", "exact"), "value"), (("gap", "--mode", "exact"), "true_variance")],
        ids=["variance", "gap"],
    )
    def test_above_the_old_cap_exits_0(self, capsys, dist_file, argv, field):
        # one atom past the 20000 that exact mode once refused with exit 3
        pytest.importorskip("mpmath")
        m, n = 20001, 5
        path = dist_file("\n".join([repr(1.0 / m)] * m))
        code, out, _ = run(capsys, argv[0], "--dist", path, "--n", str(n), *argv[1:])
        assert code == 0
        value = json.loads(out)[field]
        d = dist.from_file(path)
        assert value == variance.exact_variance(d, n).value
        want = profile_variance_mpmath([1.0 / m], [m], n)
        p, e = 1.0 / m, variance.expected_missing_mass(d, n)
        assert abs(value - want) <= 1e-12 * (e * e + p * e)  # E[M0]^2 + sum p^2 q, as p q sums to E[M0]

    def test_out_file(self, capsys, dist_file, tmp_path):
        out_path = tmp_path / "r.json"
        code, out, _ = run(capsys, "variance", "--dist", dist_file("0.5\n0.5\n"), "--n", "2", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["value"] == 0.0625


class TestMaximizeCommand:
    def test_unbounded(self, capsys):
        code, out, _ = run(capsys, "maximize", "--n", "1000", "--m", "inf")
        assert code == 0
        record = json.loads(out)
        assert record["alpha"] == pytest.approx(0.477, abs=1e-3)
        assert record["regime"] == "UNIFORM"
        assert record["atom_count"] == 441
        assert record["variance_estimate"] == pytest.approx(record["alpha"] / 1000, abs=1e-12)

    def test_dirac_regime(self, capsys):
        code, out, _ = run(capsys, "maximize", "--n", "100", "--m", "20")
        assert code == 0
        record = json.loads(out)
        assert record["regime"] == "UNIFORM_DIRAC"
        assert record["w"] == pytest.approx(0.61, abs=1e-2)

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_point_mass_below_cstar(self, capsys, n):
        code, out, _ = run(capsys, "maximize", "--n", n, "--m", "inf")
        assert code == 0
        record = json.loads(out)
        assert list(record) == ["alpha", "w", "c", "regime", "atom_count", "atom_mass", "dirac_mass", "variance_estimate"]
        assert (record["atom_count"], record["atom_mass"], record["dirac_mass"]) == (0, 0.0, 1.0)

    def test_degenerate_alphabet_exits_2(self, capsys):
        code, _, _ = run(capsys, "maximize", "--n", "100", "--m", "1")
        assert code == 2

    def test_bad_n_exits_2(self, capsys):
        code, _, _ = run(capsys, "maximize", "--n", "0", "--m", "inf")
        assert code == 2


class TestSweepCommand:
    def test_csv_structure(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--b-min", "0.05", "--b-max", "0.9", "--steps", "100", "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        lines = text.split("\n")
        assert lines[0] == "b,val"
        assert lines[-1] == ""  # trailing LF
        rows = [tuple(map(float, line.split(","))) for line in lines[1:-1]]
        assert len(rows) == 100
        vals = [v for _, v in rows]
        assert all(0.0 <= v <= 0.478 for v in vals)
        assert all(hi >= lo - 1e-12 for lo, hi in zip(vals, vals[1:]))
        flat = [v for b, v in rows if b >= 0.4420]
        assert max(flat) - min(flat) <= 1e-6
        assert flat[0] == pytest.approx(0.477, abs=1e-3)

    def test_two_steps_same_regime(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sweep", "--b-min", "0.5", "--b-max", "0.9", "--steps", "2", "--out", str(out_path))
        assert code == 0
        rows = out_path.read_text().strip().split("\n")[1:]
        vals = [row.split(",")[1] for row in rows]
        assert vals[0] == vals[1]

    def test_round_trip_is_byte_identical(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        run(capsys, "sweep", "--b-min", "0.05", "--b-max", "0.9", "--steps", "25", "--out", str(out_path))
        text = out_path.read_text()
        reemitted = ["b,val"]
        for line in text.strip().split("\n")[1:]:
            b, v = (float(x) for x in line.split(","))
            reemitted.append(f"{b:.17g},{v:.17g}")
        assert "\n".join(reemitted) + "\n" == text

    def test_geometric_spacing(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        code, _, _ = run(
            capsys, "sweep", "--b-min", "0.1", "--b-max", "0.4", "--steps", "3",
            "--spacing", "geometric", "--out", str(out_path),
        )
        assert code == 0
        bs = [float(r.split(",")[0]) for r in out_path.read_text().strip().split("\n")[1:]]
        assert bs[1] == pytest.approx(0.2, abs=1e-12)

    def test_geometric_range_without_room_for_the_steps_exits_2(self, capsys):
        # [1, 1 + 2 eps] holds 3 floats: 3 steps fit, 4 cannot be strictly increasing
        hi = repr(math.nextafter(math.nextafter(1.0, 2.0), 2.0))
        code, out, _ = run(capsys, "sweep", "--b-min", "1", "--b-max", hi, "--steps", "3", "--spacing", "geometric")
        assert code == 0
        assert [float(r.split(",")[0]) for r in out.strip().split("\n")[1:]] == [1.0, 1.0 + 2.0**-52, float(hi)]
        code, out, err = run(capsys, "sweep", "--b-min", "1", "--b-max", hi, "--steps", "4", "--spacing", "geometric")
        assert code == 2
        assert out == ""
        assert "fewer than 4 floats" in err

    def test_linear_range_without_room_for_the_steps_exits_2(self, capsys):
        # [1, 1 + eps] holds 2 floats: np.linspace would repeat b = 1 for 3 steps
        hi = repr(math.nextafter(1.0, 2.0))
        code, out, _ = run(capsys, "sweep", "--b-min", "1", "--b-max", hi, "--steps", "2")
        assert code == 0
        assert [float(r.split(",")[0]) for r in out.strip().split("\n")[1:]] == [1.0, float(hi)]
        code, out, err = run(capsys, "sweep", "--b-min", "1", "--b-max", hi, "--steps", "3")
        assert code == 2
        assert out == ""
        assert "fewer than 3 floats" in err

    def test_linear_grid_that_repeats_a_point_exits_2(self, capsys):
        # [1 - 2**-52, 1 + 2**-51] holds 5 floats, but the spacing doubles at 1,
        # so numpy's formula rounds two of the 5 points to b = 1
        code, out, err = run(
            capsys, "sweep", "--b-min", "0.9999999999999998", "--b-max", "1.0000000000000004", "--steps", "5"
        )
        assert code == 2
        assert out == ""
        assert "repeats 1.0" in err

    def test_zero_bmin_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--b-min", "0", "--b-max", "1", "--steps", "10")
        assert code == 2

    def test_inverted_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--b-min", "0.5", "--b-max", "0.1", "--steps", "10")
        assert code == 2

    def test_infinite_bmax_exits_2(self, capsys):
        code, out, err = run(capsys, "sweep", "--b-min", "0.1", "--b-max", "inf", "--steps", "10")
        assert code == 2
        assert out == ""
        assert "b-max" in err

    def test_tiny_ratios_are_finite(self, capsys):
        code, out, _ = run(capsys, "sweep", "--b-min", "1e-320", "--b-max", "1e-310", "--steps", "3")
        assert code == 0
        vals = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        assert len(vals) == 3
        assert all(math.isfinite(v) and v > 0.0 for v in vals)

    def test_unwritable_exits_4(self, capsys):
        code, _, _ = run(capsys, "sweep", "--b-min", "0.1", "--b-max", "0.2", "--steps", "2", "--out", "/no/dir/s.csv")
        assert code == 4


class TestLandscapeCommand:
    def test_structure(self, capsys, tmp_path):
        out_path = tmp_path / "l.csv"
        code, _, _ = run(capsys, "landscape", "--c-max", "5", "--grid", "40", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "w,c,val"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 40 * 40

    def test_zero_w_rows_are_zero(self, capsys, tmp_path):
        out_path = tmp_path / "l.csv"
        run(capsys, "landscape", "--c-max", "5", "--grid", "10", "--out", str(out_path))
        for line in out_path.read_text().strip().split("\n")[1:]:
            w, c, val = (float(x) for x in line.split(","))
            if w == 0.0:
                assert val == 0.0

    def test_lattice_max_near_transition_point(self, capsys, tmp_path):
        out_path = tmp_path / "l.csv"
        run(capsys, "landscape", "--c-max", "5", "--grid", "101", "--out", str(out_path))
        rows = [tuple(map(float, line.split(","))) for line in out_path.read_text().strip().split("\n")[1:]]
        w, c, _ = max(rows, key=lambda r: r[2])
        assert w == 1.0
        assert c == pytest.approx(2.26, abs=5.0 / 101 + 1e-12)

    def test_bad_grid_exits_2(self, capsys):
        code, _, _ = run(capsys, "landscape", "--c-max", "5", "--grid", "1")
        assert code == 2

    def test_bad_cmax_exits_2(self, capsys):
        code, _, _ = run(capsys, "landscape", "--c-max", "-1", "--grid", "10")
        assert code == 2

    def test_infinite_cmax_exits_2(self, capsys):
        code, out, err = run(capsys, "landscape", "--c-max", "inf", "--grid", "3")
        assert code == 2
        assert out == ""
        assert "c-max" in err


    def test_cmax_without_room_for_the_grid_exits_2(self, capsys):
        # (0, 2 * 5e-324] holds 2 floats: 2 c points fit, 3 would repeat c = 1e-323
        code, out, _ = run(capsys, "landscape", "--c-max", "1e-323", "--grid", "2")
        assert code == 0
        assert sorted({float(r.split(",")[1]) for r in out.strip().split("\n")[1:]}) == [5e-324, 1e-323]
        code, out, err = run(capsys, "landscape", "--c-max", "1e-323", "--grid", "3")
        assert code == 2
        assert out == ""
        assert "fewer than 3 floats" in err

    def test_c_grid_that_repeats_a_point_exits_2(self, capsys):
        # (0, 3e-323] holds 6 floats, room for 4 c points, but the step of 1.5
        # floats rounds to 2, so the third point lands on c-max as well
        code, out, err = run(capsys, "landscape", "--c-max", "3e-323", "--grid", "4")
        assert code == 2
        assert out == ""
        assert f"repeats {2.9643938750474793e-323!r}" in err

    def test_huge_cmax_is_finite(self, capsys):
        code, out, _ = run(capsys, "landscape", "--c-max", "1e308", "--grid", "3")
        assert code == 0
        rows = [tuple(map(float, line.split(","))) for line in out.strip().split("\n")[1:]]
        assert len(rows) == 9
        assert all(math.isfinite(val) and val >= 0.0 for _, _, val in rows)


class TestSimulateCommand:
    def test_degenerate(self, capsys, dist_file):
        code, out, _ = run(capsys, "simulate", "--dist", dist_file("1.0\n"), "--n", "5", "--trials", "100")
        assert code == 0
        record = json.loads(out)
        assert record["variance"] == 0.0 and record["mean"] == 0.0

    def test_fixed_seed_byte_identical(self, capsys, dist_file):
        path = dist_file("0.5\n0.5\n")
        args = ("simulate", "--dist", path, "--n", "2", "--trials", "500", "--seed", "77")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_worker_count_byte_identical(self, capsys, dist_file):
        path = dist_file("0.5\n0.5\n")
        base = ("simulate", "--dist", path, "--n", "2", "--trials", "500", "--seed", "77")
        _, out1, _ = run(capsys, *base, "--workers", "1")
        _, out4, _ = run(capsys, *base, "--workers", "4")
        assert out1 == out4

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_exits_2(self, capsys, dist_file, workers):
        code, out, err = run(
            capsys, "simulate", "--dist", dist_file("0.5\n0.5\n"), "--n", "2", "--trials", "10", "--workers", workers
        )
        assert code == 2
        assert out == "" and "workers" in err

    def test_negative_seed_exits_2(self, capsys, dist_file):
        code, out, err = run(
            capsys, "simulate", "--dist", dist_file("0.5\n0.5\n"), "--n", "2", "--trials", "10", "--seed", "-1"
        )
        assert code == 2
        assert out == "" and "seed must be >= 0" in err

    def test_statistical_value(self, capsys, dist_file):
        path = dist_file("0.5\n0.5\n")
        code, out, _ = run(capsys, "simulate", "--dist", path, "--n", "2", "--trials", "100000", "--seed", "5")
        record = json.loads(out)
        assert abs(record["variance"] - 0.0625) <= 3 * record["se_variance"]
        assert record["seed"] == 5


class TestGapCommand:
    def test_point_mass_all_zero(self, capsys, dist_file):
        code, out, _ = run(capsys, "gap", "--dist", dist_file("1.0\n"), "--n", "5")
        assert code == 0
        record = json.loads(out)
        assert record["true_variance"] == 0.0
        assert record["subgamma_v"] == 0.0
        assert record["iid_major_v"] == 0.0

    def test_two_atoms(self, capsys, dist_file):
        code, out, _ = run(capsys, "gap", "--dist", dist_file("0.5\n0.5\n"), "--n", "2", "--mode", "exact")
        record = json.loads(out)
        assert record["gap_iid"] == pytest.approx(0.03125, abs=1e-12)

    def test_uniform10_gap_positive(self, capsys, dist_file):
        content = "\n".join(["0.1"] * 10)
        code, out, _ = run(capsys, "gap", "--dist", dist_file(content), "--n", "10", "--mode", "exact")
        assert json.loads(out)["gap_iid"] > 0.0

    def test_poisson_mode(self, capsys, dist_file):
        code, out, _ = run(capsys, "gap", "--dist", dist_file("0.5\n0.5\n"), "--n", "2", "--mode", "poisson")
        assert code == 0
        assert json.loads(out)["mode"] == "poissonized"


class TestRecordFormats:
    @pytest.mark.parametrize("command", ["maximize", "simulate", "gap"])
    def test_csv_matches_json(self, capsys, dist_file, command):
        path = dist_file("0.5\n0.3\n0.2\n")
        args = {
            "maximize": ["--n", "1000", "--m", "300"],
            "simulate": ["--dist", path, "--n", "10", "--trials", "200", "--seed", "3"],
            "gap": ["--dist", path, "--n", "10"],
        }[command]
        code, out, _ = run(capsys, command, *args, "--format", "json")
        assert code == 0
        record = json.loads(out)
        code, out, _ = run(capsys, command, *args, "--format", "csv")
        assert code == 0
        header, row, end = out.split("\n")
        assert end == ""
        assert header.split(",") == list(record)
        for raw, value in zip(row.split(","), record.values(), strict=True):
            assert type(value)(raw) == value


class TestExitCodeContract:
    def test_success_is_zero(self, capsys, dist_file):
        assert run(capsys, "variance", "--dist", dist_file("1.0\n"), "--n", "1")[0] == 0

    @pytest.mark.parametrize("command", ["variance", "gap"])
    def test_nan_mass_exits_2(self, capsys, dist_file, command):
        for masses in ("nan\n1.0\n", "1e308\n1e308\n"):  # a NaN total, an overflowing total
            code, out, err = run(capsys, command, "--dist", dist_file(masses), "--n", "2")
            assert code == 2
            assert out == ""
            assert "error" in err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_record_exits_2(self, capsys, monkeypatch, fmt):
        real = extremal.solve_alpha
        monkeypatch.setattr(extremal, "solve_alpha", lambda b: dataclasses.replace(real(b), alpha=math.nan))
        code, out, err = run(capsys, "maximize", "--n", "100", "--m", "20", "--format", fmt)
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_non_finite_row_exits_2_and_writes_nothing(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(extremal, "objective_alpha", lambda w, c: math.inf)
        out_path = tmp_path / "l.csv"
        code, _, err = run(capsys, "landscape", "--c-max", "5", "--grid", "3", "--out", str(out_path))
        assert code == 2
        assert "non-finite" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("maximize", "--n", HUGE),
            ("maximize", "--n", "1000", "--m", HUGE),
            ("variance", "--n", HUGE, "--method", "exact"),
            ("variance", "--n", HUGE, "--method", "thm1"),
            ("variance", "--n", HUGE, "--method", "poisson"),
            ("simulate", "--n", HUGE, "--trials", "5"),
            ("gap", "--n", HUGE, "--mode", "exact"),
            ("gap", "--n", HUGE, "--mode", "poisson"),
        ],
        ids=lambda argv: "-".join(a for a in argv if a != HUGE),
    )
    def test_size_beyond_float_range_exits_2(self, capsys, dist_file, argv):
        if argv[0] != "maximize":
            argv += ("--dist", dist_file("0.5\n0.3\n0.2\n"))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


    def test_documented_exit_codes_are_the_defined_ones(self):
        # the codes in the module docstring and in README's "Exit codes:"
        # sentence, against the EXIT_* constants the module defines
        defined = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        for text in (cli.__doc__, readme):
            sentence = re.search(r"Exit codes:(.*?)\.(\s|$)", text, re.S).group(1)
            assert {int(code) for code in re.findall(r"\b\d+\b", sentence)} == defined


def _ulps(got: list[float], want: np.ndarray) -> np.ndarray:
    return np.abs(np.array(got) - want) / np.spacing(np.abs(want))


class TestGrids:
    """The sweep and landscape grids, built without numpy, against numpy's."""

    @pytest.mark.parametrize(
        "lo, hi, num",
        [(0.01, 2.0, 200), (0.0, 1.0, 100), (0.0, 6.0, 101)],  # the benchmark's sweep; landscape's w and c axes
    )
    def test_linear_is_numpy_linspace(self, lo, hi, num):
        assert np.array(_linspace(lo, hi, num)).tobytes() == np.linspace(lo, hi, num).tobytes()

    def test_linear_is_numpy_linspace_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        finite = st.floats(allow_nan=False, allow_infinity=False)

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(lo=finite, hi=finite, num=st.integers(min_value=2, max_value=500))
        def check(lo, hi, num):
            hypothesis.assume(lo < hi and hi - lo < math.inf)
            with np.errstate(over="ignore"):  # numpy also scales the last point, then overwrites it with hi
                want = np.linspace(lo, hi, num)
            assert np.array(_linspace(lo, hi, num)).tobytes() == want.tobytes()

        check()

    def test_linear_subnormal_step(self):
        # the step underflows to 0, and numpy switches to i / (num - 1) * (hi - lo) + lo
        lo, hi = 5e-324, 1e-323
        assert np.array(_linspace(lo, hi, 7)).tobytes() == np.linspace(lo, hi, 7).tobytes()

    @staticmethod
    def geometric_bound(lo: float, hi: float) -> float:
        """Ulps by which _geomspace may differ from np.geomspace.

        Both compute 10 ** (an even grid from log10(lo) to log10(hi)). With
        faithful log10s, the two libraries' ends differ by at most 2^-52 M,
        M = max(|log10 lo|, |log10 hi|, 1), and each of the grid's four
        roundings by one ulp of at most 2M, so an exponent moves by at most
        9 * 2^-52 M and 10^x by a relative ln(10) * 9 * 2^-52 M, at most
        18 ln(10) M ulps. Faithful powers add one ulp.
        """
        m = max(abs(math.log10(lo)), abs(math.log10(hi)), 1.0)
        return 1.0 + 18.0 * math.log(10.0) * m

    @staticmethod
    def floats_in(lo: float, hi: float) -> int:
        """How many floats lie in [lo, hi], 0 < lo <= hi."""
        return int(np.array([hi, lo]).view(np.int64) @ [1, -1]) + 1

    @pytest.mark.parametrize(
        "lo, hi, num",
        [
            (0.01, 2.0, 200),
            (0.05, 0.9, 100),
            (1e-6, 1e3, 500),
            (1e-300, 1e300, 500),
            # found by the property below: numpy's middle point, 1e300, lies above hi
            (9.999999999998038e299, 9.999999999999346e299, 3),
        ],
    )
    def test_geometric_near_numpy_geomspace(self, lo, hi, num):
        got = _geomspace(lo, hi, num)
        assert got[0] == lo and got[-1] == hi
        assert len(got) == num
        assert all(a < b for a, b in zip(got, got[1:]))
        assert _ulps(got, np.geomspace(lo, hi, num)).max() <= self.geometric_bound(lo, hi)

    @pytest.mark.parametrize("size", [10, 11, 15])
    def test_geometric_range_with_few_floats(self, size):
        # a range of exactly `size` floats takes up to `size` steps, strictly increasing, and no more
        lo = 0.3
        hi = np.array([lo]).view(np.int64) + (size - 1)
        hi = float(hi.view(np.float64)[0])
        assert self.floats_in(lo, hi) == size
        for num in (2, 10, size):
            got = _geomspace(lo, hi, num)
            assert got[0] == lo and got[-1] == hi and len(got) == num
            assert all(a < b for a, b in zip(got, got[1:]))
            assert _ulps(got, np.geomspace(lo, hi, num)).max() <= self.geometric_bound(lo, hi)
        with pytest.raises(ValueError, match=f"fewer than {size + 1} floats"):
            _geomspace(lo, hi, size + 1)

    def test_geometric_near_numpy_geomspace_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        positive = st.floats(min_value=1e-300, max_value=1e300)

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(lo=positive, hi=positive, num=st.integers(min_value=2, max_value=500))
        @hypothesis.example(lo=9.999999999998038e299, hi=9.999999999999346e299, num=3)
        def check(lo, hi, num):
            hypothesis.assume(lo < hi)
            if self.floats_in(lo, hi) < num:  # no strictly increasing grid fits
                with pytest.raises(ValueError):
                    _geomspace(lo, hi, num)
                return
            got = _geomspace(lo, hi, num)
            assert got[0] == lo and got[-1] == hi
            assert all(a < b for a, b in zip(got, got[1:]))
            assert _ulps(got, np.geomspace(lo, hi, num)).max() <= self.geometric_bound(lo, hi)

        check()
