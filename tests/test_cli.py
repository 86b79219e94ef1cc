import dataclasses
import json
import math

import pytest

from missingmass import extremal
from missingmass.cli import main


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

    def test_too_large_exits_3(self, capsys, dist_file):
        m = 20001
        content = "\n".join([repr(1.0 / m)] * m)
        code, _, err = run(capsys, "variance", "--dist", dist_file(content), "--n", "5", "--method", "exact")
        assert code == 3
        assert "exceeds" in err

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
