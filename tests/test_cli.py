import json

import numpy as np
import pytest

from coves.cli import main, read_dataset_csv

FIXTURE_CSV = "z,d,c\n0,1,1\n1,1,2\n2,1,3\n10,1,4\n0,0,1\n1,0,2\n2,0,3\n4,0,4\n"

# Tail term 36.75/1 + 0.75/1 = 37.5 (equal cbar drops the covariate term);
# z = 6/sqrt(37.5) = sqrt(0.96), p = erfc(z/sqrt(2)).
GOLD_Z = 0.9797958971132713
GOLD_P = 0.32718687779030564


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "fix.csv"
    path.write_text(FIXTURE_CSV)
    return path


class TestTest:
    def test_golden_report(self, tmp_path, fixture_csv):
        out = tmp_path / "rep.json"
        code = main(["test", "--input", str(fixture_csv), "--tau", "0.5", "--method", "coves", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["fit"]["beta"] == [-1.0, -0.0, 1.0]
        assert payload["t_stat"] == 6.0
        assert payload["s2"] == 37.5
        assert payload["z_score"] == pytest.approx(GOLD_Z, rel=1e-14)
        assert payload["p_value"] == pytest.approx(GOLD_P, rel=1e-14)
        assert payload["s_counts"] == {"treatment": 1, "control": 1}
        assert payload["v"] == {"treatment": 36.75, "control": 0.75}
        assert payload["reject"] is False

    def test_es_method(self, tmp_path, fixture_csv):
        out = tmp_path / "rep.json"
        assert main(["test", "--input", str(fixture_csv), "--tau", "0.5", "--method", "es", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["t_stat"] == 3.0
        assert payload["u_f"] == 0.0

    def test_ttest_method(self, tmp_path, fixture_csv):
        out = tmp_path / "rep.json"
        assert main(["test", "--input", str(fixture_csv), "--method", "ttest", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "ttest"
        assert payload["df"] == 5
        assert 0.0 <= payload["p_value"] <= 1.0

    def test_bad_indicator_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z,d,c\n1.0,2,0.5\n2.0,0,0.6\n")
        out = tmp_path / "rep.json"
        assert main(["test", "--input", str(path), "--out", str(out)]) == 2

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("z,d,c\n1.0,1,0.5\nnot-a-number,0,0.6\n")
        out = tmp_path / "rep.json"
        assert main(["test", "--input", str(path), "--out", str(out)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["test", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "r.json")]) == 2

    def test_wrong_header_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,0,2\n")
        assert main(["test", "--input", str(path), "--out", str(tmp_path / "r.json")]) == 2

    def test_degenerate_design_exits_3(self, tmp_path):
        rows = ["z,d,c"] + [f"{z},{d},2.0" for z, d in zip(range(8), [1, 1, 1, 1, 0, 0, 0, 0])]
        path = tmp_path / "const.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["test", "--input", str(path), "--tau", "0.5", "--out", str(tmp_path / "r.json")]) == 3

    @pytest.mark.parametrize("method", ["coves", "es", "ttest"])
    def test_constant_outcome_exits_3(self, tmp_path, method):
        # z = 1 on 10 treated and 10 control rows, c = 0, ..., 19: an exact
        # fit, with no residual variance to test against.
        rows = ["z,d,c"] + [f"1,{int(i < 10)},{i}" for i in range(20)]
        path = tmp_path / "const.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["test", "--input", str(path), "--method", method, "--out", str(tmp_path / "r.json")]) == 3
        assert not (tmp_path / "r.json").exists()

    def test_solver_breakdown_exits_3(self, fixture_csv, tmp_path, monkeypatch):
        # A fit that hits the simplex's pivot cap raises ConvergenceError,
        # a NumericalError; the es test solves no LP.
        from coves import coves_test
        from coves.errors import ConvergenceError

        def capped(*args, **kwargs):
            raise ConvergenceError("simplex did not finish within MAX_ITER = 200 pivots")

        monkeypatch.setattr(coves_test, "fit_rq", capped)
        assert main(["test", "--input", str(fixture_csv), "--out", str(tmp_path / "r.json")]) == 3
        assert main(["test", "--input", str(fixture_csv), "--method", "es", "--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("method", ["coves", "es", "ttest"])
    def test_outcome_scale_outside_window_exits_3(self, tmp_path, capsys, method):
        rows = [f"{float(z) * 1e160!r},{d},{c}" for z, d, c in
                (line.split(",") for line in FIXTURE_CSV.splitlines()[1:])]
        path = tmp_path / "huge.csv"
        path.write_text("z,d,c\n" + "\n".join(rows) + "\n")
        capsys.readouterr()
        assert main(["test", "--input", str(path), "--tau", "0.5", "--method", method,
                     "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: outcome scale max|z| = 1e+161")

    @pytest.mark.parametrize("method", ["coves", "es", "ttest"])
    def test_covariate_scale_outside_window_exits_3(self, tmp_path, capsys, method):
        rows = [f"{z},{d},{float(c) * 1e160!r}" for z, d, c in
                (line.split(",") for line in FIXTURE_CSV.splitlines()[1:])]
        path = tmp_path / "huge.csv"
        path.write_text("z,d,c\n" + "\n".join(rows) + "\n")
        capsys.readouterr()
        assert main(["test", "--input", str(path), "--tau", "0.5", "--method", method,
                     "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: covariate scale max|c| = 4e+160")

    @pytest.mark.parametrize("z_scale,c_scale,u_f", [(1e-150, 1e6, "8.74e+162"), (1e150, 1e-10, "8.74e-170")])
    def test_covariate_term_out_of_range_exits_3(self, tmp_path, capsys, z_scale, c_scale, u_f):
        # Scenario 2, (50,50), seed 3, both arrays inside the scale window:
        # u_f**-2 underflowed to 0 and the command reported p = 0.84823,
        # or overflowed and the command ended in a bare OverflowError.
        from coves.simgen import ScenarioSpec, sample_scenario

        data = sample_scenario(ScenarioSpec.from_scenario(2, 0.0), 50, 50, 3)
        rows = [f"{float(z) * z_scale!r},{d},{float(c) * c_scale!r}" for z, d, c in zip(data.z, data.d, data.c)]
        path = tmp_path / "scaled.csv"
        path.write_text("z,d,c\n" + "\n".join(rows) + "\n")
        capsys.readouterr()
        assert main(["test", "--input", str(path), "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith(f"error: density-weighted curvature sum u_f = {u_f} is out of range")
        assert err.endswith("rescale z or c")

    def test_tiny_covariate_exits_0(self, tmp_path):
        # Scenario 1, eta = 1.35, (50,50), seed 1 with c*1e-10: the fit's
        # start basis once took one row twice, and the command exited 2
        # with "error: Singular matrix".
        from coves.simgen import ScenarioSpec, sample_scenario

        data = sample_scenario(ScenarioSpec.from_scenario(1, 1.35), 50, 50, 1)
        rows = [f"{float(z)!r},{d},{float(c) * 1e-10!r}" for z, d, c in zip(data.z, data.d, data.c)]
        path = tmp_path / "tiny.csv"
        path.write_text("z,d,c\n" + "\n".join(rows) + "\n")
        out = tmp_path / "r.json"
        assert main(["test", "--input", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["s_counts"] == {"treatment": 12, "control": 12}

    @pytest.mark.parametrize("tau", ["1e-9", "0.999999999"])
    def test_extreme_tau_exits_3(self, fixture_csv, tmp_path, capsys, tau):
        # The covariate takes values other than 0 and 1, so fit_rq refuses
        # a tau this close to 0 or 1; es fits no covariate and runs.
        capsys.readouterr()
        assert main(["test", "--input", str(fixture_csv), "--tau", tau, "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith(f"error: tau = {float(tau)!r} lies within 0.0001 of 0 or 1 ")
        assert main(["test", "--input", str(fixture_csv), "--tau", "1e-9", "--method", "es",
                     "--out", str(tmp_path / "es.json")]) == 0

    def test_extreme_tau_binary_covariate_exits_3(self, tmp_path, capsys):
        # Entries of 0 and 1 alone do not make (1, d, c) safe at such a tau.
        path = tmp_path / "bin.csv"
        path.write_text("z,d,c\n0,1,0\n1,1,1\n2,1,0\n10,1,1\n0,0,0\n1,0,1\n2,0,1\n4,0,0\n")
        capsys.readouterr()
        assert main(["test", "--input", str(path), "--tau", "1e-9", "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: tau = 1e-09 lies within 0.0001 of 0 or 1 ")

    def test_unknown_method_exits_2(self, fixture_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["test", "--input", str(fixture_csv), "--method", "wilcoxon", "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2

    def test_bad_tau_exits_2(self, tmp_path, fixture_csv):
        assert main(["test", "--input", str(fixture_csv), "--tau", "1.5", "--out", str(tmp_path / "r.json")]) == 2


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path):
        args = ["simulate", "--scenario", "2", "--eta", "1.35", "--m", "30", "--n", "20", "--seed", "5"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_round_trip(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--scenario", "3", "--eta", "0", "--m", "12", "--n", "9", "--seed", "8", "--out", str(out)]) == 0
        data = read_dataset_csv(str(out))
        assert data.n_treat == 12
        assert data.n_control == 9
        from coves.simgen import ScenarioSpec, sample_scenario

        direct = sample_scenario(ScenarioSpec.from_scenario(3, 0.0), 12, 9, 8)
        assert np.array_equal(data.z, direct.z)
        assert np.array_equal(data.c, direct.c)
        assert np.array_equal(data.d, direct.d)

    def test_targeted_standin(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--targeted", "--m", "40", "--n", "40", "--seed", "2", "--out", str(out)]) == 0
        data = read_dataset_csv(str(out))
        assert data.n_treat == 40

    def test_custom_distribution_files(self, tmp_path):
        f = tmp_path / "f.txt"
        g = tmp_path / "g.txt"
        f.write_text("\n".join(str(v) for v in range(10)) + "\n")
        g.write_text("\n".join(str(v + 1) for v in range(10)) + "\n")
        out = tmp_path / "t.csv"
        assert main(["simulate", "--targeted", "--f", str(f), "--g", str(g), "--m", "15", "--n", "15", "--seed", "3", "--out", str(out)]) == 0

    def test_requires_generator_choice(self, tmp_path):
        assert main(["simulate", "--m", "5", "--n", "5", "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 2

    def test_invalid_parameters_exit_2(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert main(["simulate", "--scenario", "1", "--m", "0", "--n", "5", "--seed", "1", "--out", out]) == 2
        assert main(["simulate", "--scenario", "1", "--eta", "-1", "--m", "5", "--n", "5", "--seed", "1", "--out", out]) == 2


class TestPower:
    def test_structure_and_determinism(self, tmp_path):
        args = [
            "power", "--scenario", "1", "--eta", "1.35", "--test", "ttest",
            "--sizes", "20:60:20", "--reps", "60", "--seed", "4",
        ]
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "m,n,test,rate,mc_se,reps,errors"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "20" and first[1] == "20" and first[2] == "ttest"
        assert 0.0 <= float(first[3]) <= 1.0

    def test_two_to_one_sizes(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main([
            "power", "--scenario", "1", "--eta", "0", "--test", "ttest",
            "--sizes", "30", "--allocation", "two-to-one",
            "--reps", "40", "--seed", "4", "--out", str(out),
        ]) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert (row[0], row[1]) == ("60", "30")

    def test_short_run_survives_one_failure(self, tmp_path):
        # Sizes 15 and 20 each lose one of their 30 stand-in replications;
        # a run this short tolerates one failure.
        out = tmp_path / "p.csv"
        assert main([
            "power", "--targeted", "--test", "coves", "--sizes", "15:25:5",
            "--reps", "30", "--seed", "4", "--out", str(out),
        ]) == 0
        errors = [row.split(",")[-1] for row in out.read_text().strip().splitlines()[1:]]
        assert errors == ["1", "1", "0"]

    def test_bad_sizes_exits_2(self, tmp_path):
        assert main([
            "power", "--scenario", "1", "--test", "ttest", "--sizes", "20:10:5",
            "--reps", "10", "--seed", "1", "--out", str(tmp_path / "p.csv"),
        ]) == 2


class TestSampleSize:
    def test_null_returns_lower_bound(self, tmp_path, capsys):
        out = tmp_path / "ss.json"
        code = main([
            "samplesize", "--scenario", "1", "--eta", "0", "--test", "ttest",
            "--target", "0.05", "--reps", "400", "--seed", "17",
            "--bounds", "20:60", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["m"] == 20 and payload["n"] == 20
        printed = json.loads(capsys.readouterr().out)
        assert printed == payload

    def test_no_crossing_exits_3(self, tmp_path):
        code = main([
            "samplesize", "--scenario", "1", "--eta", "1.35", "--test", "ttest",
            "--target", "0.9", "--reps", "150", "--seed", "23", "--bounds", "5:12",
        ])
        assert code == 3


class TestDiagnose:
    def test_output_rows(self, tmp_path, fixture_csv):
        out = tmp_path / "curves.csv"
        code = main([
            "diagnose", "--input", str(fixture_csv), "--tau-fit", "0.5",
            "--grid", "0.2:0.8:0.2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tau_fit,prob,quantile_treatment,quantile_control"
        assert len(lines) == 1 + 4

    def test_multiple_fit_levels(self, tmp_path):
        sim = tmp_path / "sim.csv"
        main(["simulate", "--scenario", "2", "--eta", "1.35", "--m", "40", "--n", "40", "--seed", "12", "--out", str(sim)])
        out = tmp_path / "curves.csv"
        assert main(["diagnose", "--input", str(sim), "--tau-fit", "0.5,0.75,0.9", "--grid", "0.1:0.9:0.1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 9

    def test_default_tau_fit_is_the_package_default(self):
        from coves.cli import _parse_float_list, build_parser
        from coves.diagnostics import DEFAULT_TAU_FIT

        args = build_parser().parse_args(["diagnose", "--input", "x.csv", "--out", "y.csv"])
        assert tuple(_parse_float_list(args.tau_fit)) == DEFAULT_TAU_FIT

    def test_default_grid_is_the_package_default(self):
        from coves.cli import _parse_grid, build_parser
        from coves.diagnostics import DEFAULT_GRID

        grid = _parse_grid(build_parser().parse_args(["diagnose", "--input", "x.csv", "--out", "y.csv"]).grid)
        assert grid.dtype == DEFAULT_GRID.dtype and grid.shape == DEFAULT_GRID.shape
        assert grid.tobytes() == DEFAULT_GRID.tobytes()

    @pytest.mark.parametrize("tau_fit,code", [("0.5,1.5", 2), ("0.5,0.00001", 3)])
    def test_failed_fit_writes_nothing(self, tmp_path, fixture_csv, tau_fit, code):
        # Every fit runs before the file is opened, so a later level that
        # fails leaves no partial curves file behind.
        out = tmp_path / "curves.csv"
        assert main(["diagnose", "--input", str(fixture_csv), "--tau-fit", tau_fit, "--out", str(out)]) == code
        assert not out.exists()

    def test_constant_covariate_writes_nothing(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("z,d,c\n0,1,1\n1,1,1\n2,1,1\n0,0,1\n1,0,1\n3,0,1\n")
        out = tmp_path / "curves.csv"
        assert main(["diagnose", "--input", str(path), "--out", str(out)]) == 3
        assert not out.exists()

    def test_bad_grid_exits_2(self, tmp_path, fixture_csv):
        assert main(["diagnose", "--input", str(fixture_csv), "--grid", "0:1:0.1", "--out", str(tmp_path / "c.csv")]) == 2


def assert_input_error(capsys, argv, message):
    """main(argv) exits 2 with ``error: message`` as the last line of stderr."""
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"


class TestInputErrors:
    GEN = ["--scenario", "1", "--eta", "1.35"]

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "empty file"),
            ("z,d,c\n", "no data rows"),
            ("z,d,c\n1.0,1\n", "line 2: expected 3 fields, got 2"),
            ("z,d,c\n1.0,1,0.5\n2.0,1,0.6\n", "both treatment groups must be nonempty"),
            ("z,d,c\n1.0,1,0.5\nnan,0,0.6\n", "line 3: z and c must be finite"),
            ("z,d,c\n1.0,1,0.5\n2.0,0,0.6\n3.0,0,-inf\n", "line 4: z and c must be finite"),
            ("z,d,c\n1e400,1,0.5\n2.0,0,0.6\n", "line 2: z and c must be finite"),
        ],
        ids=["empty", "header-only", "two-fields", "one-group", "nan", "inf", "overflow"],
    )
    def test_bad_csv(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert_input_error(capsys, ["test", "--input", str(path), "--out", str(tmp_path / "r.json")],
                           f"{path}: {message}")

    def test_blank_data_line_is_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(FIXTURE_CSV.replace("\n0,0,1\n", "\n\n0,0,1\n"))
        out = tmp_path / "r.json"
        assert main(["test", "--input", str(path), "--tau", "0.5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["t_stat"] == 6.0

    @pytest.mark.parametrize("bounds", ["5", "5:a", "1:2:3"])
    def test_bad_bounds(self, capsys, bounds):
        argv = ["samplesize", *self.GEN, "--test", "ttest", "--reps", "10", "--seed", "1", "--bounds", bounds]
        assert_input_error(capsys, argv, f"bad --bounds {bounds!r}; expected LO:HI")

    @pytest.mark.parametrize("sizes", ["10:20:0", "a", "10:20", "0", "-3"])
    def test_bad_sizes(self, tmp_path, capsys, sizes):
        out = tmp_path / "p.csv"
        argv = ["power", *self.GEN, "--test", "ttest", "--sizes", sizes, "--reps", "10", "--seed", "1",
                "--out", str(out)]
        assert_input_error(capsys, argv, f"bad --sizes {sizes!r}; expected N or START:STOP:STEP")
        assert not out.exists()

    def test_power_needs_generator(self, tmp_path, capsys):
        argv = ["power", "--test", "ttest", "--sizes", "10", "--reps", "10", "--seed", "1",
                "--out", str(tmp_path / "p.csv")]
        assert_input_error(capsys, argv, "either --scenario or --targeted is required")

    def test_targeted_needs_both_files(self, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("1\n2\n3\n")
        argv = ["simulate", "--targeted", "--f", str(f), "--m", "5", "--n", "5", "--seed", "1",
                "--out", str(tmp_path / "x.csv")]
        assert_input_error(capsys, argv, "--targeted needs both --f and --g (or neither)")

    @pytest.mark.parametrize("grid", ["0.1:0.5", "a:b:c"])
    def test_bad_grid(self, tmp_path, capsys, fixture_csv, grid):
        argv = ["diagnose", "--input", str(fixture_csv), "--grid", grid, "--out", str(tmp_path / "c.csv")]
        assert_input_error(capsys, argv, f"bad --grid {grid!r}; expected START:STOP:STEP")

    @pytest.mark.parametrize("grid", ["0.1:0.9:nan", "0.1:0.9:0", "0.1:0.9:-0.1"])
    def test_grid_step_not_positive(self, tmp_path, capsys, fixture_csv, grid):
        out = tmp_path / "c.csv"
        argv = ["diagnose", "--input", str(fixture_csv), "--grid", grid, "--out", str(out)]
        assert_input_error(capsys, argv, f"bad --grid {grid!r}; need 0 < start <= stop < 1, step > 0")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--eta", "nan"), ("--eta", "inf"), ("--gamma", "inf"), ("--gamma", "nan")])
    def test_non_finite_generator_parameter(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        argv = ["simulate", "--scenario", "2", flag, value, "--m", "5", "--n", "5", "--seed", "1", "--out", str(out)]
        assert_input_error(capsys, argv, f"{flag[2:]} must be finite, got {float(value)}")
        assert not out.exists()

    def test_bad_float_list(self, tmp_path, capsys, fixture_csv):
        argv = ["diagnose", "--input", str(fixture_csv), "--tau-fit", "0.5,x", "--out", str(tmp_path / "c.csv")]
        assert_input_error(capsys, argv, "bad float list '0.5,x'")

    @pytest.mark.parametrize("spec", ["", ","], ids=["empty", "comma"])
    def test_empty_float_list(self, tmp_path, capsys, fixture_csv, spec):
        out = tmp_path / "c.csv"
        argv = ["diagnose", "--input", str(fixture_csv), f"--tau-fit={spec}", "--out", str(out)]
        assert_input_error(capsys, argv, f"bad float list {spec!r}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["test", "simulate", "power", "samplesize", "diagnose"])
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_exits_before_computing(self, tmp_path, capsys, monkeypatch, fixture_csv,
                                                   command, target):
        from coves import cli

        def no_run(*args, **kwargs):
            raise AssertionError("computed before checking --out")

        for name in ("run_coves", "run_es", "run_ttest", "sample_scenario", "sample_targeted", "power_curve",
                     "sample_size_search", "adjusted_quantile_curves"):
            monkeypatch.setattr(cli, name, no_run)
        if target == "directory":
            out = tmp_path / "taken"
            out.mkdir()
            message = f"cannot write {out}: it is a directory"
        else:
            out = tmp_path / "missing" / "out"
            message = f"cannot write {out}: no directory {out.parent}"
        run = ["--reps", "1000", "--seed", "1", "--out", str(out)]
        argv = {
            "test": ["test", "--input", str(fixture_csv), "--out", str(out)],
            "simulate": ["simulate", *self.GEN, "--m", "5", "--n", "5", "--seed", "1", "--out", str(out)],
            "power": ["power", *self.GEN, "--test", "coves", "--sizes", "200:400:100", *run],
            "samplesize": ["samplesize", *self.GEN, "--test", "coves", *run],
            "diagnose": ["diagnose", "--input", str(fixture_csv), "--out", str(out)],
        }[command]
        assert_input_error(capsys, argv, message)
        assert not (tmp_path / "missing").exists()
        assert target == "missing-directory" or not any(out.iterdir())

    @pytest.mark.parametrize("method", ["coves", "es", "ttest"])
    @pytest.mark.parametrize("alpha", ["-1", "0", "5", "nan"])
    def test_bad_alpha(self, tmp_path, capsys, fixture_csv, method, alpha):
        out = tmp_path / "rep.json"
        argv = ["test", "--input", str(fixture_csv), "--method", method, f"--alpha={alpha}", "--out", str(out)]
        assert_input_error(capsys, argv, f"alpha must lie in (0, 1], got {float(alpha)}")
        assert not out.exists()


@pytest.mark.parametrize("command", ["power", "samplesize"])
def test_monte_carlo_arguments_reach_the_engine(monkeypatch, tmp_path, command):
    from coves import cli
    from coves.mc_engine import PowerEstimate, SampleSizeResult

    calls = []

    def power_curve(generator, test_id, sizes, alpha, reps, seed, **options):
        calls.append(((test_id, sizes, alpha, reps, seed), options))
        return []

    def sample_size_search(generator, test_id, target, allocation, alpha, reps, seed, bounds, **options):
        calls.append(((test_id, target, allocation, alpha, reps, seed, bounds), options))
        est = PowerEstimate(rate=0.9, reps=reps, mc_se=0.0, seed=seed, test_id=test_id, m=40, n=20, alpha=alpha)
        return SampleSizeResult(m=40, n=20, allocation=allocation, achieved_power=est, target=target)

    monkeypatch.setattr(cli, "power_curve", power_curve)
    monkeypatch.setattr(cli, "sample_size_search", sample_size_search)
    shared = ["--scenario", "2", "--test", "es", "--side", "lower", "--tau", "0.9", "--alpha", "0.1",
              "--allocation", "two-to-one", "--workers", "3", "--reps", "7", "--seed", "11"]
    if command == "power":
        argv = ["power", *shared, "--sizes", "20", "--out", str(tmp_path / "p.csv")]
        want = ("es", [(40, 20)], 0.1, 7, 11)
    else:
        argv = ["samplesize", *shared, "--target", "0.8", "--bounds", "10:30"]
        want = ("es", 0.8, "two-to-one", 0.1, 7, 11, (10, 30))
    assert main(argv) == 0
    assert calls == [(want, {"tau": 0.9, "side": "one-sided-lower", "workers": 3})]
