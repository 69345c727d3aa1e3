import io
import math

import numpy as np
import pytest

from cavent import ParameterError, eof_from_concurrence
from cavent.cli import (
    OracleReport,
    SweepConfig,
    SweepResult,
    format_oracle_report,
    main,
    run_compare,
    run_oracle_check,
    run_sweep,
    write_compare_csv,
    write_sweep_csv,
)


def small_cfg(**overrides):
    base = dict(
        field_kind="coherent", target_mean=0.3, gt_start=0.0, gt_end=10.0, gt_steps=17
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_requires_exactly_one_amplitude_input(self):
        with pytest.raises(ParameterError):
            SweepConfig("coherent", alpha=1.0, target_mean=0.3)
        with pytest.raises(ParameterError):
            SweepConfig("coherent")

    def test_rejects_unknown_field(self):
        with pytest.raises(ParameterError):
            SweepConfig("thermal", alpha=1.0)

    def test_rejects_r_for_coherent(self):
        with pytest.raises(ParameterError):
            SweepConfig("coherent", alpha=1.0, r=0.5)

    def test_rejects_bad_grid(self):
        with pytest.raises(ParameterError):
            small_cfg(gt_start=5.0, gt_end=1.0)
        with pytest.raises(ParameterError):
            small_cfg(gt_steps=1)
        # np.linspace would raise a bare ValueError; never try a count it would allocate
        with pytest.raises(ParameterError):
            small_cfg(gt_steps=99999999999999999999)
        with pytest.raises(ParameterError):
            small_cfg(gt_end=math.inf)
        # ends that are not numbers; True would read as 1.0
        for ends in ({"gt_end": True}, {"gt_end": "10"}, {"gt_start": None}):
            with pytest.raises(ParameterError):
                small_cfg(**ends)
        # negative angles are refused by the dynamics layer when the sweep runs
        with pytest.raises(ParameterError):
            run_sweep(small_cfg(gt_start=-1.0))

    @pytest.mark.parametrize("steps", [512.0, 17.5, True, "17", None])
    def test_rejects_a_non_integer_step_count(self, steps):
        # np.linspace would fail on these with a bare TypeError when the sweep runs
        with pytest.raises(ParameterError, match="gt_steps must be an integer"):
            small_cfg(gt_steps=steps)

    def test_accepts_a_numpy_integer_step_count(self):
        cfg = small_cfg(gt_steps=np.int64(9))
        assert run_sweep(cfg).gt.shape == (9,)

    def test_rejects_bad_tail_tol(self):
        # checked by the field layer when the sweep runs
        with pytest.raises(ParameterError):
            run_sweep(small_cfg(tail_tol=0.0))

    def test_rejects_negative_values(self):
        # checked by SqueezedParams / solve_alpha_for_mean when the sweep runs
        with pytest.raises(ParameterError):
            run_sweep(SweepConfig("squeezed", alpha=-1.0))
        with pytest.raises(ParameterError):
            run_sweep(SweepConfig("squeezed", target_mean=-0.3))
        with pytest.raises(ParameterError):
            run_sweep(SweepConfig("squeezed", alpha=1.0, r=-0.2))

    def test_mean_resolution_matches_requested_mean(self):
        cfg = SweepConfig("squeezed", target_mean=0.3, r=0.5)
        alpha = cfg.resolved_alpha()
        assert alpha * alpha + math.sinh(0.5) ** 2 == pytest.approx(0.3, abs=1e-14)

    def test_infeasible_mean(self):
        cfg = SweepConfig("squeezed", target_mean=0.1, r=1.0)
        with pytest.raises(ParameterError):
            cfg.resolved_alpha()


class TestRunSweep:
    def test_vacuum_zero_angle_row(self):
        result = run_sweep(small_cfg(target_mean=None, alpha=0.0, gt_steps=9))
        assert (result.gt[0], result.concurrence[0], result.eof[0]) == (0.0, 0.0, 0.0)
        # the photon emitted by the first atom entangles the pair at gt > 0
        assert result.eof.max() > 0.0

    def test_rows_strictly_ascending_and_bounded(self):
        result = run_sweep(small_cfg(gt_steps=33))
        assert np.all(np.diff(result.gt) > 0.0)
        assert result.gt[0] == 0.0 and result.gt[-1] == 10.0
        assert np.all((0.0 <= result.concurrence) & (result.concurrence <= 1.0))
        assert np.all((0.0 <= result.eof) & (result.eof <= 1.0))

    def test_low_mean_peak_is_nonzero(self):
        assert run_sweep(small_cfg(gt_steps=129)).eof.max() > 0.0

    def test_deterministic(self):
        cfg = small_cfg(target_mean=None, alpha=1.1, gt_steps=17)
        first, second = run_sweep(cfg), run_sweep(cfg)
        assert all(np.array_equal(x, y) for x, y in zip(first, second))

    def test_columns_of_the_grid_length(self):
        result = run_sweep(small_cfg(gt_steps=17))
        assert isinstance(result, SweepResult)
        assert [column.shape for column in result] == [(17,)] * 3
        assert np.array_equal(result.gt, small_cfg(gt_steps=17).gt_grid())

    def test_eof_column_equals_per_value_calls(self):
        result = run_sweep(small_cfg(gt_steps=33))
        assert np.array_equal(result.eof, [eof_from_concurrence(c) for c in result.concurrence])


class TestRunCompare:
    def test_config_against_itself(self):
        cfg = small_cfg(gt_steps=17)
        result = run_compare(cfg, cfg)
        assert np.array_equal(result.a.concurrence, result.b.concurrence)
        assert np.array_equal(result.a.eof, result.b.eof)
        assert result.peak_eof_a == result.peak_eof_b
        assert result.peak_gt_a == result.peak_gt_b

    def test_peak_is_the_first_maximum(self):
        cfg = small_cfg(gt_steps=65)
        result = run_compare(cfg, SweepConfig("coherent", target_mean=1.0, gt_end=10.0, gt_steps=65))
        for column, peak, peak_gt in [
            (result.a, result.peak_eof_a, result.peak_gt_a),
            (result.b, result.peak_eof_b, result.peak_gt_b),
        ]:
            first = next(i for i, v in enumerate(column.eof) if v == column.eof.max())
            assert (peak, peak_gt) == (column.eof[first], column.gt[first])
            assert type(peak) is float and type(peak_gt) is float

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            run_compare(small_cfg(gt_steps=17), small_cfg(gt_steps=18))

    def test_fixed_mean_protocol(self):
        shared = dict(gt_start=0.0, gt_end=10.0, gt_steps=129)
        result = run_compare(
            SweepConfig("squeezed", target_mean=0.3, r=0.5, **shared),
            SweepConfig("coherent", target_mean=0.3, **shared),
        )
        assert result.peak_eof_a > result.peak_eof_b

    def test_peak_entanglement_regimes(self):
        # low mean: the peak falls as the mean grows; high mean: it rises slightly
        def peak(mean, gt_end):
            result = run_sweep(
                SweepConfig("coherent", target_mean=mean, gt_end=gt_end, gt_steps=257)
            )
            return result.eof.max()

        low = [peak(mean, 10.0) for mean in (0.1, 0.3, 1.0)]
        assert low[0] > low[1] > low[2]
        assert peak(30.0, 50.0) < peak(50.0, 50.0)

    def test_high_mean_comparison_completes(self):
        # <n> = 50 with r = 1: both row sets must come through without overflow
        shared = dict(gt_start=0.0, gt_end=50.0, gt_steps=65)
        result = run_compare(
            SweepConfig("squeezed", target_mean=50.0, r=1.0, **shared),
            SweepConfig("coherent", target_mean=50.0, **shared),
        )
        for column in (result.a.concurrence, result.a.eof, result.b.concurrence, result.b.eof):
            assert column.shape == (65,)
            assert np.all(np.isfinite(column) & (0.0 <= column) & (column <= 1.0))
        assert result.peak_eof_a > 0.0 and result.peak_eof_b > 0.0


class TestRunOracleCheck:
    def test_vacuum_passes_tightly(self):
        report = run_oracle_check(small_cfg(target_mean=None, alpha=0.0, gt_steps=17))
        assert report.passed
        assert report.max_rho_deviation < 1e-12
        # the factored route takes no square root of a small eigenvalue and
        # agrees to ~6e-16 here; 1e-8 is the oracle-check contract
        # (CONCURRENCE_CHECK_TOL), which this test keeps
        assert report.max_concurrence_deviation < 1e-8

    def test_low_mean_field_passes(self):
        report = run_oracle_check(small_cfg(gt_steps=17))
        assert report.passed
        assert report.points == 17

    @pytest.mark.parametrize("field,r", [("squeezed", 1.0), ("coherent", 0.0)])
    def test_bright_field_matches_the_full_range_oracle(self, field, r):
        # the gamma sums skip the dead head of these fields, the Fock oracle
        # sums every photon number
        cfg = SweepConfig(field, target_mean=400.0, r=r, gt_end=50.0, gt_steps=128)
        report = run_oracle_check(cfg)
        assert report.passed
        assert report.points == 128
        assert report.max_rho_deviation <= 1e-15

    @pytest.mark.parametrize(
        "field,mean,r,gt_end",
        [
            ("squeezed", 50.0, 1.0, 50.0),
            ("squeezed", 0.3, 0.5, 10.0),
            ("coherent", 0.3, 0.0, 10.0),
        ],
        ids=["squeezed-50", "squeezed-0.3", "coherent-0.3"],
    )
    def test_reference_field_matches_the_oracle(self, field, mean, r, gt_end):
        # the oracle-check --mean 50 --r 1 --gt-end 50 field and both fields
        # of compare --mean 0.3 --r 0.5; the oracle keeps libm cos and sin,
        # the gamma sums derive theirs from one tangent per phase
        cfg = SweepConfig(field, target_mean=mean, r=r, gt_end=gt_end, gt_steps=512)
        report = run_oracle_check(cfg)
        assert report.passed
        assert report.points == 512
        assert report.max_rho_deviation <= 1e-15


class TestCsvFormat:
    def test_sweep_csv_shape(self):
        result = run_sweep(small_cfg(gt_steps=5))
        buf = io.StringIO()
        write_sweep_csv(result, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "gt,concurrence,eof"
        assert lines[-1] == ""  # trailing newline
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "0"
        # 12 significant digits
        value = 0.123456789012345
        buf2 = io.StringIO()
        write_sweep_csv(SweepResult(*[np.array([value])] * 3), buf2)
        assert "0.123456789012" in buf2.getvalue()

    def test_cells_match_per_cell_formatting(self):
        # the template writer must print each cell exactly as format(x, ".12g")
        values = np.array(
            [0.0, -0.0, 1.0, 0.5, 1e-300, 5e-324, 0.123456789012345, 2.0 / 3.0,
             123456789012.5, 9.9999999999995e-5, 1e16, 0.3]
        )
        columns = SweepResult(values, values[::-1].copy(), np.roll(values, 5))
        buf = io.StringIO()
        write_sweep_csv(columns, buf)
        expected = "gt,concurrence,eof\n" + "".join(
            ",".join(format(float(x), ".12g") for x in row) + "\n" for row in zip(*columns)
        )
        assert buf.getvalue() == expected

    def test_compare_csv_has_peak_comments(self):
        cfg = small_cfg(gt_steps=5)
        result = run_compare(cfg, cfg)
        buf = io.StringIO()
        write_compare_csv(result, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "gt,concurrence_a,eof_a,concurrence_b,eof_b"
        assert lines[-2].startswith("# peak_eof_a=")
        assert lines[-1].startswith("# peak_eof_b=")

    def test_oracle_report_text(self):
        failing = OracleReport(4, 1e-3, 1e-3)
        text = format_oracle_report(failing)
        assert "result=FAIL" in text
        assert not failing.passed
        passing = OracleReport(4, 1e-14, 1e-12)
        assert "result=PASS" in format_oracle_report(passing)
        assert passing.passed


class TestMain:
    def test_sweep_to_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--field", "coherent", "--mean", "0.3", "--steps", "9",
             "--out", str(out)]
        )
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"gt,concurrence,eof\n")
        assert b"\r" not in data

    def test_sweep_to_stdout(self, capsys):
        code = main(["sweep", "--field", "coherent", "--alpha", "0", "--steps", "3"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "gt,concurrence,eof"
        # mean 0, the empty cavity, is a field like any other
        assert main(["sweep", "--field", "coherent", "--mean", "0", "--steps", "5"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 6 and rows[1] == "0,0,0"

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--field", "squeezed", "--mean", "0.3", "--r", "0.5",
                "--steps", "65"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_accepted_and_ignored(self, tmp_path):
        base = ["sweep", "--field", "coherent", "--alpha", "1", "--steps", "9"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--seed", "7", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_compare_writes_summary(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = main(
            ["compare", "--mean", "0.3", "--r", "0.5", "--steps", "17", "--out", str(out)]
        )
        assert code == 0
        assert "peak_eof_a=" in capsys.readouterr().out
        text = out.read_text()
        assert text.startswith("gt,concurrence_a,eof_a,concurrence_b,eof_b\n")

    def test_oracle_check_passes(self, capsys):
        code = main(
            ["oracle-check", "--field", "squeezed", "--mean", "0.3", "--r", "0.5",
             "--steps", "9"]
        )
        assert code == 0
        assert "result=PASS" in capsys.readouterr().out

    def test_oracle_check_failure_exit_code(self, monkeypatch):
        import cavent.cli as cli_module

        monkeypatch.setattr(
            cli_module, "run_oracle_check", lambda cfg: OracleReport(1, 1.0, 1.0)
        )
        code = main(["oracle-check", "--field", "coherent", "--alpha", "1"])
        assert code == 3

    def test_config_errors_exit_1(self, capsys):
        # missing required amplitude group
        assert main(["sweep", "--field", "coherent"]) == 1
        # infeasible mean for the squeezing
        assert main(["sweep", "--field", "squeezed", "--mean", "0.1", "--r", "1"]) == 1
        # r with a coherent field
        assert main(["sweep", "--field", "coherent", "--alpha", "1", "--r", "0.5"]) == 1
        # unknown flag
        assert main(["sweep", "--field", "coherent", "--alpha", "1", "--bogus"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--field", "coherent", "--alpha", "0.5", "--tail-tol", "1e-17",
             "--steps", "3"],
            # below 2^-52, whatever the field
            ["sweep", "--field", "coherent", "--alpha", "1", "--tail-tol", "1e-300",
             "--steps", "2"],
            # alpha^2 overflows a double
            ["sweep", "--field", "coherent", "--alpha", "1e200", "--steps", "3"],
        ],
        ids=" ".join,
    )
    def test_numerical_errors_exit_2(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("cavent: numerical error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            [command, *field, "--steps", "3"]
            for command in ("sweep", "oracle-check")
            for field in (
                ["--field", "coherent", "--alpha", "-1"],
                ["--field", "coherent", "--alpha", "nan"],
                ["--field", "coherent", "--mean", "-0.3"],
                ["--field", "squeezed", "--alpha", "1", "--r", "-0.2"],
                ["--field", "coherent", "--alpha", "1", "--tail-tol", "0"],
                ["--field", "coherent", "--alpha", "1", "--tail-tol", "nan"],
                ["--field", "coherent", "--alpha", "1", "--gt-start", "-1"],
                ["--field", "coherent", "--alpha", "1", "--gt-end", "inf"],
            )
        ]
        + [
            ["compare", "--mean", "-1", "--r", "0.5", "--steps", "3"],
            ["compare", "--mean", "5", "--r", "-0.2", "--steps", "3"],
            ["compare", "--mean", "5", "--r", "0.5", "--tail-tol", "2", "--steps", "3"],
            # cosh(r) overflows, sinh(r)^2 overflows, numpy cannot size the grid
            ["oracle-check", "--field", "squeezed", "--alpha", "1", "--r", "711", "--steps", "3"],
            ["compare", "--mean", "1", "--r", "356", "--steps", "3"],
            ["sweep", "--field", "coherent", "--alpha", "2", "--steps", "99999999999999999999"],
        ],
        ids=" ".join,
    )
    def test_invalid_values_exit_1_without_output(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("cavent: configuration error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--field", "coherent", "--alpha", "1", "--steps", "3"],
            ["compare", "--mean", "0.3", "--r", "0.5", "--steps", "3"],
            ["oracle-check", "--field", "coherent", "--alpha", "1", "--steps", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_exits_1_without_output(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"cavent: configuration error: cannot write {out}: ")
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "runner,argv",
        [
            ("run_sweep", ["sweep", "--field", "coherent", "--alpha", "1"]),
            ("run_compare", ["compare", "--mean", "1", "--r", "0.5"]),
            ("run_oracle_check", ["oracle-check", "--field", "coherent", "--alpha", "1"]),
        ],
        ids=["sweep", "compare", "oracle-check"],
    )
    def test_unallocatable_grid_exits_1_without_output(
        self, runner, argv, monkeypatch, tmp_path, capsys
    ):
        # the runner raises what numpy raises for a grid it cannot allocate;
        # nothing is allocated here, so no host tries to fill such an array
        import cavent.cli as cli_module

        def out_of_memory(*configs):
            raise MemoryError

        monkeypatch.setattr(cli_module, runner, out_of_memory)
        out = tmp_path / "x.csv"
        code = main(argv + ["--steps", "1000000000000", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "cavent: configuration error: no memory for a grid of 1000000000000 points\n"
        )
        assert not out.exists()

    def test_unattainable_tail_tolerance_exits_2_without_csv(self, capsys):
        code = main(
            ["sweep", "--field", "squeezed", "--alpha", "0.5", "--tail-tol", "1e-17",
             "--steps", "3"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "tail tolerance" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--mean", "400", "--r", "1", "--gt-end", "50", "--steps", "8",
             "--tail-tol", "1e-4"],
            ["sweep", "--field", "coherent", "--mean", "400", "--gt-end", "50", "--steps", "8",
             "--tail-tol", "1e-5"],
        ],
        ids=" ".join,
    )
    def test_loose_tail_tolerance_is_accepted(self, argv, capsys):
        # the truncated sums (0.99999388 and 0.99999898) miss 1 by less than
        # the tolerance, so they are renormalized, not refused
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.err == ""
        assert len(captured.out.splitlines()) >= 9

    def test_error_leaves_out_file_untouched(self, tmp_path, capsys):
        out = tmp_path / "kept.csv"
        out.write_text("kept\n")
        code = main(
            ["compare", "--mean", "5", "--r", "0.5", "--tail-tol", "1e-17", "--steps", "3",
             "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert out.read_text() == "kept\n"

    def test_phase_precision_exceeded_exits_2_without_csv(self, capsys):
        code = main(
            ["sweep", "--field", "coherent", "--alpha", "1", "--gt-end", "1e300",
             "--steps", "3"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "too large for double precision" in captured.err

    @pytest.mark.parametrize("mean", ["840", "900"])
    def test_bright_squeezed_comparison_completes(self, mean, capsys):
        assert main(["compare", "--mean", mean, "--r", "1", "--steps", "3"]) == 0
        assert capsys.readouterr().out.startswith("gt,concurrence_a,eof_a,")

    def test_bright_coherent_comparison_completes(self, capsys):
        assert main(["compare", "--mean", "2060", "--r", "1", "--steps", "3"]) == 0
        assert capsys.readouterr().out.startswith("gt,concurrence_a,eof_a,")

    def test_bright_coherent_sweep_completes(self, capsys):
        assert main(["sweep", "--field", "coherent", "--mean", "2060", "--steps", "3"]) == 0
        assert capsys.readouterr().out.startswith("gt,concurrence,eof\n")

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "cavent", "sweep", "--field", "coherent",
             "--alpha", "0", "--steps", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("gt,concurrence,eof\n")
