import io
import math

import numpy as np
import pytest

from cavent import ParameterError, SweepConfig, run_compare, run_oracle_check, run_sweep
from cavent.cli import (
    OracleReport,
    format_oracle_report,
    main,
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
        with pytest.raises(ParameterError):
            small_cfg(gt_end=math.inf)
        # negative angles are refused by the dynamics layer when the sweep runs
        with pytest.raises(ParameterError):
            run_sweep(small_cfg(gt_start=-1.0))

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
        rows = run_sweep(small_cfg(target_mean=None, alpha=0.0, gt_steps=9))
        assert rows[0] == (0.0, 0.0, 0.0)
        # the photon emitted by the first atom entangles the pair at gt > 0
        assert max(row.eof for row in rows) > 0.0

    def test_rows_strictly_ascending_and_bounded(self):
        rows = run_sweep(small_cfg(gt_steps=33))
        gts = [row.gt for row in rows]
        assert all(b > a for a, b in zip(gts, gts[1:]))
        assert gts[0] == 0.0 and gts[-1] == 10.0
        for row in rows:
            assert 0.0 <= row.concurrence <= 1.0
            assert 0.0 <= row.eof <= 1.0

    def test_low_mean_peak_is_nonzero(self):
        rows = run_sweep(small_cfg(gt_steps=129))
        assert max(row.eof for row in rows) > 0.0

    def test_deterministic(self):
        cfg = small_cfg(target_mean=None, alpha=1.1, gt_steps=17)
        assert run_sweep(cfg) == run_sweep(cfg)


class TestRunCompare:
    def test_config_against_itself(self):
        cfg = small_cfg(gt_steps=17)
        result = run_compare(cfg, cfg)
        for _, ca, ea, cb, eb in result.rows:
            assert ca == cb and ea == eb
        assert result.peak_eof_a == result.peak_eof_b
        assert result.peak_gt_a == result.peak_gt_b

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
            rows = run_sweep(
                SweepConfig("coherent", target_mean=mean, gt_end=gt_end, gt_steps=257)
            )
            return max(row.eof for row in rows)

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
        assert len(result.rows) == 65
        for gt, ca, ea, cb, eb in result.rows:
            for value in (ca, ea, cb, eb):
                assert math.isfinite(value) and 0.0 <= value <= 1.0
        assert result.peak_eof_a > 0.0 and result.peak_eof_b > 0.0


class TestRunOracleCheck:
    def test_vacuum_passes_tightly(self):
        report = run_oracle_check(small_cfg(target_mean=None, alpha=0.0, gt_steps=17))
        assert report.passed
        assert report.max_rho_deviation < 1e-12
        # sqrt of structurally-zero eigenvalues turns 1e-17 matrix roundoff
        # into ~3e-9 concurrence scatter; 1e-8 is the attainable agreement
        assert report.max_concurrence_deviation < 1e-8

    def test_low_mean_field_passes(self):
        report = run_oracle_check(small_cfg(gt_steps=17))
        assert report.passed
        assert report.points == 17


class TestCsvFormat:
    def test_sweep_csv_shape(self):
        rows = run_sweep(small_cfg(gt_steps=5))
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "gt,concurrence,eof"
        assert lines[-1] == ""  # trailing newline
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "0"
        # 12 significant digits
        value = 0.123456789012345
        buf2 = io.StringIO()
        write_sweep_csv([type(rows[0])(value, value, value)], buf2)
        assert "0.123456789012" in buf2.getvalue()

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

    def test_numerical_errors_exit_2(self, capsys):
        code = main(
            ["sweep", "--field", "coherent", "--alpha", "0.5", "--tail-tol", "1e-17",
             "--steps", "3"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "numerical error" in captured.err

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
        ],
        ids=" ".join,
    )
    def test_invalid_values_exit_1_without_output(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "configuration error" in captured.err

    def test_unattainable_tail_tolerance_exits_2_without_csv(self, capsys):
        code = main(
            ["sweep", "--field", "squeezed", "--alpha", "0.5", "--tail-tol", "1e-17",
             "--steps", "3"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "tail tolerance" in captured.err

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
