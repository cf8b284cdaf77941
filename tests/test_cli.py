"""Command-line workflows, exit codes and report schema."""

import json
import subprocess
import sys

import numpy as np
import pytest

import abreu.cli
from abreu import (
    AbreuError,
    DimensionError,
    EvalError,
    FieldSyntaxError,
    FormatError,
    GradientInversionFailure,
    InvariantMetric,
    LinearSolveFailure,
    MeanNotZero,
    MonitorViolation,
    NotConvex,
    ScalarField,
    SolverConfig,
    StepFloorReached,
    abreu_forward,
    continuity_solve,
    fieldfile,
    make_grid,
    project_mean_zero,
    read_field,
    scalar_curvature,
    sup_norm,
    write_field,
)
from abreu.cli import main
from tests.support import manufactured_problem


@pytest.fixture()
def manufactured_files(tmp_path):
    """A.fld for the 1D manufactured problem plus its solved phi.fld."""
    _, a, _ = manufactured_problem(64)
    a_path = tmp_path / "A.fld"
    write_field(a_path, a)
    phi_path = tmp_path / "phi.fld"
    code = main(
        ["solve", "--rhs", str(a_path), "--out", str(phi_path)]
    )
    assert code == 0
    return a_path, phi_path


class TestSynthAndApply:
    def test_synth_writes_expression(self, tmp_path):
        out = tmp_path / "f.fld"
        code = main(
            ["synth", "--dim", "2", "--resolution", "16,16",
             "--expr", "cos(2*pi*x1)+cos(2*pi*x2)", "--out", str(out)]
        )
        assert code == 0
        f = read_field(out)
        x, y = f.grid.coordinate_arrays()
        assert np.array_equal(f.values, np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y))

    def test_apply_flat_is_zero_bytes(self, tmp_path):
        phi = tmp_path / "phi.fld"
        out = tmp_path / "A.fld"
        assert main(["synth", "--dim", "1", "--resolution", "16",
                     "--expr", "0", "--out", str(phi)]) == 0
        assert main(["apply", "--phi", str(phi), "--out", str(out)]) == 0
        f = read_field(out)
        assert np.array_equal(f.values, np.zeros(16))

    def test_nonperiodic_warning(self, tmp_path, capsys):
        out = tmp_path / "saw.fld"
        assert main(["synth", "--dim", "1", "--resolution", "16",
                     "--expr", "x1", "--out", str(out)]) == 0
        assert "not numerically periodic" in capsys.readouterr().err


class TestSolve:
    def test_manufactured_solve_report(self, tmp_path, manufactured_files):
        a_path, _ = manufactured_files
        out = tmp_path / "phi2.fld"
        report = tmp_path / "run.json"
        code = main(["solve", "--rhs", str(a_path), "--out", str(out),
                     "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["schema_version"] == 3
        assert payload["config"] == {"newton_tolerance": 1e-10}
        steps = payload["trace"]["steps"]
        assert steps[-1]["t"] == 1.0
        assert payload["residual_norms"]["final_sup"] < 1e-7
        assert payload["bounds"]["det_min"] <= payload["bounds"]["det_max"]
        assert payload["wall_clock_seconds"] > 0.0

    def test_final_sup_is_the_last_step_residual(self, tmp_path, manufactured_files):
        # the last step is at t = 1, where the solver's residual is
        # sup|forward(phi) - A| itself, bit for bit
        a_path, _ = manufactured_files
        report = tmp_path / "run.json"
        assert main(["solve", "--rhs", str(a_path), "--out", str(tmp_path / "phi2.fld"),
                     "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        last = payload["trace"]["steps"][-1]
        assert last["t"] == 1.0
        assert payload["residual_norms"]["final_sup"] == last["final_residual_norm"]
        A = read_field(a_path)
        P, trace = continuity_solve(A)
        assert trace.steps[-1].final_residual_norm == sup_norm(abreu_forward(P) - A)

    def test_failed_report_write_leaves_the_old_report(self, tmp_path, monkeypatch,
                                                       manufactured_files):
        a_path, _ = manufactured_files
        report = tmp_path / "run.json"
        argv = ["solve", "--rhs", str(a_path), "--out", str(tmp_path / "phi2.fld"),
                "--report", str(report)]
        assert main(argv) == 0
        before, files = report.read_bytes(), sorted(tmp_path.iterdir())

        class DumpFailed(Exception):
            pass

        def failing_dump(*args, **kwargs):
            raise DumpFailed

        monkeypatch.setattr(json, "dump", failing_dump)
        with pytest.raises(DumpFailed):
            main(argv)
        assert report.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == files  # no temporary file left

    def test_nonzero_mean_exits_2(self, tmp_path):
        out = tmp_path / "x.fld"
        code = main(["solve", "--dim", "1", "--resolution", "16",
                     "--expr", "1", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_project_mean_flag(self, tmp_path):
        out = tmp_path / "x.fld"
        code = main(["solve", "--dim", "1", "--resolution", "16",
                     "--expr", "1", "--project-mean", "--out", str(out)])
        assert code == 0
        assert sup_norm(read_field(out)) < 1e-12  # projected rhs is zero

    def test_deterministic_output(self, tmp_path, manufactured_files):
        a_path, _ = manufactured_files
        p1, p2 = tmp_path / "s1.fld", tmp_path / "s2.fld"
        assert main(["solve", "--rhs", str(a_path), "--out", str(p1)]) == 0
        assert main(["solve", "--rhs", str(a_path), "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_grid_flag_mismatch_exits_1(self, tmp_path, manufactured_files):
        a_path, _ = manufactured_files
        code = main(["solve", "--dim", "2", "--rhs", str(a_path),
                     "--out", str(tmp_path / "n.fld")])
        assert code == 1

    @pytest.fixture()
    def rhs_2d(self, tmp_path):
        """A zero-mean right-hand side file on a 2D 16^2 grid."""
        g = make_grid(2, [16, 16])
        x, _ = g.coordinate_arrays()
        path = tmp_path / "A2.fld"
        write_field(path, ScalarField(g, 0.1 * np.cos(2 * np.pi * x)))
        return path

    def test_resolution_matching_file_accepted(self, tmp_path, rhs_2d):
        code = main(["solve", "--rhs", str(rhs_2d), "--resolution", "16",
                     "--out", str(tmp_path / "p.fld")])
        assert code == 0

    @pytest.mark.parametrize(
        "flags, named",
        [(["--resolution", "16,8"], "--resolution 16,8 contradicts"),
         (["--dim", "1"], "--dim 1 contradicts"),
         (["--resolution", "8,x"], "cannot parse resolution '8,x'")],
    )
    def test_grid_flags_contradicting_file_exit_1(
        self, tmp_path, capsys, rhs_2d, flags, named
    ):
        out = tmp_path / "p.fld"
        code = main(["solve", "--rhs", str(rhs_2d), *flags, "--out", str(out)])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_tolerance_flags_reach_config(self, tmp_path, manufactured_files):
        a_path, _ = manufactured_files
        report = tmp_path / "run.json"
        code = main(["solve", "--rhs", str(a_path), "--out", str(tmp_path / "p.fld"),
                     "--tol", "1e-9", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["config"] == {"newton_tolerance": 1e-9}

    def test_removed_t_step_flag_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.fld"
        code = main(["solve", "--dim", "1", "--resolution", "32",
                     "--expr", "cos(2*pi*x1)", "--t-step", "0.25", "--out", str(out)])
        assert code == 1
        assert "unrecognized arguments: --t-step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_nonfinite_tolerance_exits_1(self, tmp_path, capsys, tol):
        # --tol inf used to accept phi = 0, and --tol nan ran to the step floor
        out = tmp_path / "x.fld"
        code = main(["solve", "--dim", "1", "--resolution", "32",
                     "--expr", "cos(2*pi*x1)", "--tol", tol, "--out", str(out)])
        assert code == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestResidualAndVerify:
    def test_residual_of_solution_small(self, tmp_path, manufactured_files):
        a_path, phi_path = manufactured_files
        out = tmp_path / "r.fld"
        assert main(["residual", "--phi", str(phi_path), "--rhs", str(a_path),
                     "--out", str(out)]) == 0
        assert sup_norm(read_field(out)) < 1e-7

    def test_residual_nonzero_mean_exits_2(self, tmp_path, capsys):
        phi = tmp_path / "flat.fld"
        write_field(phi, ScalarField.zeros(make_grid(1, [16])))
        out = tmp_path / "r.fld"
        code = main(["residual", "--phi", str(phi), "--expr", "1", "--out", str(out)])
        assert code == 2
        assert "zero-mean bound" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_passes_on_solution(self, tmp_path, manufactured_files):
        a_path, phi_path = manufactured_files
        report = tmp_path / "verify.json"
        code = main(["verify", "--phi", str(phi_path), "--rhs", str(a_path),
                     "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["verification"]["passed"] is True
        checks = payload["verification"]["bounds"]["inequalities"]
        assert all(c["satisfied"] for c in checks)

    def test_verify_flags_corruption(self, tmp_path, manufactured_files):
        a_path, phi_path = manufactured_files
        phi = read_field(phi_path)
        x = phi.grid.axis_coordinates(0)
        bad = ScalarField(phi.grid, phi.values + 3e-4 * np.cos(2 * np.pi * x))
        bad_path = tmp_path / "bad.fld"
        write_field(bad_path, bad)
        report = tmp_path / "verify.json"
        code = main(["verify", "--phi", str(bad_path), "--rhs", str(a_path),
                     "--report", str(report)])
        assert code == 3
        payload = json.loads(report.read_text())
        assert payload["verification"]["passed"] is False


_HEADER_KEYS = {"schema_version", "tool_version", "command", "wall_clock_seconds"}


class TestReportKeys:
    """Each report's key set, header included, is pinned."""

    def test_solve(self, tmp_path, manufactured_files):
        a_path, _ = manufactured_files
        report = tmp_path / "run.json"
        assert main(["solve", "--rhs", str(a_path), "--out", str(tmp_path / "phi2.fld"),
                     "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert set(payload) == _HEADER_KEYS | {
            "config", "trace", "bounds", "residual_norms"
        }
        assert set(payload["config"]) == {"newton_tolerance"}
        assert set(payload["trace"]) == {"steps"}
        assert set(payload["trace"]["steps"][0]) == {
            "t", "newton_iterations", "final_residual_norm", "functional_value",
            "det_min", "det_max", "convexity_margin",
        }
        assert set(payload["bounds"]) == {
            "sup_phi", "sup_grad_phi", "oscillation_bound", "eig_min", "eig_max",
            "det_min", "det_max",
        }
        assert set(payload["residual_norms"]) == {"final_sup"}

    def test_prescribe(self, tmp_path):
        report = tmp_path / "run.json"
        assert main(["prescribe", "--dim", "1", "--resolution", "16",
                     "--expr", "0.01*cos(2*pi*x1)", "--out", str(tmp_path / "m.fld"),
                     "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert set(payload) == _HEADER_KEYS | {"config", "trace"}
        assert set(payload["config"]) == {"newton_tolerance"}

    def test_verify(self, tmp_path, manufactured_files):
        a_path, phi_path = manufactured_files
        report = tmp_path / "verify.json"
        assert main(["verify", "--phi", str(phi_path), "--rhs", str(a_path),
                     "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert set(payload) == _HEADER_KEYS | {"verification"}
        assert set(payload["verification"]) == {"passed", "bounds"}


class TestLegendreAndCurvature:
    def test_legendre_round_trip(self, tmp_path, manufactured_files):
        _, phi_path = manufactured_files
        psi_path = tmp_path / "psi.fld"
        back_path = tmp_path / "back.fld"
        assert main(["legendre", "--phi", str(phi_path), "--out", str(psi_path)]) == 0
        assert main(["legendre", "--phi", str(psi_path), "--out", str(back_path)]) == 0
        phi = read_field(phi_path)
        back = read_field(back_path)
        assert sup_norm(back - phi) < 1e-8

    def test_curvature_prescribe_round_trip(self, tmp_path):
        metric = tmp_path / "m.fld"
        s_path = tmp_path / "S.fld"
        recovered = tmp_path / "m2.fld"
        assert main(["synth", "--dim", "1", "--resolution", "64",
                     "--expr", "0.01*cos(2*pi*x1)", "--out", str(metric)]) == 0
        assert main(["curvature", "--psi", str(metric), "--symplectic",
                     "--out", str(s_path)]) == 0
        assert main(["prescribe", "--scalar", str(s_path),
                     "--out", str(recovered)]) == 0
        m1, m2 = read_field(metric), read_field(recovered)
        assert sup_norm(m1 - m2) < 1e-6

    def test_curvature_without_symplectic_is_scalar_curvature(self, tmp_path):
        metric = tmp_path / "m.fld"
        s_path = tmp_path / "S.fld"
        assert main(["synth", "--dim", "2", "--resolution", "16",
                     "--expr", "0.01*cos(2*pi*x1)*cos(2*pi*x2)", "--out", str(metric)]) == 0
        assert main(["curvature", "--psi", str(metric), "--out", str(s_path)]) == 0
        expected = scalar_curvature(InvariantMetric(project_mean_zero(read_field(metric))))
        assert read_field(s_path).values.tobytes() == expected.values.tobytes()

    def test_prescribe_rejects_nonzero_mean(self, tmp_path):
        code = main(["prescribe", "--dim", "1", "--resolution", "16",
                     "--expr", "0.1", "--out", str(tmp_path / "m.fld")])
        assert code == 2


class TestErrorPaths:
    def test_missing_file_exits_1(self, tmp_path):
        code = main(["apply", "--phi", str(tmp_path / "nope.fld"),
                     "--out", str(tmp_path / "o.fld")])
        assert code == 1

    def test_syntax_error_exits_1(self, tmp_path):
        code = main(["synth", "--dim", "1", "--resolution", "16",
                     "--expr", "cos(2*pi*x1", "--out", str(tmp_path / "o.fld")])
        assert code == 1

    def test_non_ascii_digit_exits_1_naming_the_offset(self, tmp_path, capsys):
        code = main(["synth", "--dim", "1", "--resolution", "8",
                     "--expr", "x1\u00b2", "--out", str(tmp_path / "f.fld")])
        assert code == 1
        assert "offset 2" in capsys.readouterr().err
        assert not (tmp_path / "f.fld").exists()

    def test_bad_flag_exits_1(self):
        assert main(["solve", "--frobnicate"]) == 1

    def test_expression_without_a_grid_exits_1(self, tmp_path, capsys):
        out = tmp_path / "f.fld"
        assert main(["synth", "--expr", "cos(2*pi*x1)", "--out", str(out)]) == 1
        assert "--dim and --resolution are required with --expr" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_rhs_on_another_grid_exits_1(self, tmp_path, capsys, manufactured_files):
        _, phi_path = manufactured_files
        rhs = tmp_path / "A32.fld"
        write_field(rhs, ScalarField.zeros(make_grid(1, [32])))
        report = tmp_path / "v.json"
        code = main(["verify", "--phi", str(phi_path), "--rhs", str(rhs),
                     "--report", str(report)])
        assert code == 1
        assert "(grid (32,)) does not match the potential grid (64,)" in capsys.readouterr().err
        assert not report.exists()

    def test_corrupt_field_file_exits_1(self, tmp_path):
        bad = tmp_path / "bad.fld"
        bad.write_bytes(b"PABR0" + b"\0" * 32)
        code = main(["apply", "--phi", str(bad), "--out", str(tmp_path / "o.fld")])
        assert code == 1


# one instance of every error class the commands can raise, with its exit code
EXIT_CODES = [
    (MeanNotZero(0.5, 1e-12), 2),
    (StepFloorReached(0.25, 1e-4), 3),
    (NotConvex((3,), -0.1), 3),
    (LinearSolveFailure(40, 1e-3, 1e-12), 3),
    (GradientInversionFailure((0.5,), 1e-3, 1e-12, (8,)), 3),
    (MonitorViolation([]), 3),
    (FormatError("bad magic"), 1),
    (FieldSyntaxError(3, "')'"), 1),
    (DimensionError("x2 on a 1D grid"), 1),
    (EvalError("non-finite value"), 1),
    (OSError("disk full"), 1),
    (ValueError("bad value"), 1),
]


def test_exit_codes_cover_every_error_class():
    assert set(AbreuError.__subclasses__()) <= {type(e) for e, _ in EXIT_CODES}


@pytest.mark.parametrize("error, code", EXIT_CODES,
                         ids=[type(e).__name__ for e, _ in EXIT_CODES])
def test_exit_code_of_each_error(tmp_path, monkeypatch, capsys, error, code):
    def fail(*args, **kwargs):
        raise error

    # the command may call write_field through the CLI's own binding
    original = fieldfile.write_field
    for owner in (fieldfile, abreu.cli):
        if getattr(owner, "write_field", None) is original:
            monkeypatch.setattr(owner, "write_field", fail)
    assert main(["synth", "--dim", "1", "--resolution", "16", "--expr", "0",
                 "--out", str(tmp_path / "f.fld")]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


def test_exit_code_table_is_unchanged():
    assert list(abreu.cli._EXIT_CODES.items()) == [
        (MeanNotZero, 2),
        (StepFloorReached, 3),
        (NotConvex, 3),
        (LinearSolveFailure, 3),
        (GradientInversionFailure, 3),
        (MonitorViolation, 3),
        (AbreuError, 1),
        (OSError, 1),
        (ValueError, 1),
    ]


class TestParserReuse:
    """The parser is built once per process; each main call parses afresh."""

    def test_built_once(self):
        assert abreu.cli._build_parser() is abreu.cli._build_parser()

    def test_calls_parse_independently(self, tmp_path):
        grid = ["--dim", "1", "--resolution", "16", "--expr", "0.5 + cos(2*pi*x1)"]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        code = main(["solve", *grid, "--tol", "1e-8", "--project-mean",
                     "--out", str(tmp_path / "a.fld"), "--report", str(first)])
        assert code == 0
        assert json.loads(first.read_text())["config"] == {"newton_tolerance": 1e-8}
        # neither --project-mean nor --tol carries over to the next call
        code = main(["solve", *grid, "--out", str(tmp_path / "b.fld"),
                     "--report", str(second)])
        assert code == 2 and not second.exists()
        grid[-1] = "cos(2*pi*x1)"
        assert main(["solve", *grid, "--out", str(tmp_path / "c.fld"),
                     "--report", str(second)]) == 0
        config = json.loads(second.read_text())["config"]
        assert config == {"newton_tolerance": SolverConfig().newton_tolerance}

    def test_usage_error_still_exits_1(self, tmp_path, capsys):
        for _ in range(2):
            assert main(["solve", "--frobnicate"]) == 1
            assert "usage: abreu solve" in capsys.readouterr().err
        assert main(["synth", "--dim", "1", "--resolution", "16", "--expr", "0",
                     "--out", str(tmp_path / "f.fld")]) == 0


def test_console_entry_point(tmp_path):
    """The installed script behaves like main(); one subprocess smoke test."""
    out = tmp_path / "f.fld"
    proc = subprocess.run(
        [sys.executable, "-m", "abreu.cli", "synth", "--dim", "1",
         "--resolution", "16", "--expr", "cos(2*pi*x1)", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()

