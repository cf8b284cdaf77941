"""Command-line surface: reproducible batch workflows over field files.

Subcommands: solve, apply, residual, legendre, curvature, prescribe,
verify, synth.  Exit codes: 0 success, 1 I/O or parse errors, 2 zero-mean
violation of the right-hand side, 3 solver or monitor failure.  The
ABREU_THREADS environment variable caps internal (BLAS/FFT) parallelism;
it is applied before numpy is imported, so module-level imports here stay
stdlib-only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _apply_thread_env() -> None:
    threads = os.environ.get("ABREU_THREADS")
    if not threads:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, threads)


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool
    # reserves for zero-mean violations; remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="abreu",
        description=(
            "Spectral solver for the periodic fourth-order equation "
            "sum_ij (u^ij)_ij = A on the n-torus, with Legendre duality, "
            "a-priori bound monitors and scalar-curvature prescription."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_flags(p):
        p.add_argument("--dim", type=int, help="grid dimension n")
        p.add_argument(
            "--resolution",
            help="per-axis node counts, comma separated (e.g. 64 or 64,64)",
        )

    def add_rhs_flags(p, name="--rhs"):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument(name, help="right-hand side field file")
        group.add_argument("--expr", help="right-hand side field expression")

    p = sub.add_parser("solve", help="continuity solve of the fourth-order equation")
    add_grid_flags(p)
    add_rhs_flags(p)
    p.add_argument("--project-mean", action="store_true",
                   help="project the right-hand side to zero mean instead of failing")
    p.add_argument("--out", required=True, help="output perturbation field file")
    p.add_argument("--report", help="write a JSON run report here")
    p.add_argument("--tol", type=float, help="Newton residual sup-norm tolerance")
    p.add_argument("--t-step", type=float, help="initial continuation step in t")

    p = sub.add_parser("apply", help="forward fourth-order operator of a potential")
    p.add_argument("--phi", required=True, help="perturbation field file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("residual", help="divergence-form residual of a candidate")
    p.add_argument("--phi", required=True)
    add_rhs_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("legendre", help="Legendre transform of a potential")
    p.add_argument("--phi", required=True)
    p.add_argument("--out", required=True, help="dual perturbation field file")

    p = sub.add_parser("curvature", help="scalar curvature of an invariant metric")
    p.add_argument("--psi", required=True, help="metric perturbation field file")
    p.add_argument("--out", required=True)
    p.add_argument("--symplectic", action="store_true",
                   help="sample in symplectic coordinates (plain mean zero)")

    p = sub.add_parser("prescribe", help="metric with prescribed scalar curvature")
    add_grid_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scalar", help="curvature field file (symplectic sampling)")
    group.add_argument("--expr", help="curvature field expression")
    p.add_argument("--out", required=True, help="output metric perturbation file")
    p.add_argument("--report", help="write a JSON run report here")
    p.add_argument("--tol", type=float)
    p.add_argument("--t-step", type=float)

    p = sub.add_parser("verify", help="run the full estimate and duality suite")
    p.add_argument("--phi", required=True)
    add_rhs_flags(p)
    p.add_argument("--report", required=True, help="JSON verification report")

    p = sub.add_parser("synth", help="sample a field expression to a file")
    add_grid_flags(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--out", required=True)
    return parser


def _parse_resolution(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse resolution {text!r}") from None


def _grid_from_args(args):
    from .grid import make_grid

    if args.dim is None or args.resolution is None:
        raise ValueError("--dim and --resolution are required with --expr")
    resolution = _parse_resolution(args.resolution)
    if len(resolution) == 1:
        resolution = resolution * args.dim
    return make_grid(args.dim, resolution)


def _eval_expression(text, grid):
    from .fieldlang import eval_field, parse, periodicity_defect

    fld = eval_field(parse(text), grid)
    defect = periodicity_defect(fld)
    if defect > 1e-8:
        sys.stderr.write(
            f"warning: sampled expression is not numerically periodic "
            f"(spectral tail {defect:.2e})\n"
        )
    return fld


def _load_field_argument(args, file_attr="rhs", grid=None):
    """Field from --rhs/--scalar file or --expr.

    Expressions are sampled on `grid` when one is implied by another input
    (e.g. the --phi file), otherwise on the --dim/--resolution grid.
    """
    from .fieldfile import read_field

    path = getattr(args, file_attr, None)
    dim = getattr(args, "dim", None)
    resolution = getattr(args, "resolution", None)
    if path is not None:
        fld = read_field(path)
        if dim is not None and dim != fld.grid.dim:
            raise ValueError(
                f"--dim {dim} contradicts {path} (dim {fld.grid.dim})"
            )
        if resolution is not None:
            res = _parse_resolution(resolution)
            if len(res) == 1:
                res = res * fld.grid.dim
            if res != fld.grid.resolution:
                raise ValueError(
                    f"--resolution {resolution} contradicts {path} "
                    f"(resolution {fld.grid.resolution})"
                )
        if grid is not None and fld.grid != grid:
            raise ValueError(
                f"{path} (grid {fld.grid.resolution}) does not match the "
                f"potential grid {grid.resolution}"
            )
        return fld
    if grid is None:
        grid = _grid_from_args(args)
    return _eval_expression(args.expr, grid)


def _load_potential(path):
    """Potential from a perturbation file; the gauge constant is free, so
    the perturbation is projected to mean zero on load."""
    from .fieldfile import read_field
    from .grid import project_mean_zero
    from .potential import Potential, QuadraticBase

    phi = project_mean_zero(read_field(path))
    return Potential(QuadraticBase.identity(phi.grid.dim), phi)


def _solver_config(args):
    from .solver import SolverConfig

    kwargs = {}
    if getattr(args, "tol", None) is not None:
        kwargs["newton_tolerance"] = args.tol
    if getattr(args, "t_step", None) is not None:
        kwargs["initial_t_step"] = args.t_step
    return SolverConfig(**kwargs)


def _config_dict(cfg) -> dict:
    from dataclasses import asdict

    return asdict(cfg)


def _write_report(path, payload) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def _base_report(argv, cfg=None) -> dict:
    from . import __version__

    payload = {
        "schema_version": 1,
        "tool_version": __version__,
        "command": list(argv),
    }
    if cfg is not None:
        payload["config"] = _config_dict(cfg)
    return payload


def _solution_bounds(potential) -> dict:
    from .estimates import c0_c1_report, eigenvalue_bounds

    sup_phi, sup_grad_phi, osc_bound = c0_c1_report(potential)
    eig_min, eig_max = eigenvalue_bounds(potential)
    det_vals = potential.hessian_state.det
    return {
        "sup_phi": sup_phi,
        "sup_grad_phi": sup_grad_phi,
        "oscillation_bound": osc_bound,
        "eig_min": eig_min,
        "eig_max": eig_max,
        "det_min": float(det_vals.min()),
        "det_max": float(det_vals.max()),
    }


def _cmd_solve(args, argv) -> int:
    from .fieldfile import write_field
    from .grid import mean, project_mean_zero, sup_norm
    from .potential import abreu_forward
    from .solver import MEAN_TOLERANCE, continuity_solve

    started = time.perf_counter()
    rhs = _load_field_argument(args, "rhs")
    if abs(mean(rhs)) > MEAN_TOLERANCE:
        if not args.project_mean:
            sys.stderr.write(
                f"error: right-hand side has mean {mean(rhs):.3e}; the "
                f"equation requires zero mean (pass --project-mean to fix)\n"
            )
            return 2
        rhs = project_mean_zero(rhs)
    cfg = _solver_config(args)
    potential, trace = continuity_solve(rhs, cfg=cfg)
    write_field(args.out, potential.perturbation)
    if args.report:
        payload = _base_report(argv, cfg)
        payload["trace"] = trace.to_dict()
        payload["bounds"] = _solution_bounds(potential)
        payload["residual_norms"] = {
            "final_sup": sup_norm(abreu_forward(potential) - rhs)
        }
        payload["wall_clock_seconds"] = time.perf_counter() - started
        _write_report(args.report, payload)
    return 0


def _cmd_apply(args) -> int:
    from .fieldfile import write_field
    from .potential import abreu_forward

    write_field(args.out, abreu_forward(_load_potential(args.phi)))
    return 0


def _cmd_residual(args) -> int:
    from .fieldfile import write_field
    from .potential import divergence_form_residual

    P = _load_potential(args.phi)
    rhs = _load_field_argument(args, "rhs", grid=P.grid)
    write_field(args.out, divergence_form_residual(P, rhs))
    return 0


def _cmd_legendre(args) -> int:
    from .fieldfile import write_field
    from .legendre import legendre_transform

    dual = legendre_transform(_load_potential(args.phi))
    write_field(args.out, dual.perturbation)
    return 0


def _cmd_curvature(args) -> int:
    from .abelian import InvariantMetric, scalar_curvature, scalar_curvature_symplectic
    from .fieldfile import read_field, write_field
    from .grid import project_mean_zero

    metric = InvariantMetric(project_mean_zero(read_field(args.psi)))
    if args.symplectic:
        out = scalar_curvature_symplectic(metric)
    else:
        out = scalar_curvature(metric)
    write_field(args.out, out)
    return 0


def _cmd_prescribe(args, argv) -> int:
    from .abelian import prescribe_curvature
    from .fieldfile import write_field

    started = time.perf_counter()
    scalar = _load_field_argument(args, "scalar")
    cfg = _solver_config(args)
    metric, trace = prescribe_curvature(scalar, cfg, return_trace=True)
    write_field(args.out, metric.psi)
    if args.report:
        payload = _base_report(argv, cfg)
        payload["trace"] = trace.to_dict()
        payload["wall_clock_seconds"] = time.perf_counter() - started
        _write_report(args.report, payload)
    return 0


def _cmd_verify(args, argv) -> int:
    from .estimates import verify_solution

    started = time.perf_counter()
    P = _load_potential(args.phi)
    rhs = _load_field_argument(args, "rhs", grid=P.grid)
    outcome = verify_solution(P, rhs)
    payload = _base_report(argv)
    payload["verification"] = outcome.to_dict()
    payload["wall_clock_seconds"] = time.perf_counter() - started
    _write_report(args.report, payload)
    if not outcome.passed:
        failed = [c.name for c in outcome.bounds.inequalities if not c.satisfied]
        sys.stderr.write(f"verification failed: {', '.join(failed)}\n")
        return 3
    return 0


def _cmd_synth(args) -> int:
    from .fieldfile import write_field

    write_field(args.out, _eval_expression(args.expr, _grid_from_args(args)))
    return 0


def main(argv=None) -> int:
    _apply_thread_env()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    from .errors import (
        DimensionError,
        EvalError,
        FieldSyntaxError,
        FormatError,
        GradientInversionFailure,
        LinearSolveFailure,
        MeanNotZero,
        MonitorViolation,
        NotConvex,
        StepFloorReached,
    )

    try:
        if args.command == "solve":
            return _cmd_solve(args, argv)
        if args.command == "apply":
            return _cmd_apply(args)
        if args.command == "residual":
            return _cmd_residual(args)
        if args.command == "legendre":
            return _cmd_legendre(args)
        if args.command == "curvature":
            return _cmd_curvature(args)
        if args.command == "prescribe":
            return _cmd_prescribe(args, argv)
        if args.command == "verify":
            return _cmd_verify(args, argv)
        if args.command == "synth":
            return _cmd_synth(args)
        raise AssertionError(f"unhandled command {args.command}")
    except MeanNotZero as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (
        StepFloorReached,
        NotConvex,
        LinearSolveFailure,
        GradientInversionFailure,
        MonitorViolation,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (FormatError, FieldSyntaxError, DimensionError, EvalError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
