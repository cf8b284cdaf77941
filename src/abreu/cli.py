"""Command-line surface: reproducible batch workflows over field files.

Subcommands: solve, apply, residual, legendre, curvature, prescribe,
verify, synth; each subparser names its `_cmd_*` function, which takes
(args, argv).  Exit codes: 0 success, 1 I/O or parse errors, 2 zero-mean
violation of the right-hand side, 3 solver or monitor failure
(`_EXIT_CODES`).  BLAS/FFT threads follow the standard variables
(`OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS`), which must be set before
the process starts.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict

from . import __version__
from .abelian import (
    InvariantMetric,
    prescribe_curvature,
    scalar_curvature,
    scalar_curvature_symplectic,
)
from .errors import (
    AbreuError,
    GradientInversionFailure,
    LinearSolveFailure,
    MeanNotZero,
    MonitorViolation,
    NotConvex,
    StepFloorReached,
)
from .estimates import c0_c1_report, eigenvalue_bounds, verify_solution
from .fieldfile import atomic_write, read_field, write_field
from .fieldlang import eval_field, parse
from .grid import make_grid, mean, periodicity_defect, project_mean_zero
from .legendre import legendre_transform
from .potential import (
    Potential,
    QuadraticBase,
    abreu_forward,
    divergence_form_residual,
)
from .solver import SolverConfig, continuity_solve

# first match wins, so subclasses come before AbreuError
_EXIT_CODES = {
    MeanNotZero: 2,
    StepFloorReached: 3,
    NotConvex: 3,
    LinearSolveFailure: 3,
    GradientInversionFailure: 3,
    MonitorViolation: 3,
    AbreuError: 1,
    OSError: 1,
    ValueError: 1,
}


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool
    # reserves for zero-mean violations; remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


# built once per process; parse_args keeps no state between calls
@functools.cache
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

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    def add_grid_flags(p):
        p.add_argument("--dim", type=int, help="grid dimension n")
        p.add_argument(
            "--resolution",
            help="per-axis node counts, comma separated (e.g. 64 or 64,64)",
        )

    def add_rhs_flags(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--rhs", help="right-hand side field file")
        group.add_argument("--expr", help="right-hand side field expression")

    p = command("solve", _cmd_solve, "Newton solve of the fourth-order equation")
    add_grid_flags(p)
    add_rhs_flags(p)
    p.add_argument("--project-mean", action="store_true",
                   help="project the right-hand side to zero mean instead of failing")
    p.add_argument("--out", required=True, help="output perturbation field file")
    p.add_argument("--report", help="write a JSON run report here")
    p.add_argument("--tol", type=float, help="Newton residual sup-norm tolerance")

    p = command("apply", _cmd_apply, "forward fourth-order operator of a potential")
    p.add_argument("--phi", required=True, help="perturbation field file")
    p.add_argument("--out", required=True)

    p = command("residual", _cmd_residual, "divergence-form residual of a candidate")
    p.add_argument("--phi", required=True)
    add_rhs_flags(p)
    p.add_argument("--out", required=True)

    p = command("legendre", _cmd_legendre, "Legendre transform of a potential")
    p.add_argument("--phi", required=True)
    p.add_argument("--out", required=True, help="dual perturbation field file")

    p = command("curvature", _cmd_curvature, "scalar curvature of an invariant metric")
    p.add_argument("--psi", required=True, help="metric perturbation field file")
    p.add_argument("--out", required=True)
    p.add_argument("--symplectic", action="store_true",
                   help="sample in symplectic coordinates (plain mean zero)")

    p = command("prescribe", _cmd_prescribe, "metric with prescribed scalar curvature")
    add_grid_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scalar", help="curvature field file (symplectic sampling)")
    group.add_argument("--expr", help="curvature field expression")
    p.add_argument("--out", required=True, help="output metric perturbation file")
    p.add_argument("--report", help="write a JSON run report here")
    p.add_argument("--tol", type=float)

    p = command("verify", _cmd_verify, "run the full estimate and duality suite")
    p.add_argument("--phi", required=True)
    add_rhs_flags(p)
    p.add_argument("--report", required=True, help="JSON verification report")

    p = command("synth", _cmd_synth, "sample a field expression to a file")
    add_grid_flags(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--out", required=True)
    return parser


def _parse_resolution(text: str, dim: int) -> tuple[int, ...]:
    """Per-axis node counts of --resolution; a single value holds for all
    `dim` axes."""
    try:
        resolution = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse resolution {text!r}") from None
    return resolution * dim if len(resolution) == 1 else resolution


def _grid_from_args(args):
    if args.dim is None or args.resolution is None:
        raise ValueError("--dim and --resolution are required with --expr")
    return make_grid(args.dim, _parse_resolution(args.resolution, args.dim))


def _eval_expression(text, grid):
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
    path = getattr(args, file_attr, None)
    dim = getattr(args, "dim", None)
    resolution = getattr(args, "resolution", None)
    if path is not None:
        fld = read_field(path)
        if dim is not None and dim != fld.grid.dim:
            raise ValueError(f"--dim {dim} contradicts {path} (dim {fld.grid.dim})")
        res = None if resolution is None else _parse_resolution(resolution, fld.grid.dim)
        if res is not None and res != fld.grid.resolution:
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
    phi = project_mean_zero(read_field(path))
    return Potential(QuadraticBase.identity(phi.grid.dim), phi)


def _solver_config(args):
    if args.tol is None:
        return SolverConfig()
    return SolverConfig(newton_tolerance=args.tol)


def _write_report(path, argv, started, cfg=None, **sections) -> None:
    """JSON run report: the header, the solver config when given, the
    `sections` and the wall clock since `started` (a perf_counter time)."""
    payload = {"schema_version": 3, "tool_version": __version__, "command": list(argv)}
    if cfg is not None:
        payload["config"] = asdict(cfg)
    payload.update(sections)
    payload["wall_clock_seconds"] = time.perf_counter() - started

    def write(handle):
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    atomic_write(path, write, binary=False)


def _solution_bounds(potential) -> dict:
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
    started = time.perf_counter()
    rhs = _load_field_argument(args, "rhs")
    if not rhs.mean_zero:
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
        # the last step is at t = 1, where the target is A itself
        final_sup = trace.steps[-1].final_residual_norm
        _write_report(args.report, argv, started, cfg, trace=trace.to_dict(),
                      bounds=_solution_bounds(potential),
                      residual_norms={"final_sup": final_sup})
    return 0


def _cmd_apply(args, argv) -> int:
    write_field(args.out, abreu_forward(_load_potential(args.phi)))
    return 0


def _cmd_residual(args, argv) -> int:
    P = _load_potential(args.phi)
    rhs = _load_field_argument(args, "rhs", grid=P.grid)
    rhs.require_mean_zero()
    write_field(args.out, divergence_form_residual(P, rhs))
    return 0


def _cmd_legendre(args, argv) -> int:
    dual = legendre_transform(_load_potential(args.phi))
    write_field(args.out, dual.perturbation)
    return 0


def _cmd_curvature(args, argv) -> int:
    metric = InvariantMetric(project_mean_zero(read_field(args.psi)))
    if args.symplectic:
        out = scalar_curvature_symplectic(metric)
    else:
        out = scalar_curvature(metric)
    write_field(args.out, out)
    return 0


def _cmd_prescribe(args, argv) -> int:
    started = time.perf_counter()
    scalar = _load_field_argument(args, "scalar")
    cfg = _solver_config(args)
    metric, trace = prescribe_curvature(scalar, cfg)
    write_field(args.out, metric.psi)
    if args.report:
        _write_report(args.report, argv, started, cfg, trace=trace.to_dict())
    return 0


def _cmd_verify(args, argv) -> int:
    started = time.perf_counter()
    P = _load_potential(args.phi)
    rhs = _load_field_argument(args, "rhs", grid=P.grid)
    outcome = verify_solution(P, rhs)
    _write_report(args.report, argv, started, verification=outcome.to_dict())
    if not outcome.passed:
        failed = [c.name for c in outcome.bounds.inequalities if not c.satisfied]
        sys.stderr.write(f"verification failed: {', '.join(failed)}\n")
        return 3
    return 0


def _cmd_synth(args, argv) -> int:
    write_field(args.out, _eval_expression(args.expr, _grid_from_args(args)))
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args, argv)
    except tuple(_EXIT_CODES) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
