"""Output checks and failure classes.

Checks run after the timed loop and use only public names of the
package.  A failure class is one of

    mean_not_zero, not_convex, krylov, step_floor, check:<names>, other

where check:<names> lists the failed checks of a verify report, or names
the benchmark's own check that an exit-0 output failed.
"""

from __future__ import annotations

import json

# The round trip S -> metric -> S goes through two Legendre transforms;
# this is the bound the package's own round-trip tests use.
CURVATURE_ROUND_TRIP_BOUND = 1e-6

# Stderr text of each exit-3 error, as the CLI prints it (abreu.errors).
_EXIT3_CLASSES = (
    ("continuation step fell below the floor", "step_floor"),
    ("Krylov solve stagnated", "krylov"),
    ("Hessian not positive definite", "not_convex"),
    ("no admissible Newton damping", "not_convex"),
)


def classify(rc: int, stderr: str) -> str | None:
    """Failure class of a CLI exit, None for exit 0."""
    if rc == 0:
        return None
    if rc == 2:
        return "mean_not_zero"
    if rc == 3:
        for line in stderr.splitlines():
            if line.startswith("verification failed: "):
                names = line[len("verification failed: "):].split(", ")
                return "check:" + ",".join(names)
        for text, cls in _EXIT3_CLASSES:
            if text in stderr:
                return cls
    return "other"


def _sampled(expr: str, dim: int, resolution: int):
    from abreu.fieldlang import eval_field, parse
    from abreu.grid import make_grid

    return eval_field(parse(expr), make_grid(dim, resolution))


def solve_residual(expr: str, dim: int, resolution: int, phi_path) -> tuple[float, float]:
    """(sup|forward(phi) - A|, the solver's own acceptance bound).

    The bound is 10 * newton_tolerance * (1 + sup|A|): the solver accepts
    a residual within 10x of tolerance once Newton has stagnated.
    """
    from abreu.fieldfile import read_field
    from abreu.grid import project_mean_zero, sup_norm
    from abreu.potential import Potential, QuadraticBase, abreu_forward
    from abreu.solver import SolverConfig

    A = _sampled(expr, dim, resolution)
    phi = project_mean_zero(read_field(phi_path))
    P = Potential(QuadraticBase.identity(dim), phi)
    err = sup_norm(abreu_forward(P) - A)
    bound = 10.0 * SolverConfig().newton_tolerance * (1.0 + sup_norm(A))
    return err, bound


def curvature_round_trip(expr: str, dim: int, resolution: int, psi_path) -> float:
    """sup|S(metric) - S| with S(metric) sampled in symplectic coordinates."""
    from abreu.abelian import InvariantMetric, scalar_curvature_symplectic
    from abreu.fieldfile import read_field
    from abreu.grid import project_mean_zero, sup_norm

    S = _sampled(expr, dim, resolution)
    metric = InvariantMetric(project_mean_zero(read_field(psi_path)))
    return sup_norm(scalar_curvature_symplectic(metric) - S)


def check_output(kind: str, item: dict, rc: int, stderr: str, paths: dict) -> dict:
    """Check one op's output; returns {"class": str | None, "correct": bool, ...}.

    `correct` is False only when the program's output is wrong: an exit-0
    output that fails its check, or a verify report that contradicts its
    own exit code.  A classified error exit is a failure of the op, not a
    wrong output.
    """
    cls = classify(rc, stderr)
    if kind == "verify":
        return _check_verify(rc, stderr, cls, paths["report"])
    if rc != 0:
        return {"class": cls, "correct": True}
    if kind == "solve":
        err, bound = solve_residual(item["expr"], item["dim"], item["resolution"],
                                    paths["out"])
        ok = err <= bound
        return {"class": None if ok else "check:solve-residual", "correct": ok,
                "residual": err, "bound": bound}
    if kind == "prescribe":
        err = curvature_round_trip(item["expr"], item["dim"], item["resolution"],
                                   paths["out"])
        ok = err <= CURVATURE_ROUND_TRIP_BOUND
        return {"class": None if ok else "check:curvature-round-trip",
                "correct": ok, "residual": err,
                "bound": CURVATURE_ROUND_TRIP_BOUND}
    raise ValueError(f"no check for command {kind!r}")


def _check_verify(rc, stderr, cls, report_path) -> dict:
    if rc not in (0, 3):
        return {"class": cls, "correct": True}
    try:
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        verification = report["verification"]
        passed = verification["passed"]
        failed = [c["name"] for c in verification["bounds"]["inequalities"]
                  if not c["satisfied"]]
    except (OSError, ValueError, KeyError, TypeError):
        return {"class": cls or "check:report-missing", "correct": False}
    consistent = passed == (not failed) and (rc == 0) == passed
    if consistent and not passed:
        consistent = cls == "check:" + ",".join(failed)
    if not consistent:
        return {"class": "check:report-inconsistent", "correct": False,
                "failed_checks": failed}
    return {"class": cls, "correct": True, "failed_checks": failed}
