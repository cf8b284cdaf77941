"""Spans and counters recorded from outside the package.

The tracer replaces public functions of each layer with wrappers that
record a span (name, start, end, parent, op id) and update counters.
Modules bind names at import (`from .grid import hessian`), so every
module-level binding of a wrapped function is replaced, not only the one
in the defining module.  `install` and `uninstall` bracket the traced
ops; outside them the package runs untouched.

Two counters need names outside the public API: Krylov applies (through
`abreu.solver._pcg`, else the `_linearized_operator` closure) and
`numpy.linalg.eigvalsh` calls.  When such a name is gone the counter is
reported as None with the reason; nothing raises.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

# Layer -> public functions that get a span, `<layer>.<function>.calls`
# and `<layer>.<function>.self_s`.
FUNCTIONS = {
    "grid": ["hessian", "second_divergence", "gradient", "TrigInterpolant.evaluate"],
    "potential": ["hessian_u", "inverse_hessian", "det_hessian", "convexity_margin",
                  "abreu_forward", "cofactor", "divergence_form_residual"],
    "solver": ["continuity_solve", "newton_step", "functional_value"],
    "legendre": ["gradient_map_inverse", "legendre_transform", "pullback_rhs",
                 "dual_residual"],
    "estimates": ["verify_solution", "upper_bound_monitor", "lower_bound_monitor",
                  "c0_c1_report", "eigenvalue_bounds"],
    "abelian": ["prescribe_curvature"],
    "fieldlang": ["parse", "eval_field"],
    "fieldfile": ["read_field", "write_field"],
    "cli": ["main"],
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns]

# Counters that a wrapped function's hook reads from its arguments or result.
HOOK_COUNTERS = {
    "grid.TrigInterpolant.evaluate": ["grid.interp.points", "grid.interp.work"],
    "potential.hessian_u": ["potential.hessian_u.recompute_ratio"],
    "legendre.gradient_map_inverse": ["legendre.inverse_points",
                                      "legendre.inversions_per_potential"],
    "fieldfile.read_field": ["fieldfile.bytes_read"],
    "fieldfile.write_field": ["fieldfile.bytes_written"],
    "solver.continuity_solve": ["solver.steps_accepted", "solver.newton_iters_accepted",
                                "solver.newton_useful_ratio", "solver.cert_ratio_max"],
}


def self_times(spans) -> dict:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.  Spans are (id, parent, op, name, start,
    end) tuples; children may nest to any depth.
    """
    children = defaultdict(list)
    for sid, parent, _op, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(float)
    for sid, _parent, _op, name, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[sid]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] += (end - start) - covered
    return dict(out)


def _perturbation_key(P) -> int:
    return hash((P.perturbation.values.tobytes(), P.base.matrix.tobytes()))


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """In-memory spans and counters for the traced part of a run."""

    # Where Krylov applies can be counted, in order of preference: the
    # operator passed as first argument to the PCG solve, or the operator
    # closure returned by the linearization.
    KRYLOV_HOOKS = (("_pcg", "argument"), ("_linearized_operator", "result"))

    def __init__(self):
        self.spans: list = []
        self.op = None
        self.counters = Counter()
        self.cert_ratio_max = 0.0
        self.unavailable: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list = []
        self._hessian_keys: set = set()
        self._inversion_keys: set = set()

    # -- ops ---------------------------------------------------------------

    def start_op(self, op_id) -> None:
        self.op = op_id
        self._hessian_keys = set()
        self._inversion_keys = set()

    def end_op(self) -> None:
        self.counters["distinct_hessian_potentials"] += len(self._hessian_keys)
        self.counters["distinct_inverted_potentials"] += len(self._inversion_keys)
        self.op = None

    # -- patching ----------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        tracer = self

        def hook(function, *hook_args):
            # a counter that cannot read its arguments any more is reported
            # as unavailable; the traced op itself must never fail
            try:
                function(*hook_args)
            except Exception as exc:
                for key in HOOK_COUNTERS[name]:
                    tracer.unavailable.setdefault(key, f"{name} hook failed: {exc!r}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                hook(before, args, kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, parent, tracer.op, name, start, end)
            if after is not None:
                hook(after, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, counter, fn, size=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters[counter + ".calls"] += 1
            if size is not None:
                tracer.counters[counter + ".points"] += size(args)
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, replacement) -> None:
        """Replace every module-level binding of `original` in the package."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "abreu" or mod_name.startswith("abreu.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _set(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import importlib

        import numpy

        for layer, fns in FUNCTIONS.items():
            module = importlib.import_module(f"abreu.{layer}")
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                owner_name, _, attr = fn_name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.unavailable[name] = f"abreu.{name} not found"
                    continue
                before, after = self._hooks(name, original)
                wrapped = self._span(name, original, before, after)
                if owner_name:
                    self._set(owner, attr, wrapped)
                else:
                    self._rebind(original, wrapped)

        for fn_name in ("fftn", "ifftn"):
            self._set(numpy.fft, fn_name, self._counted(
                "grid.fft", getattr(numpy.fft, fn_name),
                size=lambda args: numpy.asarray(args[0]).size))
        if hasattr(numpy.linalg, "eigvalsh"):
            original = numpy.linalg.eigvalsh
            wrapped = self._counted("potential.eigvalsh", original)
            self._set(numpy.linalg, "eigvalsh", wrapped)
            self._rebind(original, wrapped)
        else:
            self.unavailable["potential.eigvalsh.calls"] = "numpy.linalg.eigvalsh not found"
        self._install_krylov_hook()

    def _install_krylov_hook(self) -> None:
        from abreu import solver

        tracer = self

        def counting(apply_op):
            if not callable(apply_op):
                tracer.unavailable["solver.krylov_applies"] = (
                    "operator argument of the Krylov hook is not callable")
                return apply_op

            def apply(*a, **k):
                tracer.counters["solver.krylov_applies"] += 1
                return apply_op(*a, **k)

            return apply

        for name, mode in self.KRYLOV_HOOKS:
            target = getattr(solver, name, None)
            if target is not None:
                break
        else:
            names = " nor ".join(f"abreu.solver.{name}" for name, _ in self.KRYLOV_HOOKS)
            self.unavailable["solver.krylov_applies"] = f"neither {names} exists"
            return

        @functools.wraps(target)
        def hooked(*args, **kwargs):
            if mode == "argument":
                return target(counting(args[0]), *args[1:], **kwargs)
            return counting(target(*args, **kwargs))

        self._rebind(target, hooked)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters at layer boundaries --------------------------------------

    def _hooks(self, name, original):
        c = self.counters
        if name == "grid.TrigInterpolant.evaluate":
            def before(args, kwargs):
                import numpy

                pts = numpy.atleast_2d(numpy.asarray(args[1] if len(args) > 1
                                                     else kwargs["points"]))
                c["grid.interp.points"] += pts.shape[0]
                c["grid.interp.work"] += pts.shape[0] * args[0].grid.node_count
            return before, None
        if name == "potential.hessian_u":
            def before(args, kwargs):
                self._hessian_keys.add(_perturbation_key(args[0]))
            return before, None
        if name == "legendre.gradient_map_inverse":
            def before(args, kwargs):
                import numpy

                pts = numpy.atleast_2d(numpy.asarray(args[1]))
                c["legendre.inverse_points"] += pts.shape[0]
                self._inversion_keys.add(_perturbation_key(args[0]))
            return before, None
        if name == "fieldfile.read_field":
            def before(args, kwargs):
                c["fieldfile.bytes_read"] += os.path.getsize(args[0])
            return before, None
        if name == "fieldfile.write_field":
            def after(args, kwargs, result):
                c["fieldfile.bytes_written"] += os.path.getsize(args[0])
            return None, after
        if name == "solver.continuity_solve":
            signature = inspect.signature(original)

            def after(args, kwargs, result):
                self._count_solve(signature.bind(*args, **kwargs).arguments, result)
            return None, after
        return None, None

    def _count_solve(self, arguments, result) -> None:
        from abreu.grid import sup_norm
        from abreu.solver import SolverConfig

        steps = result[1].steps
        cfg = arguments.get("cfg") or SolverConfig()
        sup_a = sup_norm(arguments["A"])
        self.counters["solver.steps_accepted"] += len(steps)
        for step in steps:
            self.counters["solver.newton_iters_accepted"] += step.newton_iterations
            tolerance = cfg.newton_tolerance * (1.0 + step.t * sup_a)
            self.cert_ratio_max = max(self.cert_ratio_max,
                                      step.final_residual_norm / tolerance)

    # -- per-layer metrics -------------------------------------------------

    def metrics(self, n_ops: int) -> dict:
        """Per-op means of calls, self time and counts; ratios over totals.

        A ratio whose denominator is 0 (the layer was not used) is 0.
        """
        calls = Counter(span[3] for span in self.spans)
        selfs = self_times(self.spans)
        c = self.counters
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_s"] = selfs.get(name, 0.0) / n_ops
        for key in ("grid.interp.points", "grid.interp.work", "grid.fft.calls",
                    "grid.fft.points", "potential.eigvalsh.calls",
                    "solver.steps_accepted", "solver.newton_iters_accepted",
                    "solver.krylov_applies", "legendre.inverse_points",
                    "fieldfile.bytes_read", "fieldfile.bytes_written"):
            out[key] = c[key] / n_ops
        newton_calls = calls["solver.newton_step"]
        out["potential.hessian_u.recompute_ratio"] = _ratio(
            calls["potential.hessian_u"], c["distinct_hessian_potentials"])
        out["solver.newton_useful_ratio"] = _ratio(
            c["solver.newton_iters_accepted"], newton_calls)
        out["solver.krylov_per_newton"] = _ratio(c["solver.krylov_applies"], newton_calls)
        out["solver.cert_ratio_max"] = self.cert_ratio_max
        out["legendre.inversions_per_potential"] = _ratio(
            calls["legendre.gradient_map_inverse"], c["distinct_inverted_potentials"])
        if "solver.krylov_applies" not in self.unavailable and newton_calls and not c[
                "solver.krylov_applies"]:
            self.unavailable["solver.krylov_applies"] = (
                "Krylov hook installed but never reached by newton_step")
        if "solver.krylov_applies" in self.unavailable:
            self.unavailable["solver.krylov_per_newton"] = self.unavailable[
                "solver.krylov_applies"]
        for name, reason in self.unavailable.items():
            for key in (name, f"{name}.calls", f"{name}.self_s"):
                if key in out:
                    out[key] = None
        return out

    def span_records(self):
        """Spans as dicts, for writing out at the end of the run."""
        return [
            {"id": sid, "parent": parent, "op": op, "name": name,
             "start": start, "end": end}
            for sid, parent, op, name, start, end in self.spans
        ]
