"""Median microseconds per Newton step, or milliseconds per CLI op, of
package sources, side by side.

    python3 tools/step_cost.py --src src --src ../parent/src
    python3 tools/step_cost.py --src src --rounds 15
    python3 tools/step_cost.py --src src --src ../parent/src --ops prescribe-3d
    python3 tools/step_cost.py --src src --src ../parent/src --ops solve-2d --seed 7

Each `--src DIR` names a source tree holding `abreu/`.  Each tree is loaded
as a package of its own (`abreu_src0`, `abreu_src1`, ...) in this one
process, which works because the package's modules import one another
only relatively; so the trees share the interpreter, the BLAS (one thread,
set before numpy is imported) and the machine's state while they run.

The inputs are the benchmark's workload pools (`perfbench/workloads.py`)
of the seed `--seed`, 1 by default, so that a claim made on one seed can
be checked again on another.  By default the tool times Newton steps at the
sizes in `CASES`: 1D N = 256, 512 and 1024 of `solve-1d-ladder`, whose
solves end at the step floor, 2D 64^2 of `solve-2d`, and 3D 16^3 of
`prescribe-3d`, whose curvature fields serve as right-hand sides, so that
the 3x3 kernels (the eigenvalue screen, the congruence weights) are timed
too.  Each tree builds the fields with its own `fieldlang` and solves
them with its own `continuity_solve`, failures included.  A first,
untimed pass counts each size's Newton steps, the calls of the tree's
`solver.newton_step`, by wrapping the module binding the package calls
through, and a second the fields built in the Newton iterations, per
step: the `ScalarField`, `SymMatrixField` and `Potential` instances (the
calls of each class's `__post_init__`) made while the tree's
`solver._newton_solve` runs, which takes an attempt's start and returns
its last iterate ("-" for a tree without the class).  With `--ops
WORKLOAD` it times that workload's CLI ops instead, each tree's `cli.main`
on the op's arguments as the benchmark makes them (`perfbench/child.py`),
set-up files in a temporary directory per tree, after a first, untimed
pass that counts each tree's Newton steps per op and the Krylov applies
per op, read from the records those steps return
(`record.correction.applies`; "-" for a tree whose records carry no
correction), and a second that counts its off-grid interpolation per op: the calls of
`grid.TrigInterpolant.partials`, the multi-field passes of
`grid.interpolate_fields` ("-" for a tree without it) and the points
both were asked for, and a third that counts the work of its gradient-map
inversions per op: the points whose Hessian a run of `legendre._newton`
refreshed (its `Potential.hessian_at` calls) and the points it evaluated
after its first sweep (its `Potential.phi_and_gradient_at` calls but the
first; "-" for a tree without these), so that a change in time can be
traced to a change in interpolation work.

Every round runs each input once per tree, the trees in turn (in reverse
order every other round), so that a slow spell of the host falls on all
trees alike; a tree's cost in a round is its time over its step count, or
over the pool's op count.  The tool prints one line per size (or the
workload) and tree: the steps (or ops) per round, the median cost over the
rounds, then the fields built per step (with `--ops`, the Newton steps,
Krylov applies, interpolation and inversion work per op), and the median
over the rounds of its cost over the first tree's.

In-process trees share one heap, and with it the allocator's state: an
array one tree frees can be the one the next tree's call reuses without a
page fault.  So a change in how much memory a call allocates can read
differently here than in the benchmark, where every tree runs in a
process of its own; judge such a change by alternating
`perfbench/run.py` runs of the two trees, not by this ratio.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from output_digest import ROOT, counting_steps, total  # noqa: E402  (puts perfbench/ on the path)
from child import Workload, call  # noqa: E402
from run import THREAD_ENV  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

#: (class, module) of each field type whose constructions are counted.
FIELD_CLASSES = [("ScalarField", "grid"), ("SymMatrixField", "grid"),
                 ("Potential", "potential")]

#: (label, workload, resolution): each size times the seed-1 inputs of the
#: workload's pool on that resolution.
CASES = [
    ("1D N=256", "solve-1d-ladder", 256),
    ("1D N=512", "solve-1d-ladder", 512),
    ("1D N=1024", "solve-1d-ladder", 1024),
    ("2D 64^2", "solve-2d", 64),
    ("3D 16^3", "prescribe-3d", 16),
]


def load_tree(src: Path, index: int):
    """The package `src/abreu` imported under the name `abreu_src<index>`."""
    name = f"abreu_src{index}"
    init = (src / "abreu" / "__init__.py").resolve()
    if not init.is_file():
        raise SystemExit(f"error: no package at {init.parent}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Case:
    """One size's fields on one tree, with the tree's solve."""

    def __init__(self, package, workload: str, resolution: int, seed: int):
        self.package = package
        self.solver = importlib.import_module(package.__name__ + ".solver")
        self.error = importlib.import_module(package.__name__ + ".errors").AbreuError
        items = [item for item in make_inputs(workload, seed)
                 if item["resolution"] == resolution]
        self.fields = []
        for item in items:
            grid = package.make_grid(item["dim"], item["resolution"])
            self.fields.append(package.eval_field(package.parse(item["expr"]), grid))

    def run(self, i: int) -> float:
        """Seconds to solve field i, a failed solve included."""
        start = time.perf_counter()
        try:
            self.solver.continuity_solve(self.fields[i])
        except self.error:
            pass
        return time.perf_counter() - start


class Ops:
    """One workload's CLI ops on one tree, its files in `workdir`."""

    def __init__(self, package, workload: str, seed: int, workdir: str):
        self.package = package
        self.solver = importlib.import_module(package.__name__ + ".solver")
        self.cli = importlib.import_module(package.__name__ + ".cli")
        self.grid = importlib.import_module(package.__name__ + ".grid")
        ops = Workload(workload, seed, workdir)
        ops.prepare(self.cli)
        self.argvs = [ops.op(item)[0] for item in ops.pool]

    def run(self, i: int) -> float:
        """Seconds of op i, a failed op included."""
        return call(self.cli, self.argvs[i])[1]


def count_work(case, count: int) -> tuple[int, int | None]:
    """Newton steps and Krylov applies while inputs 0..count-1 run once,
    untimed: the calls of the case's tree's `solver.newton_step`, through
    the module binding the package calls, and the applies summed over the
    records they return (`output_digest.counting_steps`; None for a tree
    whose records carry none)."""
    with counting_steps(case.solver) as applies:
        for i in range(count):
            case.run(i)
    return len(applies), total(applies)


def count_fields(case, count: int) -> list[int | None]:
    """Per class of `FIELD_CLASSES`, the instances built while the case's
    tree runs its `solver._newton_solve`, the Newton iteration of an
    attempt (through the module binding the package calls), counted at the
    class's `__post_init__`, while inputs 0..count-1 run once, untimed;
    None for a class the tree lacks."""
    classes = [getattr(importlib.import_module(f"{case.package.__name__}.{module}"), name, None)
               for name, module in FIELD_CLASSES]
    built, active = [0] * len(classes), [0]
    iterate = case.solver._newton_solve

    def counted_iteration(*args, **kwargs):
        active[0] += 1
        try:
            return iterate(*args, **kwargs)
        finally:
            active[0] -= 1

    def counting(k, post_init):
        def counted(self):
            built[k] += active[0] > 0
            post_init(self)
        return counted

    posts = [None if cls is None else cls.__dict__["__post_init__"] for cls in classes]
    case.solver._newton_solve = counted_iteration
    for k, (cls, post_init) in enumerate(zip(classes, posts)):
        if cls is not None:
            cls.__post_init__ = counting(k, post_init)
    try:
        for i in range(count):
            case.run(i)
    finally:
        case.solver._newton_solve = iterate
        for cls, post_init in zip(classes, posts):
            if cls is not None:
                cls.__post_init__ = post_init
    return [None if cls is None else n for cls, n in zip(classes, built)]


def _rebind(package, original, replacement) -> list:
    """Point every module-level binding of `original` in the package's
    modules at `replacement`; returns the (module, name) pairs changed."""
    prefix = package.__name__
    changed = [(module, name) for key, module in list(sys.modules.items())
               if module is not None and (key == prefix or key.startswith(prefix + "."))
               for name, value in list(vars(module).items()) if value is original]
    for module, name in changed:
        setattr(module, name, replacement)
    return changed


def count_interpolation(case, count: int) -> tuple[int, int | None, int]:
    """Calls of the tree's `TrigInterpolant.partials`, passes of its
    `interpolate_fields` (None for a tree without it) and the points both
    were given, while inputs 0..count-1 run once, untimed."""
    interpolant = case.grid.TrigInterpolant
    partials = interpolant.partials
    together = getattr(case.grid, "interpolate_fields", None)
    calls, passes, points = [0], [0], [0]

    def counted_partials(self, pts, orders):
        calls[0] += 1
        points[0] += len(self.grid.check_points(pts))
        return partials(self, pts, orders)

    def counted_together(fields, pts):
        passes[0] += 1
        points[0] += len(fields[0].grid.check_points(pts))
        return together(fields, pts)

    interpolant.partials = counted_partials
    changed = [] if together is None else _rebind(case.package, together, counted_together)
    try:
        for i in range(count):
            case.run(i)
    finally:
        interpolant.partials = partials
        for module, name in changed:
            setattr(module, name, together)
    return calls[0], None if together is None else passes[0], points[0]


def count_inversion(case, count: int) -> tuple[int | None, int | None]:
    """Points whose Hessian the tree's gradient-map inversions refreshed
    and points they evaluated after each run's first sweep, while inputs
    0..count-1 run once, untimed: the points of the `Potential.hessian_at`
    calls, and of the `Potential.phi_and_gradient_at` calls but the first,
    made while a run of `legendre._newton` is active; (None, None) for a
    tree without these."""
    legendre = importlib.import_module(case.package.__name__ + ".legendre")
    potential = importlib.import_module(case.package.__name__ + ".potential").Potential
    newton = getattr(legendre, "_newton", None)
    values = getattr(potential, "phi_and_gradient_at", None)
    if newton is None or values is None:
        return None, None
    hessian = potential.hessian_at
    sweeps, refreshed, later = [], [0], [0]  # sweeps: per active run

    def counted_newton(*args, **kwargs):
        sweeps.append(0)
        try:
            return newton(*args, **kwargs)
        finally:
            sweeps.pop()

    def counted_values(self, x):
        if sweeps:
            later[0] += len(x) if sweeps[-1] else 0
            sweeps[-1] += 1
        return values(self, x)

    def counted_hessian(self, x):
        refreshed[0] += len(x) if sweeps else 0
        return hessian(self, x)

    legendre._newton = counted_newton
    potential.phi_and_gradient_at, potential.hessian_at = counted_values, counted_hessian
    try:
        for i in range(count):
            case.run(i)
    finally:
        legendre._newton = newton
        potential.phi_and_gradient_at, potential.hessian_at = values, hessian
    return refreshed[0], later[0]


def interleaved(cases: list, count: int, rounds: int) -> list[list[float]]:
    """Per case, its seconds in each round: every round runs inputs
    0..count-1 once per case, the cases in turn, in reverse order every
    other round."""
    seconds = [[] for _ in cases]
    for r in range(rounds):
        order = list(range(len(cases)))[:: 1 if r % 2 == 0 else -1]
        total = [0.0] * len(cases)
        for i in range(count):
            for k in order:
                total[k] += cases[k].run(i)
        for per_round, t in zip(seconds, total):
            per_round.append(t)
    return seconds


def _rows(label: str, srcs: list[Path], counts: list[int], seconds: list[list[float]],
          scale: float) -> list[tuple[str, Path, int, float, float]]:
    """(label, tree, count, median cost, median ratio to the first tree) per
    tree, the cost of a round being its seconds times `scale` over count."""
    costs = [[t * scale / n for t in per_round] for per_round, n in zip(seconds, counts)]
    return [(label, src, n, statistics.median(cost),
             statistics.median(c / c0 for c, c0 in zip(cost, costs[0])))
            for src, n, cost in zip(srcs, counts, costs)]


def step_costs(srcs: list[Path], rounds: int, seed: int) -> list[tuple]:
    """(size, tree, steps, median microseconds per step, median ratio to
    the first tree, fields built per step of each of `FIELD_CLASSES`, None
    for a class the tree lacks) per size and tree."""
    packages = [load_tree(src, index) for index, src in enumerate(srcs)]
    table = []
    for label, workload, resolution in CASES:
        cases = [Case(package, workload, resolution, seed) for package in packages]
        steps = [count_work(case, len(case.fields))[0] for case in cases]
        if 0 in steps:
            raise SystemExit(f"error: {label} made no Newton step")
        built = [count_fields(case, len(case.fields)) for case in cases]
        seconds = interleaved(cases, len(cases[0].fields), rounds)
        table += [row + (tuple(None if b is None else b / n for b in counts),)
                  for row, n, counts in zip(_rows(label, srcs, steps, seconds, 1e6),
                                            steps, built)]
    return table


def op_costs(srcs: list[Path], workload: str, rounds: int, seed: int
             ) -> tuple[list[tuple[str, Path, int, float, float]], list[tuple]]:
    """(workload, tree, ops per round, median milliseconds per op, median
    ratio to the first tree) per tree, and each tree's work per op: Newton
    steps, Krylov applies (None where its records carry no applies),
    `partials` calls, `interpolate_fields` passes (None where the tree has
    none), the points they interpolated, and the inversions' refreshed
    points and points after their first sweep (None where the tree has no
    such inversion)."""
    packages = [load_tree(src, index) for index, src in enumerate(srcs)]
    with ExitStack() as stack:
        cases = [Ops(package, workload, seed,
                     stack.enter_context(tempfile.TemporaryDirectory()))
                 for package in packages]
        count = len(cases[0].argvs)
        work = [count_work(case, count) + count_interpolation(case, count)
                + count_inversion(case, count) for case in cases]
        seconds = interleaved(cases, count, rounds)
    per_op = [tuple(None if n is None else n / count for n in counts) for counts in work]
    return _rows(workload, srcs, [count] * len(cases), seconds, 1e3), per_op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="a package source holding abreu/ (repeat to compare)")
    parser.add_argument("--rounds", type=int, default=7,
                        help="timed rounds per size and tree (default 7)")
    parser.add_argument("--ops", choices=sorted(WORKLOADS),
                        help="time this workload's CLI ops instead of Newton steps")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the workload pools (default 1)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    if args.ops is None:
        table = step_costs(args.src, args.rounds, args.seed)
        print(f"{'size':<10} {'steps':>6} {'us/step':>9} {'scalar':>7} {'matrix':>7}"
              f" {'potential':>9} {'ratio':>6}  src")
        for label, src, count, cost, ratio, built in table:
            scalar, matrix, potential = ("-" if n is None else f"{n:.2f}" for n in built)
            print(f"{label:<10} {count:>6} {cost:>9.1f} {scalar:>7} {matrix:>7}"
                  f" {potential:>9} {ratio:>6.3f}  {src}")
    else:
        table, work = op_costs(args.src, args.ops, args.rounds, args.seed)
        print(f"{'workload':<10} {'ops':>6} {'ms/op':>9} {'steps/op':>9} {'krylov/op':>9}"
              f" {'interp/op':>9} {'passes/op':>9} {'points/op':>9} {'refresh/op':>10}"
              f" {'after/op':>9} {'ratio':>6}  src")
        for (label, src, count, cost, ratio), per_op in zip(table, work):
            steps, krylov, calls, passes, points, refreshed, after = (
                "-" if n is None else f"{n:.2f}" for n in per_op)
            print(f"{label:<10} {count:>6} {cost:>9.1f} {steps:>9} {krylov:>9}"
                  f" {calls:>9} {passes:>9} {points:>9} {refreshed:>10} {after:>9}"
                  f" {ratio:>6.3f}  {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
