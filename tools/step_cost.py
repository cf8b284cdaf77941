"""Median microseconds per Newton step of package sources, side by side.

    python3 tools/step_cost.py --src src --src ../parent/src
    python3 tools/step_cost.py --src src --rounds 15

Each `--src DIR` names a source tree holding `abreu/`.  Each tree is loaded
as a package of its own (`abreu_src0`, `abreu_src1`, ...) in this one
process, which works because the package's modules import one another
only relatively; so the trees share the interpreter, the BLAS (one thread,
set before numpy is imported) and the machine's state while they run.

The inputs are the seed-1 pools of the benchmark's workloads
(`perfbench/workloads.py`) at the sizes in `CASES`: 1D N = 256, 512 and
1024 of `solve-1d-ladder`, whose solves end at the step floor, and 2D 64^2
of `solve-2d`.  Each tree builds the fields with its own `fieldlang` and
solves them with its own `continuity_solve`, failures included.  A first,
untimed pass counts each size's Newton steps, the calls of the tree's
`solver.newton_step`, with `tools/output_digest.py`'s wrapper of the
module binding the package calls through.  Then every round solves
each input once per tree, the trees in turn (in reverse order every
other round), so that a slow spell of the host falls on all trees alike;
a tree's cost in a round is its solve time over its step count.  The tool
prints one line per size and tree: the steps, the median microseconds
per step over the rounds, and the median over the rounds of its cost
over the first tree's.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from output_digest import ROOT, counting  # noqa: E402  (puts perfbench/ on the path)
from run import THREAD_ENV  # noqa: E402
from workloads import make_inputs  # noqa: E402

#: (label, workload, resolution): each size times the seed-1 inputs of the
#: workload's pool on that resolution.
CASES = [
    ("1D N=256", "solve-1d-ladder", 256),
    ("1D N=512", "solve-1d-ladder", 512),
    ("1D N=1024", "solve-1d-ladder", 1024),
    ("2D 64^2", "solve-2d", 64),
]

SEED = 1


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

    def __init__(self, package, workload: str, resolution: int):
        self.solver = importlib.import_module(package.__name__ + ".solver")
        self.error = importlib.import_module(package.__name__ + ".errors").AbreuError
        items = [item for item in make_inputs(workload, SEED)
                 if item["resolution"] == resolution]
        self.fields = []
        for item in items:
            grid = package.make_grid(item["dim"], item["resolution"])
            self.fields.append(package.eval_field(package.parse(item["expr"]), grid))

    def solve(self, field) -> float:
        """Seconds to solve one field, a failed solve included."""
        start = time.perf_counter()
        try:
            self.solver.continuity_solve(field)
        except self.error:
            pass
        return time.perf_counter() - start

    def count_steps(self) -> int:
        with counting(self.solver, "newton_step") as calls:
            for field in self.fields:
                self.solve(field)
        return calls[0]


def step_costs(srcs: list[Path], rounds: int) -> list[tuple[str, Path, int, float, float]]:
    """(size, tree, steps, median microseconds per step, median ratio to
    the first tree) per size and tree."""
    packages = [load_tree(src, index) for index, src in enumerate(srcs)]
    table = []
    for label, workload, resolution in CASES:
        cases = [Case(package, workload, resolution) for package in packages]
        steps = [case.count_steps() for case in cases]
        if 0 in steps:
            raise SystemExit(f"error: {label} made no Newton step")
        costs = [[] for _ in cases]
        for r in range(rounds):
            seconds = [0.0] * len(cases)
            order = list(range(len(cases)))[:: 1 if r % 2 == 0 else -1]
            for i in range(len(cases[0].fields)):
                for k in order:
                    seconds[k] += cases[k].solve(cases[k].fields[i])
            for cost, t, n in zip(costs, seconds, steps):
                cost.append(t / n * 1e6)
        for src, n, cost in zip(srcs, steps, costs):
            ratio = statistics.median(c / c0 for c, c0 in zip(cost, costs[0]))
            table.append((label, src, n, statistics.median(cost), ratio))
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="a package source holding abreu/ (repeat to compare)")
    parser.add_argument("--rounds", type=int, default=7,
                        help="timed rounds per size and tree (default 7)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    table = step_costs(args.src, args.rounds)
    print(f"{'size':<10} {'steps':>6} {'us/step':>9} {'ratio':>6}  src")
    for label, src, steps, cost, ratio in table:
        print(f"{label:<10} {steps:>6} {cost:>9.1f} {ratio:>6.3f}  {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
