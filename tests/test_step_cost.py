"""The step-cost tool loads each source tree as its own package and
reports the solve time per Newton step of each, or the time, the Newton
steps, the Krylov applies, the off-grid interpolation and the work of the
gradient-map inversions per CLI op, on the pools of the seed it is
given."""

import importlib.util
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_cost.py"


def _tool():
    spec = importlib.util.spec_from_file_location("step_cost", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _seeds(monkeypatch, tool, name):
    """The seeds the tool passes to its binding `name`, one per call."""
    seeds = []
    original = getattr(tool, name)

    def spying(workload, seed, *args):
        seeds.append(seed)
        return original(workload, seed, *args)

    monkeypatch.setattr(tool, name, spying)
    return seeds


def test_times_two_trees_on_a_tiny_pool(monkeypatch, capsys):
    # the same source twice, as two packages: same steps, a time for each,
    # on the pool of the seed asked for, and no field built in a Newton
    # iteration ("-" for a class the trees lack)
    tool = _tool()
    spec = {"command": "solve", "dim": 1, "resolutions": [16], "pool": 2, "modes": [1],
            "kmax": 1, "sup": [0.1, 0.2], "report": False, "op_s": 0.01}
    monkeypatch.setitem(sys.modules["workloads"].WORKLOADS, "tiny-1d", spec)
    monkeypatch.setattr(tool, "CASES", [("1D N=16", "tiny-1d", 16)])
    monkeypatch.setattr(tool, "THREAD_ENV", {})  # numpy is loaded already
    monkeypatch.setattr(tool, "FIELD_CLASSES", [("ScalarField", "grid"), ("NoSuchField", "grid"),
                                                ("Potential", "potential")])
    seeds = _seeds(monkeypatch, tool, "make_inputs")
    src = tool.ROOT / "src"
    try:
        argv = ["--src", str(src), "--src", str(src), "--rounds", "2", "--seed", "3"]
        assert tool.main(argv) == 0
        first, second = sys.modules["abreu_src0"], sys.modules["abreu_src1"]
        assert first is not second and first.solver is not second.solver
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] in ("abreu_src0", "abreu_src1")]:
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["size", "steps", "us/step", "scalar", "matrix", "potential",
                                "ratio", "src"]
    rows = [line.rsplit(None, 7) for line in lines[1:]]
    assert [row[0] for row in rows] == ["1D N=16", "1D N=16"]
    assert rows[0][1] == rows[1][1] and int(rows[0][1]) > 0
    assert float(rows[0][2]) > 0.0 and float(rows[0][6]) == 1.0
    assert float(rows[1][2]) > 0.0 and [row[7] for row in rows] == [str(src)] * 2
    assert [row[3:6] for row in rows] == [["0.00", "-", "0.00"]] * 2
    assert seeds == [3, 3]


def test_counts_the_fields_built_in_the_newton_iterations(monkeypatch):
    # the constructions made while the tree's Newton iteration runs, per
    # class, and None for a class the tree lacks; everything restored after
    import abreu
    from abreu import grid, hessian, potential
    from abreu.grid import ScalarField, make_grid
    from abreu.potential import Potential

    tool = _tool()
    g = make_grid(1, [8])
    post_inits = (ScalarField.__post_init__, Potential.__post_init__)

    def iteration():  # two ScalarFields, one SymMatrixField, one Potential
        return hessian(ScalarField.zeros(g)), Potential.flat(g)

    def run(i):
        ScalarField.zeros(g)  # outside the iteration: not counted
        return case.solver._newton_solve()

    case = SimpleNamespace(package=abreu, solver=SimpleNamespace(_newton_solve=iteration),
                           run=run)
    assert tool.count_fields(case, 3) == [6, 3, 3]
    assert case.solver._newton_solve is iteration
    assert (ScalarField.__post_init__, Potential.__post_init__) == post_inits
    # a tree without SymMatrixField counts None of them
    older = types.ModuleType("older_tree")
    monkeypatch.setitem(sys.modules, "older_tree", older)
    monkeypatch.setitem(sys.modules, "older_tree.grid", SimpleNamespace(ScalarField=ScalarField))
    monkeypatch.setitem(sys.modules, "older_tree.potential", potential)
    case.package = older
    assert tool.count_fields(case, 1) == [2, None, 1]
    assert grid.SymMatrixField.__post_init__ is grid.SymMatrixField.__dict__["__post_init__"]


def test_times_the_cli_ops_of_a_workload(monkeypatch, capsys):
    # --ops: each tree's CLI on the pool's arguments of the default seed,
    # one line per tree with its Newton steps, Krylov applies and
    # interpolation per op
    tool = _tool()
    spec = {"command": "solve", "dim": 1, "resolutions": [16], "pool": 2, "modes": [1],
            "kmax": 1, "sup": [0.1, 0.2], "report": True, "op_s": 0.01}
    monkeypatch.setitem(sys.modules["workloads"].WORKLOADS, "tiny-1d", spec)
    monkeypatch.setattr(tool, "THREAD_ENV", {})  # numpy is loaded already
    seeds = _seeds(monkeypatch, tool, "Workload")
    src = tool.ROOT / "src"
    try:
        argv = ["--src", str(src), "--src", str(src), "--rounds", "2", "--ops", "tiny-1d"]
        assert tool.main(argv) == 0
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] in ("abreu_src0", "abreu_src1")]:
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["workload", "ops", "ms/op", "steps/op", "krylov/op",
                                "interp/op", "passes/op", "points/op", "refresh/op",
                                "after/op", "ratio", "src"]
    rows = [line.rsplit(None, 11) for line in lines[1:]]
    assert [row[0] for row in rows] == ["tiny-1d", "tiny-1d"]
    assert [row[1] for row in rows] == ["2", "2"]
    assert float(rows[0][2]) > 0.0 and float(rows[0][10]) == 1.0
    assert float(rows[1][2]) > 0.0 and [row[11] for row in rows] == [str(src)] * 2
    # two ops: a whole number of steps and of applies over two, the same
    # on both trees
    for column in (3, 4):
        assert rows[0][column] == rows[1][column] and float(rows[0][column]) > 0.0
        assert (2.0 * float(rows[0][column])).is_integer()
    # a solve interpolates and inverts nothing
    assert [row[5:10] for row in rows] == [["0.00"] * 5] * 2
    assert seeds == [1, 1]


def test_counts_the_interpolation_of_the_inputs():
    # the partials calls, the multi-field passes and their points of each
    # input, through the bindings the package calls; all restored after
    import abreu
    from abreu import grid, legendre
    from abreu.grid import ScalarField, make_grid
    from abreu.potential import Potential

    tool = _tool()
    g = make_grid(2, [8, 8])
    P = Potential.flat(g)
    V = legendre.legendre_transform(P)
    a = ScalarField(g, np.cos(2 * np.pi * g.coordinate_arrays()[0]))
    x = np.full((5, 2), 0.3)

    def run(i):
        P.gradient_at(x[: i + 1])
        legendre.pullback_rhs((a, a), V)

    partials, together = grid.TrigInterpolant.partials, legendre.interpolate_fields
    case = SimpleNamespace(package=abreu, grid=grid, run=run)
    assert tool.count_interpolation(case, 2) == (2, 2, 1 + 2 + 2 * 64)
    assert grid.TrigInterpolant.partials is partials
    assert legendre.interpolate_fields is together
    # a tree without multi-field passes counts None of them
    old = SimpleNamespace(TrigInterpolant=grid.TrigInterpolant)
    case = SimpleNamespace(package=abreu, grid=old, run=lambda i: P.gradient_at(x))
    assert tool.count_interpolation(case, 3) == (3, None, 15)


def test_counts_the_work_of_the_inversions(monkeypatch):
    # the points of the Hessian refreshes and of the gradient calls after
    # each inversion's first sweep, against the partials calls it makes:
    # a node start (input 0), and a dual's start (input 1), whose psi at
    # the start is evaluated before its run and not counted
    import abreu
    from abreu import grid, legendre
    from abreu.grid import make_grid
    from tests.support import random_convex_potential

    tool = _tool()
    g = make_grid(2, [32, 32])
    P = random_convex_potential(g, np.random.default_rng(0), margin=0.05)
    V = legendre.legendre_transform(P)
    y = g.node_points()
    inputs = [lambda: legendre.gradient_map_inverse(P, y), lambda: legendre.legendre_transform(V)]
    case = SimpleNamespace(package=abreu, run=lambda i: inputs[i]())
    newton = legendre._newton
    values = legendre.Potential.phi_and_gradient_at
    calls = []
    partials = grid.TrigInterpolant.partials

    def spy(self, pts, orders):
        calls[-1].append((len(pts), max(map(sum, orders))))
        return partials(self, pts, orders)

    with monkeypatch.context() as patch:
        patch.setattr(grid.TrigInterpolant, "partials", spy)
        for i in range(2):
            calls.append([])
            inputs[i]()
    node, warm = calls
    refreshed = sum(n for n, order in node + warm if order == 2)
    later = (sum(n for n, order in node[1:] if order == 1)
             + sum(n for n, order in warm[2:] if order == 1))
    assert refreshed > 0 and later > 0
    assert tool.count_inversion(case, 2) == (refreshed, later)
    assert legendre._newton is newton and legendre.Potential.phi_and_gradient_at is values
    # a tree without the inversion's Newton run counts None
    monkeypatch.delattr(legendre, "_newton")
    assert tool.count_inversion(case, 2) == (None, None)


class _Case:
    """A stand-in for a tree's case: `run` takes one Newton step per input
    through the module binding, as the package calls it."""

    def __init__(self, newton_step):
        self.solver = SimpleNamespace(newton_step=newton_step)

    def run(self, i):
        self.solver.newton_step(i, 0.5)


def test_counts_the_applies_the_returned_records_carry():
    tool = _tool()

    # a record keeps the correction its step moved along; an older tree's
    # record stores the applies as a field of its own
    def kept(applies):
        return SimpleNamespace(correction=SimpleNamespace(applies=applies))

    def stored(applies):
        return SimpleNamespace(krylov_applies=applies)

    for shape in (kept, stored):
        # input 2 has zero residual: its record comes back as it went in,
        # and the applies of the step that made it are not counted again
        records = {0: shape(3), 1: shape(4)}
        case = _Case(lambda i, forcing: records.get(i, i))
        assert tool.count_work(case, 2) == (2, 7)
        assert tool.count_work(case, 3) == (3, 7)
        assert case.solver.newton_step(0, 0.5) is records[0]  # the binding is restored


def test_a_tree_whose_records_carry_no_applies_counts_none():
    tool = _tool()
    case = _Case(lambda i, forcing: object())
    assert tool.count_work(case, 2) == (2, None)
