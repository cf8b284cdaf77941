"""Import rules for the package modules.

No module imports a private name from another one: a `_`-prefixed name is
internal to the module that defines it, and a module that needs it should
get a public entry point instead.  Every import statement is checked,
function-local ones included.

No function or method imports a package module: the package has no
import cycle to break, so every module states its dependencies in its
module-level import block.

Convexity has one test, `HessianState.convex` in potential.py: no other
module compares against CONVEXITY_FLOOR or a `.min_eigenvalue`.

The zero mean has one test, `ScalarField.mean_zero` in grid.py: no other
module compares a mean, MEAN_TOLERANCE or a `.mean_bound` against anything.

The Fourier layout lives in grid.py: no other module names numpy.fft,
and inside grid.py only the transform pair (`to_spectrum`,
`from_spectrum`) and `PeriodicGrid.wavenumbers` do.  There is one layout,
the real-FFT one: no module names the full transforms `fftn` or `ifftn`.

The triangle layout has one owner, grid.py: its conversions take and give
component-first stacks, so no call of `triangle_to_full` or
`full_to_triangle` takes a `.T` attribute or an `np.moveaxis(...)` call as
its argument, and only grid.py names `isqrt`, which recovers the matrix
size n from the m = n(n+1)/2 components.

The matrix algebra of gradient-map inversion stays in potential.py:
legendre.py neither imports numpy.linalg nor names it.  So do the
derivatives of a potential off the grid: legendre.py names neither
`TrigInterpolant` nor `partials`.  On the grid it names no Fourier function
(`to_spectrum`, `from_spectrum`, `fourier_multiplier`, `node_partials`):
phi's third partials at the nodes are `Potential.node_third_partials`.

Fields are built at the boundary of the solve path, arrays pass inside
it: in solver.py and potential.py only the functions of `FIELD_BUILDERS`
call `ScalarField`, `SymMatrixField` or `Potential` (or a classmethod of
one).  In solver.py they are `continuity_solve`, whose arguments become
the first start and the targets, and `NewtonRecord.potential`, the
result; in potential.py the public functions that hand out a field and
`Potential.flat`.  So no Newton iteration (`newton_step`,
`newton_correction`, `_newton_solve`) and no `HessianState` method builds
one.

A Newton correction is formed in one place, `solver.newton_correction`:
no other function in the package names `_pcg` or `_inverse_flat_symbol`,
so no other one calls the Krylov solve or the flat map.

No module names `contextvars` or `threading`: a Newton iterate reaches
`solver.newton_step` as its argument and leaves as its result, never
through a hidden channel, and no call keeps state for the next one, per
thread or otherwise (the off-grid tables live in one buffer per call).

A kept per-instance value is a `grid.kept_property`: no module names
`functools.cached_property`, which takes a class-wide lock on every first
access on Python 3.10 and 3.11.

State shared between objects is a declared field, never a hidden entry in
an instance dict: no module calls `vars`, only `kept_property.__get__`
names `__dict__`, and `object.__setattr__` sets only the fields of `self`
in a `__post_init__`.

Every function that the benchmark's tracer wraps (`FUNCTIONS` in
perfbench/tracing.py), and at least one of its Krylov hooks, resolves in
the package, so a refactor cannot null a per-layer metric by renaming it.

Every name in `abreu.__all__` and in each module's `__all__` exists, so
`from abreu import *` cannot break on a stale export.

Every name in `abreu.__all__` has a user: package code outside the module
that defines it (and outside `__init__`), or a word in demos/, tools/,
perfbench/, README.md or docs/.  A name only the tests use is a test
oracle, and lives in tests/support.py.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "abreu"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_private(dotted):
    return any(
        part.startswith("_") and not (part.startswith("__") and part.endswith("__"))
        for part in dotted.split(".")
    )


def _private_imports(path):
    """(line, name) of each private package name that `path` imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != PACKAGE.name:
                continue
            found += [
                (node.lineno, alias.name)
                for alias in node.names
                if _is_private(f"{module}.{alias.name}")
            ]
        elif isinstance(node, ast.Import):
            found += [
                (node.lineno, alias.name)
                for alias in node.names
                if alias.name.split(".")[0] == PACKAGE.name
                and _is_private(alias.name)
            ]
    return found


def _function_local_imports(path):
    """(line, module) of each package import inside a function or method."""
    found = set()
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level or module.split(".")[0] == PACKAGE.name:
                    found.add((node.lineno, "." * node.level + module))
            elif isinstance(node, ast.Import):
                found |= {
                    (node.lineno, alias.name)
                    for alias in node.names
                    if alias.name.split(".")[0] == PACKAGE.name
                }
    return sorted(found)


def _floor_comparisons(path):
    """Lines of the comparisons with CONVEXITY_FLOOR or a `.min_eigenvalue`
    among their operands."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Compare):
            continue
        for operand in [node.left, *node.comparators]:
            if isinstance(operand, ast.Name) and operand.id == "CONVEXITY_FLOOR":
                found.add(node.lineno)
            elif isinstance(operand, ast.Attribute) and operand.attr in (
                "CONVEXITY_FLOOR", "min_eigenvalue"
            ):
                found.add(node.lineno)
    return sorted(found)


def _mean_comparisons(path):
    """Lines of the comparisons with a call of `mean`/`.mean`, MEAN_TOLERANCE
    or a `.mean_bound` anywhere in an operand."""
    def is_mean_term(node):
        if isinstance(node, ast.Call):
            func = node.func
            return (isinstance(func, ast.Name) and func.id == "mean") or (
                isinstance(func, ast.Attribute) and func.attr == "mean"
            )
        if isinstance(node, ast.Name):
            return node.id == "MEAN_TOLERANCE"
        return isinstance(node, ast.Attribute) and node.attr in (
            "MEAN_TOLERANCE", "mean_bound"
        )

    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Compare) and any(
            is_mean_term(sub)
            for operand in [node.left, *node.comparators]
            for sub in ast.walk(operand)
        ):
            found.add(node.lineno)
    return sorted(found)


def _numpy_uses(path, submodule):
    """Lines of each `.<submodule>` attribute and each import of
    numpy.<submodule>, for a numpy submodule such as linalg or fft."""
    dotted = f"numpy.{submodule}"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr == submodule:
            found.add(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.startswith(dotted) for a in node.names):
                found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", dotted):
            if node.module == dotted or any(a.name == submodule for a in node.names):
                found.add(node.lineno)
    return sorted(found)


def test_legendre_uses_no_linalg():
    assert _numpy_uses(PACKAGE / "legendre.py", "linalg") == []


@pytest.mark.parametrize(
    "path", [m for m in MODULES if m.name != "grid.py"], ids=lambda p: p.name
)
def test_only_grid_uses_fft(path):
    assert _numpy_uses(path, "fft") == []


def test_detects_fft_uses(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "import numpy.fft as nfft\n"
        "from numpy import fft, pi\n"
        "from numpy.fft import rfftn\n"
        "def f(a, grid):\n"
        "    x = np.fft.irfftn(rfftn(a), s=a.shape)\n"
        "    y = grid.from_spectrum(grid, a * fft.fftfreq(4))\n"
        "    return nfft.fftn(x) * pi, grid.wavenumbers(0), y\n",
        encoding="utf-8",
    )
    assert _numpy_uses(probe, "fft") == [2, 3, 4, 6]
    assert _names_used(probe, {"fftn", "ifftn"}) == [8]


def _enclosing_functions(path, lines):
    """Qualified name of the innermost function or method around each of
    `lines`, None for a line outside every function."""
    spans = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    spans.append((child.lineno, child.end_lineno, name))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    found = {}
    for line in lines:
        inner = [s for s in spans if s[0] <= line <= s[1]]
        found[line] = max(inner)[2] if inner else None
    return found


GRID_FFT_OWNERS = {"to_spectrum", "from_spectrum", "PeriodicGrid.wavenumbers"}


def test_grid_uses_fft_only_in_its_transforms():
    path = PACKAGE / "grid.py"
    owners = _enclosing_functions(path, _numpy_uses(path, "fft"))
    assert owners and set(owners.values()) <= GRID_FFT_OWNERS


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_full_layout_transforms(path):
    assert _names_used(path, {"fftn", "ifftn"}) == []


def test_detects_fft_outside_transforms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "class PeriodicGrid:\n"
        "    def wavenumbers(self):\n"
        "        return np.fft.fftfreq(8)\n"
        "def to_spectrum(grid, v):\n"
        "    def inner(a):\n"
        "        return np.fft.rfft(a)\n"
        "    return inner(v)\n"
        "def partial(f):\n"
        "    return np.fft.irfft(f)\n",
        encoding="utf-8",
    )
    assert _enclosing_functions(probe, _numpy_uses(probe, "fft") + [1]) == {
        1: None,
        4: "PeriodicGrid.wavenumbers",
        7: "to_spectrum.inner",
        10: "partial",
    }


def _named(path):
    """(line, name) of each name, attribute and imported name in `path`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.name.rpartition(".")[2]


def _names_used(path, names):
    """Lines naming one of `names`: a name, an attribute or an import."""
    return sorted({line for line, name in _named(path) if name in names})


TRIANGLE_CONVERSIONS = {"triangle_to_full", "full_to_triangle"}


def _reoriented_triangle_args(path):
    """Lines of the calls of a triangle conversion whose argument is a `.T`
    attribute or a `moveaxis(...)` call."""
    def callee(call):
        func = call.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and callee(node) in TRIANGLE_CONVERSIONS):
            continue
        for arg in [*node.args, *(k.value for k in node.keywords)]:
            transposed = isinstance(arg, ast.Attribute) and arg.attr == "T"
            moved = isinstance(arg, ast.Call) and callee(arg) == "moveaxis"
            if transposed or moved:
                found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_triangle_conversions_take_component_first_stacks(path):
    assert _reoriented_triangle_args(path) == []


def test_detects_reoriented_triangle_args(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "from . import grid\n"
        "from .grid import full_to_triangle, triangle_to_full\n"
        "def f(e, inv, rows):\n"
        "    a = triangle_to_full(e.T)\n"
        "    b = grid.triangle_to_full(np.moveaxis(e, 0, -1))\n"
        "    c = full_to_triangle(full=inv.T)\n"
        "    d = np.moveaxis(full_to_triangle(inv), 0, -1).T\n"
        "    return a, b, c, d, triangle_to_full(rows[:, 0]), triangle_to_full(e)\n",
        encoding="utf-8",
    )
    assert _reoriented_triangle_args(probe) == [5, 6, 7]


@pytest.mark.parametrize(
    "path", [m for m in MODULES if m.name != "grid.py"], ids=lambda p: p.name
)
def test_only_grid_recovers_the_triangle_size(path):
    assert _names_used(path, {"isqrt"}) == []


def test_detects_isqrt(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\n"
        "from math import isqrt\n"
        "def f(e):\n"
        "    n = (math.isqrt(8 * len(e) + 1) - 1) // 2\n"
        "    return n, isqrt(len(e)), math.sqrt(2)\n",
        encoding="utf-8",
    )
    assert _names_used(probe, {"isqrt"}) == [2, 4, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_kept_values_take_no_lock(path):
    assert _names_used(path, {"cached_property"}) == []


def test_detects_cached_property(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import functools\n"
        "from functools import cached_property\n"
        "class A:\n"
        "    @functools.cached_property\n"
        "    def x(self):\n"
        "        return 1  # not a cached_property in a comment\n",
        encoding="utf-8",
    )
    assert _names_used(probe, {"cached_property"}) == [2, 4]


def _instance_dict_writes(path):
    """{line: enclosing function} of each call of `vars`, each `__dict__`
    attribute and each `object.__setattr__` call that is not on `self`
    inside a `__post_init__`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    vars_calls, dict_uses, setattrs = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            dict_uses.add(node.lineno)
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "vars":
            vars_calls.add(node.lineno)
        elif (isinstance(func, ast.Attribute) and func.attr == "__setattr__"
              and isinstance(func.value, ast.Name) and func.value.id == "object"):
            first = node.args[0] if node.args else None
            setattrs.append((node.lineno, isinstance(first, ast.Name) and first.id == "self"))
    owners = _enclosing_functions(path, [line for line, _ in setattrs] + sorted(dict_uses))
    found = dict.fromkeys(vars_calls, "vars")
    found.update({line: owners[line] for line in dict_uses
                  if owners[line] != "kept_property.__get__"})
    found.update({line: owners[line] for line, on_self in setattrs
                  if not (on_self and (owners[line] or "").endswith(".__post_init__"))})
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hidden_instance_state(path):
    assert _instance_dict_writes(path) == {}


def test_detects_hidden_instance_state(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class kept_property:\n"
        "    def __get__(self, instance, owner=None):\n"
        "        value = instance.__dict__['x'] = 1\n"
        "        return value\n"
        "class Field:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'values', 1)\n"
        "    def update(self):\n"
        "        object.__setattr__(self, 'values', 2)\n"
        "def preimages(P):\n"
        "    cache = vars(P)\n"
        "    P.__dict__.setdefault('x', 0)\n"
        "    object.__setattr__(P, 'x', 0)\n"
        "def transform(dual, P):\n"
        "    vars(dual)['_dual_of'] = P\n"
        "    return 'vars(P)'  # vars() in a comment\n",
        encoding="utf-8",
    )
    assert _instance_dict_writes(probe) == {
        9: "Field.update", 11: "vars", 12: "preimages", 13: "preimages", 15: "vars"
    }


NEWTON_SYSTEM = {"_pcg", "_inverse_flat_symbol"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_newton_correction_solves_the_newton_system(path):
    owners = set(_enclosing_functions(path, _names_used(path, NEWTON_SYSTEM)).values())
    assert owners == ({"newton_correction"} if path.name == "solver.py" else set())


def test_detects_newton_system_solves_elsewhere(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import solver\n"
        "def newton_correction(record, g, b, rhs):\n"
        "    return _pcg(record, g, _inverse_flat_symbol(g, b), rhs, 0.5)\n"
        "def newton_step(record, g, b, rhs):\n"
        "    flat = solver._inverse_flat_symbol(g, b) * rhs  # _pcg in a comment\n"
        "    solve = _pcg\n"
        "    return solve(record, g, flat, rhs, 0.5)\n",
        encoding="utf-8",
    )
    lines = _names_used(probe, NEWTON_SYSTEM)
    assert _enclosing_functions(probe, lines) == {
        3: "newton_correction", 5: "newton_step", 6: "newton_step"
    }


FIELD_TYPES = {"ScalarField", "SymMatrixField", "Potential"}
FIELD_BUILDERS = {
    "solver.py": {"continuity_solve", "NewtonRecord.potential"},
    "potential.py": {"Potential.flat", "inverse_hessian", "det_hessian", "cofactor",
                     "abreu_forward", "divergence_form_residual"},
}
NEWTON_ITERATION = {"newton_step", "newton_correction", "_newton_solve"}


def _field_constructions(path):
    """Lines of the calls of a field type, by name or as an attribute, or
    of a classmethod of one (`ScalarField.zeros(...)`)."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            named = {func.attr, func.value.id}
        else:
            named = {getattr(func, "id", None) or getattr(func, "attr", None)}
        if named & FIELD_TYPES:
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("name", sorted(FIELD_BUILDERS))
def test_fields_are_built_only_at_the_boundary(name):
    path = PACKAGE / name
    owners = set(_enclosing_functions(path, _field_constructions(path)).values())
    assert owners == FIELD_BUILDERS[name]
    assert not owners & NEWTON_ITERATION
    assert not {owner for owner in owners if owner.startswith("HessianState.")}


def test_detects_field_constructions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import grid\n"
        "class HessianState:\n"
        "    def forward(self):\n"
        "        return grid.ScalarField(self.grid, self.values)\n"
        "def newton_step(record):\n"
        "    zero = ScalarField.zeros(record.grid)  # ScalarField( in a comment\n"
        "    return Potential(record.base,\n"
        "                     zero)\n"
        "def continuity_solve(A):\n"
        "    kind = SymMatrixField\n"
        "    return kind, hessian(A), A.values\n",
        encoding="utf-8",
    )
    lines = _field_constructions(probe)
    assert _enclosing_functions(probe, lines) == {
        4: "HessianState.forward", 6: "newton_step", 7: "newton_step"
    }


def _context_variable_uses(path):
    """Lines naming `contextvars`, `ContextVar` or `threading`, or importing
    from contextvars or threading."""
    imports_from = {
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module in ("contextvars", "threading")
    }
    names = {"contextvars", "ContextVar", "threading"}
    return sorted(imports_from.union(_names_used(path, names)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_context_variables(path):
    assert _context_variable_uses(path) == []


def test_detects_context_variables(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import contextvars\n"
        "from contextvars import copy_context\n"
        "import contextvars as cv\n"
        "ITERATE = contextvars.ContextVar('iterate')\n"
        "OTHER = cv.ContextVar('other')\n"
        "import threading\n"
        "def f(context):\n"
        "    return context.run(len, 'threading')  # threading in a comment\n",
        encoding="utf-8",
    )
    assert _context_variable_uses(probe) == [1, 2, 3, 4, 5, 6]


def test_legendre_builds_no_interpolant():
    names = {"TrigInterpolant", "partials"}
    assert _names_used(PACKAGE / "legendre.py", names) == []


FOURIER_FUNCTIONS = {"to_spectrum", "from_spectrum", "fourier_multiplier", "node_partials"}


def test_legendre_names_no_fourier_function():
    assert _names_used(PACKAGE / "legendre.py", FOURIER_FUNCTIONS) == []


def test_detects_fourier_functions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .grid import fourier_multiplier, from_spectrum\n"
        "from . import grid\n"
        "def third(P, orders, at):\n"
        "    spectrum = grid.to_spectrum(P.grid, P.perturbation.values)\n"
        "    # node_partials in a comment, and a longer name, are not uses\n"
        "    values = P.node_third_partials(at)\n"
        "    return grid.node_partials(P.perturbation, orders), spectrum, values\n",
        encoding="utf-8",
    )
    assert _names_used(probe, FOURIER_FUNCTIONS) == [1, 4, 7]


def test_detects_names_used(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .grid import ScalarField, TrigInterpolant\n"
        "from . import grid\n"
        "def f(A, x):\n"
        "    g = grid.TrigInterpolant(A)\n"
        "    partials = g.evaluate(x)\n"
        "    return A.interpolant.partials(x, [(1,)]), partials\n",
        encoding="utf-8",
    )
    assert _names_used(probe, {"TrigInterpolant", "partials"}) == [1, 4, 5, 6]


def _tracer_hooks():
    """`FUNCTIONS` and `Tracer.KRYLOV_HOOKS` of perfbench/tracing.py, read
    from its source (the benchmark is not imported)."""
    tracing = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    found = {}
    for node in ast.walk(ast.parse(tracing.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in (
                "FUNCTIONS", "KRYLOV_HOOKS"
            ):
                found[target.id] = ast.literal_eval(node.value)
    return found["FUNCTIONS"], found["KRYLOV_HOOKS"]


def _resolves(module, dotted):
    owner = module
    for part in dotted.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_traced_functions_resolve():
    functions, _ = _tracer_hooks()
    missing = [
        f"abreu.{layer}.{name}"
        for layer, names in functions.items()
        for name in names
        if not _resolves(importlib.import_module(f"abreu.{layer}"), name)
    ]
    assert missing == []


def test_a_krylov_hook_resolves():
    _, hooks = _tracer_hooks()
    solver = importlib.import_module("abreu.solver")
    assert any(_resolves(solver, name) for name, _mode in hooks)


def test_detects_unresolved_names():
    module = types.ModuleType("probe")
    module.Outer = type("Outer", (), {"method": lambda self: None})
    module.fn = len
    assert _resolves(module, "fn") and _resolves(module, "Outer.method")
    assert not _resolves(module, "gone") and not _resolves(module, "Outer.gone")


def test_detects_linalg_uses(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "import numpy.linalg as la\n"
        "from numpy import linalg, dot\n"
        "from numpy.linalg import solve\n"
        "def f(a, b):\n"
        "    x = np.linalg.solve(a, b)\n"
        "    y = la.inv(a) @ dot(a, b)\n"
        "    return np.einsum('ij,j', a, b), numpy.linalg.norm(x), solve, y\n",
        encoding="utf-8",
    )
    assert _numpy_uses(probe, "linalg") == [2, 3, 4, 6, 8]


def test_package_modules_found():
    assert {"estimates.py", "potential.py", "solver.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert _private_imports(path) == []


def test_detects_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .grid import gradient, _BLOCK_BYTES\n"
        "def f():\n"
        "    from abreu.legendre import _GradientEvaluator\n"
        "    from . import __version__\n"
        "    import abreu._private\n"
        "    from ._hidden import public\n",
        encoding="utf-8",
    )
    assert _private_imports(probe) == [
        (1, "_BLOCK_BYTES"),
        (3, "_GradientEvaluator"),
        (5, "abreu._private"),
        (6, "public"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_package_imports(path):
    assert _function_local_imports(path) == []


def test_detects_function_local_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import json\n"
        "from .grid import gradient\n"
        "def f():\n"
        "    import numpy as np\n"
        "    from .grid import hessian\n"
        "class C:\n"
        "    def m(self):\n"
        "        from abreu.legendre import legendre_transform\n"
        "        import abreu.solver\n"
        "        from . import __version__\n"
        "        def inner():\n"
        "            from ..outer import name\n",
        encoding="utf-8",
    )
    assert _function_local_imports(probe) == [
        (5, ".grid"),
        (8, "abreu.legendre"),
        (9, "abreu.solver"),
        (10, "."),
        (12, "..outer"),
    ]


@pytest.mark.parametrize(
    "path", [m for m in MODULES if m.name != "potential.py"], ids=lambda p: p.name
)
def test_no_convexity_floor_comparisons(path):
    assert _floor_comparisons(path) == []


def test_detects_floor_comparisons(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import potential\n"
        "from .potential import CONVEXITY_FLOOR\n"
        "def f(P, state, margins):\n"
        "    if state.min_eigenvalue <= CONVEXITY_FLOOR:\n"
        "        return None\n"
        "    ok = [m for m in margins if 0.0 < m > potential.CONVEXITY_FLOOR]\n"
        "    assert P.hessian_state.min_eigenvalue > 0.0\n"
        "    if state.convex and margins[0] > 1e-8:\n"
        "        return state.min_eigenvalue, CONVEXITY_FLOOR, ok\n",
        encoding="utf-8",
    )
    assert _floor_comparisons(probe) == [4, 6, 7]


@pytest.mark.parametrize(
    "path", [m for m in MODULES if m.name != "grid.py"], ids=lambda p: p.name
)
def test_no_mean_comparisons(path):
    assert _mean_comparisons(path) == []


def test_detects_mean_comparisons(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "from .grid import MEAN_TOLERANCE, mean\n"
        "def f(f, tol, x, r):\n"
        "    if abs(mean(f)) > MEAN_TOLERANCE:\n"
        "        return None\n"
        "    if abs(np.mean(f.values)) > tol:\n"
        "        return None\n"
        "    ok = f.mean() <= x\n"
        "    norm = np.sqrt(np.mean(r * r))\n"
        "    if norm > tol and f.mean_zero:\n"
        "        return 2 * grid.MEAN_TOLERANCE < x or x > f.mean_bound\n"
        "    return ok, mean(f), f.mean_bound, MEAN_TOLERANCE\n",
        encoding="utf-8",
    )
    assert _mean_comparisons(probe) == [4, 6, 8, 11]


def _stale_exports(module):
    """Names in the module's `__all__` that it does not define."""
    return [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]


@pytest.mark.parametrize(
    "name", ["abreu"] + [f"abreu.{m.stem}" for m in MODULES if m.stem != "__init__"]
)
def test_exported_names_resolve(name):
    assert _stale_exports(importlib.import_module(name)) == []


def test_detects_stale_exports():
    probe = types.ModuleType("probe")
    probe.__all__ = ["present", "GONE"]
    probe.present = 1
    assert _stale_exports(probe) == ["GONE"]


def _unused_exports(package, exports, documents):
    """Names of `exports` (name -> stem of the module defining it) that no
    module of `package` but that one and `__init__` names in code, and no
    file of `documents` names as a word."""
    named = {path.stem: {name for _, name in _named(path)}
             for path in package.glob("*.py")}
    text = "\n".join(path.read_text(encoding="utf-8") for path in documents)
    return sorted(
        name for name, home in exports.items()
        if not any(name in names for stem, names in named.items()
                   if stem not in (home, "__init__"))
        and not re.search(rf"\b{re.escape(name)}\b", text)
    )


def test_every_export_has_a_user():
    abreu = importlib.import_module("abreu")
    home = {
        name: m.stem
        for m in MODULES if m.stem != "__init__"
        for name in getattr(importlib.import_module(f"abreu.{m.stem}"), "__all__", [])
    }
    root = PACKAGE.parents[1]
    documents = [
        *root.glob("demos/*.py"), *root.glob("tools/*.py"),
        *root.glob("perfbench/**/*.py"), root / "README.md", *root.glob("docs/*.md"),
    ]
    exports = {name: home.get(name, "__init__") for name in abreu.__all__}
    assert _unused_exports(PACKAGE, exports, documents) == []


def test_detects_unused_exports(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from .a import alone, documented, used, self_used\n", encoding="utf-8"
    )
    (package / "a.py").write_text(
        "def alone(): pass\n"
        "def documented(): pass\n"
        "def used(): pass\n"
        "def self_used(): return used()\n",
        encoding="utf-8",
    )
    (package / "b.py").write_text(
        "from . import a\nx = a.used()\n# alone\n", encoding="utf-8"
    )
    readme = tmp_path / "README.md"
    readme.write_text("`documented` is, `alone_too` is not\n", encoding="utf-8")
    exports = dict.fromkeys(["alone", "documented", "used", "self_used"], "a")
    assert _unused_exports(package, exports, [readme]) == ["alone", "self_used"]

