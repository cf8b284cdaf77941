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
"""

import ast
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
