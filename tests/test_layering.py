"""No module of the package imports a private name from another one.

A `_`-prefixed name is internal to the module that defines it; a module
that needs it should get a public entry point instead.  Every import
statement is checked, function-local ones included.
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
