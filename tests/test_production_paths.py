"""The brute-force oracles stay out of the production modules.

moo_invariant and bracket_sum enumerate (Z/N)^m, and j_skein, which
lives in tests/oracles.py, recurses exponentially in crossings; they
exist to check the fast paths, so the command line and the obstruction
tests must not reach them. The package exports nothing without a caller.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import cycloquant

ORACLES = {"moo_invariant", "bracket_sum", "j_skein"}
# G_r = -A^-36 exactly: the criteria step through signed powers of A, and
# g_r, the definition by Gauss sums, is their test oracle
FORBIDDEN = {"cli.py": ORACLES, "criteria.py": ORACLES | {"g_r", "_powers_of_g"}}
PACKAGE = pathlib.Path(cycloquant.__file__).parent


def _names(tree: ast.AST) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_no_oracle_in_production_module(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert not _names(tree) & FORBIDDEN[module]


def test_every_export_has_a_caller():
    # a load, attribute or string reference in the package's own modules,
    # the demos or the benchmark; the tests do not count
    root = pathlib.Path(__file__).resolve().parent.parent
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    used = set()
    for path in callers + [*root.glob("demos/*.py"), *root.glob("perfbench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert sorted(set(cycloquant.__all__) - used) == []


# Cold start: every CLI command is a fresh process, and dataclasses (with
# the inspect module it loads) and the methods it generates by exec cost
# more than the rest of the package's import
SLOW_IMPORTS = {"dataclasses", "inspect"}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_dataclasses_import(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imported.add(node.module.split(".")[0])
    assert "dataclasses" not in imported


def _loaded_after(code: str) -> set[str]:
    """The SLOW_IMPORTS loaded by a fresh interpreter that runs code."""
    probe = f"import sys\n{code}\nprint(' '.join(sorted(sys.modules)))"
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return set(result.stdout.split()) & SLOW_IMPORTS


def test_cli_import_loads_no_dataclasses():
    # measured against a bare interpreter, whose site hooks vary by machine
    assert _loaded_after("import cycloquant.cli") <= _loaded_after("pass")
