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


# every package module, executed: a bare import executes none of them
MODULES = ("rings", "gauss", "links", "moo", "criteria", "cli")
EXECUTE_ALL = "import cycloquant\n" + "".join(f"vars(cycloquant.{m})\n" for m in MODULES)


def test_cli_import_loads_no_dataclasses(tmp_path):
    # measured against a bare interpreter, whose site hooks vary by machine
    assert _loaded_after(EXECUTE_ALL) <= _loaded_after("pass")
    _, executed, _ = _probe(["-c", EXECUTE_ALL], tmp_path)
    assert executed == {"__init__.py", *(f"{m}.py" for m in MODULES)}


# Cold start, module by module: the package registers its modules lazily,
# so a command executes only the modules it calls. tests/cold_probe.py
# runs a command or code in a fresh interpreter and then prints the
# package files executed and whether json was imported.
COLD_PROBE = pathlib.Path(__file__).with_name("cold_probe.py")


def _probe(args: list[str], cwd: pathlib.Path) -> tuple[list[str], set[str], bool]:
    """Output lines of the run, the package files executed, and whether json was added."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, str(COLD_PROBE), *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
        cwd=cwd,
        check=True,
    )
    *lines, last = result.stdout.splitlines()
    *files, json_before, json_after = last.split()
    return lines, set(files), json_after == "True" and json_before == "False"


@pytest.mark.parametrize(
    "args",
    [
        ["check-cor12", "--v=1", "--r", "5", "--p", "11"],
        ["check-thm11", "--vm=1", "--vmbar=1", "--r", "5", "--p", "11"],
        ["repro-remark13"],
    ],
    ids=lambda args: args[0],
)
def test_value_commands_execute_no_braids_or_surgery(args, tmp_path):
    _, executed, adds_json = _probe(args, tmp_path)
    assert {"cli.py", "criteria.py"} <= executed
    assert not executed & {"links.py", "moo.py"}
    assert not adds_json


def test_moo_command_executes_no_criteria(tmp_path):
    (tmp_path / "m.json").write_text('{"matrix": [[2, 1], [1, 3]]}', encoding="utf-8")
    _, executed, _ = _probe(["moo", "--n", "15", "--matrix", "m.json"], tmp_path)
    assert {"cli.py", "links.py", "moo.py"} <= executed
    assert "criteria.py" not in executed


def test_bare_import_registers_every_module_and_executes_none(tmp_path):
    code = "import cycloquant, sys\nprint(*(m for m in sys.modules if m.startswith('cycloquant.')))"
    lines, executed, _ = _probe(["-c", code], tmp_path)
    # perfbench/tracer.py reads these entries directly
    assert set(lines[-1].split()) == {f"cycloquant.{m}" for m in MODULES}
    assert executed == {"__init__.py"}


def test_lazy_exports():
    namespace: dict = {}
    exec("from cycloquant import *", namespace)
    assert set(cycloquant.__all__) <= set(namespace)
    assert set(cycloquant.__all__) <= set(dir(cycloquant))
    assert namespace["check_cor_1_2"] is cycloquant.criteria.check_cor_1_2
    with pytest.raises(AttributeError, match="no_such_name"):
        cycloquant.no_such_name


# perfbench/tracer.py rebinds each traced function wherever a package
# module binds it, and puts the originals back on uninstall. Its walk over
# sys.modules is what first executes a lazily registered module, so the
# package registers importers first: a module executed during the walk
# then binds only functions that are not wrapped yet, and uninstall
# restores every binding.
TRACER_ROUND_TRIP = """
import sys
sys.path.insert(0, {perfbench!r})
{prelude}
import tracer
t = tracer.Tracer()
t.install()
t.uninstall()
import cycloquant.rings as rings
owners = [m for n, m in sys.modules.items() if n.startswith("cycloquant.")]
owners += [getattr(rings, c) for c in ("CycloElem", "ModCycloElem", "LaurentPoly")]
for owner in owners:
    for key, value in vars(owner).items():
        if getattr(value, "__qualname__", "").startswith("Tracer.wrap."):
            print(owner.__name__, key)
"""


@pytest.mark.parametrize(
    "prelude",
    ["import cycloquant", "import cycloquant.cli", EXECUTE_ALL],
    ids=["bare", "cli", "executed"],
)
def test_tracer_round_trip_leaves_no_wrapper(prelude, tmp_path):
    perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    code = TRACER_ROUND_TRIP.format(perfbench=str(perfbench), prelude=prelude)
    lines, _, _ = _probe(["-c", code], tmp_path)
    assert lines == []
