"""The brute-force oracles stay out of the production modules.

moo_invariant and bracket_sum enumerate (Z/N)^m and j_skein recurses
exponentially in crossings; they exist to check the fast paths, so the
command line and the obstruction tests must not reach them.
"""

import ast
import pathlib

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
