"""Checks on the package source itself."""

import ast
import pathlib

import posetcoh


def test_package_raises_errors_instead_of_asserting():
    # `python -O` strips assert statements, so run-time invariants must raise.
    package = pathlib.Path(posetcoh.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
