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


def _is_snf_call(node):
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None)) == "snf"
    if isinstance(node, ast.IfExp):
        return _is_snf_call(node.body) or _is_snf_call(node.orelse)
    if isinstance(node, ast.BoolOp):
        return any(_is_snf_call(value) for value in node.values)
    return False


def stored_decompositions(source):
    """Lines that store the result of an `snf(...)` call in an attribute or
    an item: directly, through `setattr`, or through a name that the module
    binds to such a result anywhere."""
    nodes = list(ast.walk(ast.parse(source)))
    bound = {
        target.id
        for node in nodes
        if isinstance(node, ast.Assign) and _is_snf_call(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def decomposition(value):
        return _is_snf_call(value) or (isinstance(value, ast.Name) and value.id in bound)

    found = []
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            stored = [
                t for target in targets for t in ast.walk(target)
                if isinstance(t, (ast.Attribute, ast.Subscript)) and isinstance(t.ctx, ast.Store)
            ]
            if stored and decomposition(node.value):
                found.append(node.lineno)
        elif (
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
            and len(node.args) == 3 and decomposition(node.args[2])
        ):
            found.append(node.lineno)
    return sorted(found)


def test_only_linalg_stores_a_smith_decomposition():
    # `snf` keeps each decomposition on its matrix; a second cache elsewhere
    # would decide reuse apart from it
    old = (
        "class G:\n"
        "    def relation_dec(self):\n"
        "        if self._dec is None:\n"
        "            self._dec = snf(self.relations)\n"
        "        return self._dec\n"
        "    def coordinates(self, cycles):\n"
        "        dec = linalg.snf(self.cycles)\n"
        "        self.cache[0] = dec\n"
        "        setattr(self, '_dec', snf(self.cycles) if cycles else None)\n"
        "        kept = snf(self.cycles).solve(cycles)\n"
        "        self.y = kept\n"
    )
    assert stored_decompositions(old) == [4, 8, 9]
    package = pathlib.Path(posetcoh.__file__).parent
    found = [
        "%s:%d" % (path.name, line)
        for path in sorted(package.glob("*.py"))
        if path.name != "linalg.py"
        for line in stored_decompositions(path.read_text(encoding="utf-8"))
    ]
    assert found == []
