"""Every private name defined at module level in the package (a function,
class or constant whose name starts with one underscore) is used somewhere
in the package outside its own definition, so that a helper a refactor
leaves without callers is deleted with its last caller."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "riccigap"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _defined(statement):
    """The private names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        targets = [ast.Name(statement.name)]
    elif isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        targets = []
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and _private(node.id)}


def _used(statement):
    """The names a statement reads: bare names and attributes (m._name)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_every_private_module_level_name_is_used_outside_its_definition():
    statements = [s for path in sorted(SRC.glob("*.py")) for s in ast.parse(path.read_text()).body]
    defined = [(name, i) for i, s in enumerate(statements) for name in _defined(s)]
    used = [_used(s) for s in statements]
    assert len(defined) > 20  # the scan sees the package's private names
    dead = sorted(name for name, i in defined
                  if not any(name in names for j, names in enumerate(used) if j != i))
    assert dead == []
