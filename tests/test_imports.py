"""Imports between the package's modules sit at module level, so that the
import graph reads from the top of each file.  The one exception is the
direct estimator's import of the simulator, which imports curvature itself:
a second function-level import would be a second edge around the cycle."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "riccigap"


class _FunctionImports(ast.NodeVisitor):
    """(function, module) for each package module imported inside a function."""

    def __init__(self, module):
        self.scope, self.found = [module], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ImportFrom(self, node):
        if len(self.scope) > 1:
            if node.level > 0:  # from .mod import x, or from . import mod
                targets = [node.module] if node.module else [a.name for a in node.names]
            elif (node.module or "").split(".")[0] == "riccigap":
                targets = [node.module.partition(".")[2] or "riccigap"]
            else:
                targets = []
            self.found.update((".".join(self.scope), t) for t in targets)

    def visit_Import(self, node):
        if len(self.scope) > 1:
            self.found.update((".".join(self.scope), a.name.partition(".")[2] or a.name)
                              for a in node.names if a.name.split(".")[0] == "riccigap")


def test_the_only_function_level_import_between_package_modules_is_the_estimators():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        visitor = _FunctionImports(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found |= visitor.found
    assert found == {("curvature.estimate_kappa_direct", "simulate")}
