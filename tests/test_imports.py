"""Imports between the package's modules sit at module level, so that the
import graph reads from the top of each file.  The one exception is the
direct estimator's import of the simulator, which imports curvature itself:
a second function-level import would be a second edge around the cycle.
No CLI path imports a scipy package: the two compiled routines come from their
extension modules, and scipy.sparse only serves code no command calls."""

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


class _ScipyImports(ast.NodeVisitor):
    """(scope, module) for each scipy module the package imports: by an import
    statement, or as the public fallback of a manifolds._scipy_routine call;
    and (scope, name) for each call that imports by name."""

    def __init__(self, module):
        self.scope, self.found, self.dynamic = [module], set(), set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def _add(self, module):
        if module.split(".")[0] == "scipy":
            self.found.add((".".join(self.scope), module))

    def visit_Import(self, node):
        for alias in node.names:
            self._add(alias.name)

    def visit_ImportFrom(self, node):
        if node.level == 0:
            self._add(node.module)

    def visit_Call(self, node):
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
            node.func, "id", "")
        if name == "_scipy_routine" and len(node.args) == 3:
            self._add(node.args[2].value)
        elif name in ("import_module", "__import__"):
            self.dynamic.add((".".join(self.scope), name))
        self.generic_visit(node)


def test_the_cli_paths_import_no_scipy_package_but_through_its_compiled_routines():
    # scipy.optimize and scipy.linalg each cost tens of MB and a few tenths of
    # a second to import, for the one routine the package calls; it takes both
    # from their extension modules and imports the public packages only when
    # those are missing.  scipy.sparse is reached only from the inspection
    # matrix and the semigroup check, which no CLI command calls.
    found, dynamic = set(), set()
    for path in sorted(SRC.glob("*.py")):
        visitor = _ScipyImports(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found |= visitor.found
        dynamic |= visitor.dynamic
    assert found == {("curvature.linear_sum_assignment", "scipy.optimize"),
                     ("spectral._ground", "scipy.linalg.lapack"),
                     ("spectral._periodic_three_point", "scipy.sparse"),
                     ("spectral.lipschitz_derivative_identity_check", "scipy.sparse.linalg")}
    assert dynamic == {("manifolds._scipy_routine", "import_module")}
