"""Every error and warning type that errors.py declares is raised or warned
somewhere in the package, or is a base of one that is, so that retiring
the last raiser of a type retires the type too."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "riccigap"


def _name(node):
    """The name a raise or a warning category refers to: Foo, m.Foo or Foo(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _raised_or_warned(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            yield _name(node.exc)
        elif isinstance(node, ast.Call) and _name(node.func) == "warn":
            yield from map(_name, node.args[1:2] + [k.value for k in node.keywords
                                                    if k.arg == "category"])


def test_every_error_type_is_raised_or_a_base_of_one_that_is():
    bases = {node.name: [_name(b) for b in node.bases]
             for node in ast.parse((SRC / "errors.py").read_text()).body
             if isinstance(node, ast.ClassDef)}
    used = set()
    for path in sorted(SRC.glob("*.py")):
        used.update(_raised_or_warned(ast.parse(path.read_text())))
    live, todo = set(), [name for name in bases if name in used]
    while todo:
        name = todo.pop()
        if name in bases and name not in live:
            live.add(name)
            todo.extend(bases[name])
    assert "InputError" in live and "NonPSDWarning" in live  # the scan sees raises and warns
    assert sorted(set(bases) - live) == []
