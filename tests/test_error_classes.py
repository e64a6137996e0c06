"""Every exception class the package defines is one some code tells apart:
an `except` clause or an `isinstance` check names it, or the package
exports it.  A class that nothing tells apart says no more than its base."""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

import miserysim

PACKAGE_DIR = Path(miserysim.__file__).resolve().parent


def _names(node: ast.expr | None, tuples: dict[str, list[ast.expr]]):
    """The class names an except clause or isinstance argument lists; a
    module-level tuple named there, such as _LINK_FAILURES, is expanded."""
    if isinstance(node, ast.Tuple):
        for elt in node.elts:
            yield from _names(elt, tuples)
    elif isinstance(node, ast.Name):
        yield node.id
        for elt in tuples.get(node.id, ()):
            yield from _names(elt, tuples)
    elif isinstance(node, ast.Attribute):
        yield node.attr


def _builtin_exception(name: str) -> bool:
    cls = getattr(builtins, name, None)
    return isinstance(cls, type) and issubclass(cls, BaseException)


def exception_classes(trees: list[ast.Module]) -> set[str]:
    """The classes defined in `trees` that derive from an exception."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    found: set[str] = set()
    while True:
        more = {name for name, parents in bases.items() if name not in found
                and any(p in found or _builtin_exception(p) for p in parents)}
        if not more:
            return found
        found |= more


def told_apart(tree: ast.Module) -> set[str]:
    """Every class name an except clause or isinstance check in `tree` names."""
    tuples = {target.id: node.value.elts
              for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Tuple)
              for target in node.targets if isinstance(target, ast.Name)}
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            names.update(_names(node.type, tuples))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            names.update(_names(node.args[1], tuples))
    return names


def test_every_exception_class_is_told_apart_or_exported():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) > 10, f"no package sources found in {PACKAGE_DIR}"
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sources]
    defined = exception_classes(trees)
    assert {"MiserySimError", "CloudError", "ConnectionRefused"} <= defined
    handled = set(miserysim.__all__).union(*map(told_apart, trees))
    assert sorted(defined - handled) == []


def test_the_guard_sees_every_way_to_tell_a_class_apart():
    source = ("class A(Exception): pass\nclass B(A): pass\nclass C(B): pass\n"
              "class D(ValueError): pass\nclass E(A): pass\nclass F(A): pass\n"
              "class Plain: pass\nclass G(Plain): pass\n"
              "_FAILURES = (B, errors.C)\n"
              "try:\n    pass\nexcept _FAILURES:\n    pass\n"
              "except (D, KeyError) as err:\n    pass\n"
              "ok = isinstance(err, (E, int))\n")
    tree = ast.parse(source)
    assert exception_classes([tree]) == {"A", "B", "C", "D", "E", "F"}
    assert told_apart(tree) >= {"B", "C", "D", "E"}
    assert not told_apart(tree) & {"A", "F"}
