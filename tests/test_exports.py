from __future__ import annotations

import ast
import os
from types import ModuleType

import hgpoly
from hgpoly import errors


def test_all_lists_exactly_the_public_names():
    bound = {
        name
        for name, value in vars(hgpoly).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    # equal to the bound names, every listed name resolves
    assert len(hgpoly.__all__) == len(set(hgpoly.__all__))
    assert set(hgpoly.__all__) == bound


def _name(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_every_error_class_is_raised_or_caught_by_the_program():
    # an error class is worth keeping only if the program raises it or
    # handles it apart from the others; one that only tests name is dead
    package = os.path.dirname(hgpoly.__file__)
    used: set[str | None] = set()
    for filename in os.listdir(package):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                used.add(_name(node.exc))
            elif isinstance(node, ast.ExceptHandler):
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                used.update(_name(t) for t in caught)
    classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == errors.__name__
    }
    assert "HgpolyError" in classes
    assert sorted(classes - {"HgpolyError"} - used) == []
