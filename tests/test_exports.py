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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _package_source(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from: "" for the package
    itself, None for anything outside it."""
    module = node.module or ""
    if node.level == 1:
        return module
    if node.level == 0 and (module == "hgpoly" or module.startswith("hgpoly.")):
        return module.removeprefix("hgpoly").lstrip(".")
    return None


def test_no_module_reaches_a_sibling_private_name():
    # a private name belongs to its module: a sibling that needs it needs
    # a public name, so neither an import nor an attribute may reach it
    package = os.path.dirname(hgpoly.__file__)
    siblings = {filename[:-3] for filename in os.listdir(package) if filename.endswith(".py")}
    reached = []
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename)
        modules: set[str] = set()  # the local names bound to sibling modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (source := _package_source(node)) is not None:
                for alias in node.names:
                    if not source and alias.name in siblings:
                        modules.add(alias.asname or alias.name)
                    elif _private(alias.name):
                        reached.append(f"{filename}: {source or 'hgpoly'}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.removeprefix("hgpoly.") in siblings and alias.asname:
                        modules.add(alias.asname)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules and _private(node.attr):
                    reached.append(f"{filename}: {node.value.id}.{node.attr}")
    assert reached == []


def test_only_parallel_forks():
    # the fork, pipe, kill and reap of worker processes live in one module
    process_calls = {"fork", "pipe", "kill", "waitpid"}
    package = os.path.dirname(hgpoly.__file__)
    calls = []
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py") or filename == "parallel.py":
            continue
        with open(os.path.join(package, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                calls += [f"{filename}: os.{alias.name}" for alias in node.names if alias.name in process_calls]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                if node.attr in process_calls:
                    calls.append(f"{filename}: os.{node.attr}")
    assert calls == []
