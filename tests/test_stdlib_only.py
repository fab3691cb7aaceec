"""The library imports nothing outside the standard library and itself."""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "lyalg")


def foreign_imports(path):
    tree = ast.parse(open(path, encoding="utf-8").read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "lyalg" and top not in sys.stdlib_module_names:
                yield node.lineno, name


def test_library_is_stdlib_only():
    modules = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert "linalg.py" in modules
    bad = [(f, line, name) for f in modules
           for line, name in foreign_imports(os.path.join(SRC, f))]
    assert bad == []


def unused_imports(path):
    """Names a module imports and never reads."""
    tree = ast.parse(open(path, encoding="utf-8").read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # __init__.py imports in order to re-export
    modules = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")
    bad = [(f, line, name) for f in modules
           for line, name in unused_imports(os.path.join(SRC, f))]
    assert bad == []
