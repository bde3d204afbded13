"""Dead code in src/sprayform, found with the standard library's ast alone:
a name that a module imports and never uses, and a module-level private
(``_name``) function, class or constant that nothing in the package
references outside its own definition."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sprayform"
TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(SRC.glob("*.py"))}


def _references(node):
    """Names read under ``node``, as bare names and as attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _private_definitions(tree):
    """(name, node) of each module-level private function, class or
    constant (not a dunder name)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_import_is_used():
    unused = []
    for module, tree in TREES.items():
        if module == "__init__.py":
            continue          # the package's imports are its exports
        used = set(_references(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}:{node.lineno} {bound}")
    assert unused == []


def test_every_private_definition_is_referenced():
    package = Counter(name for tree in TREES.values() for name in _references(tree))
    unreferenced = []
    for module, tree in TREES.items():
        for name, node in _private_definitions(tree):
            # every reference lies inside the definition itself
            if package[name] == Counter(_references(node))[name]:
                unreferenced.append(f"{module}:{node.lineno} {name}")
    assert unreferenced == []
