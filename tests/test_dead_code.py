"""Dead code in src/sprayform, found with the standard library's ast alone:
a name that a module imports and never uses, a module-level private
(``_name``) function, class or constant that nothing in the package
references outside its own definition, and a module-level public function,
class or method of a class that no caller names outside its own definition.
The callers are the package (not its ``__init__`` re-exports), the demos and
the benchmark; a test alone does not keep a definition alive."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sprayform"
TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(SRC.glob("*.py"))}
# the code that may name a public definition; a name in a string does not
CALLERS = [path for folder in ("src", "demos", "perfbench")
           for path in sorted((ROOT / folder).rglob("*.py"))
           if path != SRC / "__init__.py"]


def _references(node, bare=True):
    """Names read under ``node``, as attributes and, if ``bare``, as bare
    names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        elif bare and isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id


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


def _public(body, kinds):
    return [node for node in body
            if isinstance(node, kinds) and not node.name.startswith("_")]


def _stored(tree):
    """Attribute names that ``tree`` stores (``obj.name = ...``)."""
    return {sub.attr for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)}


def test_every_public_definition_is_named():
    """A method counts as named only where an attribute reads it: a bare
    local ``inverse`` does not name a method ``inverse``, and a module that
    stores an attribute ``failed`` itself reads its own, not a method."""
    callers = [ast.parse(path.read_text(), str(path)) for path in CALLERS]
    named = Counter(name for tree in callers for name in _references(tree))
    loaded = Counter()
    for tree in callers:
        stored = _stored(tree)
        loaded.update(name for name in _references(tree, bare=False)
                      if name not in stored)
    unnamed = []
    for module, tree in TREES.items():
        for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
            if named[node.name] == Counter(_references(node))[node.name]:
                unnamed.append(f"{module}:{node.lineno} {node.name}")
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for method in _public(methods, ast.FunctionDef):
                if loaded[method.name] == \
                        Counter(_references(method, bare=False))[method.name]:
                    unnamed.append(f"{module}:{method.lineno} "
                                   f"{node.name}.{method.name}")
    assert unnamed == []


# the draws of report.SplitMix64, each a batch of rows, with the position of
# its row count
ROW_DRAWS = {"rows": 0, "uniform_rows": 1}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _single_row_draws(tree):
    """Lines of the draws of one row (a literal count 1) inside a loop."""
    for loop in ast.walk(tree):
        for call in ast.walk(loop) if isinstance(loop, LOOPS) else ():
            if isinstance(call, ast.Call) and \
                    isinstance(call.func, ast.Attribute) and \
                    call.func.attr in ROW_DRAWS:
                count = call.args[ROW_DRAWS[call.func.attr]:][:1]
                if [getattr(a, "value", None) for a in count] == [1]:
                    yield call.lineno


def test_seeded_draws_come_in_rows():
    """SplitMix64 has no draw of one value (the scalar stream is the oracle
    of tests/rng_oracle.py), and no loop in the package draws one row per
    pass."""
    (mix,) = [node for node in TREES["report.py"].body
              if isinstance(node, ast.ClassDef) and node.name == "SplitMix64"]
    assert {node.name for node in _public(mix.body, ast.FunctionDef)} == \
        set(ROW_DRAWS)
    assert [f"{module}:{line}" for module, tree in TREES.items()
            for line in _single_row_draws(tree)] == []
    witness = ast.parse("for p in P:\n    x = rng.uniform_rows(box, 1)\n"
                        "y = [rng.rows(1, 3) for _ in P]")
    assert sorted(set(_single_row_draws(witness))) == [2, 3]
