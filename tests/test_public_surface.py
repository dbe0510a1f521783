"""Every public top-level function or class of the package serves a pipeline.

A name counts as used when a module of src/neurofuzzy/, scripts/ or nfbench/
names it outside its own definition: as a plain name, an attribute or an
import.  The re-exports of neurofuzzy/__init__.py do not count: exporting a
name is not using it.  Tests do not count either: a function that only tests
reach belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "neurofuzzy"


def names(node) -> set:
    """Every plain name, attribute and imported name inside node."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name.rsplit(".", 1)[-1])
    return found


def test_every_public_name_is_used_outside_tests():
    modules = {path: ast.parse(path.read_text())
               for d in (PACKAGE, ROOT / "scripts", ROOT / "nfbench")
               for path in sorted(d.glob("*.py"))}
    # the names each top-level statement uses, definitions included
    statements = [(stmt, names(stmt)) for path, tree in modules.items()
                  if path != PACKAGE / "__init__.py" for stmt in tree.body]
    public = [(path, stmt) for path in sorted(PACKAGE.glob("*.py"))
              for stmt in modules[path].body
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not stmt.name.startswith("_")]
    assert len(public) > 50
    unused = [f"{path.name}:{d.name}" for path, d in public
              if not any(d.name in used for stmt, used in statements if stmt is not d)]
    assert not unused, f"public names that only tests reach: {unused}"
