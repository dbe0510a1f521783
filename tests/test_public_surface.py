"""Every public top-level function or class of the package serves a pipeline,
and so does every public method and property of a public class.  The package's
modules form one acyclic stack, and none reads a sibling's underscore names.

A name counts as used when a module of src/neurofuzzy/, scripts/ or nfbench/
names it outside its own definition: as a plain name, an attribute or an
import; a method or property counts only as an attribute.  The re-exports of
neurofuzzy/__init__.py do not count: exporting a name is not using it.  Tests
do not count either: a function that only tests reach belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "neurofuzzy"
# each module imports only modules before it: the device model depends on the
# network it can implement, not the other way round
STACK = ["errors", "fuzzy", "benchmarks", "network", "crossbar", "experiments", "cli"]


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


def attributes(node) -> set:
    """Every attribute name inside node: a method or property is reached as one."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def is_public(node, kinds) -> bool:
    return isinstance(node, kinds) and not node.name.startswith("_")


def surface():
    """Every top-level statement, definitions included, and the public top-level
    functions and classes of the package, as (path, node)."""
    modules = {path: ast.parse(path.read_text())
               for d in (PACKAGE, ROOT / "scripts", ROOT / "nfbench")
               for path in sorted(d.glob("*.py"))}
    statements = [stmt for path, tree in modules.items()
                  if path != PACKAGE / "__init__.py" for stmt in tree.body]
    public = [(path, stmt) for path in sorted(PACKAGE.glob("*.py"))
              for stmt in modules[path].body
              if is_public(stmt, (ast.FunctionDef, ast.ClassDef))]
    return statements, public


def test_every_public_name_is_used_outside_tests():
    statements, public = surface()
    statements = [(stmt, names(stmt)) for stmt in statements]
    assert len(public) > 50
    unused = [f"{path.name}:{d.name}" for path, d in public
              if not any(d.name in used for stmt, used in statements if stmt is not d)]
    assert not unused, f"public names that only tests reach: {unused}"


def test_every_public_method_and_property_is_used_outside_tests():
    statements, public = surface()
    statements = [(stmt, attributes(stmt)) for stmt in statements]
    members = [(path, cls, m) for path, cls in public if isinstance(cls, ast.ClassDef)
               for m in cls.body if is_public(m, ast.FunctionDef)]
    assert len(members) > 10
    # a member is used by another top-level statement or by another member of its class
    unused = [f"{path.name}:{cls.name}.{m.name}" for path, cls, m in members
              if not any(m.name in used for stmt, used in statements if stmt is not cls)
              and not any(m.name in attributes(other) for other in cls.body if other is not m)]
    assert not unused, f"public methods and properties that only tests reach: {unused}"


def sibling_imports(tree):
    """(module, names) of every import of a package module anywhere in tree, function
    bodies included; names are those imported from it, empty for the module itself.
    An absolute import of the package reads as module "neurofuzzy", in no stack."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.level == 1:
            found += ([(a.name, set()) for a in n.names] if n.module is None    # from . import x
                      else [(n.module, {a.name for a in n.names})])           # from .x import y
        elif isinstance(n, (ast.Import, ast.ImportFrom)) and any(
                m.split(".")[0] == "neurofuzzy"
                for m in [getattr(n, "module", None) or ""] + [a.name for a in n.names]):
            found.append(("neurofuzzy", set()))
    return found


def modules():
    """The package's modules but __init__.py, by name, parsed."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def test_the_modules_form_one_acyclic_stack():
    trees = modules()
    assert sorted(trees) == sorted(STACK)
    upward = [f"{name} imports {dep}" for name, tree in trees.items()
              for dep, _ in sibling_imports(tree)
              if dep not in STACK or STACK.index(dep) >= STACK.index(name)]
    assert not upward, f"imports against the stack {STACK}: {upward}"


def test_no_module_reads_a_siblings_underscore_names():
    private = []
    for name, tree in modules().items():
        imported = sibling_imports(tree)
        private += [f"{name} imports {dep}.{n}" for dep, names in imported for n in names
                    if n.startswith("_")]
        siblings = {dep for dep, names in imported if not names}
        private += [f"{name} reads {n.value.id}.{n.attr}" for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id in siblings and n.attr.startswith("_")
                    and not n.attr.startswith("__")]
    assert not private, f"reads of a sibling's underscore names: {private}"
