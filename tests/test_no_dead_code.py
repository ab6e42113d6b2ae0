"""Every module-level function, class and constant of the package, and
every method of its classes, has a caller: some reference to it in src/
or perfbench/ outside its own definition, or a place in the short list of
public entry points below.  Dunder methods (dataclass hooks such as
__post_init__ among them) are called by Python itself and are exempt.
Every field of the package's classes (dataclass annotations, __slots__
entries) is read as an attribute somewhere in src/ or perfbench/, and
every name a module of the package imports is used in that module."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "surfmap"

# Entry points kept for users of the library although nothing in the
# package or the benchmark calls them; compose_with_covering is the
# composition that acceptance criterion 6 checks.
PUBLIC_API = {"compose_with_covering"}


def _definitions(tree: ast.Module):
    """(name, name, node) for the module-level functions, classes and
    constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, target.id, node


def _methods(tree: ast.Module):
    """(Class.name, name, node) for the methods of the module-level classes,
    dunders left out."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                yield f"{cls.name}.{node.name}", node.name, node


def _fields(tree: ast.Module):
    """(Class.name, name) for the fields of the module-level classes: their
    annotated class attributes (dataclass fields) and __slots__ entries."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield f"{cls.name}.{node.target.id}", node.target.id
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__slots__"
                          for t in node.targets)):
                for name in ast.literal_eval(node.value):
                    yield f"{cls.name}.{name}", name


def _names_used(tree: ast.AST) -> Counter:
    """How often each identifier, attribute name, imported name and string
    constant occurs in `tree`."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _trees() -> dict:
    """path -> parsed module, for src/surfmap and perfbench."""
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(), str(path)) for path in files}


def _unused(definitions) -> list:
    """The definitions (shown name, name, node) of the package's modules
    whose name nothing outside their own node refers to."""
    trees = _trees()
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    return [f"{path.name}: {shown}"
            for path, tree in trees.items() if path.parent == PACKAGE
            for shown, name, node in definitions(tree)
            if shown not in PUBLIC_API and used[name] == _names_used(node)[name]]


def test_every_module_level_name_has_a_caller():
    unused = _unused(_definitions)
    assert not unused, f"module-level names nothing refers to: {unused}"


def test_every_method_has_a_caller():
    unused = _unused(_methods)
    assert not unused, f"methods nothing refers to: {unused}"


def test_every_field_is_read():
    """A dataclass field or __slots__ entry that no attribute load reads
    is state nobody looks at."""
    trees = _trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}: {shown}"
              for path, tree in trees.items() if path.parent == PACKAGE
              for shown, name in _fields(tree) if name not in read]
    assert not unread, f"fields no attribute load reads: {unread}"


def _imported(tree: ast.Module):
    """The names the module's import statements bind, __future__ features
    left out: `import a.b` binds a, `from a import b as c` binds c."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_import_is_used():
    """An imported name that its module never refers to is dead weight."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in _imported(tree) if name not in names]
    assert not unused, f"imported names nothing refers to: {unused}"
