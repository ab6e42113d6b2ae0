"""Every module-level function, class and constant of the package has a
caller: some reference to it in src/ or perfbench/ outside its own
definition, or a place in the short list of public entry points below."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "surfmap"

# Entry points kept for users of the library although nothing in the
# package or the benchmark calls them; compose_with_covering is the
# composition that acceptance criterion 6 checks.
PUBLIC_API = {"domain_kind", "builtin_example", "split_circle",
              "compose_with_covering"}


def _definitions(tree: ast.Module):
    """(name, node) for the module-level functions, classes and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node


def _names_used(tree: ast.AST, skip=()) -> set:
    """Identifiers, attribute names, imported names and string constants
    used in `tree`, leaving out the subtrees in `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _trees():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(), str(path)) for path in files}


def test_every_module_level_name_has_a_caller():
    trees = _trees()
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for name, node in _definitions(tree):
            if name in PUBLIC_API:
                continue
            used = any(name in _names_used(other, skip={node} if other is tree else ())
                       for other in trees.values())
            if not used:
                unused.append(f"{path.name}: {name}")
    assert not unused, f"module-level names nothing refers to: {unused}"
