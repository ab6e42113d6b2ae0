"""One cache idiom on triangulations.  No module of the package touches
a __dict__ other than its own self's (cached_property tables and the
like), except per_triangulation in surfaces.py: the one mechanism that
keeps a value on a triangulation from outside its class.  A
triangulation is frozen, so what is kept on it cannot go stale; a cache
written by hand into another object's __dict__ can."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "surfmap"
MEMO = ("surfaces.py", "per_triangulation")


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


class _DictUses(ast.NodeVisitor):
    """The uses of another object's __dict__ in a module, as (outermost
    enclosing function, line): `x.__dict__`, `vars(x)` and
    `getattr(x, "__dict__")`, x not `self`."""

    def __init__(self):
        self.functions, self.found = [], []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def _found(self, node):
        self.found.append((self.functions[0] if self.functions else None, node.lineno))

    def visit_Attribute(self, node):
        if node.attr == "__dict__" and not _is_self(node.value):
            self._found(node)
        self.generic_visit(node)

    def visit_Call(self, node):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        if name == "vars" and not (node.args and _is_self(node.args[0])):
            self._found(node)
        if (name == "getattr" and len(node.args) > 1 and not _is_self(node.args[0])
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "__dict__"):
            self._found(node)
        self.generic_visit(node)


def test_only_per_triangulation_touches_another_objects_dict():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        uses = _DictUses()
        uses.visit(ast.parse(path.read_text(), str(path)))
        found += [f"{path.name}:{line} in {function}" for function, line in uses.found
                  if (path.name, function) != MEMO]
    assert not found, f"__dict__ of another object touched outside per_triangulation: {found}"
