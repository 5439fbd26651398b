"""Every definition in the package is used by a program.

A module-level function or class in `src/formations` passes when
`__init__.py` imports it (the import list is the export list) or when it is
named somewhere else in the package, `scripts/` or `perfbench/`: as a name,
an attribute or an import alias. A non-dunder method passes when its name
appears as an attribute there. Tests do not count, so a helper that only a
test calls fails here and belongs in `tests/`.

The scan goes by name alone. A method whose name matches another attribute
in use escapes it: `FiniteGroup.identity` was dead while
`Permutation.identity` was called, and could only be found by hand.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "formations"
USERS = (SRC, ROOT / "scripts", ROOT / "perfbench")


def _references(tree: ast.AST) -> tuple[list[str], list[str]]:
    """Names (as names or import aliases) and attribute names in a tree."""
    names, attrs = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name.split(".")[-1])
    return names, attrs


def dead_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """`package` maps module file names to source; `others` are the sources
    of the other programs. Returns `module:name` for each unused function
    or class and `module:Class.method` for each unused method."""
    trees = {name: ast.parse(src) for name, src in package.items()}
    names, attrs = [], []
    for tree in [*trees.values(), *map(ast.parse, others)]:
        n, a = _references(tree)
        names += n
        attrs += a
    exported = set(_references(trees.pop("__init__.py", ast.Module([], [])))[0])
    dead = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = _references(node)
            used = (node.name in exported or names.count(node.name) > own[0].count(node.name)
                    or attrs.count(node.name) > own[1].count(node.name))
            if not used:
                dead.append(f"{module}:{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                        and attrs.count(item.name) == _references(item)[1].count(item.name)):
                    dead.append(f"{module}:{node.name}.{item.name}")
    return dead


def test_no_dead_definitions():
    package = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    others = [path.read_text() for folder in USERS[1:] for path in sorted(folder.glob("*.py"))]
    assert dead_definitions(package, others) == []


def test_dead_definitions_are_caught():
    package = {
        "__init__.py": "from .m import exported\n",
        "m.py": ("def exported(): pass\n"
                 "def called(): pass\n"
                 "def recursive(): recursive()\n"
                 "class K:\n"
                 "    def __init__(self): self.used()\n"
                 "    def used(self): pass\n"
                 "    def dead(self): pass\n"
                 "    def loop(self): self.loop()\n"
                 "called()\n"),
    }
    assert dead_definitions(package, ["from formations.m import K\n"]) == [
        "m.py:recursive", "m.py:K.dead", "m.py:K.loop"]
