"""Nothing in ``src/mrgsrec`` is reachable only from the tests.

Each module-level function and class of the package, and each member of
such a class (a non-dunder method or an unannotated class-level
assignment; annotated dataclass fields are data), must be read by the
package itself, the benchmark or a demo: as a ``Name`` or an
``Attribute`` in load context, or an import. A store does not count, so
an assignment does not name itself. The check reads the source with
``ast`` and imports nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mrgsrec"
USERS = ("src", "perfbench", "demos")


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced_names() -> set[str]:
    """Every name the ``USERS`` trees read, load an attribute by or import."""
    names = set()
    for tree in USERS:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(parsed(path)):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Load)):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names


def member_names(cls: ast.ClassDef) -> list[str]:
    """The class's non-dunder methods and unannotated class-level names."""
    names = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def test_every_package_definition_has_a_user_outside_the_tests():
    used = referenced_names()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parsed(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in used:
                unused.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [f"{path.stem}.{node.name}.{member}"
                           for member in member_names(node)
                           if member not in used]
    assert not unused, f"reachable only from the tests, if at all: {unused}"
