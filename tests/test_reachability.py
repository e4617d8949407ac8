"""Nothing in ``src/mrgsrec`` is reachable only from the tests.

Each module-level function and class of the package must be named by the
package itself, the benchmark or a demo: as a ``Name``, an ``Attribute``
or an import. The check reads the source with ``ast`` and imports nothing.
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
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_package_definition_has_a_user_outside_the_tests():
    used = referenced_names()
    unused = [f"{path.stem}.{node.name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for node in parsed(path).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in used]
    assert not unused, f"reachable only from the tests, if at all: {unused}"
