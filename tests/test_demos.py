"""Demos 01-04 run end to end, so an API change cannot break one silently.

Demo 05 trains three variants for about 20 s, so CI runs it as a step of
its own; every demo is parsed, compiled and has its ``mrgsrec`` imports
resolved.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_data_pipeline", "02_autodiff",
                                  "03_graph_propagation",
                                  "04_train_and_evaluate"])
def test_demo_runs(tmp_path, name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def mrgsrec_imports(tree: ast.AST):
    """(module, name) for each ``from mrgsrec... import name`` in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "mrgsrec":
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.stem)
def test_demo_compiles_and_its_imports_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    compile(tree, str(path), "exec")
    imports = list(mrgsrec_imports(tree))
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if not hasattr(module, name):  # a submodule of a package
            importlib.import_module(f"{module_name}.{name}")
        assert hasattr(module, name), f"{module_name} has no {name}"
