"""Every imported name in src/, scripts/ and tests/ is used in its module, and
src/ and scripts/ import nothing from tests/.  No linter ships with the
project, so this reads the syntax trees itself."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for top in ("src", "scripts", "tests") for p in (ROOT / top).rglob("*.py"))
PROGRAM = [p for p in SOURCES if p.relative_to(ROOT).parts[0] != "tests"]


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def is_test_module(name: str) -> bool:
    parts = name.split(".")
    return parts[0] == "tests" or any(p == "conftest" or p.startswith("test_") for p in parts)


def imports_from_tests(tree: ast.Module) -> list[str]:
    """Imports of a test module or conftest, and sys.path changes that name a
    "tests" directory."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                      if is_test_module(alias.name)]
        elif isinstance(node, ast.ImportFrom):
            if any(map(is_test_module, [node.module or ""] + [a.name for a in node.names])):
                found.append(f"line {node.lineno}: from {node.module}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and ast.unparse(node.func.value) == "sys.path"
              and any(isinstance(c, ast.Constant) and c.value == "tests"
                      for arg in node.args for c in ast.walk(arg))):
            found.append(f"line {node.lineno}: sys.path.{node.func.attr} of tests")
    return found


@pytest.mark.parametrize("path", PROGRAM, ids=lambda p: str(p.relative_to(ROOT)))
def test_program_imports_nothing_from_tests(path):
    assert imports_from_tests(ast.parse(path.read_text())) == []


def test_imports_from_tests_detected():
    source = """
import sys
import conftest
from test_acceptance import CACHE
from tests.helpers import x
from statemerge import harness
sys.path.insert(0, str(ROOT / "tests"))
sys.path.append("src")
"""
    assert imports_from_tests(ast.parse(source)) == [
        "line 3: import conftest", "line 4: from test_acceptance", "line 5: from tests.helpers",
        "line 7: sys.path.insert of tests"]
