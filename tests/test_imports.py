"""Every imported name in src/, scripts/ and tests/ is used in its module,
src/ and scripts/ import nothing from tests/, and src/ reads every field of
the configs.  No linter ships with the project, so this reads the syntax
trees itself."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for top in ("src", "scripts", "tests") for p in (ROOT / top).rglob("*.py"))
PROGRAM = [p for p in SOURCES if p.relative_to(ROOT).parts[0] != "tests"]
PACKAGE = [ast.parse(p.read_text()) for p in SOURCES if p.relative_to(ROOT).parts[0] == "src"]
CONFIGS = ("TrainingConfig", "ExperimentConfig", "ExtractionConfig")


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


def config_fields() -> list[tuple[str, str]]:
    """(class, field) for every field of the configs in harness.py."""
    tree = ast.parse((ROOT / "src" / "statemerge" / "harness.py").read_text())
    return [(node.name, stmt.target.id) for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in CONFIGS
            for stmt in node.body if isinstance(stmt, ast.AnnAssign)]


def field_reads(tree: ast.Module, cls: str) -> set[str]:
    """Attribute names read in a module that names cls, outside cls's own body.
    A function that takes a config names its class in an annotation, so a
    module that never names it (rnn's AdamWHyper.lr, say) does not count."""
    if cls not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}:
        return set()
    own = {id(node) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == cls
           for node in ast.walk(c)}
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in own}


@pytest.mark.parametrize("cls, field", config_fields(), ids=lambda v: v)
def test_every_config_field_is_read(cls, field):
    assert any(field in field_reads(tree, cls) for tree in PACKAGE)


def test_field_reads_skip_own_class_and_unrelated_modules():
    source = """
class TrainingConfig:
    lr: float
    def hyper(self):
        return self.lr
def train(config: TrainingConfig):
    return config.epochs
"""
    assert field_reads(ast.parse(source), "TrainingConfig") == {"epochs"}
    assert field_reads(ast.parse("def step(hyper):\n    return hyper.lr\n"),
                       "TrainingConfig") == set()
