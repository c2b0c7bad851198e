"""Every imported name in src/, scripts/ and tests/ is used in its module,
src/ and scripts/ import nothing from tests/, src/ reads every field of the
configs, and src/, scripts/ or perfbench/ use every public name of the
package.  No linter ships with the project, so this reads the syntax trees
itself."""

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


# Public names of the package that no program code uses, and why each stays.
UNUSED_KEPT = {
    "automata.Dfa.accepts": "run-semantics reference: a machine's verdict on one string",
    "rnn.Prefixes.state_of": "acceptance-suite claim: criterion 6's extraction check",
    "rnn.kappa_bound": "acceptance-suite claim: criterion 6's safe merge tolerance",
    "rnn.forward": "benchmark tracer: perfbench/tracer.py wraps it by name (ROADMAP item 1)",
}


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) for each public top-level function, class and upper-case
    constant, and each public method of a top-level class as Class.method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node))
            found += [(f"{node.name}.{method.name}", method) for method in node.body
                      if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)
                      and t.id.isupper() and not t.id.startswith("_")]
    return found


def unused_definitions(package: dict[str, ast.Module], others: list[ast.Module],
                       kept: frozenset[str] = frozenset()) -> list[str]:
    """module.name for each public definition in package that neither the
    package nor others use outside the definition itself.  A use is a loaded
    name or attribute with the definition's bare name; strings do not count.
    Uses inside an unused definition do not count either, unless it is kept,
    so a name that only dead code uses is reported too."""
    uses: dict[str, set[int]] = {}
    for tree in [*package.values(), *others]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, set()).add(id(node))
    definitions = [(f"{module}.{name}", {id(n) for n in ast.walk(node)})
                   for module, tree in package.items() for name, node in public_definitions(tree)]
    unused: set[str] = set()
    while True:
        dead = set().union(*(own for name, own in definitions
                             if name in unused and name not in kept))
        found = {name for name, own in definitions
                 if not uses.get(name.rsplit(".", 1)[1], set()) - own - dead}
        if found == unused:
            return sorted(unused)
        unused = found


def test_every_public_name_is_used_by_the_program():
    package = {p.stem: ast.parse(p.read_text())
               for p in sorted((ROOT / "src" / "statemerge").glob("*.py"))}
    others = [ast.parse(p.read_text())
              for top in ("scripts", "perfbench") for p in sorted((ROOT / top).rglob("*.py"))]
    assert unused_definitions(package, others, frozenset(UNUSED_KEPT)) == sorted(UNUSED_KEPT)


def test_unused_definitions_detected():
    source = """
LIMIT = 3
_SCALE = 2
LAYERS = {"m": ("walk",)}
def bound():
    return LIMIT
def walk(n):
    return walk(n - 1) if n > bound() else n
class Box:
    def open(self):
        return self.close()
    def close(self):
        return _SCALE
    def _hidden(self):
        pass
def main():
    print(LAYERS, Box().open())
main()
"""
    package = {"m": ast.parse(source)}
    assert unused_definitions(package, []) == ["m.LIMIT", "m.bound", "m.walk"]
    assert unused_definitions(package, [], frozenset({"m.walk"})) == ["m.walk"]
    assert unused_definitions(package, [ast.parse("walk(1)")]) == []
