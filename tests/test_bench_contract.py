"""The benchmark's contract with the package: every function that
perfbench/tracer.py wraps exists, and every call that perfbench/run.py makes
into the package binds to the current signature.  This only reads
perfbench/; run.py is parsed, not imported, since importing it sets BLAS
environment variables."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from statemerge import harness, rnn

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN = ast.parse((PERFBENCH / "run.py").read_text())
# The modules run.py reaches through its `harness` and `rnn` parameters.
MODULES = {"harness": harness, "rnn": rnn}


def package_calls():
    """(line, module, function, positional count, keyword names) for every
    `harness.f(...)` and `rnn.f(...)` call in run.py."""
    for node in ast.walk(RUN):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in MODULES):
            yield (node.lineno, node.func.value.id, node.func.attr, len(node.args),
                   [kw.arg for kw in node.keywords])


def test_traced_layers_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.LAYERS.items():
        home = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"


def test_calls_bind():
    calls = list(package_calls())
    assert {(module, name) for _, module, name, _, _ in calls} >= {
        ("harness", "ExperimentConfig"), ("harness", "ExtractionConfig"),
        ("harness", "TrainingConfig"), ("harness", "ensure_trained"),
        ("harness", "reproduce_table2"), ("harness", "sweep_data_size"),
        ("rnn", "load_checkpoint"), ("rnn", "model_from_checkpoint")}
    for line, module, name, n_args, keywords in calls:
        signature = inspect.signature(getattr(MODULES[module], name))
        try:
            signature.bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"perfbench/run.py:{line}: {module}.{name}: {exc}")


def test_cold_fill_sizes_are_training_fields():
    # run.py: dataclasses.replace(TrainingConfig(sizes.pop("language"), seed), **sizes)
    [assign] = [node for node in RUN.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["COLD_FILL"]]
    sizes = {kw.arg: ast.literal_eval(kw.value) for kw in assign.value.keywords}
    config = dataclasses.replace(harness.TrainingConfig(sizes.pop("language"), 0), **sizes)
    assert {name: getattr(config, name) for name in sizes} == sizes
