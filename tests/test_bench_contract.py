"""The benchmark's contract with the package: every function that
perfbench/tracer.py wraps exists, every count the tracer takes at a layer
boundary reads a real call's arguments and result, and every call that
perfbench/run.py makes into the package binds to the current signature.
This only reads perfbench/; run.py is parsed, not imported, since importing
it sets BLAS environment variables."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from statemerge import automata, extraction, harness, languages, rnn
from statemerge.languages import ALPHABET

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN = ast.parse((PERFBENCH / "run.py").read_text())
_spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
TRACER = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(TRACER)
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


def layer(span_name):
    module, name = span_name.split(".")
    return getattr(importlib.import_module(f"{TRACER.PACKAGE}.{module}"), name)


def test_traced_layers_exist():
    for span_name in TRACER.SPAN_NAMES:
        assert callable(layer(span_name)), span_name


def counted_calls():
    """One real call, as (args, kwargs), of every layer the tracer counts at,
    on a tiny model; one call passes its first argument by keyword."""
    rng = np.random.default_rng(0)
    model = rnn.init_model(ALPHABET, 2, 3, rng)
    samples = languages.sample_eval_set(2, 4, 3, np.random.default_rng(1))
    tree = extraction.build_prefix_tree(model, samples)
    nfa = extraction.merge_all(tree, 0.1)
    ckpt = rnn.Checkpoint(model.params, {"epoch": 1})
    return {
        "languages.sample_balanced": ((2, 4, 6, rng), {}),
        "languages.sample_eval_set": ((2, 4, 6, rng), {}),
        "rnn.forward": ((model, "ab"), {}),
        "rnn.save_checkpoint": ((ckpt, ALPHABET), {}),
        "rnn.load_checkpoint": ((), {"text": rnn.save_checkpoint(ckpt, ALPHABET)}),
        "extraction.build_prefix_tree": ((model, samples), {}),
        "extraction.merge_all": ((tree, 0.1), {}),
        "automata.determinize": ((nfa,), {}),
        "automata.minimize": ((automata.determinize(nfa),), {}),
        "kmeans.kmeans": ((tree.features, tree.visits, 2, rng), {}),
    }


# The string counts counted_calls asks the samplers for; the widths differ (4
# and 6), so a count of the width would fail.
REQUESTED_STRINGS = {"languages.sample_balanced": 6, "languages.sample_eval_set": 4}


def test_counts_read_real_calls():
    calls = counted_calls()
    assert set(calls) == set(TRACER.COUNTS)
    for span_name, (args, kwargs) in calls.items():
        result = layer(span_name)(*args, **kwargs)
        counts = TRACER.COUNTS[span_name](args, kwargs, result)
        assert counts and set(counts) <= set(TRACER.COUNTER_NAMES), span_name
        assert all(type(value) is int and value >= 0 for value in counts.values()), (
            span_name, counts)
        if span_name in REQUESTED_STRINGS:
            assert counts == {"languages.strings": REQUESTED_STRINGS[span_name]}, span_name


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


def test_eval_sets_stay_out_of_the_extraction_counters():
    # An eval reference numbers its prefixes without building a prefix tree,
    # so the tree's span and trie_states count extraction strings only.
    rng = np.random.default_rng(0)
    model = rnn.init_model(ALPHABET, 2, 3, rng)
    samples = languages.sample_eval_set(2, 20, 6, rng)
    dfa = languages.gold_dfa(2)
    with TRACER.Tracer() as tracer:
        rnn.evaluate(model, samples)
        harness.fidelity(dfa, rnn.eval_reference(model, samples))
    names = {span[0] for span in tracer.spans}
    assert {"rnn.evaluate", "harness.fidelity"} <= names
    assert "extraction.build_prefix_tree" not in names
    assert tracer.counts["extraction.trie_states"] == 0
