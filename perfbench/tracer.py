"""Per-layer tracing of statemerge from outside the package.

The tracer wraps the package's public functions and records one span per
call (name, start, end, parent) plus a few counts taken from the arguments
and results.  Nothing inside ``src/`` changes.

The modules import each other's functions by name (``from .rnn import
forward`` in ``extraction`` and ``kmeans``, ``from .automata import
determinize, minimize``, ``harness``'s imports of ``extract``,
``kmeans_extract`` and the samplers), and the package re-exports several of
them.  Wrapping a function therefore means rebinding every name in every
loaded ``statemerge`` module that refers to it.  Modules are taken from
``sys.modules``: the package attribute ``statemerge.kmeans`` is the
re-exported *function*, not the module.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Any, Callable

PACKAGE = "statemerge"

# Functions wrapped, by module.  The three harness entry points are the
# workloads' roots; everything else is a layer under them.
LAYERS: dict[str, tuple[str, ...]] = {
    "languages": ("sample_balanced", "sample_eval_set"),
    "rnn": ("loss_and_grads", "adamw_step", "evaluate", "forward",
            "save_checkpoint", "load_checkpoint"),
    "extraction": ("build_prefix_tree", "merge_all"),
    "automata": ("determinize", "minimize"),
    "kmeans": ("kmeans", "kmeans_extract"),
    "harness": ("ensure_trained", "reproduce_table2", "sweep_data_size",
                "fidelity", "run_extraction", "run_kmeans_baseline"),
}
SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)


def _first_arg(args: tuple, kwargs: dict) -> Any:
    return args[0] if args else next(iter(kwargs.values()))


def _states_in_out(prefix: str) -> Callable[[tuple, dict, Any], dict[str, int]]:
    return lambda args, kwargs, result: {
        f"{prefix}.states_in": len(_first_arg(args, kwargs).states),
        f"{prefix}.states_out": len(result.states)}


# Counts taken at a layer boundary: span name -> (args, kwargs, result) -> increments.
COUNTS: dict[str, Callable[[tuple, dict, Any], dict[str, int]]] = {
    "languages.sample_balanced": lambda a, k, r: {"languages.strings": len(r)},
    "languages.sample_eval_set": lambda a, k, r: {"languages.strings": len(r)},
    "rnn.forward": lambda a, k, r: {"rnn.forward.strings": 1},
    "rnn.save_checkpoint": lambda a, k, r: {"rnn.checkpoint_bytes": len(r.encode())},
    "rnn.load_checkpoint": lambda a, k, r: {
        "rnn.checkpoint_bytes": len(_first_arg(a, k).encode())},
    "extraction.build_prefix_tree": lambda a, k, r: {"extraction.trie_states": r.n_states},
    "extraction.merge_all": lambda a, k, r: {"extraction.merged_states": len(r.states)},
    "automata.determinize": _states_in_out("automata.determinize"),
    "automata.minimize": _states_in_out("automata.minimize"),
    "kmeans.kmeans": lambda a, k, r: {"kmeans.points": len(_first_arg(a, k))},
}
COUNTER_NAMES = ("languages.strings", "rnn.forward.strings", "rnn.checkpoint_bytes",
                 "extraction.trie_states", "extraction.merged_states",
                 "automata.determinize.states_in", "automata.determinize.states_out",
                 "automata.minimize.states_in", "automata.minimize.states_out",
                 "kmeans.points")


class Tracer:
    """Context manager: rebinds the layer functions on entry, restores them
    on exit.  Spans are kept in memory as [name, start, end, parent_index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module_name, fns in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc: object) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, float]:
        """Per span name: calls, busy_s (summed durations) and self_s (busy
        minus the time covered by direct child spans); plus the counts,
        ``rnn.batch_ms_p50`` and ``extraction.merge_ratio``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out.update({f"{name}.calls": 0, f"{name}.busy_s": 0.0, f"{name}.self_s": 0.0})
        batch_ms = []
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += end - start - covered
            if name == "rnn.loss_and_grads":
                batch_ms.append(1e3 * (end - start))
        out.update(self.counts)
        out["rnn.batch_ms_p50"] = statistics.median(batch_ms) if batch_ms else 0.0
        trie = self.counts["extraction.trie_states"]
        merged = self.counts["extraction.merged_states"]
        out["extraction.merge_ratio"] = merged / trie if trie else 0.0
        return out
