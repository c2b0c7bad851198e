"""DFA extraction by state merging: build a prefix tree from the model's
per-prefix decisions, merge states that agree in label and whose hidden
vectors are nearly parallel, then determinize and minimize."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .automata import Dfa, Nfa, determinize, minimize, successor_table
from .languages import Samples
from .rnn import Prefixes, RnnModel, _accepts, _head_probs, level_states, number_prefixes

logger = logging.getLogger(__name__)

# Similarity entries per product in merge_all's search (float64, about 0.5 MB).
CELLS = 1 << 16


@dataclass(frozen=True)
class PrefixTree(Prefixes):
    """The distinct prefixes of the training strings, labelled by the model,
    with each state's hidden vector."""
    features: np.ndarray  # (n_states, d); row q is the hidden state of state q


def build_prefix_tree(model: RnnModel, samples: Samples) -> PrefixTree:
    """The states are the distinct prefixes of the samples' strings, numbered
    by number_prefixes; their stored labels are not read.  Each distinct
    prefix's hidden state is computed once, h(p a) = step(h(p), a), by
    level_states, and one head call labels all states."""
    parents, tokens, levels, visits = number_prefixes(model, samples)
    features = np.empty((len(parents), model.hidden_dim))
    for lo, hi, h in level_states(model, parents, tokens, levels):
        features[lo:hi] = h
    labels = _accepts(_head_probs(model.params, features))
    return PrefixTree(model.alphabet, parents, tokens, levels, visits, labels, features)


def merge_all(tree: PrefixTree, kappa: float) -> Nfa:
    """Quotient of the prefix tree by a representative map.

    rep[i] is the lowest j < i with labels[j] == labels[i] and
    cos(i, j) > 1 - kappa, or i when no such j exists.  This is the scan that
    visits BFS ids descending and folds each state into its lowest alive
    match: every lower id is still alive when q_i is visited, and an alive
    higher id q_k never matches q_i, since q_k saw q_i as a live candidate and
    would have been folded.  A zero-norm feature has cosine 0 with every row
    and 1 - kappa > 0, so it never matches.  The merged machine is the tree
    with every state replaced by the end of its representative chain, as in
    RPNI's quotient of the prefix-tree acceptor; merging may therefore create
    self-loops and nondeterminism.  Its edges are the distinct codes
    (rep[parent] * |alphabet| + token) * n_states + rep[child] of the tree's.
    """
    rep = _lowest_matches(tree, kappa)
    # rep[i] <= i, so the chains descend; pointer jumping reaches their ends.
    while not np.array_equal(rep[rep], rep):
        rep = rep[rep]
    n, sigma = tree.n_states, len(tree.alphabet)
    # Sorted, then the distinct ones: np.unique would import numpy.ma, 0.7 MB of peak memory.
    codes = np.sort((rep[tree.parents[1:]] * sigma + tree.tokens[1:]) * n + rep[1:])
    edges, dsts = np.divmod(codes[np.diff(codes, prepend=-1) > 0], n)
    transitions: dict[tuple[int, str], set[int]] = {}
    for edge, dst in zip(edges.tolist(), dsts.tolist()):
        transitions.setdefault((edge // sigma, tree.alphabet[edge % sigma]), set()).add(dst)
    states = rep == np.arange(n)
    return Nfa(tree.alphabet, set(np.flatnonzero(states).tolist()), int(rep[0]), transitions,
               set(np.flatnonzero(states & tree.labels).tolist()))


def _lowest_matches(tree: PrefixTree, kappa: float) -> np.ndarray:
    """rep[i], the lowest j < i with i's label and cos(i, j) > 1 - kappa, else i.

    Only states of one label match, so the unit rows are sorted by label,
    stably, and each label's slice, ids ascending, is searched alone.  Its
    rows go in blocks of sqrt(CELLS), whose unmatched rows meet column blocks
    that ascend from the slice's first id, doubling in width from 1/8 of the
    row block, each product capped at CELLS entries.  A row leaves at its
    first block with a match, whose first True is its lowest match, or when
    the columns reach its own id: little work when states match early, the
    whole triangle when none do.  BLAS may round a dot product differently in
    another block shape; scripts/differential.py and the tests check the maps."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie strictly between 0 and 1")
    order = np.argsort(tree.labels, kind="stable")
    norms = np.linalg.norm(tree.features, axis=1)[order]
    degenerate = norms == 0.0
    if degenerate.any():
        logger.warning("%d zero-norm features treated as never similar", int(degenerate.sum()))
    unit = tree.features[order]
    np.divide(unit, norms[:, None], out=unit, where=~degenerate[:, None])
    unit[degenerate] = 0.0
    threshold = 1.0 - kappa
    lowest = np.arange(tree.n_states)  # positions in the sorted layout
    split = int(np.count_nonzero(~tree.labels))
    rows = int(CELLS ** 0.5)
    for lo, hi in ((0, split), (split, tree.n_states)):
        for start in range(lo, hi, rows):
            pending = np.arange(max(start, lo + 1), min(start + rows, hi))  # lo has no j < lo
            first, width = lo, max(1, rows // 8)
            while pending.size:
                stop = min(first + min(width, CELLS // pending.size), int(pending[-1]))
                match = unit[pending] @ unit[first:stop].T > threshold
                if stop > pending[0]:
                    match &= np.arange(first, stop) < pending[:, None]  # j < i
                hit = match.any(axis=1)
                lowest[pending[hit]] = first + match[hit].argmax(axis=1)
                pending = pending[~hit & (pending > stop)]
                first, width = stop, 2 * width
    rep = np.empty_like(lowest)
    rep[order] = order[lowest]
    return rep


@dataclass
class ExtractionReport:
    determinized: Dfa
    final: Dfa
    sizes: tuple[int, int, int]  # (trie, merged, minimized)
    train_fidelity: float


def machine_verdicts(dfa: Dfa, prefixes: Prefixes) -> np.ndarray:
    """The machine's verdict on each state of prefixes.  The machine is
    completed with a sink (successor_table), and each level's rows are the
    successors of their parents' rows on their tokens."""
    states, succ = successor_table(dfa, prefixes.alphabet)
    table = np.array(succ)
    rows = np.full(prefixes.n_states, states.index(dfa.initial))
    levels = prefixes.levels.tolist()
    for lo, hi in zip(levels[1:-1], levels[2:]):
        rows[lo:hi] = table[rows[prefixes.parents[lo:hi]], prefixes.tokens[lo:hi]]
    return np.array([state in dfa.accepting for state in states] + [False])[rows]


def train_set_fidelity(final: Dfa, tree: PrefixTree) -> float:
    """Fraction of distinct training prefixes on which the extracted machine
    agrees with the labels recorded in the tree."""
    return int(np.count_nonzero(machine_verdicts(final, tree) == tree.labels)) / tree.n_states


def extract(tree: PrefixTree, kappa: float) -> ExtractionReport:
    """Full pipeline from a built prefix tree: merge -> determinize -> minimize."""
    merged = merge_all(tree, kappa)
    determinized = determinize(merged)
    final = minimize(determinized)
    report = ExtractionReport(
        determinized=determinized,
        final=final,
        sizes=(tree.n_states, len(merged.states), len(final.states)),
        train_fidelity=train_set_fidelity(final, tree),
    )
    if report.train_fidelity < 1.0:
        logger.warning("extracted machine disagrees with the model on %.2f%% of training prefixes",
                       100.0 * (1.0 - report.train_fidelity))
    return report
