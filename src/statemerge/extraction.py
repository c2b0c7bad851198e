"""DFA extraction by state merging: build a prefix tree from the model's
per-prefix decisions, merge states that agree in label and whose hidden
vectors are nearly parallel, then determinize and minimize."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .automata import Dfa, Nfa, determinize, minimize
from .rnn import RnnModel, _accepts, _head_probs, _step

logger = logging.getLogger(__name__)

# Similarity entries per row block of merge_all (float64, about 0.5 MB).
CELLS = 1 << 16


@dataclass
class PrefixTree:
    """Trie over the training prefixes; states are numbered in BFS order from
    the root, state 0, children visited in alphabet order."""
    alphabet: tuple[str, ...]
    edges: dict[tuple[int, str], int]
    labels: list[bool]
    features: np.ndarray  # (n_states, d); row q is the hidden state of state q
    # The state reached at each position of each input string: the strings in
    # input order, duplicates included, positions 0..len(w) of each in order.
    visits: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.labels)

    @property
    def n_strings(self) -> int:
        """The input strings, duplicates included: each string's positions
        start at the root, and no other position reaches it."""
        return int(np.count_nonzero(self.visits == 0))

    def state_of(self, prefix: str) -> int | None:
        state = 0
        for token in prefix:
            nxt = self.edges.get((state, token))
            if nxt is None:
                return None
            state = nxt
        return state


def build_prefix_tree(model: RnnModel, strings: list[str]) -> PrefixTree:
    """The states are the distinct prefixes of the strings, in BFS order from
    the root with children in alphabet order.  Level t's states are the
    distinct codes parent * |alphabet| + token over the strings still running
    at step t; the parents are already in BFS order, so the sorted codes
    number the level.  A prefix's hidden state is one recurrence step from its
    parent's, h(p a) = step(h(p), a), so each distinct prefix is computed once,
    one step per level.  A state's features can differ in the last place from
    a per-string forward pass, whose batches hold other rows."""
    if not strings:
        raise ValueError("need at least one string")
    sigma, params = len(model.alphabet), model.params
    encoded = [model.token_ids(w) for w in strings]
    lengths = np.array([len(w) for w in encoded])
    inside = np.arange(lengths.max() + 1) <= lengths[:, None]
    ids = np.zeros(inside[:, 1:].shape, dtype=np.intp)
    ids[inside[:, 1:]] = [token for w in encoded for token in w]
    reached = np.zeros(inside.shape, dtype=np.intp)  # the root, 0, at position 0
    levels = []  # per level below the root, its states' codes in ascending order
    n_states = 1
    for t in range(1, inside.shape[1]):
        rows = np.flatnonzero(inside[:, t])
        codes, inverse = np.unique(reached[rows, t - 1] * sigma + ids[rows, t - 1],
                                   return_inverse=True)
        reached[rows, t] = n_states + inverse
        levels.append(codes)
        n_states += len(codes)
    features = np.empty((n_states, model.hidden_dim))
    features[:1] = _step(params, np.zeros((1, model.hidden_dim)), np.full(1, model.bos))
    start = 1
    for codes in levels:
        parents, tokens = np.divmod(codes, sigma)
        features[start:start + len(codes)] = _step(params, features[parents], tokens)
        start += len(codes)
    codes = [code for level in levels for code in level.tolist()]
    edges = {(code // sigma, model.alphabet[code % sigma]): q
             for q, code in enumerate(codes, start=1)}
    labels = _accepts(_head_probs(params, features)).tolist()
    return PrefixTree(model.alphabet, edges, labels, features, reached[inside])


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
    self-loops and nondeterminism.
    """
    rep = _lowest_matches(tree, kappa)
    # rep[i] <= i, so the chains descend; pointer jumping reaches their ends.
    while not np.array_equal(rep[rep], rep):
        rep = rep[rep]
    rep_of = rep.tolist()
    transitions: dict[tuple[int, str], set[int]] = {}
    for (src, token), dst in tree.edges.items():
        transitions.setdefault((rep_of[src], token), set()).add(rep_of[dst])
    states = set(np.flatnonzero(rep == np.arange(tree.n_states)).tolist())
    return Nfa(tree.alphabet, states, rep_of[0], transitions,
               {q for q in states if tree.labels[q]})


def _lowest_matches(tree: PrefixTree, kappa: float) -> np.ndarray:
    """rep[i], the lowest j < i with i's label and cos(i, j) > 1 - kappa, else i.

    Only states of one label can match, so the unit rows are laid out sorted
    by label, stably, and each label's contiguous slice is compared with
    itself by blocked matrix products over its lower triangle.  Within a
    slice the ids ascend, so the lowest match in the slice is the lowest
    same-label match overall."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie strictly between 0 and 1")
    labels = np.array(tree.labels, dtype=bool)
    order = np.argsort(labels, kind="stable")
    norms = np.linalg.norm(tree.features, axis=1)[order]
    degenerate = norms == 0.0
    if degenerate.any():
        logger.warning("%d zero-norm features treated as never similar", int(degenerate.sum()))
    unit = tree.features[order]
    np.divide(unit, norms[:, None], out=unit, where=~degenerate[:, None])
    unit[degenerate] = 0.0
    threshold = 1.0 - kappa
    lowest = np.arange(tree.n_states)  # positions in the sorted layout
    split = int(np.count_nonzero(~labels))
    for lo, hi in ((0, split), (split, tree.n_states)):
        rows = max(1, CELLS // max(1, hi - lo))
        for start in range(lo, hi, rows):
            stop = min(start + rows, hi)
            match = unit[start:stop] @ unit[lo:stop].T > threshold
            match &= np.tri(stop - start, stop - lo, start - lo - 1, dtype=bool)  # j < i
            found = np.flatnonzero(match.any(axis=1))
            lowest[start + found] = lo + match[found].argmax(axis=1)
    rep = np.empty_like(lowest)
    rep[order] = order[lowest]
    return rep


@dataclass
class ExtractionReport:
    determinized: Dfa
    final: Dfa
    sizes: tuple[int, int, int]  # (trie, merged, minimized)
    train_fidelity: float


def train_set_fidelity(final: Dfa, tree: PrefixTree) -> float:
    """Fraction of distinct training prefixes on which the extracted machine
    agrees with the labels recorded in the tree.  A parent's BFS id is below
    its child's, so the edges in child order reach each state after its parent."""
    states: list[int | None] = [final.initial] * tree.n_states
    for (src, token), dst in sorted(tree.edges.items(), key=lambda edge: edge[1]):
        states[dst] = final.step(states[src], token)
    agree = sum((state in final.accepting) == label
                for state, label in zip(states, tree.labels))
    return agree / tree.n_states


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
