"""DFA extraction by state merging: build a prefix tree from the model's
per-prefix decisions, merge states that agree in label and whose hidden
vectors are nearly parallel, then determinize and minimize."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .automata import Dfa, Nfa, determinize, minimize
from .rnn import RnnModel, forward_many

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

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def state_of(self, prefix: str) -> int | None:
        state = 0
        for token in prefix:
            nxt = self.edges.get((state, token))
            if nxt is None:
                return None
            state = nxt
        return state

    def as_dfa(self) -> Dfa:
        return Dfa(self.alphabet, set(range(self.n_states)), 0,
                   dict(self.edges), {q for q, acc in enumerate(self.labels) if acc})


def build_prefix_tree(model: RnnModel, strings: list[str]) -> PrefixTree:
    """The states are the distinct prefixes of the strings, numbered by length
    and then alphabet order, which is BFS order from the root with children in
    alphabet order.  Each state takes its label and hidden state from the first
    distinct string, in input order, that has it as a prefix."""
    if not strings:
        raise ValueError("need at least one string")
    unique = list(dict.fromkeys(strings))
    rows: dict[str, tuple[bool, np.ndarray]] = {}
    for w, result in zip(unique, forward_many(model, unique)):
        for i, row in enumerate(zip(result.accepts.tolist(), result.hidden)):
            rows.setdefault(w[:i], row)
    rank = {ord(token): chr(i) for i, token in enumerate(model.alphabet)}
    prefixes = sorted(rows, key=lambda p: (len(p), p.translate(rank)))
    ids = {p: q for q, p in enumerate(prefixes)}
    edges = {(ids[p[:-1]], p[-1]): ids[p] for p in prefixes[1:]}
    return PrefixTree(model.alphabet, edges, [rows[p][0] for p in prefixes],
                      np.array([rows[p][1] for p in prefixes]))


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
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie strictly between 0 and 1")
    n = tree.n_states
    feats = tree.features
    norms = np.linalg.norm(feats, axis=1)
    degenerate = norms == 0.0
    if degenerate.any():
        logger.warning("%d zero-norm features treated as never similar", int(degenerate.sum()))
    unit = np.divide(feats, norms[:, None], out=np.zeros_like(feats), where=~degenerate[:, None])
    labels = np.array(tree.labels)
    threshold = 1.0 - kappa
    rep = np.arange(n)
    rows = max(1, CELLS // n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        match = unit[start:stop] @ unit[:stop].T > threshold
        match &= labels[start:stop, None] == labels[:stop]
        match &= np.tri(stop - start, stop, start - 1, dtype=bool)  # j < i
        found = np.flatnonzero(match.any(axis=1))
        rep[start + found] = match[found].argmax(axis=1)
    # rep[i] <= i, so the chains descend; pointer jumping reaches their ends.
    while not np.array_equal(rep[rep], rep):
        rep = rep[rep]
    rep_of = rep.tolist()
    transitions: dict[tuple[int, str], set[int]] = {}
    for (src, token), dst in tree.edges.items():
        transitions.setdefault((rep_of[src], token), set()).add(rep_of[dst])
    states = set(np.flatnonzero(rep == np.arange(n)).tolist())
    return Nfa(tree.alphabet, states, rep_of[0], transitions,
               {q for q in states if tree.labels[q]})


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


def extract(model: RnnModel, strings: list[str], kappa: float) -> ExtractionReport:
    """Full pipeline: prefix tree -> merge -> determinize -> minimize."""
    tree = build_prefix_tree(model, strings)
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
