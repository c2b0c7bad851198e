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


@dataclass
class PrefixTree:
    """Trie over the training prefixes; states are numbered in BFS order from
    the root, children visited in alphabet order."""
    alphabet: tuple[str, ...]
    edges: dict[tuple[int, str], int]
    labels: list[bool]
    features: np.ndarray  # (n_states, d); row q is the hidden state of state q
    root: int = 0

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def state_of(self, prefix: str) -> int | None:
        state = self.root
        for token in prefix:
            nxt = self.edges.get((state, token))
            if nxt is None:
                return None
            state = nxt
        return state

    def as_dfa(self) -> Dfa:
        return Dfa(self.alphabet, set(range(self.n_states)), self.root,
                   dict(self.edges), {q for q, acc in enumerate(self.labels) if acc})


@dataclass(frozen=True)
class MergePolicy:
    kappa: float

    def __post_init__(self) -> None:
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie strictly between 0 and 1")


def build_prefix_tree(model: RnnModel, strings: list[str]) -> PrefixTree:
    if not strings:
        raise ValueError("need at least one string")
    # Raw trie with insertion-order ids, then a BFS renumbering pass.
    children: list[dict[str, int]] = [{}]
    for w in strings:
        node = 0
        for token in w:
            if token not in model.alphabet:
                raise ValueError(f"token {token!r} not in alphabet {model.alphabet}")
            nxt = children[node].get(token)
            if nxt is None:
                nxt = len(children)
                children[node][token] = nxt
                children.append({})
            node = nxt
    bfs_id: dict[int, int] = {0: 0}
    order = [0]
    for node in order:
        for token in model.alphabet:
            child = children[node].get(token)
            if child is not None:
                bfs_id[child] = len(bfs_id)
                order.append(child)
    edges = {(bfs_id[node], token): bfs_id[child]
             for node in range(len(children))
             for token, child in children[node].items()}
    labels: list[bool | None] = [None] * len(children)
    features = np.empty((len(children), model.hidden_dim))
    unique = list(dict.fromkeys(strings))
    for w, result in zip(unique, forward_many(model, unique)):
        decided = result.yhat > 0.5
        node = 0
        for i in range(len(w) + 1):
            q = bfs_id[node]
            if labels[q] is None:
                labels[q] = bool(decided[i])
                features[q] = result.hidden[i]
            if i < len(w):
                node = children[node][w[i]]
    return PrefixTree(model.alphabet, edges, labels, features)


def merge_all(tree: PrefixTree, policy: MergePolicy) -> Nfa:
    """Quotient of the prefix tree by a representative map.

    Scan order: q_i runs over BFS ids descending.  Its candidates are the
    alive states with the same label whose hidden vectors are nearly parallel
    (cosine > 1 - kappa); a zero-norm feature never matches.  A match folds
    q_i into the lowest candidate and marks q_i dead.  A single pass is
    exhaustive because merging never changes a surviving state's label or
    feature vector, so the pair predicate is static.  The merged machine is
    the tree with every state replaced by the end of its representative
    chain, as in RPNI's quotient of the prefix-tree acceptor; merging may
    therefore create self-loops and nondeterminism.
    """
    n = tree.n_states
    feats = tree.features
    norms = np.linalg.norm(feats, axis=1)
    degenerate = norms == 0.0
    if degenerate.any():
        logger.warning("%d zero-norm features treated as never similar", int(degenerate.sum()))
    unit = np.divide(feats, norms[:, None], out=np.zeros_like(feats), where=~degenerate[:, None])
    labels = np.array(tree.labels)
    alive = np.ones(n, dtype=bool)
    rep = np.arange(n)
    threshold = 1.0 - policy.kappa
    for q_i in range(n - 1, -1, -1):
        if degenerate[q_i]:
            continue
        sims = unit @ unit[q_i]
        candidates = alive & (labels == labels[q_i]) & (sims > threshold)
        candidates[q_i] = False
        matches = np.flatnonzero(candidates)
        if matches.size:
            rep[q_i] = matches[0]
            alive[q_i] = False
    # A target is alive when chosen and a dead state is never chosen, so the
    # chains are acyclic; pointer jumping reaches their fixed points.
    while not np.array_equal(rep[rep], rep):
        rep = rep[rep]
    rep_of = rep.tolist()
    transitions: dict[tuple[int, str], set[int]] = {}
    for (src, token), dst in tree.edges.items():
        transitions.setdefault((rep_of[src], token), set()).add(rep_of[dst])
    states = set(np.flatnonzero(alive).tolist())
    return Nfa(tree.alphabet, states, rep_of[tree.root], transitions,
               {q for q in states if tree.labels[q]})


@dataclass
class ExtractionReport:
    merged: Nfa
    final: Dfa
    sizes: tuple[int, int, int]  # (trie, merged, minimized)
    determinized_size: int
    train_fidelity: float
    kappa: float
    data_count: int


def train_set_fidelity(final: Dfa, tree: PrefixTree) -> float:
    """Fraction of distinct training prefixes on which the extracted machine
    agrees with the labels recorded in the tree."""
    agree = 0
    stack: list[tuple[int, int | None]] = [(tree.root, final.initial)]
    while stack:
        node, state = stack.pop()
        accept = state is not None and state in final.accepting
        if accept == tree.labels[node]:
            agree += 1
        for token in tree.alphabet:
            child = tree.edges.get((node, token))
            if child is not None:
                stack.append((child, final.step(state, token)))
    return agree / tree.n_states


def extract(model: RnnModel, strings: list[str], kappa: float) -> ExtractionReport:
    """Full pipeline: prefix tree -> merge -> determinize -> minimize."""
    policy = MergePolicy(kappa)
    tree = build_prefix_tree(model, strings)
    merged = merge_all(tree, policy)
    det = determinize(merged)
    final = minimize(det)
    report = ExtractionReport(
        merged=merged,
        final=final,
        sizes=(tree.n_states, len(merged.states), len(final.states)),
        determinized_size=len(det.states),
        train_fidelity=train_set_fidelity(final, tree),
        kappa=kappa,
        data_count=len(strings),
    )
    if report.train_fidelity < 1.0:
        logger.warning("extracted machine disagrees with the model on %.2f%% of training prefixes",
                       100.0 * (1.0 - report.train_fidelity))
    return report
