import itertools

import numpy as np
import pytest

from statemerge.automata import Dfa, Nfa, prefix_decisions
from statemerge.extraction import PrefixTree
from statemerge.languages import LabeledSample, gold_dfa
from statemerge.rnn import ForwardResult, _accepts, _forward_ids, _head_probs

SIGMA2 = ("a", "b")


def all_strings(alphabet, max_len):
    for n in range(max_len + 1):
        for tokens in itertools.product(alphabet, repeat=n):
            yield "".join(tokens)


def labeled(language, w):
    """Oracle: w with the gold machine's verdict on each of its prefixes."""
    return LabeledSample(w, tuple(prefix_decisions(gold_dfa(language), w)))


def accepts(machine, w):
    """Oracle: Dfa.accepts, or for an Nfa path-existence acceptance by direct
    subset simulation."""
    if not isinstance(machine, Nfa):
        return machine.accepts(w)
    current = {machine.initial}
    for token in w:
        current = {dst for src in current for dst in machine.transitions.get((src, token), ())}
    return bool(current & machine.accepting)


def same_language(machine_a, machine_b, max_len):
    """Brute-force agreement on every string up to max_len."""
    return all(accepts(machine_a, w) == accepts(machine_b, w)
               for w in all_strings(machine_a.alphabet, max_len))


def random_dfa(rng, n_states, alphabet=SIGMA2, edge_prob=0.85):
    transitions = {}
    for state in range(n_states):
        for token in alphabet:
            if rng.random() < edge_prob:
                transitions[(state, token)] = int(rng.integers(n_states))
    accepting = {s for s in range(n_states) if rng.random() < 0.4}
    return Dfa(alphabet, set(range(n_states)), 0, transitions, accepting)


def random_nfa(rng, n_states, alphabet=SIGMA2, edge_prob=0.4):
    transitions = {}
    for state in range(n_states):
        for token in alphabet:
            dsts = {int(s) for s in range(n_states) if rng.random() < edge_prob}
            if dsts:
                transitions[(state, token)] = dsts
    accepting = {s for s in range(n_states) if rng.random() < 0.4}
    return Nfa(alphabet, set(range(n_states)), 0, transitions, accepting)


def moore_minimize_size(dfa):
    """Independent minimization oracle: Moore's iterative refinement on the
    completed machine; returns the state count excluding the dead class."""
    states = sorted(dfa.states)
    sink = max(states) + 1
    full = states + [sink]

    def step(state, token):
        if state == sink:
            return sink
        return dfa.transitions.get((state, token), sink)

    block = {s: (s in dfa.accepting) for s in full}
    while True:
        signature = {s: (block[s], tuple(block[step(s, t)] for t in dfa.alphabet))
                     for s in full}
        canon = {}
        new_block = {}
        for s in full:
            new_block[s] = canon.setdefault(signature[s], len(canon))
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    # Count blocks reachable from the initial state, excluding the dead class.
    reachable = {block[dfa.initial]}
    frontier = [dfa.initial]
    seen = {dfa.initial}
    while frontier:
        s = frontier.pop()
        for t in dfa.alphabet:
            nxt = step(s, t)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
                reachable.add(block[nxt])
    dead = {b for b in set(block.values()) if _is_dead_block(block, full, dfa, step, b)}
    if block[dfa.initial] in dead:
        return 1  # empty language keeps its bare initial state
    return len(reachable - dead)


def _is_dead_block(block, full, dfa, step, b):
    """A block is dead iff no accepting state is reachable from its members."""
    members = [s for s in full if block[s] == b]
    seen = set(members)
    frontier = list(members)
    while frontier:
        s = frontier.pop()
        if s in dfa.accepting:
            return False
        for t in dfa.alphabet:
            nxt = step(s, t)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return True


def forward_many(model, strings):
    """Oracle: the earlier rnn.forward_many, verbatim.  Hidden states and
    prefix probabilities for every string, in input order.  Strings of one
    length run as one batch, so a result can differ from the same string run
    alone in the last bits of its floats."""
    by_len: dict[int, list[int]] = {}
    for i, w in enumerate(strings):
        by_len.setdefault(len(w), []).append(i)
    results: list[ForwardResult | None] = [None] * len(strings)
    for group in by_len.values():
        ids = np.array([[model.bos] + model.token_ids(strings[i]) for i in group])
        hidden = _forward_ids(model.params, ids)  # (T, B, d)
        yhat = _head_probs(model.params, hidden)  # (T, B)
        for j, i in enumerate(group):
            results[i] = ForwardResult(hidden=hidden[:, j], yhat=yhat[:, j])
    return results


def string_keyed_prefix_tree(model, strings):
    """Oracle: the earlier extraction.build_prefix_tree, verbatim but for its
    last statement, which adds visits by looking each input prefix up by string.
    The states are the distinct prefixes of the strings, numbered by length
    and then alphabet order, which is BFS order from the root with children in
    alphabet order.  Each state takes its label and hidden state from the first
    distinct string, in input order, that has it as a prefix."""
    if not strings:
        raise ValueError("need at least one string")
    unique = list(dict.fromkeys(strings))
    rows: dict[str, tuple[bool, np.ndarray]] = {}
    for w, result in zip(unique, forward_many(model, unique)):
        for i, row in enumerate(zip(_accepts(result.yhat).tolist(), result.hidden)):
            rows.setdefault(w[:i], row)
    rank = {ord(token): chr(i) for i, token in enumerate(model.alphabet)}
    prefixes = sorted(rows, key=lambda p: (len(p), p.translate(rank)))
    ids = {p: q for q, p in enumerate(prefixes)}
    edges = {(ids[p[:-1]], p[-1]): ids[p] for p in prefixes[1:]}
    return PrefixTree(model.alphabet, edges, [rows[p][0] for p in prefixes],
                      np.array([rows[p][1] for p in prefixes]),
                      np.array([ids[w[:i]] for w in strings for i in range(len(w) + 1)]))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
