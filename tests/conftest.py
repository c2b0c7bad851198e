import functools
import gzip
import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from statemerge.automata import Dfa, Nfa, prefix_decisions, successor_table
from statemerge import extraction
from statemerge.extraction import PrefixTree
from statemerge.harness import FidelityResult
from statemerge.languages import ALPHABET, Samples, _accepting_counts, gold_dfa
from statemerge.rnn import (ForwardResult, RnnModel, _accepts, _forward_ids, _head_probs, _step,
                            load_checkpoint, model_from_checkpoint)

SIGMA2 = ("a", "b")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@functools.cache
def fixture_model(language: int) -> RnnModel:
    """The benchmark's fixture model for language, checked against its sha256
    in perfbench/expected.json, loaded once per session."""
    name = f"tomita{language}.ckpt.gz"
    data = (PERFBENCH / "fixtures" / name).read_bytes()
    pin = json.loads((PERFBENCH / "expected.json").read_text())["fixtures"][name]
    if hashlib.sha256(data).hexdigest() != pin:
        raise ValueError(f"{name} does not match its sha256 in perfbench/expected.json")
    return model_from_checkpoint(*load_checkpoint(gzip.decompress(data).decode()))


def all_strings(alphabet, max_len):
    for n in range(max_len + 1):
        for tokens in itertools.product(alphabet, repeat=n):
            yield "".join(tokens)


class LabeledSample(NamedTuple):
    """The oracles' string-set format, a list of these: a string and the
    verdict on each of its prefixes, y[0] on the empty one."""
    x: str
    y: tuple[bool, ...]


def pairs(samples):
    """Either string-set format as a list of (string, labels) pairs: a
    languages.Samples row by row, or a list of pairs as it is."""
    if not isinstance(samples, Samples):
        return [LabeledSample(*s) for s in samples]
    return [LabeledSample("".join(ALPHABET[t] for t in tokens[:n]), tuple(labels[:n + 1]))
            for tokens, n, labels in zip(samples.tokens.tolist(), samples.lengths.tolist(),
                                         samples.labels.tolist())]


def as_samples(items, alphabet=ALPHABET):
    """A languages.Samples of strings or (string, labels) pairs, each token
    its index in alphabet; a bare string's labels are all False."""
    items = [(w, (False,) * (len(w) + 1)) if isinstance(w, str) else tuple(w) for w in items]
    lengths = np.array([len(w) for w, _ in items], dtype=np.intp)
    width = int(lengths.max(initial=0))
    tokens = np.full((len(items), width), len(alphabet), dtype=np.uint8)
    labels = np.empty((len(items), width + 1), dtype=bool)
    for i, (w, y) in enumerate(items):
        tokens[i, :len(w)] = [alphabet.index(t) for t in w]
        labels[i] = list(y) + [y[-1]] * (width - len(w))
    return Samples(tokens, lengths, labels)


def labeled(language, w):
    """Oracle: w with the gold machine's verdict on each of its prefixes."""
    return LabeledSample(w, tuple(prefix_decisions(gold_dfa(language), w)))


_COLUMN = {token: j for j, token in enumerate(ALPHABET)}


def label(table, accepting, x):
    """Oracle: the earlier languages._label, verbatim.
    x with the verdict of every prefix, stepping through the table rows."""
    row, y = 0, [accepting[0] == 1]
    for token in x:
        row = table[row][_COLUMN[token]]
        y.append(accepting[row] == 1)
    return LabeledSample(x, tuple(y))


def randbelow(take, n):
    """Oracle: the earlier languages._randbelow, verbatim.  take is rng.bytes.
    Uniform integer in [0, n) with exact bignum support: the top
    bit_length(n) bits of take(nbytes) read big-endian, drawn again until
    below n."""
    if n <= 0:
        raise ValueError("empty range")
    k = n.bit_length()
    nbytes = (k + 7) // 8
    shift = 8 * nbytes - k
    while True:
        r = int.from_bytes(take(nbytes), "big") >> shift
        if r < n:
            return r


def walk_positive(table, counts, length, rng):
    """Oracle: the earlier languages._walk_positive, verbatim but for reading
    rng.bytes on every bit generator.
    Uniform in-language string of the given length (which must have one):
    each step picks a token weighted by its successor's accepting completions."""
    row, out = 0, []
    for r in range(length, 0, -1):
        pick = randbelow(rng.bytes, counts[r][row])
        for token, dst in zip(ALPHABET, table[row]):
            if pick < counts[r - 1][dst]:
                out.append(token)
                row = dst
                break
            pick -= counts[r - 1][dst]
    return "".join(out)


def sample_uniform_string(length, rng):
    """Oracle: the earlier languages._sample_uniform_string, verbatim."""
    return "".join(ALPHABET[i] for i in rng.integers(0, len(ALPHABET), size=length))


def per_token_balanced(language, length, count, rng):
    """Oracle: the earlier languages.sample_balanced, verbatim but for its
    warning: one draw per uniform string, one rng.bytes read per attempt of
    the positive walk, one label walk per string."""
    if count < 2:
        raise ValueError("need at least 2 samples for a balanced draw")
    n_uniform = (count + 1) // 2
    n_positive = count // 2
    table, counts = _accepting_counts(language, length)
    feasible = counts[length][0] > 0
    samples = [sample_uniform_string(length, rng) for _ in range(n_uniform)]
    samples += [walk_positive(table, counts, length, rng) if feasible
                else sample_uniform_string(length, rng) for _ in range(n_positive)]
    return [label(table, counts[0], x) for x in samples]


def per_token_eval_set(language, count, max_len, rng):
    """Oracle: the earlier languages.sample_eval_set, verbatim.
    count strings with lengths uniform on {0..max_len}; per string a fair
    coin picks forced-positive (when feasible at that length) vs uniform."""
    table, counts = _accepting_counts(language, max_len)
    samples = []
    for _ in range(count):
        length = int(rng.integers(0, max_len + 1))
        force_positive = bool(rng.integers(0, 2))
        if force_positive and counts[length][0]:
            x = walk_positive(table, counts, length, rng)
        else:
            x = sample_uniform_string(length, rng)
        samples.append(label(table, counts[0], x))
    return samples


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


def allocating_step(params, h, tokens):
    """Oracle: the earlier rnn._step, verbatim.
    One recurrence step of the rows of h (B, d) on token ids tokens (B,)."""
    return np.tanh(h @ params["w_hh"].T + params["embed"][tokens] @ params["w_ih"].T
                   + params["b_h"])


def allocating_forward_ids(params, ids):
    """Oracle: the earlier rnn._forward_ids, verbatim but for stepping with
    allocating_step.  Hidden states for a batch of id sequences (B, T) -> (T, B, d)."""
    h = np.zeros((len(ids), params["w_hh"].shape[0]))
    hidden = np.zeros((ids.shape[1], *h.shape))
    for t in range(ids.shape[1]):
        h = allocating_step(params, h, ids[:, t])
        hidden[t] = h
    return hidden


def add_at_loss_and_grads(params, ids, labels):
    """Oracle: the earlier rnn.loss_and_grads, verbatim but for its forward
    pass, allocating_forward_ids.  Mean over the batch of per-sequence summed
    cross-entropy, with full backpropagation through time.  ids: (B, T)
    including bos; labels: (B, T)."""
    embed, w_ih, w_hh, w_out, b_out = (params[k] for k in
                                       ("embed", "w_ih", "w_hh", "w_out", "b_out"))
    batch, steps = ids.shape
    hidden = allocating_forward_ids(params, ids)
    logits = hidden @ w_out.T + b_out
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)
    y = labels.astype(np.int64)
    logp = shifted - np.log(exp.sum(axis=-1, keepdims=True))
    loss = -float(np.take_along_axis(logp, y.T[..., None], axis=-1).sum()) / batch

    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dlogits = probs.copy()
    np.put_along_axis(dlogits, y.T[..., None],
                      np.take_along_axis(dlogits, y.T[..., None], axis=-1) - 1.0, axis=-1)
    dlogits /= batch
    grads["b_out"] = dlogits.sum(axis=(0, 1))
    carry = np.zeros_like(hidden[0])
    for t in range(steps - 1, -1, -1):
        h = hidden[t]
        grads["w_out"] += dlogits[t].T @ h
        dh = dlogits[t] @ w_out + carry
        da = dh * (1.0 - h * h)
        h_prev = hidden[t - 1] if t > 0 else np.zeros_like(h)
        grads["w_hh"] += da.T @ h_prev
        grads["w_ih"] += da.T @ embed[ids[:, t]]
        grads["b_h"] += da.sum(axis=0)
        np.add.at(grads["embed"], ids[:, t], da @ w_ih)
        carry = da @ w_hh
    return loss, grads


def string_keyed_prefix_tree(model, strings):
    """Oracle: the earlier extraction.build_prefix_tree, verbatim but for its
    last statement, which adds visits by looking each input prefix up by string
    and builds the tree from its edges dict with trie.
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
    return trie(edges, [rows[p][0] for p in prefixes], [rows[p][1] for p in prefixes],
                [ids[w[:i]] for w in strings for i in range(len(w) + 1)], model.alphabet)


def trie(edges, labels, features, visits=(), alphabet=SIGMA2):
    """A hand-made PrefixTree: state q has labels[q] and features[q], and
    edges maps (parent, token) to each state but the root, 0.  The states
    must be numbered level by level, children in alphabet order, as
    number_prefixes numbers them: ascending codes parent * |alphabet| + token,
    each parent below its child.  The root's token is bos, len(alphabet)."""
    n = len(labels)
    parents, tokens = np.zeros(n, dtype=np.intp), np.full(n, len(alphabet), dtype=np.intp)
    if sorted(edges.values()) != list(range(1, n)):
        raise ValueError("edges must reach every state but the root exactly once")
    for (parent, token), child in edges.items():
        parents[child], tokens[child] = parent, alphabet.index(token)
    codes = parents[1:] * len(alphabet) + tokens[1:]
    if np.any(parents[1:] >= np.arange(1, n)) or np.any(np.diff(codes) <= 0):
        raise ValueError("states are not numbered level by level")
    depth = np.zeros(n, dtype=np.intp)
    for child in range(1, n):
        depth[child] = depth[parents[child]] + 1
    levels = np.searchsorted(depth, np.arange(depth[-1] + 2))
    return PrefixTree(alphabet, parents, tokens, levels, np.array(visits, dtype=np.intp),
                      np.array(labels, dtype=bool), np.array(features, dtype=float))


def edges_of(prefixes):
    """The (parent, token) -> state dict of a Prefixes or PrefixTree."""
    return {(parent, prefixes.alphabet[token]): q for q, (parent, token) in
            enumerate(zip(prefixes.parents.tolist(), prefixes.tokens.tolist())) if q}


def per_level_number_prefixes(model, samples):
    """Oracle: the earlier rnn.number_prefixes, verbatim.
    (parents, tokens, levels, visits) of the distinct prefixes of the
    samples' strings (see Prefixes), whose tokens are the model's token ids,
    numbered in BFS order from the root, state 0, with children in alphabet
    order; visits counts a duplicate string once per occurrence.  The root is
    its own parent and is reached on bos, so every state's hidden vector is
    one _step from its parent's, the root's from zero.  Level t's states are
    the distinct codes parent * |alphabet| + token over the strings still
    running at step t; the parents are already in BFS order, so the sorted
    codes number the level."""
    if not len(samples):
        raise ValueError("need at least one string")
    sigma, ids, inside = len(model.alphabet), samples.tokens, samples.inside
    if np.any(ids[inside[:, 1:]] >= sigma):
        raise ValueError(f"token ids must lie below the alphabet size {sigma}")
    reached = np.zeros(inside.shape, dtype=np.intp)  # the root, 0, at position 0
    codes = [np.zeros(1, dtype=np.intp)]  # per level, its states' codes in ascending order
    levels = [0, 1]
    for t in range(1, inside.shape[1]):
        rows = np.flatnonzero(inside[:, t])
        level, inverse = np.unique(reached[rows, t - 1] * sigma + ids[rows, t - 1],
                                   return_inverse=True)
        reached[rows, t] = levels[-1] + inverse
        codes.append(level)
        levels.append(levels[-1] + len(level))
    parents, tokens = np.divmod(np.concatenate(codes), sigma)
    tokens[0] = model.bos
    return parents, tokens, np.array(levels), reached[inside]


def per_edge_merge_all(tree, kappa):
    """Oracle: the earlier extraction.merge_all, verbatim but for reaching
    _lowest_matches through its module.
    Quotient of the prefix tree by a representative map.

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
    rep = extraction._lowest_matches(tree, kappa)
    # rep[i] <= i, so the chains descend; pointer jumping reaches their ends.
    while not np.array_equal(rep[rep], rep):
        rep = rep[rep]
    transitions: dict[tuple[int, str], set[int]] = {}
    for src, token, dst in zip(rep[tree.parents[1:]].tolist(), tree.tokens[1:].tolist(),
                               rep[1:].tolist()):
        transitions.setdefault((src, tree.alphabet[token]), set()).add(dst)
    states = set(np.flatnonzero(rep == np.arange(tree.n_states)).tolist())
    return Nfa(tree.alphabet, states, int(rep[0]), transitions,
               {q for q in states if tree.labels[q]})


@dataclass(frozen=True)
class PaddedEvalReference:
    """Oracle: the earlier rnn.EvalReference, verbatim.
    One model's decisions on a labelled sample set.  Row i is sample i, padded
    to the longest string with token id len(alphabet) and its last label and decision."""
    alphabet: tuple[str, ...]
    ids: np.ndarray        # (n, T) int, the alphabet index of each token
    lengths: np.ndarray    # (n,) int
    labels: np.ndarray     # (n, T + 1) bool, the stored label of each prefix
    decisions: np.ndarray  # (n, T + 1) bool, the model's decision on each prefix

    @property
    def prefixes(self) -> np.ndarray:  # (n, T + 1) bool, True where t <= lengths[i]
        return np.arange(self.decisions.shape[1]) <= self.lengths[:, None]


def padded_eval_reference(model, samples):
    """Oracle: the earlier rnn.eval_reference, verbatim but for its class.
    Built once per (model, sample set), and then scored against any number of machines.
    One time loop runs the rows sorted longest first, step t only those of length >= t,
    and keeps decisions only: its hidden bits can differ from a per-length batch's in the
    last place, and the decisions were checked equal."""
    if not samples:
        raise ValueError("need at least one sample")
    encoded = [model.token_ids(s.x) for s in samples]
    lengths = np.array([len(w) for w in encoded])
    n, steps = len(samples), lengths.max()
    inside = np.arange(steps + 1) <= lengths[:, None]
    ids = np.full((n, steps), len(model.alphabet))
    ids[inside[:, 1:]] = [token for w in encoded for token in w]
    labels, decided = np.zeros((2, n, steps + 1), dtype=bool)
    labels[inside] = [y for s in samples for y in s.y]
    order = np.argsort(-lengths, kind="stable")
    tokens = np.column_stack([np.full(n, model.bos), ids[order]])
    h = np.zeros((n, model.hidden_dim))
    for t, rows in enumerate(np.count_nonzero(inside, axis=0).tolist()):
        h = _step(model.params, h[:rows], tokens[:rows, t])
        decided[order[:rows], t] = _accepts(_head_probs(model.params, h))
    last = np.minimum(np.arange(steps + 1), lengths[:, None])
    return PaddedEvalReference(model.alphabet, ids, lengths,
                               np.take_along_axis(labels, last, axis=1),
                               np.take_along_axis(decided, last, axis=1))


def padded_evaluate(model, samples):
    """Oracle: the earlier rnn.evaluate, verbatim but for its reference.
    (per-prefix accuracy, full-string accuracy) against stored labels."""
    reference = padded_eval_reference(model, samples)
    match = reference.labels == reference.decisions
    correct, total, string_correct = (int(np.count_nonzero(a)) for a in (
        match & reference.prefixes, reference.prefixes, match[:, -1]))
    return correct / total, string_correct / len(samples)


def padded_fidelity(dfa, reference):
    """Oracle: the earlier harness.fidelity, verbatim, on a PaddedEvalReference.
    Agreement of the machine with the model and the labels, walking every
    eval string at once through the machine's successor table."""
    states, succ = successor_table(dfa, reference.alphabet)
    # A last column for the padding token, on which every row stays put.
    table = np.array([row + [i] for i, row in enumerate(succ)])
    accepting = np.array([state in dfa.accepting for state in states] + [False])
    walk = np.full((len(reference.ids), reference.ids.shape[1] + 1), states.index(dfa.initial))
    for t, column in enumerate(reference.ids.T):
        walk[:, t + 1] = table[walk[:, t], column]
    verdicts = accepting[walk]
    agree = verdicts == reference.decisions
    prefixes = reference.prefixes
    agree_rnn, agree_gold, prefix_agree, prefix_total = (int(np.count_nonzero(a)) for a in (
        agree[:, -1], verdicts[:, -1] == reference.labels[:, -1], agree & prefixes, prefixes))
    return FidelityResult(agree_rnn / len(verdicts), agree_gold / len(verdicts),
                          prefix_agree / prefix_total)


def edges_train_set_fidelity(final, tree):
    """Oracle: the earlier extraction.train_set_fidelity, verbatim but for
    reading the tree's edges dict through edges_of.
    Fraction of distinct training prefixes on which the extracted machine
    agrees with the labels recorded in the tree.  A parent's BFS id is below
    its child's, so the edges in child order reach each state after its parent."""
    states: list[int | None] = [final.initial] * tree.n_states
    for (src, token), dst in sorted(edges_of(tree).items(), key=lambda edge: edge[1]):
        states[dst] = final.step(states[src], token)
    agree = sum((state in final.accepting) == label
                for state, label in zip(states, tree.labels))
    return agree / tree.n_states


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
