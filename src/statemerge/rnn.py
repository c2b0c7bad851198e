"""Elman recurrent recognizer with a per-position classification head.

Forward recurrence: h_{t+1} = tanh(U h_t + V x_{t+1} + b), float64 throughout.
Every string is fed a begin-of-sequence token first, so row 0 of the hidden
state matrix represents the empty string.  Training is plain minibatched
backpropagation through time with AdamW.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .languages import Samples

logger = logging.getLogger(__name__)

CHECKPOINT_FORMAT_VERSION = 1
PARAM_NAMES = ("embed", "w_ih", "w_hh", "b_h", "w_out", "b_out")


class TrainingError(RuntimeError):
    pass


@dataclass
class RnnModel:
    alphabet: tuple[str, ...]
    params: dict[str, np.ndarray]

    @property
    def hidden_dim(self) -> int:
        return self.params["w_hh"].shape[0]

    @property
    def bos(self) -> int:
        return len(self.alphabet)

    def token_ids(self, w: str) -> list[int]:
        """forward's encoder: each token's index in the alphabet."""
        return [self.alphabet.index(t) for t in w]


def _accepts(yhat: np.ndarray) -> np.ndarray:
    """Accept decisions from probabilities; an exact 0.5 tie resolves to reject."""
    return yhat > 0.5


@dataclass
class ForwardResult:
    hidden: np.ndarray  # (n+1, d); row i is the state after prefix w[:i]
    yhat: np.ndarray    # (n+1,); probability each prefix is in the language


def init_model(alphabet: tuple[str, ...], embed_dim: int, hidden_dim: int,
               rng: np.random.Generator) -> RnnModel:
    """Weight matrices and the recurrence bias start
    uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)); the embedding table starts
    standard normal.  The strong input drive pushes
    tanh states toward their saturated corners early in training, which the
    downstream state clustering depends on; with a +/-1/sqrt(embed_dim)
    embedding the hidden states stay diffuse and never cluster."""
    if embed_dim < 1 or hidden_dim < 1:
        raise ValueError("dimensions must be positive")

    def uniform(shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    n_tokens = len(alphabet) + 1  # + begin-of-sequence
    params = {
        "embed": rng.normal(0.0, 1.0, size=(n_tokens, embed_dim)),
        "w_ih": uniform((hidden_dim, embed_dim), embed_dim),
        "w_hh": uniform((hidden_dim, hidden_dim), hidden_dim),
        "b_h": uniform((hidden_dim,), hidden_dim),
        "w_out": uniform((2, hidden_dim), hidden_dim),
        "b_out": np.zeros(2),
    }
    return RnnModel(alphabet, params)


def _step(params: dict[str, np.ndarray], h: np.ndarray, tokens: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """One recurrence step of the rows of h (B, d) on token ids tokens (B,),
    into out (B, d) when given: tanh((h U^T + x V^T) + b), summed in place."""
    x = h @ params["w_hh"].T
    x += params["embed"][tokens] @ params["w_ih"].T
    x += params["b_h"]
    return np.tanh(x, out=out)


def _forward_ids(params: dict[str, np.ndarray], ids: np.ndarray) -> np.ndarray:
    """Hidden states for a batch of id sequences (B, T) -> (T, B, d)."""
    h = np.zeros((len(ids), params["w_hh"].shape[0]))
    hidden = np.empty((ids.shape[1], *h.shape))
    for t in range(ids.shape[1]):
        h = _step(params, h, ids[:, t], out=hidden[t])
    return hidden


def _head_probs(params: dict[str, np.ndarray], hidden: np.ndarray) -> np.ndarray:
    logits = hidden @ params["w_out"].T + params["b_out"]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp[..., 1] / exp.sum(axis=-1)


def forward(model: RnnModel, w: str) -> ForwardResult:
    """Hidden states and prefix probabilities of one string, run as a 1-row batch."""
    hidden = _forward_ids(model.params, np.array([[model.bos] + model.token_ids(w)]))
    return ForwardResult(hidden=hidden[:, 0], yhat=_head_probs(model.params, hidden)[:, 0])


def loss_and_grads(params: dict[str, np.ndarray], ids: np.ndarray,
                   labels: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Mean over the batch of per-sequence summed cross-entropy, with full
    backpropagation through time.  ids: (B, T) including bos; labels: (B, T)."""
    embed, w_ih, w_hh, w_out, b_out = (params[k] for k in
                                       ("embed", "w_ih", "w_hh", "w_out", "b_out"))
    batch, steps = ids.shape
    hidden = _forward_ids(params, ids)
    # In place: the logits become the log-probabilities, exp their gradient.
    logp = hidden @ w_out.T + b_out
    logp -= np.maximum(logp[..., :1], logp[..., 1:])  # the max over 2 classes
    exp = np.exp(logp)
    total = exp[..., :1] + exp[..., 1:]  # exp.sum(axis=-1)'s one addition
    y = labels.astype(np.int64)
    logp -= np.log(total)
    loss = -float(np.take_along_axis(logp, y.T[..., None], axis=-1).sum()) / batch

    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dlogits = np.divide(exp, total, out=exp)
    del logp, total  # freed before the backward pass's buffers: a lower peak
    np.put_along_axis(dlogits, y.T[..., None],
                      np.take_along_axis(dlogits, y.T[..., None], axis=-1) - 1.0, axis=-1)
    dlogits /= batch
    grads["b_out"] = dlogits.sum(axis=(0, 1))
    # Per-step buffers: da, 1 - h*h, and the carry into step t - 1 and its spare.
    da, slope, carry, spare = np.zeros((4, *hidden[0].shape))
    order = ids.T[::-1]  # (T, B), last step first: np.add.at's order
    rows = embed[order]  # each step's token embeddings, then its rows da @ w_ih
    for t in range(steps - 1, -1, -1):
        h, row = hidden[t], rows[steps - 1 - t]
        grads["w_out"] += dlogits[t].T @ h
        np.matmul(dlogits[t], w_out, out=da)
        da += carry
        np.multiply(h, h, out=slope)
        da *= np.subtract(1.0, slope, out=slope)
        grads["w_ih"] += da.T @ row
        grads["b_h"] += da.sum(axis=0)
        np.matmul(da, w_ih, out=row)
        if t:  # step 0 follows the zero state: its w_hh term (+-0.0 for finite da) adds nothing
            grads["w_hh"] += da.T @ hidden[t - 1]
            carry, spare = np.matmul(da, w_hh, out=spare), carry
    # bincount adds each column's rows from +0.0 in input order, as np.add.at did.
    grads["embed"] = np.stack([np.bincount(order.ravel(), column.ravel(), minlength=len(embed))
                               for column in np.moveaxis(rows, -1, 0)], axis=1)
    return loss, grads


@dataclass(frozen=True)
class AdamWHyper:
    lr: float
    beta1: float
    beta2: float
    eps: float
    weight_decay: float


# The optimizer every training run uses; TrainingConfig.record() adds it to a run's identity.
ADAMW = AdamWHyper(lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=1e-2)


def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               m: dict[str, np.ndarray], v: dict[str, np.ndarray], step: int,
               hyper: AdamWHyper) -> None:
    """Update number step (from 1) of decoupled-weight-decay Adam, in place on
    params and the moments m and v; writes nothing if a gradient is not finite."""
    for k, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {k}")
    for k, p in params.items():
        g = grads[k]
        m[k] *= hyper.beta1
        m[k] += (1 - hyper.beta1) * g
        v[k] *= hyper.beta2
        v[k] += (1 - hyper.beta2) * g * g
        m_hat = m[k] / (1 - hyper.beta1 ** step)
        v_hat = v[k] / (1 - hyper.beta2 ** step)
        p *= 1 - hyper.lr * hyper.weight_decay
        p -= hyper.lr * m_hat / (np.sqrt(v_hat) + hyper.eps)


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray]
    metadata: dict[str, object]


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    dev_accuracy: float           # per-prefix
    dev_string_accuracy: float    # full-string, secondary metric
    param_norm: float


def param_norm(params: dict[str, np.ndarray]) -> float:
    return math.sqrt(sum(float(np.sum(p * p)) for p in params.values()))


@dataclass(frozen=True)
class Prefixes:
    """The distinct prefixes of a string set, numbered by number_prefixes,
    with the model's decision on each."""
    alphabet: tuple[str, ...]
    parents: np.ndarray  # (n_states,) int; state q's prefix is parents[q]'s plus one token
    tokens: np.ndarray   # (n_states,) int; that token's alphabet index, bos at the root
    levels: np.ndarray   # level t is states levels[t]:levels[t + 1]; the last entry is n_states
    visits: np.ndarray   # the state at positions 0..len(w) of each string w, in row order
    labels: np.ndarray   # (n_states,) bool, the model's decision on each state

    @property
    def n_states(self) -> int:
        return len(self.parents)

    @property
    def n_strings(self) -> int:
        """The input strings, duplicates included: each string's positions
        start at the root, and no other position reaches it."""
        return int(np.count_nonzero(self.visits == 0))

    def state_of(self, prefix: str) -> int | None:
        state = 0
        for token in prefix:
            child = np.flatnonzero((self.parents == state)
                                   & (self.tokens == self.alphabet.index(token)))
            if not len(child):
                return None
            state = int(child[0])
        return state


def number_prefixes(model: RnnModel, samples: Samples
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(parents, tokens, levels, visits) of the distinct prefixes of the
    samples' strings (see Prefixes), whose tokens are the model's token ids,
    numbered in BFS order from the root, state 0, with children in alphabet
    order; visits counts a duplicate string once per occurrence.  The root is
    its own parent and is reached on bos, so every state's hidden vector is
    one _step from its parent's, the root's from zero.  One lexicographic sort
    of the rows as the model reads them, bos first and as padding, numbers
    every level: sorted row r's prefix of length t is a new state when t
    exceeds its strings' common-prefix length with row r - 1 and lies inside
    r, and a level's states in sorted row order are in BFS order."""
    if not len(samples):
        raise ValueError("need at least one string")
    sigma, ids, inside = len(model.alphabet), samples.tokens, samples.inside
    if np.any(ids[inside[:, 1:]] >= sigma):
        raise ValueError(f"token ids must lie below the alphabet size {sigma}")
    key = np.where(inside, np.pad(ids, ((0, 0), (1, 0)), constant_values=model.bos), model.bos)
    order = np.lexsort(key.T[::-1])
    key = key[order]
    lcp = np.full(len(key), -1)  # row 0 shares no prefix, not even the root
    lcp[1:] = np.logical_and.accumulate(key[1:] == key[:-1], axis=1).sum(axis=1) - 1
    t = np.arange(key.shape[1])
    opens = (t > lcp[:, None]) & (t <= samples.lengths[order, None])
    levels = np.concatenate(([0], np.cumsum(np.count_nonzero(opens, axis=0))))
    reached = np.cumsum(opens, axis=0) + (levels[:-1] - 1)  # each level's running count
    steps, rows = np.nonzero(opens.T)  # the states in BFS order; the root is its own parent
    parents, tokens = reached[rows, np.maximum(steps - 1, 0)], key[rows, steps].astype(np.intp)
    reached[order] = reached.copy()
    return parents, tokens, levels, reached[inside]


def level_states(model: RnnModel, parents: np.ndarray, tokens: np.ndarray,
                 levels: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """(lo, hi, h) per level of number_prefixes's numbering: h holds the hidden
    states of states lo:hi, one _step batch from their parents'.  A state's
    bits can differ in the last place from a batch that holds other rows."""
    h, above = np.zeros((1, model.hidden_dim)), 0  # the root's parent: the zero state
    for lo, hi in zip(levels[:-1].tolist(), levels[1:].tolist()):
        h = _step(model.params, h[parents[lo:hi] - above], tokens[lo:hi])
        yield lo, hi, h
        above = lo


@dataclass(frozen=True)
class EvalReference:
    """One model's decisions on a labelled sample set: the samples' prefixes
    with the model's decision on each, and per position of prefixes.visits the
    stored label.  ends[i] is the position of sample i's whole string."""
    prefixes: Prefixes
    labels: np.ndarray  # (positions,) bool
    ends: np.ndarray    # (n,) int


def eval_reference(model: RnnModel, samples: Samples) -> EvalReference:
    """Built once per (model, sample set), and then scored against any number of
    machines.  Keeps the decisions of each level_states level, not its states."""
    parents, tokens, levels, visits = number_prefixes(model, samples)
    decisions = np.empty(len(parents), dtype=bool)
    for lo, hi, h in level_states(model, parents, tokens, levels):
        decisions[lo:hi] = _accepts(_head_probs(model.params, h))
    prefixes = Prefixes(model.alphabet, parents, tokens, levels, visits, decisions)
    return EvalReference(prefixes, samples.labels[samples.inside],
                         np.cumsum(samples.lengths + 1) - 1)


def evaluate(model: RnnModel, samples: Samples) -> tuple[float, float]:
    """(per-prefix accuracy, full-string accuracy) against stored labels."""
    reference = eval_reference(model, samples)
    prefixes = reference.prefixes
    match = prefixes.labels[prefixes.visits] == reference.labels
    correct, string_correct = (int(np.count_nonzero(a)) for a in (match, match[reference.ends]))
    return correct / len(match), string_correct / len(samples)


def train(model: RnnModel, train_set: Samples, dev_set: Samples,
          epochs: int, rng: np.random.Generator,
          batch_size: int) -> tuple[list[Checkpoint], list[EpochMetrics]]:
    """Minibatched BPTT training with ADAMW; one checkpoint and metrics row per epoch."""
    if not train_set or not dev_set:
        raise ValueError("train and dev sets must be nonempty")
    n, width = train_set.tokens.shape
    if np.any(train_set.lengths != width):
        raise ValueError("batch requires same-length strings")
    # Each batch takes its rows.  The smallest id type that holds bos keeps a
    # full-protocol set (100k x 101) at one byte per token.
    all_ids = np.empty((n, width + 1), dtype=np.min_scalar_type(model.bos))
    all_ids[:, 0], all_ids[:, 1:] = model.bos, train_set.tokens
    params = {k: p.copy() for k, p in model.params.items()}
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    step = 0
    checkpoints: list[Checkpoint] = []
    metrics: list[EpochMetrics] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(train_set))
        total_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), batch_size):
            rows = order[start:start + batch_size]
            loss, grads = loss_and_grads(params, all_ids[rows], train_set.labels[rows])
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch} batch {n_batches}")
            step += 1
            try:
                adamw_step(params, grads, m, v, step, ADAMW)
            except TrainingError as exc:
                raise TrainingError(f"epoch {epoch} batch {n_batches}: {exc}") from exc
            total_loss += loss
            n_batches += 1
        snapshot = RnnModel(model.alphabet, params)
        dev_acc, dev_string_acc = evaluate(snapshot, dev_set)
        norm = param_norm(params)
        meta = {"epoch": epoch, "dev_accuracy": dev_acc, "param_norm": norm}
        checkpoints.append(Checkpoint({k: p.copy() for k, p in params.items()}, meta))
        metrics.append(EpochMetrics(epoch, total_loss / n_batches, dev_acc,
                                    dev_string_acc, norm))
        logger.info("epoch %d: loss %.5f, dev acc %.5f, norm %.3f",
                    epoch, total_loss / n_batches, dev_acc, norm)
    model.params = params
    return checkpoints, metrics


def best_checkpoint(checkpoints: list[Checkpoint]) -> Checkpoint:
    """Highest dev accuracy; ties broken toward the highest epoch."""
    return max(checkpoints, key=lambda c: (c.metadata["dev_accuracy"], c.metadata["epoch"]))


def kappa_bound(d: int, eps: float) -> float | None:
    """Largest merge tolerance guaranteed safe for an eps-saturated model of
    hidden dimension d; None when the bound is infeasible."""
    if d < 1 or eps < 0:
        raise ValueError("need d >= 1 and eps >= 0")
    if 1.0 / math.sqrt(d) <= eps:
        return None
    # Expanded form of 2 * (1/sqrt(d) - eps)^2; exact at eps = 0.
    return 2.0 / d - 4.0 * eps / math.sqrt(d) + 2.0 * eps * eps


def save_checkpoint(ckpt: Checkpoint, alphabet: tuple[str, ...]) -> str:
    """Versioned text form; floats printed with shortest round-trip repr."""
    lines = [f"format checkpoint {CHECKPOINT_FORMAT_VERSION}",
             "alphabet " + " ".join(alphabet)]
    for key in sorted(ckpt.metadata):
        lines.append(f"meta {key} {ckpt.metadata[key]}")
    for name in PARAM_NAMES:
        arr = ckpt.params[name]
        shape = " ".join(str(s) for s in arr.shape)
        lines.append(f"param {name} {shape}")
        rows = arr.reshape(len(arr), -1)  # one row's floats and strings alive at a time
        lines.append(" ".join(" ".join(map(repr, row.tolist())) for row in rows))
    return "\n".join(lines) + "\n"


def load_checkpoint(text: str) -> tuple[Checkpoint, tuple[str, ...]]:
    """Parse the save_checkpoint form: the header, the alphabet line once,
    each meta key at most once, and one param line (then its values line)
    for each of PARAM_NAMES."""
    lines = text.splitlines()
    if not lines or lines[0].split() != ["format", "checkpoint", str(CHECKPOINT_FORMAT_VERSION)]:
        raise ValueError("unrecognized checkpoint header")
    alphabet: tuple[str, ...] | None = None
    metadata: dict[str, object] = {}
    params: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        line = lines[i]
        if line.startswith("alphabet "):
            if alphabet is not None:
                raise ValueError(f"repeated checkpoint line: {line!r}")
            alphabet = tuple(line.split()[1:])
            i += 1
        elif line.startswith("meta "):
            _, key, *rest = line.split()
            if key in metadata:
                raise ValueError(f"repeated checkpoint line: {line!r}")
            raw = " ".join(rest)
            try:
                value: object = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
            metadata[key] = value
            i += 1
        elif line.startswith("param "):
            _, name, *shape = line.split()
            if name not in PARAM_NAMES:
                raise ValueError(f"unrecognized checkpoint line: {line!r}")
            if name in params:
                raise ValueError(f"repeated checkpoint line: {line!r}")
            if not all(s.isdecimal() and int(s) > 0 for s in shape):
                raise ValueError(f"checkpoint param sizes must be positive integers: {line!r}")
            shape_t = tuple(int(s) for s in shape)
            if i + 1 >= len(lines):
                raise ValueError(f"checkpoint param {name} has no values line")
            values = np.array([float(v) for v in lines[i + 1].split()])
            params[name] = values.reshape(shape_t)
            i += 2
        elif not line.strip():
            i += 1
        else:
            raise ValueError(f"unrecognized checkpoint line: {line!r}")
    missing = ["alphabet"] if alphabet is None else []
    missing += [f"param {name}" for name in PARAM_NAMES if name not in params]
    if missing:
        raise ValueError(f"checkpoint has no {', '.join(missing)} line")
    return Checkpoint(params, metadata), alphabet


def model_from_checkpoint(ckpt: Checkpoint, alphabet: tuple[str, ...]) -> RnnModel:
    return RnnModel(alphabet, {k: v.copy() for k, v in ckpt.params.items()})
