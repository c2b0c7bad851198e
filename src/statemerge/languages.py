"""The seven Tomita languages over {a, b}: gold minimal DFAs, membership
oracles, and seeded samplers for training and evaluation data."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .automata import Dfa, prefix_decisions

logger = logging.getLogger(__name__)

ALPHABET: tuple[str, ...] = ("a", "b")
LANGUAGE_IDS = tuple(range(1, 8))
DATASET_FORMAT_VERSION = 1


class InfeasibleLength(ValueError):
    """The language contains no string of the requested length."""


@dataclass(frozen=True)
class LabeledSample:
    """A string together with a membership label for each of its prefixes;
    y[0] labels the empty string, so len(y) == len(x) + 1."""
    x: str
    y: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.y) != len(self.x) + 1:
            raise ValueError("label vector must have one entry per prefix")


def _dfa(n_states: int, accepting: set[int], edges: dict[tuple[int, str], int]) -> Dfa:
    return Dfa(ALPHABET, set(range(n_states)), 0, edges, accepting)


def gold_dfa(language: int) -> Dfa:
    """Hand-specified minimal DFA; the absorbing dead state is left implicit,
    so state counts exclude it."""
    if language == 1:  # a*
        return _dfa(1, {0}, {(0, "a"): 0})
    if language == 2:  # (ab)*
        return _dfa(2, {0}, {(0, "a"): 1, (1, "b"): 0})
    if language == 3:  # no odd a-run followed by an odd b-run
        # 0: neutral, 1: odd run of a's, 2: odd b's after odd a's, 3: even b's after odd a's
        return _dfa(4, {0, 1, 3}, {
            (0, "a"): 1, (0, "b"): 0,
            (1, "a"): 0, (1, "b"): 2,
            (2, "b"): 3,
            (3, "a"): 1, (3, "b"): 2,
        })
    if language == 4:  # no aaa substring; state = length of current a-suffix
        return _dfa(3, {0, 1, 2}, {
            (0, "a"): 1, (0, "b"): 0,
            (1, "a"): 2, (1, "b"): 0,
            (2, "b"): 0,
        })
    if language == 5:  # both #a and #b even; state = (parity a, parity b)
        return _dfa(4, {0}, {
            (0, "a"): 1, (0, "b"): 2,
            (1, "a"): 0, (1, "b"): 3,
            (2, "a"): 3, (2, "b"): 0,
            (3, "a"): 2, (3, "b"): 1,
        })
    if language == 6:  # (#a - #b) mod 3 == 0
        return _dfa(3, {0}, {
            (0, "a"): 1, (0, "b"): 2,
            (1, "a"): 2, (1, "b"): 0,
            (2, "a"): 0, (2, "b"): 1,
        })
    if language == 7:  # b*a*b*a*; state = block index
        return _dfa(4, {0, 1, 2, 3}, {
            (0, "a"): 1, (0, "b"): 0,
            (1, "a"): 1, (1, "b"): 2,
            (2, "a"): 3, (2, "b"): 2,
            (3, "a"): 3,
        })
    raise ValueError(f"unknown Tomita language id {language}; expected 1-7")


def membership(language: int, w: str) -> bool:
    return gold_dfa(language).accepts(w)


def prefix_labels(language: int, w: str) -> tuple[bool, ...]:
    return tuple(prefix_decisions(gold_dfa(language), w))


def labeled(language: int, w: str) -> LabeledSample:
    return LabeledSample(w, prefix_labels(language, w))


def _accepting_counts(dfa: Dfa, max_len: int) -> dict[int, list[int]]:
    """counts[q][r] = number of length-r strings accepted starting from q.
    Exact bignum arithmetic; missing transitions contribute nothing."""
    if max_len < 0:
        raise ValueError(f"length must be nonnegative, got {max_len}")
    counts = {q: [0] * (max_len + 1) for q in dfa.states}
    for q in dfa.states:
        counts[q][0] = 1 if q in dfa.accepting else 0
    for r in range(1, max_len + 1):
        for q in dfa.states:
            total = 0
            for token in dfa.alphabet:
                dst = dfa.transitions.get((q, token))
                if dst is not None:
                    total += counts[dst][r - 1]
            counts[q][r] = total
    return counts


def _randbelow(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) with exact bignum support."""
    if n <= 0:
        raise ValueError("empty range")
    k = n.bit_length()
    nbytes = (k + 7) // 8
    shift = 8 * nbytes - k
    while True:
        r = int.from_bytes(rng.bytes(nbytes), "big") >> shift
        if r < n:
            return r


def positive_count(language: int, length: int) -> int:
    dfa = gold_dfa(language)
    return _accepting_counts(dfa, length)[dfa.initial][length]


def sample_uniform_positive(language: int, length: int, rng: np.random.Generator) -> str:
    """Uniform draw from the set of in-language strings of exactly the given
    length, by walking the gold DFA weighted with accepting-completion counts."""
    dfa = gold_dfa(language)
    counts = _accepting_counts(dfa, length)
    total = counts[dfa.initial][length]
    if total == 0:
        raise InfeasibleLength(
            f"Tomita {language} contains no string of length {length}")
    state = dfa.initial
    out: list[str] = []
    for r in range(length, 0, -1):
        pick = _randbelow(rng, counts[state][r])
        for token in dfa.alphabet:
            dst = dfa.transitions.get((state, token))
            weight = counts[dst][r - 1] if dst is not None else 0
            if pick < weight:
                out.append(token)
                state = dst
                break
            pick -= weight
    return "".join(out)


def _sample_uniform_string(length: int, rng: np.random.Generator) -> str:
    return "".join(ALPHABET[i] for i in rng.integers(0, len(ALPHABET), size=length))


def sample_balanced(language: int, length: int, count: int,
                    rng: np.random.Generator) -> list[LabeledSample]:
    """count strings of one fixed length: half uniform over all strings, half
    uniform over the language (degrading to uniform, with a warning, when the
    language has no strings of that length)."""
    if count < 2:
        raise ValueError("need at least 2 samples for a balanced draw")
    n_uniform = (count + 1) // 2
    n_positive = count // 2
    feasible = positive_count(language, length) > 0
    if not feasible and n_positive:
        logger.warning(
            "Tomita %d has no strings of length %d; sampling the positive half uniformly",
            language, length)
    samples = [_sample_uniform_string(length, rng) for _ in range(n_uniform)]
    for _ in range(n_positive):
        if feasible:
            samples.append(sample_uniform_positive(language, length, rng))
        else:
            samples.append(_sample_uniform_string(length, rng))
    return [labeled(language, x) for x in samples]


def sample_eval_set(language: int, count: int, max_len: int,
                    rng: np.random.Generator) -> list[LabeledSample]:
    """count strings with lengths uniform on {0..max_len}; per string a fair
    coin picks forced-positive (when feasible at that length) vs uniform."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    feasible = [positive_count(language, n) > 0 for n in range(max_len + 1)]
    samples = []
    for _ in range(count):
        length = int(rng.integers(0, max_len + 1))
        force_positive = bool(rng.integers(0, 2))
        if force_positive and feasible[length]:
            x = sample_uniform_positive(language, length, rng)
        else:
            x = _sample_uniform_string(length, rng)
        samples.append(labeled(language, x))
    return samples


def save_dataset(samples: list[LabeledSample], language: int, seed: int,
                 note: str = "") -> str:
    """One record per line: string, tab, bitstring of prefix labels."""
    lines = [f"# dataset-format {DATASET_FORMAT_VERSION}",
             f"# language {language} seed {seed} count {len(samples)}"
             + (f" {note}" if note else "")]
    for s in samples:
        lines.append(s.x + "\t" + "".join("1" if b else "0" for b in s.y))
    return "\n".join(lines) + "\n"


def load_dataset(text: str) -> list[LabeledSample]:
    samples = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        x, bits = line.split("\t")
        samples.append(LabeledSample(x, tuple(c == "1" for c in bits)))
    return samples
