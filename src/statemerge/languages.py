"""The seven Tomita languages over {a, b}: gold minimal DFAs, per-prefix
labels, and seeded samplers for training and evaluation data."""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .automata import Dfa, successor_table

logger = logging.getLogger(__name__)

ALPHABET: tuple[str, ...] = ("a", "b")
LANGUAGE_IDS = tuple(range(1, 8))


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


def _accepting_counts(language: int, max_len: int) -> tuple[list[list[int]], list[list[int]]]:
    """The gold machine's successor_table (row 0 is the initial state, the
    last row the sink) and counts[r][row] = number of length-r strings accepted
    from that row, for every r <= max_len; the sink row counts 0, and counts[0]
    is the rows' accepting vector.  Exact bignum arithmetic."""
    if max_len < 0:
        raise ValueError(f"length must be nonnegative, got {max_len}")
    dfa = gold_dfa(language)
    states, table = successor_table(dfa, ALPHABET)
    counts = [[int(q in dfa.accepting) for q in states] + [0]]
    for _ in range(max_len):
        shorter = counts[-1]
        counts.append([sum(shorter[dst] for dst in row) for row in table])
    return table, counts


_COLUMN = {token: j for j, token in enumerate(ALPHABET)}


def _label(table: list[list[int]], accepting: list[int], x: str) -> LabeledSample:
    """x with the verdict of every prefix, stepping through the table rows."""
    row, y = 0, [accepting[0] == 1]
    for token in x:
        row = table[row][_COLUMN[token]]
        y.append(accepting[row] == 1)
    return LabeledSample(x, tuple(y))


@contextmanager
def _byte_source(rng: np.random.Generator) -> Iterator[Callable[[int], bytes]]:
    """rng.bytes, or for a PCG64 generator a reader that returns the same
    bytes, and leaves the generator in the same state, without rng.bytes's
    per-call cost.  rng.bytes(nbytes) is ceil(nbytes/4) of the generator's
    uint32s written little-endian and truncated; PCG64 makes each uint32 pair
    from one random_raw() word, low half first, and buffers the high half in
    its state (has_uint32, uinteger), which the reader takes over on entry
    and hands back on exit."""
    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        yield rng.bytes
        return
    state = bit_generator.state
    has_uint32, uinteger = state["has_uint32"], state["uinteger"]
    raw = bit_generator.random_raw

    def take(nbytes: int) -> bytes:
        nonlocal has_uint32, uinteger
        n_uint32 = (nbytes + 3) // 4
        value = 0
        for shift in range(0, 32 * n_uint32, 32):
            if has_uint32:
                value |= uinteger << shift
                has_uint32 = 0
            else:
                word = raw()
                value |= (word & 0xFFFFFFFF) << shift
                has_uint32, uinteger = 1, word >> 32
        return value.to_bytes(4 * n_uint32, "little")[:nbytes]

    try:
        yield take
    finally:
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = has_uint32, uinteger
        bit_generator.state = state


def _randbelow(take: Callable[[int], bytes], n: int) -> int:
    """Uniform integer in [0, n) with exact bignum support: the top
    bit_length(n) bits of take(nbytes) read big-endian, drawn again until
    below n.  take is rng.bytes or a _byte_source reader."""
    if n <= 0:
        raise ValueError("empty range")
    k = n.bit_length()
    nbytes = (k + 7) // 8
    shift = 8 * nbytes - k
    while True:
        r = int.from_bytes(take(nbytes), "big") >> shift
        if r < n:
            return r


def _walk_positive(table: list[list[int]], counts: list[list[int]], length: int,
                   rng: np.random.Generator) -> str:
    """Uniform in-language string of the given length (which must have one):
    each step picks a token weighted by its successor's accepting completions."""
    row, out = 0, []
    with _byte_source(rng) as take:
        for r in range(length, 0, -1):
            pick = _randbelow(take, counts[r][row])
            for token, dst in zip(ALPHABET, table[row]):
                if pick < counts[r - 1][dst]:
                    out.append(token)
                    row = dst
                    break
                pick -= counts[r - 1][dst]
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
    table, counts = _accepting_counts(language, length)
    feasible = counts[length][0] > 0
    if not feasible:
        logger.warning(
            "Tomita %d has no strings of length %d; sampling the positive half uniformly",
            language, length)
    samples = [_sample_uniform_string(length, rng) for _ in range(n_uniform)]
    samples += [_walk_positive(table, counts, length, rng) if feasible
                else _sample_uniform_string(length, rng) for _ in range(n_positive)]
    return [_label(table, counts[0], x) for x in samples]


def sample_eval_set(language: int, count: int, max_len: int,
                    rng: np.random.Generator) -> list[LabeledSample]:
    """count strings with lengths uniform on {0..max_len}; per string a fair
    coin picks forced-positive (when feasible at that length) vs uniform."""
    table, counts = _accepting_counts(language, max_len)
    samples = []
    for _ in range(count):
        length = int(rng.integers(0, max_len + 1))
        force_positive = bool(rng.integers(0, 2))
        if force_positive and counts[length][0]:
            x = _walk_positive(table, counts, length, rng)
        else:
            x = _sample_uniform_string(length, rng)
        samples.append(_label(table, counts[0], x))
    return samples

