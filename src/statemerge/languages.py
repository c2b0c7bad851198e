"""The seven Tomita languages over {a, b}: gold minimal DFAs, per-prefix
labels, and seeded samplers for training and evaluation data."""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .automata import Dfa, successor_table

logger = logging.getLogger(__name__)

ALPHABET: tuple[str, ...] = ("a", "b")
LANGUAGE_IDS = tuple(range(1, 8))
# The samplers' tables: built once per (language, length), shared, hence tuples.
Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Samples:
    """n strings with the verdict on each of their prefixes, as arrays.  Row
    i's string is tokens[i, :lengths[i]], alphabet indices padded with
    len(ALPHABET) to the width, the longest length; labels[i, t] is the
    verdict on its prefix of length t, and past lengths[i] the verdict on
    the whole string."""
    tokens: np.ndarray   # (n, width) uint8
    lengths: np.ndarray  # (n,) int
    labels: np.ndarray   # (n, width + 1) bool

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def inside(self) -> np.ndarray:
        """(n, width + 1) bool: row i is True at its positions 0..lengths[i]."""
        return np.arange(self.labels.shape[1]) <= self.lengths[:, None]


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


@functools.lru_cache(maxsize=256)
def _accepting_counts(language: int, max_len: int) -> tuple[Table, Table]:
    """The gold machine's successor_table (row 0 is the initial state, the
    last row the sink) and counts[r][row] = number of length-r strings accepted
    from that row, for every r <= max_len; the sink row counts 0, and counts[0]
    is the rows' accepting vector.  Exact bignum arithmetic."""
    if max_len < 0:
        raise ValueError(f"length must be nonnegative, got {max_len}")
    dfa = gold_dfa(language)
    states, table = successor_table(dfa, ALPHABET)
    counts = [tuple(int(q in dfa.accepting) for q in states) + (0,)]
    for _ in range(max_len):
        shorter = counts[-1]
        counts.append(tuple(sum(shorter[dst] for dst in row) for row in table))
    return tuple(map(tuple, table)), tuple(counts)


class _WordReader:
    """The generator's next 32-bit words, fetched BLOCK at a time, as a context.
    On every bit generator, rng.bytes, rng.integers(0, 2) and a scalar
    rng.integers(0, m) read the same stream of words one at a time, and
    rng.integers(0, 2**32, size=s, dtype=np.uint32) is its next s words.  The
    window holds the words (raw), their byte swaps (swapped) and top bits
    (tops); pos indexes its next word, done counts the words handed out
    before it.  On exit the reader restores the entry state and draws again
    exactly the words handed out, BLOCK at a time, so the generator ends where
    drawing them one by one leaves it, buffered state included (PCG64's
    buffered half)."""
    BLOCK = 1024

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.entry = rng.bit_generator.state
        self.done = self.pos = 0
        self.raw: list[int] = []
        self.swapped: list[int] = []
        self.tops = b""

    def __enter__(self) -> _WordReader:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.rng.bit_generator.state = self.entry
        handed_out = self.done + self.pos
        for start in range(0, handed_out, self.BLOCK):
            self.rng.integers(0, 2**32, size=min(self.BLOCK, handed_out - start),
                              dtype=np.uint32)

    def refill(self, n: int) -> None:
        """Drop the window's words before pos and fetch a block, or n words if
        that is more; pos becomes 0."""
        words = self.rng.integers(0, 2**32, size=max(self.BLOCK, n), dtype=np.uint32)
        self.raw = self.raw[self.pos:] + words.tolist()
        self.swapped = self.swapped[self.pos:] + words.byteswap().tolist()
        self.tops = self.tops[self.pos:] + (words >> 31).astype(np.uint8).tobytes()
        self.done, self.pos = self.done + self.pos, 0

    def take(self, n: int) -> int:
        """Hand out the next n words; returns the window index of the first."""
        if self.pos + n > len(self.raw):
            self.refill(n)
        self.pos += n
        return self.pos - n

    def word(self) -> int:
        """The next word."""
        i = self.take(1)
        return self.raw[i]

    def bits(self, n: int) -> bytes:
        """The next n words' top bits."""
        i = self.take(n)
        return self.tops[i:i + n]


@functools.lru_cache(maxsize=256)
def _walk_steps(table: Table, counts: Table) -> tuple[Table, ...]:
    """steps[r][row] for the positive walk with r tokens to go from row: the
    bound counts[r][row]; the words one draw below it reads and the shift that
    keeps the bound's bit length of them; the first successor's count of
    accepting completions; the two successor rows."""
    steps: list[list[tuple[int, ...]]] = [[]]
    for shorter, level in zip(counts, counts[1:]):
        steps.append([])
        for bound, (first, second) in zip(level, table):
            k = bound.bit_length()
            n_words = (k + 31) // 32
            steps[-1].append((bound, n_words, 32 * n_words - k, shorter[first], first, second))
    return tuple(map(tuple, steps))


def _walk(words: _WordReader, steps: tuple[Table, ...], length: int) -> bytearray:
    """A uniform in-language string of the given length (which must have one),
    as alphabet indices.  Each step draws pick uniform below its row's bound:
    the top bit_length(bound) bits of the next words' big-endian bytes (the
    byte-swapped words joined), drawn again until below the bound.  Then the
    first token when pick is below the first successor's count, else the
    second."""
    swapped, i, row, out = words.swapped, words.pos, 0, bytearray(length)
    end = len(swapped)
    for r in range(length, 0, -1):
        bound, n_words, shift, first, row_first, row_second = steps[r][row]
        while True:
            if i + n_words > end:
                words.pos = i
                words.refill(n_words)
                swapped, i, end = words.swapped, 0, len(words.swapped)
            pick = swapped[i]
            if n_words > 1:
                for word in swapped[i + 1:i + n_words]:
                    pick = pick << 32 | word
            i += n_words
            pick >>= shift
            if pick < bound:
                break
        if pick < first:
            row = row_first
        else:
            row, out[length - r] = row_second, 1
    words.pos = i
    return out


def _labeled(table: Table, accepting: tuple[int, ...], strings: list[bytes]) -> Samples:
    """The strings of alphabet indices with the verdict of every prefix: one
    walk through the table's rows, level by level over all strings at once,
    padded with token len(ALPHABET), on which every row stays put."""
    lengths = np.fromiter(map(len, strings), dtype=np.intp, count=len(strings))
    width = int(lengths.max(initial=0))
    pad = bytes([len(ALPHABET)])
    tokens = np.frombuffer(b"".join(s.ljust(width, pad) for s in strings),
                           dtype=np.uint8).reshape(len(strings), width)
    successors = np.array([(*row, i) for i, row in enumerate(table)])
    verdicts = np.array(accepting, dtype=bool)
    rows = np.zeros(len(strings), dtype=np.intp)
    y = np.empty((len(strings), width + 1), dtype=bool)
    y[:, 0] = verdicts[0]
    for t, column in enumerate(tokens.T, start=1):
        rows = successors[rows, column]
        y[:, t] = verdicts[rows]
    return Samples(tokens, lengths, y)


def sample_balanced(language: int, length: int, count: int,
                    rng: np.random.Generator) -> Samples:
    """count strings of one fixed length: half uniform over all strings, half
    uniform over the language (degrading to uniform, with a warning, when the
    language has no strings of that length)."""
    if count < 2:
        raise ValueError("need at least 2 samples for a balanced draw")
    n_positive = count // 2
    table, counts = _accepting_counts(language, length)
    feasible = counts[length][0] > 0
    if not feasible:
        logger.warning(
            "Tomita %d has no strings of length %d; sampling the positive half uniformly",
            language, length)
    # rng.integers(0, 2, size) is the top bit of the same uint32 draw.
    uniform = rng.integers(0, 2**32, size=(count - n_positive * feasible, length),
                           dtype=np.uint32)
    uniform >>= 31
    strings = [row.tobytes() for row in uniform.astype(np.uint8)]
    del uniform
    if feasible:
        steps = _walk_steps(table, counts)
        with _WordReader(rng) as words:
            strings += [_walk(words, steps, length) for _ in range(n_positive)]
    return _labeled(table, counts[0], strings)


def sample_eval_set(language: int, count: int, max_len: int,
                    rng: np.random.Generator) -> Samples:
    """count strings with lengths uniform on {0..max_len}; per string a fair
    coin picks forced-positive (when feasible at that length) vs uniform.  The
    length is rng.integers(0, max_len + 1) and the coin rng.integers(0, 2),
    drawn as numpy draws them: Lemire's method, one word per attempt,
    rejected while the product's low word is below (2**32 - m) % m, and no
    word at all for the single length of max_len 0."""
    table, counts = _accepting_counts(language, max_len)
    steps = _walk_steps(table, counts)
    m = max_len + 1
    threshold = (2**32 - m) % m
    strings: list[bytes] = []
    with _WordReader(rng) as words:
        for _ in range(count):
            length = 0
            if m > 1:
                draw = words.word() * m
                while draw & 0xFFFFFFFF < threshold:
                    draw = words.word() * m
                length = draw >> 32
            if words.word() >> 31 and counts[length][0]:
                strings.append(_walk(words, steps, length))
            else:
                strings.append(words.bits(length))
    return _labeled(table, counts[0], strings)
