"""Finite automata: execution, determinization, minimization, equivalence, serialization.

Machines use a *partial* transition function: a missing (state, token) entry
denotes the absorbing undefined state, written None and kept outside the
state set.  State ids are plain ints.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

DFA_FORMAT_VERSION = 1


class AlphabetError(ValueError):
    """A token outside the machine's alphabet, or mismatched alphabets."""


@dataclass
class Dfa:
    alphabet: tuple[str, ...]
    states: set[int]
    initial: int
    transitions: dict[tuple[int, str], int]
    accepting: set[int]

    def __post_init__(self) -> None:
        _validate(self, ((edge, {dst}) for edge, dst in self.transitions.items()))

    def step(self, state: int | None, token: str) -> int | None:
        if token not in self.alphabet:
            raise AlphabetError(f"token {token!r} not in alphabet {self.alphabet}")
        if state is None:
            return None
        return self.transitions.get((state, token))

    def accepts(self, w: str) -> bool:
        return prefix_decisions(self, w)[-1]


@dataclass
class Nfa:
    alphabet: tuple[str, ...]
    states: set[int]
    initial: int
    transitions: dict[tuple[int, str], set[int]]
    accepting: set[int]

    def __post_init__(self) -> None:
        _validate(self, self.transitions.items())


def _validate(machine: Dfa | Nfa, targets: Iterable[tuple[tuple[int, str], set[int]]]) -> None:
    """Either machine's construction checks; targets yields ((source, token), target set)."""
    if machine.initial not in machine.states:
        raise ValueError(f"initial state {machine.initial} not in state set")
    if not machine.accepting <= machine.states:
        raise ValueError("accepting states must be a subset of states")
    if len(set(machine.alphabet)) != len(machine.alphabet):
        raise ValueError("alphabet tokens must be distinct")
    for (src, tok), dsts in targets:
        if src not in machine.states or not dsts <= machine.states:
            arrow = f" -> {machine.transitions[src, tok]}" if isinstance(machine, Dfa) else ""
            raise ValueError(f"transition ({src}, {tok}){arrow} leaves the state set")
        if tok not in machine.alphabet:
            raise ValueError(f"transition token {tok!r} not in alphabet")


def prefix_decisions(dfa: Dfa, w: str) -> list[bool]:
    """Acceptance verdict for every prefix of w, entry 0 being the empty string."""
    state: int | None = dfa.initial
    verdicts = [state in dfa.accepting]
    for token in w:
        state = dfa.step(state, token)
        verdicts.append(state in dfa.accepting)
    return verdicts


def successor_table(dfa: Dfa, alphabet: tuple[str, ...]) -> tuple[list[int], list[list[int]]]:
    """The machine completed with a sink: its states in ascending order, and a
    row per state plus a last, self-looping sink row, where row i, column j is
    the row of states[i]'s successor on alphabet[j] (a token of alphabet)."""
    if not set(alphabet) <= set(dfa.alphabet):
        raise AlphabetError(f"tokens {alphabet} not all in alphabet {dfa.alphabet}")
    states = sorted(dfa.states)
    index = {state: i for i, state in enumerate(states)}
    sink = len(states)
    return states, [[index.get(dfa.transitions.get((state, token)), sink) for token in alphabet]
                    for state in states] + [[sink] * len(alphabet)]


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction; unreachable subsets are never built and the empty
    subset stays implicit as the undefined state."""
    start = frozenset({nfa.initial})
    ids: dict[frozenset[int], int] = {start: 0}
    queue: deque[frozenset[int]] = deque([start])
    transitions: dict[tuple[int, str], int] = {}
    accepting: set[int] = set()
    while queue:
        subset = queue.popleft()
        sid = ids[subset]
        if subset & nfa.accepting:
            accepting.add(sid)
        for token in nfa.alphabet:
            successor = frozenset(
                dst for src in subset for dst in nfa.transitions.get((src, token), ()))
            if not successor:
                continue
            if successor not in ids:
                ids[successor] = len(ids)
                queue.append(successor)
            transitions[(sid, token)] = ids[successor]
    return Dfa(nfa.alphabet, set(ids.values()), 0, transitions, accepting)


def minimize(dfa: Dfa) -> Dfa:
    """Unique minimal machine for the same language, in the partial-transition
    convention: the dead sink is collapsed back into the undefined state and
    dropped from the state set (kept only when it is the initial state).

    Moore refinement (Moore 1956) over every state plus one explicit sink:
    each round relabels a row by its block and its successors' blocks, until
    the block count stops growing.  Unreachable states may share a block with
    reachable ones, but the renumbering walk from the initial block never
    visits a block that only they occupy."""
    states, succ = successor_table(dfa, dfa.alphabet)
    sink = len(states)
    block = [int(state in dfa.accepting) for state in states] + [0]
    count = len(set(block))
    while True:
        labels: dict[tuple[int, ...], int] = {}
        block = [labels.setdefault((block[i], *(block[j] for j in row)), len(labels))
                 for i, row in enumerate(succ)]
        if len(labels) == count:
            break
        count = len(labels)
    dead, initial_block = block[sink], block[states.index(dfa.initial)]
    if initial_block == dead:
        # Empty language: keep the bare initial state, no transitions.
        return Dfa(dfa.alphabet, {0}, 0, {}, set())
    rep: dict[int, int] = {}
    for i, b in enumerate(block):
        rep.setdefault(b, i)
    # BFS renumbering from the initial block gives stable output ids.
    ids: dict[int, int] = {initial_block: 0}
    queue = deque([initial_block])
    transitions: dict[tuple[int, str], int] = {}
    accepting: set[int] = set()
    while queue:
        b = queue.popleft()
        bid = ids[b]
        if states[rep[b]] in dfa.accepting:
            accepting.add(bid)
        for token, dst in zip(dfa.alphabet, succ[rep[b]]):
            dst_block = block[dst]
            if dst_block == dead:
                continue
            if dst_block not in ids:
                ids[dst_block] = len(ids)
                queue.append(dst_block)
            transitions[(bid, token)] = ids[dst_block]
    return Dfa(dfa.alphabet, set(ids.values()), 0, transitions, accepting)


def equivalent(a: Dfa, b: Dfa) -> bool:
    """True iff both machines recognize the same language: minimize numbers
    its output canonically, so by Myhill-Nerode the language is equal exactly
    when the minimal machines are ==."""
    if a.alphabet != b.alphabet:
        raise AlphabetError(f"alphabet mismatch: {a.alphabet} vs {b.alphabet}")
    return minimize(a) == minimize(b)


def to_dot(dfa: Dfa) -> str:
    """Deterministic DOT rendering: double circles for accepting states, an
    entry arrow on the initial state, the undefined state omitted."""
    lines = ["digraph dfa {", "  rankdir=LR;", '  __start [shape=point, label=""];',
             f"  __start -> q{dfa.initial};"]
    for state in sorted(dfa.states):
        shape = "doublecircle" if state in dfa.accepting else "circle"
        lines.append(f'  q{state} [shape={shape}, label="q{state}"];')
    for state in sorted(dfa.states):
        for token in dfa.alphabet:
            dst = dfa.transitions.get((state, token))
            if dst is not None:
                lines.append(f'  q{state} -> q{dst} [label="{token}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_dfa(dfa: Dfa) -> str:
    """Versioned key-value text form (see README for the grammar)."""
    lines = [f"format dfa {DFA_FORMAT_VERSION}",
             "alphabet " + " ".join(dfa.alphabet),
             "states " + " ".join(str(s) for s in sorted(dfa.states)),
             f"initial {dfa.initial}",
             "accepting " + " ".join(str(s) for s in sorted(dfa.accepting))]
    for (src, tok), dst in sorted(dfa.transitions.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        lines.append(f"transition {src} {tok} {dst}")
    return "\n".join(lines) + "\n"


def load_dfa(text: str) -> Dfa:
    """Parse the save_dfa form: the header, then each of alphabet, states,
    initial and accepting exactly once, and any number of transitions."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0].split() != ["format", "dfa", str(DFA_FORMAT_VERSION)]:
        raise ValueError("unrecognized DFA file header")
    fields: dict[str, list[str]] = {}
    transitions: dict[tuple[int, str], int] = {}
    for line in lines[1:]:
        key, *rest = line.split()
        if key == "transition" and len(rest) == 3:
            src, tok, dst = rest
            if (int(src), tok) in transitions:
                raise ValueError(f"repeated DFA file line: {line!r}")
            transitions[(int(src), tok)] = int(dst)
        elif key in ("alphabet", "states", "accepting") or (key == "initial" and len(rest) == 1):
            if key in fields:
                raise ValueError(f"repeated DFA file line: {line!r}")
            fields[key] = rest
        else:
            raise ValueError(f"unrecognized DFA file line: {line!r}")
    missing = [key for key in ("alphabet", "states", "initial", "accepting") if key not in fields]
    if missing:
        raise ValueError(f"DFA file has no {', '.join(missing)} line")
    if any(len(tok) != 1 for tok in fields["alphabet"]):
        raise ValueError(f"DFA alphabet tokens must be single characters: {fields['alphabet']}")
    return Dfa(tuple(fields["alphabet"]), {int(s) for s in fields["states"]},
               int(fields["initial"][0]), transitions, {int(s) for s in fields["accepting"]})
