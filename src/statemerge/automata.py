"""Finite automata: execution, determinization, minimization, equivalence, serialization.

Machines use a *partial* transition function: a missing (state, token) entry
denotes the absorbing undefined state, written None in run traces and kept
outside the state set.  State ids are plain ints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

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
        self.validate()

    def validate(self) -> None:
        if self.initial not in self.states:
            raise ValueError(f"initial state {self.initial} not in state set")
        if not self.accepting <= self.states:
            raise ValueError("accepting states must be a subset of states")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet tokens must be distinct")
        for (src, tok), dst in self.transitions.items():
            if src not in self.states or dst not in self.states:
                raise ValueError(f"transition ({src}, {tok}) -> {dst} leaves the state set")
            if tok not in self.alphabet:
                raise ValueError(f"transition token {tok!r} not in alphabet")

    def step(self, state: int | None, token: str) -> int | None:
        if token not in self.alphabet:
            raise AlphabetError(f"token {token!r} not in alphabet {self.alphabet}")
        if state is None:
            return None
        return self.transitions.get((state, token))

    def accepts(self, w: str) -> bool:
        state: int | None = self.initial
        for token in w:
            state = self.step(state, token)
            if state is None:
                return False
        return state in self.accepting

    def copy(self) -> "Dfa":
        return Dfa(self.alphabet, set(self.states), self.initial,
                   dict(self.transitions), set(self.accepting))


@dataclass
class Nfa:
    alphabet: tuple[str, ...]
    states: set[int]
    initial: int
    transitions: dict[tuple[int, str], set[int]]
    accepting: set[int]

    def validate(self) -> None:
        if self.initial not in self.states:
            raise ValueError(f"initial state {self.initial} not in state set")
        if not self.accepting <= self.states:
            raise ValueError("accepting states must be a subset of states")
        for (src, tok), dsts in self.transitions.items():
            if src not in self.states or not dsts <= self.states:
                raise ValueError(f"transition ({src}, {tok}) leaves the state set")
            if tok not in self.alphabet:
                raise ValueError(f"transition token {tok!r} not in alphabet")

    def accepts(self, w: str) -> bool:
        """Path-existence acceptance by direct subset simulation."""
        current = {self.initial}
        for token in w:
            if token not in self.alphabet:
                raise AlphabetError(f"token {token!r} not in alphabet {self.alphabet}")
            current = {dst for src in current for dst in self.transitions.get((src, token), ())}
            if not current:
                return False
        return bool(current & self.accepting)


@dataclass
class RunTrace:
    states: list[int | None] = field(default_factory=list)
    accepted: bool = False


def run(dfa: Dfa, w: str) -> RunTrace:
    """Execute the machine on w, recording the state after each prefix."""
    states: list[int | None] = [dfa.initial]
    for token in w:
        states.append(dfa.step(states[-1], token))
    final = states[-1]
    return RunTrace(states=states, accepted=final is not None and final in dfa.accepting)


def prefix_decisions(dfa: Dfa, w: str) -> list[bool]:
    """Acceptance verdict for every prefix of w, entry 0 being the empty string."""
    trace = run(dfa, w)
    return [s is not None and s in dfa.accepting for s in trace.states]


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction; unreachable subsets are never built and the empty
    subset stays implicit as the undefined state."""
    nfa.validate()
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


def _reachable(dfa: Dfa) -> set[int]:
    seen = {dfa.initial}
    queue = deque([dfa.initial])
    while queue:
        state = queue.popleft()
        for token in dfa.alphabet:
            dst = dfa.transitions.get((state, token))
            if dst is not None and dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return seen


def _completed_table(dfa: Dfa, states: set[int]) -> tuple[list[int], dict[tuple[int, str], int], int]:
    """Reachable states plus an explicit sink, with a total transition table."""
    sink = max(states) + 1
    ordered = sorted(states) + [sink]
    table: dict[tuple[int, str], int] = {}
    for state in ordered:
        for token in dfa.alphabet:
            if state == sink:
                table[(state, token)] = sink
            else:
                table[(state, token)] = dfa.transitions.get((state, token), sink)
    return ordered, table, sink


def _hopcroft(states: list[int], alphabet: tuple[str, ...],
              table: dict[tuple[int, str], int], accepting: set[int]) -> dict[int, int]:
    """Partition refinement; returns state -> block id."""
    final = frozenset(s for s in states if s in accepting)
    nonfinal = frozenset(states) - final
    partition: set[frozenset[int]] = {p for p in (final, nonfinal) if p}
    worklist: set[frozenset[int]] = set(partition)
    preimage: dict[tuple[int, str], set[int]] = {}
    for (src, tok), dst in table.items():
        preimage.setdefault((dst, tok), set()).add(src)
    while worklist:
        splitter = worklist.pop()
        for token in alphabet:
            x = set()
            for dst in splitter:
                x |= preimage.get((dst, token), set())
            if not x:
                continue
            for block in list(partition):
                inter = block & x
                diff = block - x
                if not inter or not diff:
                    continue
                partition.remove(block)
                partition.add(frozenset(inter))
                partition.add(frozenset(diff))
                if block in worklist:
                    worklist.remove(block)
                    worklist.add(frozenset(inter))
                    worklist.add(frozenset(diff))
                else:
                    worklist.add(frozenset(inter) if len(inter) <= len(diff) else frozenset(diff))
    block_of: dict[int, int] = {}
    for i, block in enumerate(sorted(partition, key=min)):
        for state in block:
            block_of[state] = i
    return block_of


def minimize(dfa: Dfa) -> Dfa:
    """Unique minimal machine for the same language, in the partial-transition
    convention: the dead sink is collapsed back into the undefined state and
    dropped from the state set (kept only when it is the initial state)."""
    dfa.validate()
    reachable = _reachable(dfa)
    ordered, table, sink = _completed_table(dfa, reachable)
    accepting = dfa.accepting & reachable
    block_of = _hopcroft(ordered, dfa.alphabet, table, accepting)
    sink_block = block_of[sink]
    initial_block = block_of[dfa.initial]
    # BFS renumbering from the initial block gives stable output ids.
    ids: dict[int, int] = {initial_block: 0}
    queue = deque([initial_block])
    transitions: dict[tuple[int, str], int] = {}
    new_accepting: set[int] = set()
    rep: dict[int, int] = {}
    for state in ordered:
        rep.setdefault(block_of[state], state)
    while queue:
        block = queue.popleft()
        bid = ids[block]
        if rep[block] in accepting:
            new_accepting.add(bid)
        for token in dfa.alphabet:
            dst_block = block_of[table[(rep[block], token)]]
            if dst_block == sink_block and dst_block != initial_block:
                continue
            if dst_block not in ids:
                ids[dst_block] = len(ids)
                queue.append(dst_block)
            transitions[(bid, token)] = ids[dst_block]
    if initial_block == sink_block:
        # Empty language: keep the bare initial state, no transitions.
        return Dfa(dfa.alphabet, {0}, 0, {}, set())
    return Dfa(dfa.alphabet, set(ids.values()), 0, transitions, new_accepting)


def equivalent(a: Dfa, b: Dfa) -> bool:
    """True iff both machines recognize the same language, by product
    reachability over the implicitly completed machines."""
    if a.alphabet != b.alphabet:
        raise AlphabetError(f"alphabet mismatch: {a.alphabet} vs {b.alphabet}")
    start = (a.initial, b.initial)
    seen: set[tuple[int | None, int | None]] = {start}
    queue: deque[tuple[int | None, int | None]] = deque([start])
    while queue:
        sa, sb = queue.popleft()
        acc_a = sa is not None and sa in a.accepting
        acc_b = sb is not None and sb in b.accepting
        if acc_a != acc_b:
            return False
        for token in a.alphabet:
            nxt = (a.step(sa, token), b.step(sb, token))
            if nxt != (None, None) and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def isomorphic(a: Dfa, b: Dfa) -> bool:
    """Structural identity up to a state renaming (reachable parts only)."""
    if a.alphabet != b.alphabet or len(a.states) != len(b.states):
        return False
    mapping = {a.initial: b.initial}
    queue = deque([a.initial])
    while queue:
        sa = queue.popleft()
        sb = mapping[sa]
        if (sa in a.accepting) != (sb in b.accepting):
            return False
        for token in a.alphabet:
            da, db = a.transitions.get((sa, token)), b.transitions.get((sb, token))
            if (da is None) != (db is None):
                return False
            if da is None:
                continue
            if da in mapping:
                if mapping[da] != db:
                    return False
            else:
                mapping[da] = db
                queue.append(da)
    return len(mapping) == len(a.states)


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
    alphabet: tuple[str, ...] = ()
    states: set[int] = set()
    initial = 0
    accepting: set[int] = set()
    transitions: dict[tuple[int, str], int] = {}
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0].split() != ["format", "dfa", str(DFA_FORMAT_VERSION)]:
        raise ValueError("unrecognized DFA file header")
    for line in lines[1:]:
        key, *rest = line.split()
        if key == "alphabet":
            alphabet = tuple(rest)
        elif key == "states":
            states = {int(s) for s in rest}
        elif key == "initial" and len(rest) == 1:
            initial = int(rest[0])
        elif key == "accepting":
            accepting = {int(s) for s in rest}
        elif key == "transition" and len(rest) == 3:
            src, tok, dst = rest
            transitions[(int(src), tok)] = int(dst)
        else:
            raise ValueError(f"unrecognized DFA file line: {line!r}")
    return Dfa(alphabet, states, initial, transitions, accepting)
