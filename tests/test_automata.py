import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statemerge.automata import (AlphabetError, Dfa, Nfa, determinize, equivalent, load_dfa,
                                 minimize, prefix_decisions, save_dfa, successor_table, to_dot)
from statemerge.languages import gold_dfa

from conftest import all_strings, random_dfa, random_nfa, same_language, moore_minimize_size

AB_STAR = gold_dfa(2)  # the (ab)* two-state machine


class TestRun:
    """Running a machine: the verdicts prefix_decisions reads off each prefix."""

    def test_accepts_ab(self):
        assert prefix_decisions(AB_STAR, "ab")[-1]

    def test_rejects_aba(self):
        assert not prefix_decisions(AB_STAR, "aba")[-1]

    def test_rejects_abb_via_undefined(self):
        assert AB_STAR.transitions.get((0, "b")) is None
        assert prefix_decisions(AB_STAR, "abb") == [True, False, True, False]

    def test_token_outside_alphabet(self):
        with pytest.raises(AlphabetError):
            prefix_decisions(AB_STAR, "abc")

    def test_token_outside_alphabet_after_undefined(self):
        # "b" leaves (ab)* at once; the "z" after it is still rejected.
        with pytest.raises(AlphabetError):
            AB_STAR.accepts("bz")

    @given(st.text(alphabet="ab", max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_undefined_is_absorbing(self, w):
        verdicts = prefix_decisions(AB_STAR, w)
        assert verdicts == [AB_STAR.accepts(w[:i]) for i in range(len(w) + 1)]
        state = AB_STAR.initial
        for i, token in enumerate(w):
            state = AB_STAR.transitions.get((state, token))
            if state is None:
                assert not any(verdicts[i + 1:])
                break


class TestPrefixDecisions:
    def test_ab(self):
        assert prefix_decisions(AB_STAR, "ab") == [True, False, True]

    def test_empty(self):
        assert prefix_decisions(AB_STAR, "") == [True]

    def test_bb_through_undefined(self):
        assert prefix_decisions(AB_STAR, "bb") == [True, False, False]


class TestDeterminize:
    def test_deterministic_input_same_size(self):
        nfa = Nfa(AB_STAR.alphabet, set(AB_STAR.states), 0,
                  {k: {v} for k, v in AB_STAR.transitions.items()}, set(AB_STAR.accepting))
        dfa = determinize(nfa)
        assert len(dfa.states) == 2
        assert equivalent(dfa, AB_STAR)

    def test_branching_nfa_accepting_a(self):
        nfa = Nfa(("a", "b"), {0, 1, 2}, 0, {(0, "a"): {1, 2}}, {2})
        dfa = determinize(nfa)
        assert len(dfa.states) == 2
        for w in all_strings(("a", "b"), 3):
            assert dfa.accepts(w) == (w == "a")

    def test_invalid_nfa_rejected_at_construction(self):
        with pytest.raises(ValueError, match="initial state 1 not in state set"):
            Nfa(("a", "b"), {0}, 1, {}, set())
        with pytest.raises(ValueError, match=r"transition \(0, a\) leaves the state set"):
            Nfa(("a", "b"), {0}, 0, {(0, "a"): {0, 3}}, set())
        with pytest.raises(ValueError, match="alphabet tokens must be distinct"):
            Nfa(("a", "a"), {0}, 0, {}, set())

    def test_no_accepting_states(self):
        nfa = Nfa(("a", "b"), {0, 1}, 0, {(0, "a"): {1}, (1, "b"): {0, 1}}, set())
        dfa = determinize(nfa)
        for w in all_strings(("a", "b"), 4):
            assert not dfa.accepts(w)

    def test_preserves_language_on_random_nfas(self, rng):
        for _ in range(50):
            nfa = random_nfa(rng, int(rng.integers(2, 7)))
            dfa = determinize(nfa)
            assert same_language(nfa, dfa, 10)


def fig2d_eleven_state_merged_tomita2():
    edges = {(0, "a"): 1, (1, "b"): 3, (3, "a"): 4, (4, "b"): 5, (5, "a"): 4,
             (0, "b"): 2, (2, "b"): 6, (6, "a"): 7, (7, "b"): 8, (7, "a"): 9,
             (8, "b"): 8, (8, "a"): 10, (10, "a"): 9, (9, "a"): 9, (9, "b"): 8}
    return Dfa(("a", "b"), set(range(11)), 0, edges, {0, 3, 5})


def fig2c_four_state_tomita2():
    edges = {(0, "a"): 1, (1, "b"): 0, (0, "b"): 2, (2, "b"): 3,
             (3, "a"): 3, (3, "b"): 3}
    return Dfa(("a", "b"), {0, 1, 2, 3}, 0, edges, {0})


class TestSuccessorTable:
    def test_columns_by_token_with_a_sink_row(self):
        dfa = Dfa(("a", "b", "c"), {5, 9}, 9, {(9, "a"): 5, (5, "b"): 9, (5, "c"): 5}, {9})
        states, succ = successor_table(dfa, ("b", "a"))
        assert states == [5, 9]
        # Rows: state 5, state 9, the sink; columns: b, a.
        assert succ == [[1, 2], [2, 0], [2, 2]]

    def test_token_outside_the_machine_rejected(self):
        with pytest.raises(AlphabetError):
            successor_table(Dfa(("a",), {0}, 0, {}, {0}), ("a", "b"))


class TestMinimize:
    def test_eleven_state_redundant_machine_collapses_to_two(self):
        result = minimize(fig2d_eleven_state_merged_tomita2())
        assert len(result.states) == 2
        assert equivalent(result, AB_STAR)

    def test_already_minimal_is_isomorphic(self):
        assert minimize(AB_STAR) == AB_STAR

    def test_random_eight_state_equivalent(self, rng):
        for _ in range(20):
            dfa = random_dfa(rng, 8)
            assert same_language(dfa, minimize(dfa), 12)

    def test_idempotent(self, rng):
        for _ in range(20):
            once = minimize(random_dfa(rng, int(rng.integers(2, 9))))
            assert minimize(once) == once

    def test_no_pair_equivalent_after_minimize(self, rng):
        for _ in range(20):
            small = minimize(random_dfa(rng, 7))
            n = len(small.states)
            for a in sorted(small.states):
                for b in sorted(small.states):
                    if a < b:
                        assert _separating_string(small, a, b, n) is not None

    def test_matches_moore_oracle(self, rng):
        for _ in range(30):
            dfa = random_dfa(rng, int(rng.integers(2, 10)))
            assert len(minimize(dfa).states) == moore_minimize_size(dfa)

    def test_canonical_under_renaming_and_unreachable_states(self, rng):
        # The output ids depend on the language alone: renaming the states or
        # adding states the initial state cannot reach gives an == machine.
        for _ in range(200):
            dfa = random_dfa(rng, int(rng.integers(1, 12)), edge_prob=rng.uniform(0.3, 1.0))
            n = len(dfa.states)
            total = n + int(rng.integers(0, 6))
            transitions = dict(dfa.transitions)
            for junk in range(n, total):
                for token in dfa.alphabet:
                    if rng.random() < 0.7:
                        transitions[(junk, token)] = int(rng.integers(total))
            accepting = dfa.accepting | {s for s in range(n, total) if rng.random() < 0.4}
            name = dict(enumerate(rng.choice(10 * total, size=total, replace=False).tolist()))
            renamed = Dfa(dfa.alphabet, set(name.values()), name[dfa.initial],
                          {(name[s], t): name[d] for (s, t), d in transitions.items()},
                          {name[s] for s in accepting})
            assert minimize(renamed) == minimize(dfa)

    def test_empty_language_keeps_initial(self):
        dfa = Dfa(("a", "b"), {0, 1}, 0, {(0, "a"): 1, (1, "b"): 0}, set())
        result = minimize(dfa)
        assert result.states == {0}
        assert result.accepting == set()
        assert result.transitions == {}


def _separating_string(dfa, a, b, max_len):
    """Myhill-Nerode witness: a string telling states a and b apart."""
    for w in all_strings(dfa.alphabet, max_len):
        sa, sb = a, b
        for token in w:
            sa = dfa.step(sa, token)
            sb = dfa.step(sb, token)
        acc_a = sa is not None and sa in dfa.accepting
        acc_b = sb is not None and sb in dfa.accepting
        if acc_a != acc_b:
            return w
    return None


class TestEquivalent:
    def test_reflexive(self, rng):
        for _ in range(10):
            dfa = random_dfa(rng, 5)
            assert equivalent(dfa, dfa)

    def test_fig2c_equivalent_to_gold(self):
        machine = fig2c_four_state_tomita2()
        assert equivalent(machine, AB_STAR)
        assert same_language(machine, AB_STAR, 10)

    def test_gold1_vs_gold2(self):
        assert not equivalent(gold_dfa(1), gold_dfa(2))

    def test_alphabet_mismatch(self):
        other = Dfa(("x", "y"), {0}, 0, {}, {0})
        with pytest.raises(AlphabetError):
            equivalent(AB_STAR, other)

    def test_agrees_with_brute_force(self, rng):
        for _ in range(30):
            a = random_dfa(rng, int(rng.integers(2, 7)))
            b = random_dfa(rng, int(rng.integers(2, 7)))
            assert equivalent(a, b) == same_language(a, b, 12)

    def test_equal_language_variants(self, rng):
        for _ in range(200):
            dfa = random_dfa(rng, int(rng.integers(1, 6)))
            variant = equal_language_variant(dfa, rng)
            assert equivalent(dfa, variant)
            assert same_language(dfa, variant, 10)

    def test_one_edit_mutants_agree_with_brute_force(self, rng):
        # A machine of at most 3 states completes to at most 4, and its
        # mutated variant has at most 10 states, all explicit, so a string
        # telling their languages apart has length at most 4 + 10 - 2 = 12.
        for _ in range(60):
            dfa = random_dfa(rng, int(rng.integers(1, 4)))
            mutant = one_edit_mutant(equal_language_variant(dfa, rng), rng)
            assert equivalent(dfa, mutant) == same_language(dfa, mutant, 12)


def equal_language_variant(dfa, rng):
    """A machine for the language of dfa (states range(n)) with another
    structure: each state split into two copies with every edge sent to
    either copy, an explicit non-accepting sink for the missing edges, up to
    three unreachable junk states, and every state renamed."""
    n = len(dfa.states)
    sink = 2 * n
    total = sink + 1 + int(rng.integers(0, 4))
    transitions = {(sink, token): sink for token in dfa.alphabet}
    for state in range(2 * n):
        for token in dfa.alphabet:
            dst = dfa.transitions.get((state % n, token))
            transitions[(state, token)] = sink if dst is None else dst + n * int(rng.integers(2))
    for junk in range(sink + 1, total):
        for token in dfa.alphabet:
            transitions[(junk, token)] = int(rng.integers(total))
    accepting = {s for s in range(2 * n) if s % n in dfa.accepting}
    accepting |= {s for s in range(sink + 1, total) if rng.random() < 0.5}
    name = rng.permutation(total).tolist()
    return Dfa(dfa.alphabet, set(name), name[dfa.initial],
               {(name[s], t): name[d] for (s, t), d in transitions.items()},
               {name[s] for s in accepting})


def one_edit_mutant(dfa, rng):
    """dfa with one acceptance flip or one edge redirected to a random state."""
    states = sorted(dfa.states)
    accepting, transitions = set(dfa.accepting), dict(dfa.transitions)
    if rng.random() < 0.5:
        accepting ^= {states[rng.integers(len(states))]}
    else:
        edge = (states[rng.integers(len(states))], dfa.alphabet[rng.integers(len(dfa.alphabet))])
        transitions[edge] = states[rng.integers(len(states))]
    return Dfa(dfa.alphabet, set(states), dfa.initial, transitions, accepting)


class TestDot:
    def test_fig1_counts(self):
        text = to_dot(AB_STAR)
        assert text.count("shape=doublecircle") == 1
        assert text.count("shape=circle") == 1
        assert text.count("->") == 1 + 2  # entry arrow plus two transitions

    def test_single_accepting_state(self):
        dfa = Dfa(("a", "b"), {0}, 0, {}, {0})
        text = to_dot(dfa)
        assert text.count("doublecircle") == 1
        assert text.count("->") == 1

    def test_deterministic_output(self):
        assert to_dot(AB_STAR) == to_dot(load_dfa(save_dfa(AB_STAR)))


class TestSerialization:
    def test_round_trip(self, rng):
        for _ in range(10):
            dfa = random_dfa(rng, 6)
            back = load_dfa(save_dfa(dfa))
            assert back.states == dfa.states
            assert back.transitions == dfa.transitions
            assert back.accepting == dfa.accepting
            assert back.initial == dfa.initial

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            load_dfa("format dfa 99\n")

    @pytest.mark.parametrize("line", ["initial", "initial 0 1", "initial x",
                                      "transition 0 a", "transition 0 a 0 1", "trans 0 a 0"])
    def test_rejects_malformed_line(self, line):
        text = save_dfa(Dfa(("a",), {0}, 0, {(0, "a"): 0}, set())) + line + "\n"
        with pytest.raises(ValueError):
            load_dfa(text)

    @pytest.mark.parametrize("line", ["alphabet a", "states 0 1", "initial 1", "accepting 1",
                                      "transition 0 a 0"])
    def test_rejects_repeated_line(self, line):
        text = save_dfa(Dfa(("a",), {0, 1}, 0, {(0, "a"): 1}, {1})) + line + "\n"
        with pytest.raises(ValueError, match="repeated"):
            load_dfa(text)

    @pytest.mark.parametrize("key", ["alphabet", "states", "initial", "accepting"])
    def test_rejects_missing_line(self, key):
        text = save_dfa(Dfa(("a", "b"), {0, 1}, 1, {(0, "a"): 1}, {1}))
        kept = [ln for ln in text.splitlines() if ln.split()[0] != key]
        with pytest.raises(ValueError, match=f"no {key} line"):
            load_dfa("\n".join(kept) + "\n")

    def test_rejects_multi_character_token(self):
        text = "format dfa 1\nalphabet ab\nstates 0\ninitial 0\naccepting 0\ntransition 0 ab 0\n"
        with pytest.raises(ValueError, match="single characters"):
            load_dfa(text)

    def test_validation_rejects_stray_transition(self):
        with pytest.raises(ValueError):
            Dfa(("a",), {0}, 0, {(0, "a"): 5}, set())
