import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statemerge.automata import (AlphabetError, Dfa, Nfa, determinize, equivalent,
                                 isomorphic, load_dfa, minimize, prefix_decisions,
                                 run, save_dfa, to_dot)
from statemerge.languages import gold_dfa

from conftest import all_strings, random_dfa, random_nfa, same_language, moore_minimize_size

AB_STAR = gold_dfa(2)  # the (ab)* two-state machine


class TestRun:
    def test_accepts_ab(self):
        trace = run(AB_STAR, "ab")
        assert trace.accepted
        assert trace.states == [0, 1, 0]

    def test_rejects_aba(self):
        assert not run(AB_STAR, "aba").accepted

    def test_rejects_abb_via_undefined(self):
        trace = run(AB_STAR, "abb")
        assert trace.states[-1] is None
        assert not trace.accepted

    def test_token_outside_alphabet(self):
        with pytest.raises(AlphabetError):
            run(AB_STAR, "abc")

    @given(st.text(alphabet="ab", max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_undefined_is_absorbing(self, w):
        trace = run(AB_STAR, w)
        if None in trace.states:
            first = trace.states.index(None)
            assert all(s is None for s in trace.states[first:])
            assert not trace.accepted


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


class TestMinimize:
    def test_eleven_state_redundant_machine_collapses_to_two(self):
        result = minimize(fig2d_eleven_state_merged_tomita2())
        assert len(result.states) == 2
        assert equivalent(result, AB_STAR)

    def test_already_minimal_is_isomorphic(self):
        assert isomorphic(minimize(AB_STAR), AB_STAR)

    def test_random_eight_state_equivalent(self, rng):
        for _ in range(20):
            dfa = random_dfa(rng, 8)
            assert same_language(dfa, minimize(dfa), 12)

    def test_idempotent(self, rng):
        for _ in range(20):
            once = minimize(random_dfa(rng, int(rng.integers(2, 9))))
            assert isomorphic(minimize(once), once)

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
        assert to_dot(AB_STAR) == to_dot(AB_STAR.copy())


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

    def test_validation_rejects_stray_transition(self):
        with pytest.raises(ValueError):
            Dfa(("a",), {0}, 0, {(0, "a"): 5}, set())
