"""The boolean automaton kit against set-level oracles."""

import random

import pytest

import oracles
from omegalg import automata as A
from omegalg import dfa as D
from omegalg import valuation as V
from omegalg.core import words_up_to
from omegalg.instances import make_instance

AB = ("a", "b")


def accepted(machine, max_len=5):
    return {w for w in words_up_to(AB, max_len) if w and machine.run(w)}


def test_from_words_trie():
    nfa = D.nfa_from_words(AB, ["a", "ab", "ba"])
    assert accepted(nfa) == {"a", "ab", "ba"}
    assert not nfa.run("")


def test_from_words_rejects_empty_word():
    with pytest.raises(ValueError):
        D.nfa_from_words(AB, [""])


def test_constructions_match_set_oracles():
    rng = random.Random(55)
    for _ in range(30):
        ws1 = {"".join(rng.choice("ab") for _ in range(rng.randrange(1, 3)))
               for _ in range(rng.randrange(1, 3))}
        ws2 = {"".join(rng.choice("ab") for _ in range(rng.randrange(1, 3)))}
        n1, n2 = D.nfa_from_words(AB, ws1), D.nfa_from_words(AB, ws2)
        assert accepted(D.nfa_union(n1, n2)) == ws1 | ws2
        assert accepted(D.nfa_concat(n1, n2)) == oracles.concat_languages(ws1, ws2, 5)
        assert accepted(D.nfa_plus(n1)) == oracles.plus_language(ws1, 5)


def test_determinize_minimize_preserve_language():
    rng = random.Random(56)
    for _ in range(25):
        ws = {"".join(rng.choice("ab") for _ in range(rng.randrange(1, 4)))
              for _ in range(rng.randrange(1, 4))}
        nfa = D.nfa_plus(D.nfa_from_words(AB, ws))
        dfa = D.determinize(nfa)
        small = D.minimize(dfa)
        assert small.n <= dfa.n
        for w in words_up_to(AB, 6):
            assert nfa.run(w) == dfa.run(w) == small.run(w)


def test_minimize_merges_equivalent_states():
    # two separate trie branches for the same word collapse
    nfa = D.nfa_union(D.nfa_from_words(AB, ["ab"]), D.nfa_from_words(AB, ["ab"]))
    small = D.minimize(D.determinize(nfa))
    assert small.n == 3


def test_minimize_empty_language():
    nfa = D.nfa_from_words(AB, ["a"])
    dead = D.Nfa(AB, nfa.n, nfa.start, 0, nfa.steps)   # no accepting states
    small = D.minimize(D.determinize(dead))
    assert D.dfa_is_empty(small)


def test_enumerate_words_shortlex():
    dfa = D.minimize(D.determinize(D.nfa_plus(D.nfa_from_words(AB, ["b", "ab"]))))
    words = D.enumerate_words(dfa, 3)
    assert words == sorted(words, key=lambda w: (len(w), w))
    assert set(words) == oracles.plus_language({"b", "ab"}, 3)


def test_buchi_win_at_entry_simple_cycle():
    # the lasso analysis moved to the automata kernel: its boolean entry
    # values on one period are the states that win at the period's entry
    boolw = V.from_carrier(make_instance("bool"))
    # two states looping a, b with the repeated bit on state 0
    aut = A.MatrixAutomaton(boolw, AB, 2, 1, (1, 0), (0, 0),
                            ((0, "a", 1, True), (1, "b", 0, True)))
    win = A._entry_values(aut, "boolean", "ab")
    assert 0 in win         # from state 0 at position 0, the loop accepts
    win_bad = A._entry_values(aut, "boolean", "aa")
    assert win_bad == {}    # the word aa^w has no run at all
