"""Minimal DFAs against set-level oracles and the former NFA route."""

import random
import time

import pytest

import oracles
from omegalg import automata as A
from omegalg import dfa as D
from omegalg import series
from omegalg import valuation as V
from omegalg.core import words_up_to
from omegalg.instances import make_instance

AB = ("a", "b")


def accepted(machine, max_len=5):
    return {w for w in words_up_to(AB, max_len) if w and machine.run(w)}


def test_from_words_trie():
    dfa = D.from_words(AB, ["a", "ab", "ba"])
    assert accepted(dfa) == {"a", "ab", "ba"}
    assert not dfa.run("")


def test_from_words_rejects_empty_word():
    with pytest.raises(ValueError):
        D.from_words(AB, [""])


def test_constructions_match_set_oracles():
    rng = random.Random(55)
    for _ in range(30):
        ws1 = {"".join(rng.choice("ab") for _ in range(rng.randrange(1, 3)))
               for _ in range(rng.randrange(1, 3))}
        ws2 = {"".join(rng.choice("ab") for _ in range(rng.randrange(1, 3)))}
        n1, n2 = D.from_words(AB, ws1), D.from_words(AB, ws2)
        assert accepted(D.union(n1, n2)) == ws1 | ws2
        assert accepted(D.concat(n1, n2)) == oracles.concat_languages(ws1, ws2, 5)
        assert accepted(D.plus(n1)) == oracles.plus_language(ws1, 5)


def test_determinize_minimize_preserve_language():
    rng = random.Random(56)
    for _ in range(25):
        ws = {"".join(rng.choice("ab") for _ in range(rng.randrange(1, 4)))
              for _ in range(rng.randrange(1, 4))}
        nfa = oracles.nfa_plus(oracles.nfa_from_words(AB, ws))
        dfa = oracles.determinize(nfa)
        small = D.minimize(dfa)
        assert small.n <= dfa.n
        for w in words_up_to(AB, 6):
            assert nfa.run(w) == dfa.run(w) == small.run(w)


def test_minimize_merges_equivalent_states():
    # two separate trie branches for the same word collapse
    nfa = oracles.nfa_union(oracles.nfa_from_words(AB, ["ab"]),
                            oracles.nfa_from_words(AB, ["ab"]))
    small = D.minimize(oracles.determinize(nfa))
    assert small.n == 3


def test_minimize_empty_language():
    nfa = oracles.nfa_from_words(AB, ["a"])
    dead = oracles.Nfa(AB, nfa.n, nfa.start, 0, nfa.steps)   # no accepting states
    small = D.minimize(oracles.determinize(dead))
    assert D.dfa_is_empty(small)


def test_enumerate_words_shortlex():
    dfa = D.plus(D.from_words(AB, ["b", "ab"]))
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
    kept, _ = A._kernel(aut)
    win = A._entry_values(aut, kept, "ba")  # (ba)^w enters ab at position 0
    assert 0 in win         # from state 0 at position 0, the loop accepts
    win_bad = A._entry_values(aut, kept, "aa")
    assert win_bad == {}    # the word aa^w has no run at all


def _random_words(rng, count, max_len):
    return {"".join(rng.choice("ab") for _ in range(rng.randrange(1, max_len + 1)))
            for _ in range(count)}


def test_hopcroft_matches_moore():
    """Hopcroft's refinement gives the DFA Moore's does, up to numbering,
    and numbers it breadth-first from the start."""
    rng = random.Random(57)
    for _ in range(60):
        nfa = oracles.nfa_from_words(AB, _random_words(rng, rng.randrange(1, 5), 4))
        nfa = rng.choice([oracles.nfa_plus, lambda x: oracles.nfa_concat(x, x), lambda x: x])(nfa)
        dfa = oracles.determinize(nfa)
        small = D.minimize(dfa)
        assert oracles.canonical_dfa(small) == oracles.canonical_dfa(oracles.moore_minimize(dfa))
        assert oracles.canonical_dfa(small)[1] == tuple(
            tuple(row.get(ch) for ch in AB) for row in small.delta)


def test_operations_match_the_nfa_route():
    """Sum, product and plus built on DFAs give the minimal DFA of the NFA
    route (subset construction, Moore): on 200 random operations over a pool
    of operands that grows with their results, and on the nest
    (a + b)^+ a (a + b)^k, whose minimal DFAs double with k up to 513 states."""
    rng = random.Random(58)
    build = {"add": D.union, "mul": D.concat, "plus": D.plus}
    pool = [D.from_words(AB, _random_words(rng, rng.randrange(1, 4), 4)) for _ in range(6)]
    for _ in range(200):
        op = rng.choice(("add", "mul", "mul", "plus"))
        args = [rng.choice(pool) for _ in range(1 if op == "plus" else 2)]
        got = build[op](*args)
        assert oracles.canonical_dfa(got) == oracles.canonical_dfa(oracles.language_op(op, *args))
        if got.n < 40:
            pool.append(got)
            if len(pool) > 12:
                pool.pop(rng.randrange(len(pool)))
    sigma = D.from_words(AB, ["a", "b"])
    x = D.concat(D.plus(sigma), D.from_words(AB, ["a"]))
    for k in range(1, 9):
        y = D.concat(x, sigma)
        assert oracles.canonical_dfa(y) == oracles.canonical_dfa(oracles.language_op("mul", x, sigma))
        if y.n < 300:
            assert oracles.canonical_dfa(D.plus(y)) == oracles.canonical_dfa(
                oracles.language_op("plus", y))
        x = y
    assert x.n == 513


def test_minimisation_is_fast_on_long_chains():
    """A chain of n states needs n rounds of Moore's refinement (O(n^2));
    Hopcroft's takes O(n log n), so a 2,000-letter word and a 2,001-state
    chain each take well under a second."""
    t0 = time.perf_counter()
    f = series.language_instance(AB).language("ab" * 1000)
    t1 = time.perf_counter()
    assert f.backing.n == 2001 and f.backing.run("ab" * 1000) and not f.backing.run("ab" * 999)
    assert t1 - t0 < 1.0, t1 - t0
    delta = [{"a": s + 1} for s in range(2000)] + [{}]
    chain = D.Dfa(AB, 2001, 0, frozenset({2000}), delta)
    t0 = time.perf_counter()
    small = D.minimize(chain)
    t1 = time.perf_counter()
    assert small.n == 2001 and small.run("a" * 2000)
    assert t1 - t0 < 1.0, t1 - t0
