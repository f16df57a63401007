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
    assert not small.accept


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


# --- subsets reduced to their inclusion-maximal states --------------------------

BUILD = {"add": D.union, "mul": D.concat, "plus": D.plus}


def _nfa_route(op, *args):
    """The NFA route's minimal DFA, numbered as ``minimize`` numbers."""
    return oracles.numbered_dfa(oracles.language_op(op, *args))


def test_reduced_constructions_match_the_nfa_route_on_lang_samples():
    """Concatenation and plus keep only the inclusion-maximal states of each
    subset they reach; the result is ``==`` to the NFA route's minimal DFA
    on 200 operations over samples of the ``lang`` carrier and the results
    of earlier operations."""
    rng = random.Random(59)
    lang = series.language_instance(AB, 6)
    pool = [lang.sample(rng).backing for _ in range(8)]
    for _ in range(200):
        op = rng.choice(("add", "mul", "mul", "plus"))
        args = [rng.choice(pool) for _ in range(1 if op == "plus" else 2)]
        got = BUILD[op](*args)
        assert got == _nfa_route(op, *args), op
        if got.n < 30:
            pool.append(got)
            if len(pool) > 14:
                pool.pop(rng.randrange(len(pool)))


def test_reduced_constructions_match_the_nfa_route_on_group_matrix_entries(monkeypatch):
    """Every union, concatenation and plus that two group checks of the
    ``lang`` carrier make on operands of at most 80 states in all is ``==``
    to the NFA route's (larger ones blow the route's subset construction
    up); among them are operands with two states, one of whose languages
    includes the other's, whose subsets the reduction shrinks."""
    from omegalg import matrices, omegalang

    calls = []
    for name in ("union", "concat", "plus"):
        monkeypatch.setattr(D, name, lambda *args, fn=getattr(D, name):
                            calls.append((fn, args)) or fn(*args))
    lang, pair = series.language_instance(AB, 6), omegalang.language_pair(bound=6)
    for gname, seed in (("Z3", 4), ("V4", 8)):
        matrices.group_identity_check(matrices.builtin_groups()[gname], lang, trials=1,
                                      seed=seed, pair=pair)
    monkeypatch.undo()
    op = {D.union: "add", D.concat: "mul", D.plus: "plus"}
    small = [(fn, args) for fn, args in calls if sum(d.n for d in args) <= 80]
    assert len(small) >= 100 and len({fn for fn, _ in small}) == 3, len(small)
    ordered = 0
    for fn, args in small:
        assert fn(*args) == _nfa_route(op[fn], *args)
        below = args[-1].below
        ordered += below is not None and any(b & (b - 1) for b in below)
    assert ordered >= 20, ordered


def test_of_two_states_with_one_language_the_lower_is_kept():
    """A non-minimal DFA whose states 1 and 2 both accept a*: the plus
    reaches {1, 2} on aa and keeps state 1 alone; plus and concatenation
    still give the NFA route's DFAs, with the two states in either order."""
    b = D.Dfa(AB, 3, 0, frozenset({1, 2}), [{"a": 1}, {"a": 2}, {"a": 2}])
    assert D._subset_step(b)(0b010, "a", True) == 0b010
    assert b.below == [0b001, 0b111, 0b111]
    swapped = D.Dfa(AB, 3, 0, frozenset({1, 2}), [{"a": 2}, {"a": 1}, {"a": 1}])
    assert D._subset_step(swapped)(0b100, "a", True) == 0b010
    x = D.from_words(AB, ["a", "ba"])
    for d in (b, swapped):
        assert D.plus(d) == _nfa_route("plus", d)
        assert D.concat(d, d) == _nfa_route("mul", d, d)
        for args in ((x, d), (d, x)):
            assert D.concat(*args) == _nfa_route("mul", *args)
            assert D.union(*args) == _nfa_route("add", *args)


# hand-built DFAs with states that never reach acceptance: a b-loop that
# never accepts, and states with no way out
DEAD_LOOP = D.Dfa(AB, 3, 0, frozenset({1}), [{"a": 1, "b": 2}, {"a": 1}, {"b": 2}])
STUCK = D.Dfa(AB, 4, 0, frozenset({2}), [{"a": 1, "b": 2}, {}, {"a": 3, "b": 0}, {}])


def test_dead_end_states_keep_the_constructions_exact():
    """No live state counts as below a dead end, and every union,
    concatenation and plus among the DFAs with dead ends and two finite
    languages is ``==`` to the NFA route's."""
    for d, dead in ((DEAD_LOOP, {2}), (STUCK, {1, 3})):
        live = sum(1 << s for s in range(d.n) if s not in dead)
        assert all(not D._inclusion(d)[t] & live for t in dead), d.delta
    pool = [DEAD_LOOP, STUCK, D.from_words(AB, ["ab", "b"]), D.from_words(AB, ["a"])]
    for a in pool:
        assert D.plus(a) == _nfa_route("plus", a)
        for b in pool:
            assert D.concat(a, b) == _nfa_route("mul", a, b)
            assert D.union(a, b) == _nfa_route("add", a, b)


def test_the_nfa_route_is_minimal_in_one_pass_on_dead_ends():
    """The oracle's Moore refinement puts the states that cannot reach
    acceptance in the dead class before refining, so the classes of two
    states that differ only by an edge into a dead end merge in one pass:
    the union of ``DEAD_LOOP`` and {ab, b} has 4 states, in either order."""
    words = D.from_words(AB, ["ab", "b"])
    for args in ((DEAD_LOOP, words), (words, DEAD_LOOP)):
        route = oracles.numbered_dfa(oracles.language_op("add", *args))
        assert route == oracles.numbered_dfa(D.union(*args)) and route.n == 4
