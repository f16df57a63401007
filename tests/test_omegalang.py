"""Omega-languages over lassos: fingerprints, action, omega power, pair laws."""

import random
import time

import pytest

import oracles
from omegalg import core, dfa, omegalang
from omegalg.series import OmegaWord, language_instance


def _edges_of(lang):
    """Letter -> (source, target) pairs of the backing DFA, for the oracle."""
    d = lang.backing
    out = {}
    for s, trans in enumerate(d.delta):
        for ch, t in trans.items():
            out.setdefault(ch, []).append((s, t))
    return out


def omega_membership_oracle(lang, w: OmegaWord) -> bool:
    """Independent omega-power membership via the brute-force Buchi oracle
    applied to a feedback construction built from scratch on the DFA."""
    d = lang.backing
    if not d.accept:
        return False
    edges = {}
    for s, trans in enumerate(d.delta):
        for ch, t in trans.items():
            edges.setdefault(ch, []).append((s, t))
    # fresh copy states mirror the first step out of the start
    first = [(ch, t) for ch, t in d.delta[d.start].items()]
    copies = {t: d.n + i for i, (_, t) in enumerate(sorted(set(first)))}
    for ch, t in first:
        for s in d.accept:
            edges.setdefault(ch, []).append((s, copies[t]))
        for t2, c2 in copies.items():
            if t2 in d.accept:
                edges.setdefault(ch, []).append((c2, copies[t]))
    for t, c in copies.items():
        for ch, t2 in d.delta[t].items():
            edges.setdefault(ch, []).append((c, t2))
    n = d.n + len(copies)
    return oracles.buchi_accepts_brute(
        n, edges, {d.start}, set(copies.values()), w.prefix, w.period)


def test_canonical_lassos_distinct():
    by_period = omegalang.canonical_lassos(("a", "b"), 4, 4)
    lassos = [w for group in by_period.values() for w in group]
    assert len(lassos) == len(set(lassos)) == 352
    for w in lassos:
        assert len(w.prefix) <= 4 and 1 <= len(w.period) <= 4
        # canonical: primitive period, irreducible prefix
        assert OmegaWord(w.prefix, w.period) == w


def test_omega_power_small_cases(lang_pair6):
    pair = lang_pair6
    H = pair.hemiring
    om_a = pair.omega(H.language("a"))
    assert OmegaWord("", "a") in om_a and OmegaWord("", "b") not in om_a
    om_ab = pair.omega(H.language("ab"))
    assert OmegaWord("", "ab") in om_ab
    assert OmegaWord("", "ba") not in om_ab
    assert OmegaWord("a", "ba") in om_ab        # a(ba)^w == (ab)^w
    assert pair.omega(H.zero) == pair.module.zero


def test_omega_power_excludes_pumped_tails(lang_pair6):
    # (a b+)^omega contains a b^n a b^m ... but not a b^omega
    pair = lang_pair6
    H = pair.hemiring
    lang = H.mul(H.language("a"), H.plus(H.language("b")))
    om = pair.omega(lang)
    assert OmegaWord("", "ab") in om
    assert OmegaWord("a", "b") not in om


def test_omega_power_matches_brute_oracle(lang_pair6):
    pair = lang_pair6
    rng = random.Random(17)
    for _ in range(25):
        lang = pair.hemiring.sample(rng)
        fp = pair.omega(lang)
        for w in pair.module.lassos[::7]:
            assert (w in fp) == omega_membership_oracle(lang, w), (pair.hemiring.show(lang), str(w))


def _assert_kernel_route_agrees(monoid, langs):
    for lang in langs:
        assert omegalang.omega_language(lang, monoid) == \
            oracles.omega_language_kernel(lang, monoid), lang.backing


def _random_languages(H, rng, count):
    """Sampled languages, every other one a composite of samples."""
    out = []
    for k in range(count):
        lang = H.sample(rng)
        if k % 2:
            lang = H.mul(lang, H.plus(H.add(H.sample(rng), H.mul(H.sample(rng), lang))))
        out.append(lang)
    return out


def _random_dfa_language(H, rng, min_states):
    """A language whose minimal DFA has at least ``min_states`` states: random
    partial DFAs on 1.5 times as many, drawn until one minimises big enough."""
    n = min_states * 3 // 2
    while True:
        delta = [{ch: rng.randrange(n) for ch in H.alphabet if rng.random() < 0.85}
                 for _ in range(n)]
        accept = frozenset(s for s in range(1, n) if rng.random() < 0.3)
        d = dfa.minimize(dfa.Dfa(H.alphabet, n, 0, accept, delta))
        if d.n >= min_states:
            return H._from_dfa(d)


def test_omega_power_matches_the_kernel_route_on_random_languages(lang_pair6):
    """The rotation-class walk against the DFA's omega automaton on the
    lasso kernel, on all 352 lassos of 500 sampled and composite languages
    and of the empty language."""
    H, V = lang_pair6.hemiring, lang_pair6.module
    langs = _random_languages(H, random.Random(31), 500)
    assert sum(lang.backing.n >= 8 for lang in langs) >= 50
    _assert_kernel_route_agrees(V, langs + [H.zero])


def test_omega_power_matches_the_kernel_route_on_large_dfas(lang_pair6):
    H, V = lang_pair6.hemiring, lang_pair6.module
    rng = random.Random(37)
    _assert_kernel_route_agrees(V, [_random_dfa_language(H, rng, 20) for _ in range(50)])


@pytest.mark.parametrize("alphabet, stem_max, period_max", [
    ("abc", 3, 3), ("abc", 0, 3), ("ab", 0, 4), ("ab", 2, 5), ("a", 3, 1)])
def test_omega_power_matches_the_kernel_route_on_other_bounds(alphabet, stem_max, period_max):
    H = language_instance(tuple(alphabet), 6)
    V = omegalang.OmegaLangMonoid(tuple(alphabet), stem_max, period_max)
    rng = random.Random(41)
    langs = _random_languages(H, rng, 60)
    if len(alphabet) > 1:       # a random unary DFA is a short rho: it rarely minimises big
        langs += [_random_dfa_language(H, rng, 20) for _ in range(10)]
    _assert_kernel_route_agrees(V, langs + [H.zero])


def _long_chain(H):
    """(ab)^1000 + a^1999 b, plus-closed: a minimal DFA of 3,997 states."""
    lang = H.plus(H.add(H.language("ab" * 1000), H.language("a" * 1999 + "b")))
    assert lang.backing.n == 3997
    return lang


def test_omega_power_of_a_long_chain_is_fast(lang_pair6):
    """A 3,997-state DFA: the walk is bounded by its n·|period| nodes per
    rotation class, not by a product per class and lasso."""
    H, V = lang_pair6.hemiring, lang_pair6.module
    lang = _long_chain(H)
    t0 = time.perf_counter()
    fp = omegalang.omega_language(lang, V)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    assert fp == oracles.omega_language_kernel(lang, V)


def test_action_of_a_long_chain_is_fast(lang_pair6):
    H, V = lang_pair6.hemiring, lang_pair6.module
    lang = _long_chain(H)
    for fp in (frozenset(V.lassos), omegalang.omega_language(lang, V)):
        t0 = time.perf_counter()
        acted = omegalang.act_language(lang, fp, V)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, elapsed
        assert acted == oracles.act_language_walk(lang, fp, V)


def test_action_suffix_split(lang_pair6):
    pair = lang_pair6
    H, Vm = pair.hemiring, pair.module
    a, b = H.language("a"), H.language("b")
    w = OmegaWord("", "ab")
    # {a} · (ba)^omega = (ab)^omega
    fp = pair.act(a, pair.omega(H.language("ba")))
    assert w in fp
    # plus-closed head: (a+)·b^omega reaches b^omega after any a prefix
    fp2 = pair.act(H.plus(a), pair.omega(b))
    assert OmegaWord("a", "b") in fp2
    assert OmegaWord("aaa", "b") in fp2
    assert OmegaWord("", "b") not in fp2


def test_action_against_split_enumeration(lang_pair6):
    """act on a fingerprint equals explicit split search with the oracle."""
    pair = lang_pair6
    rng = random.Random(23)
    for _ in range(12):
        lang = pair.hemiring.sample(rng)
        base = pair.hemiring.sample(rng)
        fp = pair.omega(base)
        acted = pair.act(lang, fp)
        for w in pair.module.lassos[::11]:
            # oracle: try all split points up to a generous horizon
            expected = False
            for cut in range(1, len(w.prefix) + 6 * len(w.period) + 8):
                if lang.coeff(w.letters(cut)) and w.suffix(cut) in fp:
                    expected = True
                    break
            assert (w in acted) == expected, (str(w), cut)


@pytest.mark.parametrize("alphabet, stem_max, period_max", [
    ("ab", 4, 4), ("abc", 3, 3), ("ab", 0, 4), ("ab", 2, 5), ("a", 3, 1)])
def test_action_matches_the_lasso_walk(alphabet, stem_max, period_max):
    """The cut walk's action equals the letter-by-letter walk on every lasso:
    sampled and composite languages and DFAs of 20 states or more, each on a
    random fingerprint, on an omega power and on every lasso, and the worst
    cases of the stem cuts (every prefix cuts, every lasso is given)."""
    H = language_instance(tuple(alphabet), 6)
    V = omegalang.OmegaLangMonoid(tuple(alphabet), stem_max, period_max)
    rng = random.Random(29)
    langs = _random_languages(H, rng, 90)
    if len(alphabet) > 1:
        langs += [_random_dfa_language(H, rng, 20) for _ in range(10)]
    every = frozenset(V.lassos)
    calls = [(lang, fp) for lang in langs + [H.zero] for fp in (
        frozenset(rng.sample(V.lassos, rng.randrange(0, len(V.lassos) + 1))),
        omegalang.omega_language(H.sample(rng), V), every)]
    calls += [(H.plus(H.language(*alphabet)), omegalang.omega_language(H.language(alphabet[-1]), V))]
    calls += [(lang, every) for lang in (H.language("a"), H.plus(H.language(alphabet[:2])))]
    for lang, fp in calls:
        assert omegalang.act_language(lang, fp, V) == oracles.act_language_walk(lang, fp, V), \
            (H.show(lang), sorted(map(str, fp)))


def test_pair_laws_hold(lang_pair6):
    report = core.hemimodule_pair_laws(lang_pair6, trials=30)
    assert report.ok, report.failures[:3]


def test_zero_omega_is_instance_of_product_omega(lang_pair6):
    assert lang_pair6.omega(lang_pair6.hemiring.zero) == lang_pair6.module.zero


def test_fingerprint_bound_enforced(lang_pair6):
    V = lang_pair6.module
    with pytest.raises(ValueError):
        V.coeff(V.zero, OmegaWord("aaaaa", "ab"))


def test_monoid_rendering(lang_pair6):
    V = lang_pair6.module
    assert V.show(V.zero) == "{}"
    some = frozenset([OmegaWord("", "ab")])
    assert "(ab)^w" in V.show(some)
