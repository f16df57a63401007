"""Omega-languages over lassos: fingerprints, action, omega power, pair laws."""

import random

import pytest

import oracles
from omegalg import core, omegalang
from omegalg.series import OmegaWord


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


def test_action_matches_the_lasso_walk(lang_pair6):
    """The table-driven action equals the letter-by-letter walk on all 352
    lassos, for random languages and random fingerprints."""
    pair = lang_pair6
    H, Vm = pair.hemiring, pair.module
    rng = random.Random(29)
    for _ in range(40):
        lang = H.sample(rng)
        if rng.random() < 0.5:
            lang = H.mul(lang, H.plus(H.sample(rng)))
        fp = frozenset(rng.sample(Vm.lassos, rng.randrange(0, 120)))
        assert pair.act(lang, fp) == oracles.act_language_walk(lang, fp, Vm), H.show(lang)


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
