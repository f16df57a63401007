"""Boolean omega-languages over ultimately periodic words.

The module side of the pair (nonempty-word languages, omega-languages) is
represented by *fingerprints*: the set of accepted lassos from a fixed
canonical family with bounded stem and period.  Fingerprints are closed
under union, under the left action of a DFA-backed language, and under the
omega power of such a language, and on the canonical family these three
operations compute the true omega-language pointwise, so the pair identities
can be checked exactly within the bound.  Both language operations are one
walk of the language's minimal DFA, ``_cut_into``: the lassos whose plain
run cuts, after a letter read into an accepting state, into a given set.
That set is the action's fingerprint, and by L^omega = L·L^omega the omega
power itself: the Buchi automaton of L^omega (Perrin & Pin, Infinite Words,
2004, ch. I), with no weighted automaton.
"""

from __future__ import annotations

from functools import lru_cache

from .core import CommutativeMonoid, HemimodulePair, words_up_to
from .series import OmegaWord, _least_rotation, language_instance

DEFAULT_STEM = 4
DEFAULT_PERIOD = 4


@lru_cache(maxsize=None)
def canonical_lassos(alphabet: tuple, stem_max=DEFAULT_STEM, period_max=DEFAULT_PERIOD):
    """All distinct ultimately periodic words with canonical stem <= stem_max
    and canonical period <= period_max, grouped by period."""
    seen = set()
    periods = list(words_up_to(alphabet, period_max))[1:]
    for u in words_up_to(alphabet, stem_max):
        for v in periods:
            w = OmegaWord(u, v)
            if len(w.prefix) <= stem_max and len(w.period) <= period_max:
                seen.add(w)
    by_period = {}
    for w in sorted(seen, key=lambda w: (len(w.period), w.period, len(w.prefix), w.prefix)):
        by_period.setdefault(w.period, []).append(w)
    return by_period


class OmegaLangMonoid(CommutativeMonoid):
    """Omega-languages as acceptance fingerprints on the canonical lassos."""

    def __init__(self, alphabet=("a", "b"), stem_max=DEFAULT_STEM, period_max=DEFAULT_PERIOD):
        self.alphabet = tuple(alphabet)
        self.stem_max = stem_max
        self.period_max = period_max
        self.by_period = canonical_lassos(self.alphabet, stem_max, period_max)
        self.lassos = tuple(w for group in self.by_period.values() for w in group)
        self.name = "omega-lang"
        self.zero = frozenset()

    def add(self, a, b):
        return a | b

    def eq(self, a, b):
        return a == b

    def show(self, a):
        if not a:
            return "{}"
        items = sorted(str(w) for w in a)
        body = ", ".join(items[:4]) + (", …" if len(items) > 4 else "")
        return "{" + body + "}"

    def sample(self, rng):
        count = rng.randrange(0, 4)
        return frozenset(rng.choice(self.lassos) for _ in range(count))

    def coeff(self, a, w: OmegaWord) -> bool:
        if len(w.prefix) > self.stem_max or len(w.period) > self.period_max:
            raise ValueError(f"{w} lies outside the fingerprint bound")
        return w in a


@lru_cache(maxsize=None)
def _plan(alphabet: tuple, stem_max, period_max):
    """(stems, heads, classes): what ``_cut_into`` walks for the canonical lassos.

    The stems' prefixes are numbered in prefix order, the empty stem 0;
    ``stems`` gives each other one as (number of it without its last letter,
    that letter).  ``heads`` maps a lasso y to the pairs (number of a nonempty
    stem prefix p, lasso p·y), one per lasso whose stem, cut after p, leaves y
    (a suffix of a canonical lasso is canonical).  ``classes`` groups the
    lassos by the least rotation r of their period: per class, r, the lassos
    of its rotations (empty stem, period r[j:] + r[:j]), and its lassos, each
    with its stem's number and the position in r where its period starts.
    """
    lassos = [w for group in canonical_lassos(alphabet, stem_max, period_max).values()
              for w in group]
    family = {(w.prefix, w.period): w for w in lassos}
    prefixes = sorted({w.prefix[:i] for w in lassos for i in range(len(w.prefix) + 1)},
                      key=lambda u: (len(u), u))
    number = {u: i for i, u in enumerate(prefixes)}
    stems = tuple((number[u[:-1]], u[-1]) for u in prefixes[1:])
    heads, classes = {}, {}
    for w in lassos:
        u, v = w.prefix, w.period
        for k in range(1, len(u) + 1):
            heads.setdefault(family[u[k:], v], []).append((number[u[:k]], w))
        start = _least_rotation(v)
        least = v[start:] + v[:start]
        classes.setdefault(least, []).append((w, number[u], -start % len(least)))
    return stems, heads, tuple((r, tuple(family["", r[j:] + r[:j]] for j in range(len(r))), ws)
                               for r, ws in classes.items())


def _cut_walk(d, r):
    """The plain runs of the DFA on r^omega, from node q·m + i (state q, next
    letter r[i]): a function giving a node's bitmask of the positions its run
    cuts into, position i + 1 mod m when it reads r[i] into an accepting
    state.  A plain run is deterministic, so it dies or ends in a cycle; a
    node is walked once, when a query first reaches it."""
    m, delta, accept = len(r), d.delta, d.accept
    memo = {None: 0}                      # None: the dead state, which cuts nowhere

    def cuts(v):
        walk = []
        while v not in memo:
            memo[v] = ~len(walk)          # on this walk, at that index
            q, i = divmod(v, m)
            t = delta[q].get(r[i])
            j = (i + 1) % m
            walk.append((v, 1 << j if t in accept else 0))
            v = None if t is None else t * m + j
        acc = memo[v]
        if acc < 0:                       # the walk closed a cycle: it shares one mask
            cycle = walk[~acc:]
            del walk[~acc:]
            acc = 0
            for _, bit in cycle:
                acc |= bit
            for u, _ in cycle:
                memo[u] = acc
        for u, bit in reversed(walk):
            acc |= bit
            memo[u] = acc
        return acc
    return cuts


def _cut_into(lang, monoid: OmegaLangMonoid, inside, given) -> frozenset:
    """The canonical lassos whose run on the language's minimal DFA cuts into
    a set of lassos: the DFA's one plain run from the start reads a letter
    into an accepting state, and the lasso after that letter is in the set.

    Per rotation class, ``inside(rotations, cuts)`` is the bitmask of the
    positions of r whose rotation is in the set; a lasso is accepted when its
    run, from where its stem ends, cuts into that mask.  Then the cuts in
    stems: each lasso y of ``given`` accepts its heads p·y whose p the DFA
    accepts.  With ``given`` None the set is the result itself, closed under
    those cuts.
    """
    d = lang.backing
    stems, heads, classes = _plan(monoid.alphabet, monoid.stem_max, monoid.period_max)
    state = [d.start]                     # per stem prefix; None: the dead state
    for parent, ch in stems:
        q = state[parent]
        state.append(None if q is None else d.delta[q].get(ch))
    cut = [q in d.accept for q in state]
    out = set()
    for r, rotations, lassos in classes:
        m, cuts = len(r), _cut_walk(d, r)
        mask = inside(rotations, cuts)
        if mask:
            out.update(w for w, stem, pos in lassos
                       if state[stem] is not None and cuts(state[stem] * m + pos) & mask)
    todo = list(out) if given is None else given
    for y in todo:
        for p, x in heads.get(y, ()):
            if cut[p] and x not in out:
                out.add(x)
                if given is None:
                    todo.append(x)
    return frozenset(out)


def act_language(lang, fp, monoid: OmegaLangMonoid) -> frozenset:
    """Left action { p·w : p in lang, w in fp } on the canonical lassos: the
    lassos whose DFA run cuts into ``fp``."""
    return _cut_into(lang, monoid, lambda rotations, cuts: sum(
        1 << j for j, y in enumerate(rotations) if y in fp), fp)


def omega_language(lang, monoid: OmegaLangMonoid) -> frozenset:
    """Fingerprint of the omega power of a DFA-backed language.

    L^omega is the greatest set X with X = L·X, so it is the set of lassos
    whose DFA run cuts into the result itself.  Per rotation class a
    position of r is live iff the cuts from the start state s0 can go on
    from it forever, a greatest fixpoint on at most |r| positions.
    """
    s0 = lang.backing.start

    def endless(rotations, cuts):
        m = len(rotations)
        live = (1 << m) - 1               # shrinks to the positions with endless cuts
        while True:
            keep = sum(1 << j for j in range(m) if live >> j & 1 and cuts(s0 * m + j) & live)
            if keep == live:
                return live
            live = keep
    return _cut_into(lang, monoid, endless, None)


def language_pair(alphabet=("a", "b"), bound=8, stem_max=DEFAULT_STEM,
                  period_max=DEFAULT_PERIOD) -> HemimodulePair:
    """The pair (nonempty-word languages, omega-languages) over ``alphabet``."""
    H = language_instance(alphabet, bound)
    V = OmegaLangMonoid(alphabet, stem_max, period_max)
    return HemimodulePair(
        hemiring=H,
        module=V,
        act=lambda h, v: act_language(h, v, V),
        omega=lambda h: omega_language(h, V),
        name=f"lang-pair({''.join(alphabet)})",
    )
