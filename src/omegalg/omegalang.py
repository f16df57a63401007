"""Boolean omega-languages over ultimately periodic words.

The module side of the pair (nonempty-word languages, omega-languages) is
represented by *fingerprints*: the set of accepted lassos from a fixed
canonical family with bounded stem and period.  Fingerprints are closed
under union, under the left action of a DFA-backed language, and under the
omega power of such a language, and on the canonical family these three
operations compute the true omega-language pointwise, so the pair identities
can be checked exactly within the bound.  Both language operations run on
the language's minimal DFA; the omega power reads it as the Buchi automaton
of L^omega, which may restart at the start state after an accepting letter
(Perrin & Pin, Infinite Words, 2004, ch. I), and needs no weighted automaton.
"""

from __future__ import annotations

from functools import lru_cache

from .core import CommutativeMonoid, HemimodulePair
from .series import OmegaWord, _least_rotation, language_instance

DEFAULT_STEM = 4
DEFAULT_PERIOD = 4


@lru_cache(maxsize=None)
def canonical_lassos(alphabet: tuple, stem_max=DEFAULT_STEM, period_max=DEFAULT_PERIOD):
    """All distinct ultimately periodic words with canonical stem <= stem_max
    and canonical period <= period_max, grouped by period."""
    seen = set()
    stems = [""]
    frontier = [""]
    for _ in range(stem_max):
        frontier = [w + ch for w in frontier for ch in alphabet]
        stems.extend(frontier)
    periods = []
    frontier = [""]
    for _ in range(period_max):
        frontier = [w + ch for w in frontier for ch in alphabet]
        periods.extend(frontier)
    for u in stems:
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
def _act_table(alphabet: tuple, stem_max, period_max):
    """Per canonical lasso w: (w, letters, nxt, rest, restart).

    ``letters`` is prefix + period; after reading letter i the scan goes on
    at ``nxt[i]`` (the loop restarts at ``restart``, the prefix length), and
    ``rest[i]`` is the member of the family that remains.  Every suffix of a
    canonical lasso is canonical, so it is looked up, never normalised.
    """
    lassos = [w for group in canonical_lassos(alphabet, stem_max, period_max).values()
              for w in group]
    family = {(w.prefix, w.period): w for w in lassos}
    table = []
    for w in lassos:
        u, v = w.prefix, w.period
        letters, restart = u + v, len(u)
        nxt = tuple(range(1, len(letters))) + (restart,)
        rest = tuple(family[(u[j:], v) if j < restart else ("", v[j - restart:] + v[:j - restart])]
                     for j in nxt)
        table.append((w, letters, nxt, rest, restart))
    return tuple(table)


def act_language(lang, fp, monoid: OmegaLangMonoid) -> frozenset:
    """Left action: { p·w : p in lang, w in fp }, evaluated on the canonical lassos.

    For each lasso, split points are scanned with the backing DFA of the
    language; the scan stops as soon as the (period position, DFA state)
    pair repeats, which makes the unbounded split search finite and exact.
    """
    d = lang.backing
    delta, accept = d.delta, d.accept
    out = []
    for w, letters, nxt, rest, restart in _act_table(monoid.alphabet, monoid.stem_max,
                                                     monoid.period_max):
        state, i, seen = d.start, 0, set()
        while True:
            state = delta[state].get(letters[i])
            if state is None:
                break
            if state in accept and rest[i] in fp:
                out.append(w)
                break
            i = nxt[i]
            if i >= restart:
                if (i, state) in seen:
                    break
                seen.add((i, state))
    return frozenset(out)


@lru_cache(maxsize=None)
def _omega_plan(alphabet: tuple, stem_max, period_max):
    """(stems, classes): what the omega power walks for the canonical lassos.

    The canonical stems and their prefixes are numbered in prefix order, the
    empty stem 0; ``stems`` gives each other one as (number of the stem
    without its last letter, that letter).  ``classes`` groups the lassos by
    the least rotation r of their period: per class, r and its lassos, each
    with its stem's number and the position in r where its period starts.
    """
    lassos = [w for group in canonical_lassos(alphabet, stem_max, period_max).values()
              for w in group]
    prefixes = sorted({w.prefix[:i] for w in lassos for i in range(len(w.prefix) + 1)},
                      key=lambda u: (len(u), u))
    number = {u: i for i, u in enumerate(prefixes)}
    stems = tuple((number[u[:-1]], u[-1]) for u in prefixes[1:])
    classes = {}
    for w in lassos:
        start = _least_rotation(w.period)
        least = w.period[start:] + w.period[:start]
        classes.setdefault(least, []).append((w, number[w.prefix], -start % len(least)))
    return stems, tuple((r, tuple(ws)) for r, ws in classes.items())


def _cut_walk(d, r):
    """The plain runs of the DFA on r^omega, from node q·m + i (state q, next
    letter r[i]): a function giving a node's bitmask of the positions its run
    cuts into.  The run cuts into position i + 1 mod m when it reads r[i]
    into an accepting state, for it may restart there at the start state.  A
    plain run is deterministic, so it dies or ends in a cycle; a node is
    walked once, when a query first reaches it."""
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


def omega_language(lang, monoid: OmegaLangMonoid) -> frozenset:
    """Fingerprint of the omega power of a DFA-backed language.

    A word is in L^omega iff some run of the minimal DFA on it cuts
    infinitely often, a cut being a restart at the start state s0 after a
    letter read into an accepting state (the Buchi automaton of L^omega).
    Per rotation class of periods the plain runs are walked once
    (``_cut_walk``), and a position of the period is live iff the cuts from
    s0 can go on from it forever.  The states reached after each stem, s0
    included after an accepting letter, are found once per stem prefix; a
    lasso is accepted iff one of them, at the position where its period
    starts, cuts into a live position.
    """
    d = lang.backing
    stems, classes = _omega_plan(monoid.alphabet, monoid.stem_max, monoid.period_max)
    delta, accept, s0 = d.delta, d.accept, d.start
    reached = [{s0}]
    for parent, ch in stems:
        states = {t for t in (delta[q].get(ch) for q in reached[parent]) if t is not None}
        if not accept.isdisjoint(states):
            states.add(s0)
        reached.append(states)
    out = []
    for r, lassos in classes:
        m, cuts = len(r), _cut_walk(d, r)
        live = (1 << m) - 1               # shrinks to the positions with endless cuts
        while True:
            keep = sum(1 << j for j in range(m) if live >> j & 1 and cuts(s0 * m + j) & live)
            if keep == live:
                break
            live = keep
        if live:
            out.extend(w for w, stem, pos in lassos
                       if any(cuts(q * m + pos) & live for q in reached[stem]))
    return frozenset(out)


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
