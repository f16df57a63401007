"""Boolean omega-languages over ultimately periodic words.

The module side of the pair (nonempty-word languages, omega-languages) is
represented by *fingerprints*: the set of accepted lassos from a fixed
canonical family with bounded stem and period.  Fingerprints are closed
under union, under the left action of a DFA-backed language, and under the
omega power of such a language, and on the canonical family these three
operations compute the true omega-language pointwise, so the pair identities
can be checked exactly within the bound.
"""

from __future__ import annotations

from functools import lru_cache

from . import automata
from . import dfa as dfalib
from .core import CommutativeMonoid, HemimodulePair
from .instances import BooleanCarrier
from .series import OmegaWord, language_instance
from .valuation import from_carrier

DEFAULT_STEM = 4
DEFAULT_PERIOD = 4

_BOOL = from_carrier(BooleanCarrier())


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


def _dfa_automaton(d) -> automata.MatrixAutomaton:
    """A DFA as a boolean weighted automaton: weight True on every transition."""
    return automata.MatrixAutomaton(
        _BOOL, d.alphabet, d.n, 0,
        tuple(1 if s == d.start else 0 for s in range(d.n)),
        tuple(1 if s in d.accept else 0 for s in range(d.n)),
        tuple((s, ch, t, True) for s, trans in enumerate(d.delta) for ch, t in trans.items()))


def omega_language(lang, monoid: OmegaLangMonoid) -> frozenset:
    """Fingerprint of the omega power of a DFA-backed language.

    The omega power is compiled like an expression's (feedback through fresh
    copies of the first-step targets, which are the repeated states), and its
    Buchi acceptance is read off the automata lasso kernel, one product
    analysis per period of the canonical family.
    """
    if dfalib.dfa_is_empty(lang.backing):
        return monoid.zero
    aut = automata.omega_automaton(_dfa_automaton(lang.backing))
    accepted = automata.batch_infinitary(aut, monoid.lassos)
    return frozenset(w for w, ok in zip(monoid.lassos, accepted) if ok)


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
