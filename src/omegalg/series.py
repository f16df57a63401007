"""Finitary series as truncated coefficient tables, plus the word machinery.

A :class:`Series` holds the non-zero coefficients of a series on every word
of length at most its ``bound``, in a dict built bottom-up on first use.
Sums merge the two tables; Cauchy products join the two supports, combine
each split with ``prod(|u|, |v|, ·, ·)`` (which collapses to plain
multiplication for hemiring weights) and drop pairs longer than the bound;
the plus runs the prefix recurrence in order of length; the natural action
maps every coefficient.  Zero sums and zero products are dropped, so
``coeff`` is a dict lookup and a miss is a zero coefficient.

Past the bound nothing is guessed: a query for a longer word w rebuilds,
from what each series was built from (a polynomial's own coefficients, the
operands of a carrier operation, an automaton's runs, a DFA's walks),
tables kept to the factors of w, which hold every coefficient the
operations read.  That is O(|w|^2) entries per series, so coefficients are
exact at every length at polynomial cost.  The behavior of an automaton
(:func:`automata.finitary_series`) and the elements of the language
carrier are series of this one kind too.

Ultimately periodic infinite words are represented by :class:`OmegaWord`
lassos in canonical form: primitive period, shortest prefix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import dfa as dfalib
from .core import Hemiring, LawReport, check_laws, words_up_to
from .instances import BooleanCarrier, NatCarrier
from .valuation import from_carrier

DEFAULT_BOUND = 8


# --- omega words ---------------------------------------------------------------

def _primitive_root(v: str) -> str:
    n = len(v)
    for p in range(1, n):
        if n % p == 0 and v[:p] * (n // p) == v:
            return v[:p]
    return v


@dataclass(frozen=True)
class OmegaWord:
    """Ultimately periodic word prefix · period^omega, canonicalised.

    Canonical form: the period is primitive and the prefix cannot be
    shortened by rotating its last letter into the period.  Equality of
    canonical forms is equality of the infinite words.
    """

    prefix: str
    period: str

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")
        v = _primitive_root(self.period)
        u = self.prefix
        while u and u[-1] == v[-1]:
            u = u[:-1]
            v = v[-1] + v[:-1]
        object.__setattr__(self, "prefix", u)
        object.__setattr__(self, "period", v)

    def letters(self, count: int) -> str:
        """The first ``count`` letters of the infinite word."""
        u, v = self.prefix, self.period
        if count <= len(u):
            return u[:count]
        rest = count - len(u)
        reps = rest // len(v) + 1
        return u + (v * reps)[:rest]

    def letter_at(self, index: int) -> str:
        if index < len(self.prefix):
            return self.prefix[index]
        return self.period[(index - len(self.prefix)) % len(self.period)]

    def suffix(self, drop: int) -> "OmegaWord":
        """The omega word with the first ``drop`` letters removed."""
        u, v = self.prefix, self.period
        if drop <= len(u):
            return OmegaWord(u[drop:], v)
        j = (drop - len(u)) % len(v)
        return OmegaWord("", v[j:] + v[:j])

    def __str__(self):
        return f"{self.prefix}({self.period})^w"


_OMEGA_RE = re.compile(r"^([a-z]*)\(([a-z]+)\)\^w$")
_OMEGA_BARE_RE = re.compile(r"^([a-z]*?)([a-z])\^w$")


def parse_word(text: str):
    """Parse CLI word syntax: bare strings for finite words, ``u(v)^w`` lassos."""
    t = text.strip()
    if "^w" not in t:
        if not re.fullmatch(r"[a-z]*", t):
            raise ValueError(f"not a word: {text!r}")
        return t
    m = _OMEGA_RE.match(t)
    if m:
        return OmegaWord(m.group(1), m.group(2))
    m = _OMEGA_BARE_RE.match(t)
    if m:
        return OmegaWord(m.group(1), m.group(2))
    raise ValueError(f"not an omega word: {text!r}")


# --- series -----------------------------------------------------------------------

_MISS = object()
_UNBUILT = {}   # the table of every series not yet queried; never written to


def _check_letters(word: str, alphabet: tuple):
    for ch in word:
        if ch not in alphabet:
            raise ValueError(f"letter {ch!r} outside alphabet {alphabet}")


class _Factors:
    """The factors of one query word, shortest first, and the tables already
    rebuilt on them (by ``id`` of the series), so shared operands rebuild once.

    Sums, cuts, the plus recurrence and the natural action of a factor only
    ever read coefficients of its own factors, so tables kept to these words
    give the coefficient exactly with O(|w|^2) entries per series.
    """

    __slots__ = ("word", "words", "done")

    def __init__(self, word: str):
        n = len(word)
        self.word = word
        self.words = sorted({word[i:j] for i in range(n + 1) for j in range(i, n + 1)},
                            key=len)
        self.done = {}


class Series:
    """Non-zero coefficients on the words of length <= ``bound``.

    ``build(L, only)`` returns the table at bound L, kept to the words of
    ``only`` (a :class:`_Factors`) unless that is None.  It runs in full on
    the first query; a query past the bound rebuilds on the query's factors.
    """

    __slots__ = ("weights", "alphabet", "bound", "build", "_table", "proper", "backing")

    def __init__(self, weights, alphabet, bound, build, proper=True, backing=None):
        self.weights = weights
        self.alphabet = tuple(alphabet)
        self.bound = bound
        self.build = build
        self._table = _UNBUILT
        self.proper = proper
        self.backing = backing

    @property
    def table(self) -> dict:
        if self._table is _UNBUILT:
            self._table = self.build(self.bound, None)
        return self._table

    def coeff(self, word: str):
        val = self._table.get(word, _MISS)
        if val is not _MISS:
            return val
        _check_letters(word, self.alphabet)
        if len(word) > self.bound:
            return self.table_on(_Factors(word)).get(word, self.weights.zero)
        if self._table is _UNBUILT:
            return self.table.get(word, self.weights.zero)
        return self.weights.zero

    def table_at(self, bound: int) -> dict:
        """The table up to ``bound``, rebuilt in place if it stops short of it."""
        if bound > self.bound:
            self._table = self.build(bound, None)
            self.bound = bound
        if bound == self.bound:
            return self.table
        return {u: x for u, x in self.table.items() if len(u) <= bound}

    def table_on(self, only: _Factors) -> dict:
        """The non-zero coefficients on the words of ``only``."""
        if len(only.word) > self.bound:
            return self.build(len(only.word), only)
        t = self.table
        return {u: t[u] for u in only.words if u in t}


def _table(f, bound: int, only=None) -> dict:
    """The non-zero coefficients of ``f`` up to ``bound``, or on ``only``'s words."""
    if only is None:
        return f.table_at(bound)
    t = only.done.get(id(f))
    if t is None:
        t = only.done[id(f)] = f.table_on(only)
    return t


def _by_length(table: dict) -> dict:
    out = {}
    for u, x in table.items():
        out.setdefault(len(u), []).append((u, x))
    return out


def _drop_zeros(weights, table: dict, words=None) -> dict:
    """Remove the ``words`` (default: all) whose coefficient in ``table`` is zero."""
    eq, zero = weights.eq, weights.zero
    for u in list(table) if words is None else words:
        if eq(table[u], zero):
            del table[u]
    return table


def _cuts(w, z: str, left: dict, right: dict, lo: int, acc=_MISS):
    """``acc`` plus left(u) ·(|u|,|v|) right(v) over the cuts z = uv with
    lo <= |u| <= |z| - lo; ``_MISS`` if there is nothing to add."""
    n = len(z)
    for i in range(lo, n - lo + 1):
        x = left.get(z[:i], _MISS)
        if x is _MISS:
            continue
        y = right.get(z[i:], _MISS)
        if y is _MISS:
            continue
        p = w.prod(i, n - i, x, y)
        acc = p if acc is _MISS else w.add(acc, p)
    return acc


def zero_series(weights, alphabet, bound=DEFAULT_BOUND) -> Series:
    return Series(weights, alphabet, bound, lambda L, only: {}, backing={})


def polynomial(weights, alphabet, table: dict, bound=DEFAULT_BOUND) -> Series:
    """Finite-support series; missing words have coefficient zero."""
    alphabet = tuple(alphabet)
    for word in table:
        _check_letters(word, alphabet)
    table = dict(table)

    def build(L, only):
        if only is None:
            out = {u: x for u, x in table.items() if len(u) <= L}
        else:
            out = {u: table[u] for u in only.words if u in table}
        return _drop_zeros(weights, out)

    return Series(weights, alphabet, bound, build, proper="" not in table, backing=table)


def series_add(f, g) -> Series:
    w = f.weights

    def build(L, only):
        out = dict(_table(f, L, only))
        both = []
        for u, y in _table(g, L, only).items():
            if u in out:
                out[u] = w.add(out[u], y)
                both.append(u)
            else:
                out[u] = y
        return _drop_zeros(w, out, both)

    return Series(w, f.alphabet, min(f.bound, g.bound), build, proper=f.proper and g.proper)


def cauchy_mul(f, g) -> Series:
    """(fg, w) = sum over splits uv = w of (f,u) ·(|u|,|v|) (g,v).

    A full table joins the two supports and drops pairs longer than the
    bound; a table on a query's factors sums the cuts of each factor.
    """
    if f.weights is not g.weights:
        same_kind = (f.weights.name == g.weights.name and
                     getattr(f.weights, "params", None) == getattr(g.weights, "params", None))
        if not same_kind:
            raise ValueError("carrier mismatch in product")
    w = f.weights

    def build(L, only):
        out = {}
        if only is not None:
            left, right = _table(f, L, only), _table(g, L, only)
            for z in only.words:
                acc = _cuts(w, z, left, right, 0)
                if acc is not _MISS:
                    out[z] = acc
            return _drop_zeros(w, out)
        left = _by_length(_table(f, L))
        right = _by_length(_table(g, L))
        for m in sorted(left):
            for n in range(L - m + 1):
                for v, y in right.get(n, ()):
                    for u, x in left[m]:
                        p = w.prod(m, n, x, y)
                        uv = u + v
                        out[uv] = w.add(out[uv], p) if uv in out else p
        return _drop_zeros(w, out)

    return Series(w, f.alphabet, min(f.bound, g.bound), build, proper=f.proper or g.proper)


def series_plus(f) -> Series:
    """Sum over all factorizations into nonempty pieces of the piecewise product.

    Prefix recurrence T(w) = f(w) + sum over w = uv, u and v nonempty, of
    T(u) ·(|u|,|v|) f(v), in order of length; the left fold of the indexed
    products matches the induced valuation by the split law.
    """
    if not f.proper:
        raise ValueError("plus is defined on proper series only")
    w = f.weights

    def build(L, only):
        out = {}
        if only is not None:
            pieces = _table(f, L, only)
            for z in only.words:
                acc = _cuts(w, z, out, pieces, 1, pieces.get(z, _MISS)) if z else _MISS
                if acc is not _MISS and not w.eq(acc, w.zero):
                    out[z] = acc
            return out
        pieces = _by_length(_table(f, L))
        done = {}       # length -> [(u, T(u))]
        for n in range(1, L + 1):
            layer = dict(pieces.get(n, ()))
            for m in range(1, n):
                for v, y in pieces.get(n - m, ()):
                    for u, x in done.get(m, ()):
                        p = w.prod(m, n - m, x, y)
                        uv = u + v
                        layer[uv] = w.add(layer[uv], p) if uv in layer else p
            _drop_zeros(w, layer)
            done[n] = list(layer.items())
            out.update(layer)
        return out

    return Series(w, f.alphabet, f.bound, build, proper=True)


def scale_nat(n: int, f) -> Series:
    w = f.weights

    def build(L, only):
        out = {u: w.nat_act(n, x) for u, x in _table(f, L, only).items()}
        return _drop_zeros(w, out)

    return Series(w, f.alphabet, f.bound, build, proper=f.proper)


def _differing(f, g, bound):
    """The words of length <= bound where ``f`` and ``g`` differ, unordered.

    A word in one table only differs: the other side is zero, and every
    weight domain's ``eq`` is exact at zero.
    """
    if f.alphabet != g.alphabet:
        raise ValueError("alphabet mismatch")
    eq = f.weights.eq
    a, b = _table(f, bound), _table(g, bound)
    for u, x in a.items():
        y = b.get(u, _MISS)
        if y is _MISS or not eq(x, y):
            yield u
    for u in b:
        if u not in a:
            yield u


def bounded_eq(f, g, bound: int = DEFAULT_BOUND) -> LawReport:
    """Compare coefficients on every word of length <= bound.

    A failure is a definitive inequality witness; success is bounded evidence
    only.  Witnesses come in shortlex order, at most 20.
    """
    if f.alphabet != g.alphabet:
        raise ValueError("alphabet mismatch")
    w = f.weights
    a, b = _table(f, bound), _table(g, bound)
    coeff = ("coeff", lambda u: (a.get(u, w.zero), b.get(u, w.zero)), lambda u: (u or "<empty>",))
    return check_laws(LawReport(f"bounded-eq(L={bound})", 0), [coeff],
                      ((u,) for u in words_up_to(f.alphabet, bound)), w.eq, w.show, max_failures=20)


# --- series carriers ----------------------------------------------------------------

class SeriesCarrier(Hemiring):
    """Hemiring of proper series over a weight domain, with bounded equality."""

    def __init__(self, weights, alphabet, bound=DEFAULT_BOUND, name=None):
        self.weights = weights
        self.alphabet = tuple(alphabet)
        self.bound = bound
        self.name = name or f"{weights.name}-series"
        self.zero = zero_series(weights, self.alphabet, bound)

    def add(self, f, g):
        return series_add(f, g)

    def mul(self, f, g):
        return cauchy_mul(f, g)

    def plus(self, f):
        return series_plus(f)

    def nat_act(self, n, f):
        return scale_nat(n, f)

    def eq(self, f, g):
        return next(_differing(f, g, self.bound), None) is None

    def show(self, f):
        parts = []
        for word in words_up_to(self.alphabet, min(self.bound, 3)):
            v = f.coeff(word)
            if not self.weights.eq(v, self.weights.zero):
                label = word or "<e>"
                parts.append(f"{self.weights.show(v)}·{label}"
                             if self.weights.show(v) != "1" else label)
            if len(parts) > 6:
                parts.append("…")
                break
        return "(" + " + ".join(parts) + ")" if parts else "0"

    def poly(self, table):
        return polynomial(self.weights, self.alphabet, table, self.bound)

    def letter(self, ch):
        if self.weights.unit is None:
            raise ValueError("letter series need a unit weight")
        return self.poly({ch: self.weights.unit})

    def sample(self, rng):
        support = rng.randrange(1, 3)
        table = {}
        for _ in range(support):
            length = rng.randrange(1, 3)
            word = "".join(rng.choice(self.alphabet) for _ in range(length))
            table[word] = self._sample_coeff(rng)
        return self.poly(table)

    def _sample_coeff(self, rng):
        return self.weights.sample(rng)


def nat_series_instance(alphabet=("a", "b"), bound=DEFAULT_BOUND) -> SeriesCarrier:
    c = SeriesCarrier(from_carrier(NatCarrier()), alphabet, bound, name="nat-series")
    c._sample_coeff = lambda rng: rng.randrange(1, 4)
    return c


# --- the regular-language instance ----------------------------------------------------
#
# Elements are proper boolean series backed by minimal DFAs, which keeps
# coefficient queries at O(|w|) and makes the omega-side (lasso) analysis of
# the hemimodule pair cheap.  Sum, product and plus build the minimal DFA of
# the result from the operands' DFAs.  Equality is bounded like every series
# carrier's, decided by one walk over the pairs of states the two DFAs reach.

class LanguageCarrier(SeriesCarrier):
    """Epsilon-free regular languages as a Conway hemiring (no unit)."""

    def __init__(self, alphabet=("a", "b"), bound=DEFAULT_BOUND):
        super().__init__(from_carrier(BooleanCarrier()), alphabet, bound, name="lang")
        self.zero = self._from_dfa(dfalib.empty(self.alphabet))

    # every element carries a minimal DFA in ``backing``
    def _from_dfa(self, d: dfalib.Dfa) -> Series:
        def build(L, only):
            if only is None:
                return dict.fromkeys(dfalib.enumerate_words(d, L), True)
            out, word = {}, only.word
            for i in range(len(word)):   # one walk from each start position
                s = d.start
                for j in range(i, len(word)):
                    s = d.delta[s].get(word[j])
                    if s is None:
                        break
                    if s in d.accept:
                        out[word[i:j + 1]] = True
            return out

        return Series(self.weights, self.alphabet, self.bound, build, backing=d)

    def poly(self, table) -> Series:
        words = [w for w, v in table.items() if v]
        if not words:
            return self.zero
        return self._from_dfa(dfalib.from_words(self.alphabet, words))

    def language(self, *words) -> Series:
        return self.poly({w: True for w in words})

    def letter(self, ch) -> Series:
        return self.language(ch)

    def nat_act(self, n, f):
        # boolean weights are idempotent: n·f = f for every n >= 1
        if n < 0:
            raise ValueError("nat_act needs n >= 0")
        return f if n else self.zero

    def add(self, f, g):
        return self._from_dfa(dfalib.union(f.backing, g.backing))

    def mul(self, f, g):
        if dfalib.dfa_is_empty(f.backing) or dfalib.dfa_is_empty(g.backing):
            return self.zero
        return self._from_dfa(dfalib.concat(f.backing, g.backing))

    def plus(self, f):
        if dfalib.dfa_is_empty(f.backing):
            return self.zero
        return self._from_dfa(dfalib.plus(f.backing))

    def eq(self, f, g):
        if f.alphabet != g.alphabet:
            raise ValueError("alphabet mismatch")
        return dfalib.agree_up_to(f.backing, g.backing, self.bound)

    def show(self, f):
        words = dfalib.enumerate_words(f.backing, 4, limit=7)
        if not words:
            return "{}" if dfalib.dfa_is_empty(f.backing) else "{…}"
        body = ", ".join(words[:6]) + (", …" if len(words) > 6 else "")
        return "{" + body + "}"

    def sample(self, rng):
        support = rng.randrange(1, 3)
        words = set()
        for _ in range(support):
            length = rng.randrange(1, 3)
            words.add("".join(rng.choice(self.alphabet) for _ in range(length)))
        f = self.language(*sorted(words))
        # occasionally hand back a composite so the suites see plus-closed
        # and concatenated elements too
        r = rng.random()
        if r < 0.2:
            return self.plus(f)
        if r < 0.3:
            g = self.language(rng.choice(self.alphabet))
            return self.mul(f, g)
        return f


def language_instance(alphabet=("a", "b"), bound=DEFAULT_BOUND) -> LanguageCarrier:
    return LanguageCarrier(alphabet, bound)


# --- omega series -----------------------------------------------------------------------

class OmegaSeries:
    """Coefficient query over ultimately periodic infinite words."""

    __slots__ = ("weights", "alphabet", "fn", "backing", "_memo")

    def __init__(self, weights, alphabet, fn, backing=None):
        self.weights = weights
        self.alphabet = tuple(alphabet)
        self.fn = fn
        self.backing = backing
        self._memo = {}

    def coeff(self, w: OmegaWord):
        if w in self._memo:
            return self._memo[w]
        val = self.fn(w)
        self._memo[w] = val
        return val
