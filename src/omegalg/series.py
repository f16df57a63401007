"""Finitary series as truncated coefficient tables, plus the word machinery.

A :class:`Series` holds the non-zero coefficients of a series on every word
of length at most its ``bound``, in a dict made with the series: an
operation makes its result's table from its operands' tables, and a
machine's behavior (an automaton's, a language element's DFA) has bound 0
and the empty table, for its machine answers every word.  A bound never
changes.  Sums merge the two tables; Cauchy products join the two supports,
combine each split with ``prod(|u|, |v|, ·, ·)`` (which collapses to plain
multiplication for hemiring weights) and drop pairs longer than the bound;
the plus runs the prefix recurrence in order of length; the natural action
maps every coefficient.  Zero sums and zero products are dropped, so
``coeff`` is a dict lookup and a miss is a zero coefficient.

Past the bound nothing is guessed: each operation has one rule for a single
longer word, read from its operands.  A sum adds, a product sums the cuts
of the word, the plus runs its prefix recurrence over the word's prefixes,
the natural action scales, a polynomial looks the word up, an automaton's
behavior (:func:`automata.finitary_series`) runs it, and an element of the
language carrier walks its DFA; a series made from a machine's has bound 0
and answers every nonempty word by these rules.  An operand answers from
its table within its own bound and at most once per query and word
otherwise, so coefficients are exact at every length at polynomial cost.
A table asked for past the bound is read word by word through these rules.

Ultimately periodic infinite words are represented by :class:`OmegaWord`
lassos in canonical form: primitive period, shortest prefix.  Each canonical
form has one live object, so lassos compare and hash by identity.
"""

from __future__ import annotations

import functools
import itertools
import re
import weakref
from collections import OrderedDict

from .core import Frozen, Hemiring, LawReport, check_laws, words_up_to
from .instances import BooleanCarrier, NatCarrier
from .ratexpr import LETTERS
from .valuation import from_carrier

DEFAULT_BOUND = 8


# --- omega words ---------------------------------------------------------------

def _primitive_root(v: str) -> str:
    n = len(v)
    for p in range(1, n):
        if n % p == 0 and v[:p] * (n // p) == v:
            return v[:p]
    return v


def _least_rotation(word: str) -> int:
    """The start of the least rotation of ``word``, in O(len(word)), by
    Duval's Lyndon factorisation of word·word."""
    n, doubled = len(word), word + word
    i = start = 0
    while i < n:
        start, j, k = i, i + 1, i
        while j < 2 * n and doubled[k] <= doubled[j]:
            k = i if doubled[k] < doubled[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return start


_WORDS = weakref.WeakValueDictionary()   # canonical (prefix, period) -> its one live word


class OmegaWord(Frozen):
    """Ultimately periodic word prefix · period^omega, canonicalised and interned.

    Canonical form: the period is primitive and the prefix cannot be
    shortened by rotating its last letter into the period.  Equality of
    canonical forms is equality of the infinite words, and each canonical
    form has one live object (hash-consing, kept in a weak table), so
    ``==`` and ``hash`` are object identity.  A word is immutable.  It
    keeps its distinct letters in one string, ``_letters``, so a query tests
    them against an alphabet without joining stem and period.
    """

    __slots__ = ("prefix", "period", "_letters", "__weakref__")

    def __new__(cls, prefix: str, period: str):
        w = _WORDS.get((prefix, period))      # only canonical forms are keys
        if w is not None:
            return w
        if not period:
            raise ValueError("period must be nonempty")
        v = _primitive_root(period)
        u = prefix
        while u and u[-1] == v[-1]:
            u = u[:-1]
            v = v[-1] + v[:-1]
        w = _WORDS.get((u, v))
        if w is None:
            w = object.__new__(cls)
            object.__setattr__(w, "prefix", u)
            object.__setattr__(w, "period", v)
            object.__setattr__(w, "_letters", "".join(sorted(set(u + v))))
            _WORDS[u, v] = w
        return w

    def __init__(self, prefix, period):
        """Nothing to store: ``__new__`` returned the canonical word, whose
        fields are set once, when it is made."""

    def __reduce__(self):
        return OmegaWord, (self.prefix, self.period)

    def __repr__(self):
        return f"OmegaWord(prefix={self.prefix!r}, period={self.period!r})"

    def letters(self, count: int) -> str:
        """The first ``count`` letters of the infinite word."""
        _check_position("count", count)
        u, v = self.prefix, self.period
        if count <= len(u):
            return u[:count]
        rest = count - len(u)
        reps = rest // len(v) + 1
        return u + (v * reps)[:rest]

    def letter_at(self, index: int) -> str:
        """The letter at position ``index``, counted from 0."""
        _check_position("index", index)
        if index < len(self.prefix):
            return self.prefix[index]
        return self.period[(index - len(self.prefix)) % len(self.period)]

    def suffix(self, drop: int) -> "OmegaWord":
        """The omega word with the first ``drop`` letters removed."""
        _check_position("drop", drop)
        u, v = self.prefix, self.period
        if drop <= len(u):
            return OmegaWord(u[drop:], v)
        j = (drop - len(u)) % len(v)
        return OmegaWord("", v[j:] + v[:j])

    def __str__(self):
        return f"{self.prefix}({self.period})^w"


def _check_position(name: str, value: int):
    """A count of letters or a position in a word is never negative."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


_LETTER = f"[{LETTERS}]"
_OMEGA_RE = re.compile(rf"^({_LETTER}*)\(({_LETTER}+)\)\^w$")
_OMEGA_BARE_RE = re.compile(rf"^({_LETTER}*?)({_LETTER})\^w$")


def parse_word(text: str):
    """Parse CLI word syntax: bare strings for finite words, ``u(v)^w`` lassos."""
    t = text.strip()
    if "^w" not in t:
        if not re.fullmatch(f"{_LETTER}*", t):
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


@functools.cache
def _letter_string(alphabet: tuple) -> str:
    """The one-character letters of ``alphabet`` in one string: a word is
    over the alphabet iff ``word.strip(letters)`` is empty."""
    return "".join(ch for ch in alphabet if len(ch) == 1)


def _check_letters(word: str, alphabet: tuple):
    """Raise on the first letter of ``word`` outside ``alphabet``; called only
    once ``word.strip(letters)`` has found one."""
    for ch in word:
        if ch not in alphabet:
            raise ValueError(f"letter {ch!r} outside alphabet {alphabet}")


def _check_word(word: str, alphabet: tuple):
    """The one word check: a letter test, then the loop naming a foreign letter."""
    if word.strip(_letter_string(alphabet)):
        _check_letters(word, alphabet)


class Series:
    """Non-zero coefficients on the words of length <= ``bound``.

    ``table`` is made with the series (a machine's is empty, at bound 0),
    and neither it nor the bound ever changes.  ``at(word, memo)`` gives the
    coefficient of a longer word, or ``_MISS``, from the operands read
    through :func:`_at` or from the machine.  No ``at`` refers to its own
    series, so a series is freed by reference counting.
    """

    __slots__ = ("weights", "alphabet", "letters", "bound", "table", "at", "proper", "backing")

    def __init__(self, weights, alphabet, bound, table, at, proper=True, backing=None):
        self.weights = weights
        self.alphabet = tuple(alphabet)
        self.letters = _letter_string(self.alphabet)
        self.bound = bound
        self.table = table
        self.at = at
        self.proper = proper
        self.backing = backing

    def coeff(self, word: str):
        val = self.table.get(word, _MISS)
        if val is not _MISS:
            return val
        if word.strip(self.letters):
            _check_letters(word, self.alphabet)
        if len(word) > self.bound:
            val = _at(self, word, {})
            return self.weights.zero if val is _MISS else val
        return self.weights.zero

    def table_at(self, bound: int) -> dict:
        """The non-zero coefficients on the words of length <= ``bound``: the
        table cut at ``bound``, or, past the series' own bound, the table and
        every longer word read through :meth:`coeff`."""
        if bound == self.bound:
            return self.table
        if bound < self.bound:
            return {u: x for u, x in self.table.items() if len(u) <= bound}
        out = dict(self.table)
        eq, zero = self.weights.eq, self.weights.zero
        for u in words_up_to(self.alphabet, bound):
            if len(u) > self.bound:
                x = self.coeff(u)
                if not eq(x, zero):
                    out[u] = x
        return out


def _at(f, word: str, memo: dict):
    """The coefficient of ``f`` on ``word``, ``_MISS`` where it is zero: its
    table within its bound, else ``f.at``, once per query (``memo``) and word."""
    if len(word) <= f.bound:
        return f.table.get(word, _MISS)
    key = (f, word)
    if key not in memo:
        x = f.at(word, memo)
        memo[key] = _MISS if x is _MISS or f.weights.eq(x, f.weights.zero) else x
    return memo[key]


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


def zero_series(weights, alphabet, bound=DEFAULT_BOUND) -> Series:
    return Series(weights, alphabet, bound, {}, lambda word, memo: _MISS)


def polynomial(weights, alphabet, table: dict, bound=DEFAULT_BOUND) -> Series:
    """Finite-support series; missing words have coefficient zero."""
    alphabet = tuple(alphabet)
    for word in table:
        _check_word(word, alphabet)
    table = dict(table)
    kept = _drop_zeros(weights, {u: x for u, x in table.items() if len(u) <= bound})
    return Series(weights, alphabet, bound, kept, lambda word, memo: table.get(word, _MISS),
                  proper="" not in table)


def _same_weights(f, g, op):
    """Raise ValueError unless ``f`` and ``g`` have one weight structure: the
    same object, or the same name and parameters."""
    if f.weights is not g.weights and (
            f.weights.name != g.weights.name or
            getattr(f.weights, "params", None) != getattr(g.weights, "params", None)):
        raise ValueError(f"carrier mismatch in {op}")


def _same_alphabet(x, y):
    """Raise ValueError unless ``x`` and ``y`` (series, carriers or DFAs)
    have one alphabet."""
    if x.alphabet is not y.alphabet and x.alphabet != y.alphabet:
        raise ValueError("alphabet mismatch")


def series_add(f, g) -> Series:
    _same_weights(f, g, "sum")
    _same_alphabet(f, g)
    w, L = f.weights, min(f.bound, g.bound)
    out = dict(f.table_at(L))
    both = []
    for u, y in g.table_at(L).items():
        if u in out:
            out[u] = w.add(out[u], y)
            both.append(u)
        else:
            out[u] = y
    _drop_zeros(w, out, both)

    def at(word, memo):
        x, y = _at(f, word, memo), _at(g, word, memo)
        return y if x is _MISS else x if y is _MISS else w.add(x, y)

    return Series(w, f.alphabet, L, out, at, proper=f.proper and g.proper)


def cauchy_mul(f, g) -> Series:
    """(fg, w) = sum over splits uv = w of (f,u) ·(|u|,|v|) (g,v).

    The table joins the two supports and drops pairs longer than the bound;
    a longer word sums its cuts.
    """
    _same_weights(f, g, "product")
    _same_alphabet(f, g)
    w, L = f.weights, min(f.bound, g.bound)
    out = {}
    left = _by_length(f.table_at(L))
    right = _by_length(g.table_at(L))
    for m in sorted(left):
        for n in range(L - m + 1):
            for v, y in right.get(n, ()):
                for u, x in left[m]:
                    p = w.prod(m, n, x, y)
                    uv = u + v
                    out[uv] = w.add(out[uv], p) if uv in out else p
    _drop_zeros(w, out)

    def at(word, memo):
        n, acc = len(word), _MISS
        for i in range(n + 1):
            x = _at(f, word[:i], memo)
            y = _MISS if x is _MISS else _at(g, word[i:], memo)
            if y is not _MISS:
                p = w.prod(i, n - i, x, y)
                acc = p if acc is _MISS else w.add(acc, p)
        return acc

    return Series(w, f.alphabet, L, out, at, proper=f.proper or g.proper)


def series_plus(f) -> Series:
    """Sum over all factorizations into nonempty pieces of the piecewise product.

    Prefix recurrence T(w) = f(w) + sum over w = uv, u and v nonempty, of
    T(u) ·(|u|,|v|) f(v), in order of length; the left fold of the indexed
    products matches the induced valuation by the split law.  A longer word
    runs the recurrence over its own prefixes.
    """
    if not f.proper:
        raise ValueError("plus is defined on proper series only")
    w = f.weights
    token = object()    # keys this plus's prefix values in a query's memo
    out = {}
    pieces = _by_length(f.table)
    done = {}       # length -> [(u, T(u))]
    for n in range(1, f.bound + 1):
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

    def at(word, memo):
        prefixes = memo.setdefault(token, {})    # prefix -> T(prefix), or _MISS
        for j in range(1, len(word) + 1):
            z = word[:j]
            if z in prefixes:
                continue
            acc = _at(f, z, memo)
            for i in range(1, j):
                x = prefixes[z[:i]]
                y = _MISS if x is _MISS else _at(f, z[i:], memo)
                if y is not _MISS:
                    p = w.prod(i, j - i, x, y)
                    acc = p if acc is _MISS else w.add(acc, p)
            prefixes[z] = _MISS if acc is _MISS or w.eq(acc, w.zero) else acc
        return prefixes[word]

    return Series(w, f.alphabet, f.bound, out, at)


def scale_nat(n: int, f) -> Series:
    w = f.weights

    def at(word, memo):
        x = _at(f, word, memo)
        return x if x is _MISS else w.nat_act(n, x)

    return Series(w, f.alphabet, f.bound,
                  _drop_zeros(w, {u: w.nat_act(n, x) for u, x in f.table.items()}), at,
                  proper=f.proper)


def _differing(f, g, bound):
    """The words of length <= bound where ``f`` and ``g`` differ, unordered.

    A word in one table only differs: the other side is zero, and every
    weight domain's ``eq`` is exact at zero.
    """
    _same_alphabet(f, g)
    eq = f.weights.eq
    a, b = f.table_at(bound), g.table_at(bound)
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
    _same_alphabet(f, g)
    w = f.weights
    coeff = ("coeff", lambda u: (f.coeff(u), g.coeff(u)), lambda u: (u or "<empty>",))
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
# Elements are proper boolean series of bound 0 backed by minimal DFAs: the
# DFA answers every word, which keeps coefficient queries at O(|w|) and makes
# the omega-side (lasso) analysis of the hemimodule pair cheap.  Sum, product
# and plus build the minimal DFA of the result from the operands' DFAs, with
# the DFA kit the carrier binds when it is made (so a series query that makes
# no language carrier never loads ``dfa``); product and plus reduce each set
# of operand states to its inclusion-maximal states.  Equality is bounded
# like every series carrier's, at the carrier's bound, decided by one walk
# over the pairs of states the two DFAs reach.  Operands over another
# alphabet raise ``alphabet mismatch``, as in every series operation.
#
# A carrier builds each language once.  Minimal DFAs are canonical, so its
# elements are interned by their DFA (hash-consing, Filliatre & Conchon 2006),
# weakly: equal languages are one object while one of them lives.  Sum,
# product and plus are memoised on their operands' creation numbers, a finite
# language on its word set; each operation probes the memo itself.  The memo
# keeps its RECENT most recently used entries, so it holds at most that many
# elements alive; an entry whose operand died is never hit again, since
# numbers are not reused.

RECENT = 1024
_SERIALS = itertools.count()     # creation numbers of language elements, across carriers


class _Language(Series):
    """A language element: ``backing`` is its minimal DFA, which answers
    every word; the element has bound 0 and the empty table."""

    __slots__ = ("serial", "__weakref__")


class LanguageCarrier(SeriesCarrier):
    """Epsilon-free regular languages as a Conway hemiring (no unit)."""

    def __init__(self, alphabet=("a", "b"), bound=DEFAULT_BOUND):
        from . import dfa
        super().__init__(from_carrier(BooleanCarrier()), alphabet, bound, name="lang")
        self._dfa = dfa                # the DFA kit, bound once
        self._interned = weakref.WeakValueDictionary()   # DFA -> element
        self._recent = OrderedDict()   # operation and operand numbers, or word set -> element
        self.zero = self._from_dfa(dfa.empty(self.alphabet))

    def _from_dfa(self, d) -> Series:
        """The element of ``d``'s language: the live one this carrier made
        from an identical DFA, else a new one."""
        key = (d.start, d.accept, tuple(row.get(ch, -1) for row in d.delta for ch in self.alphabet))
        f = self._interned.get(key)
        if f is None:
            f = _Language(self.weights, self.alphabet, 0, {}, lambda word, memo: d.run(word),
                          backing=d)
            f.serial = next(_SERIALS)
            self._interned[key] = f
        return f

    def _mine(self, *args):
        """Raise ValueError unless every one of ``args`` is over this carrier's alphabet."""
        for f in args:
            _same_alphabet(self, f)

    def _keep(self, key, f) -> Series:
        """Memoise ``f`` under ``key`` as the most recently used entry."""
        recent = self._recent
        recent[key] = f
        if len(recent) > RECENT:
            recent.popitem(last=False)         # the least recently used
        return f

    # A memo hit is moved to the end, a miss is built and kept.  Operand
    # numbers are never reused, so a hit's operands passed the alphabet
    # check when it was built.

    def poly(self, table) -> Series:
        words = frozenset(w for w, v in table.items() if v)
        if not words:
            return self.zero
        out = self._recent.get(words)
        if out is None:
            return self._keep(words, self._from_dfa(self._dfa.from_words(self.alphabet, words)))
        self._recent.move_to_end(words)
        return out

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
        if not f.backing.accept:
            f, g = g, f
        if f is g or not g.backing.accept:     # the union is f: its DFA is minimal
            self._mine(f, g)
            return f
        if f.serial > g.serial:          # union commutes: one entry per pair
            f, g = g, f
        key = ("add", f.serial, g.serial)
        out = self._recent.get(key)
        if out is None:
            self._mine(f, g)
            return self._keep(key, self._from_dfa(self._dfa.union(f.backing, g.backing)))
        self._recent.move_to_end(key)
        return out

    def mul(self, f, g):
        if not f.backing.accept or not g.backing.accept:
            self._mine(f, g)
            return self.zero
        key = ("mul", f.serial, g.serial)
        out = self._recent.get(key)
        if out is None:
            self._mine(f, g)
            return self._keep(key, self._from_dfa(self._dfa.concat(f.backing, g.backing)))
        self._recent.move_to_end(key)
        return out

    def plus(self, f):
        if not f.backing.accept:
            self._mine(f)
            return self.zero
        key = ("plus", f.serial)
        out = self._recent.get(key)
        if out is None:
            self._mine(f)
            return self._keep(key, self._from_dfa(self._dfa.plus(f.backing)))
        self._recent.move_to_end(key)
        return out

    def eq(self, f, g):
        _same_alphabet(f, g)
        return f is g or self._dfa.agree_up_to(f.backing, g.backing, self.bound)

    def show(self, f):
        words = self._dfa.enumerate_words(f.backing, 4, limit=7)
        if not words:
            return "{…}" if f.backing.accept else "{}"
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

    __slots__ = ("weights", "alphabet", "fn", "backing")

    def __init__(self, weights, alphabet, fn, backing=None):
        self.weights = weights
        self.alphabet = tuple(alphabet)
        self.fn = fn
        self.backing = backing

    def coeff(self, w: OmegaWord):
        return self.fn(w)
