"""Carrier contracts and executable law suites.

A *carrier* packages a value domain together with its algebraic operations so
that the rest of the library (matrices, series, automata) can stay generic.
The weakest contract is a commutative monoid (``add``/``zero``); hemirings add
``mul``, semirings a unit ``one``, and the iteration-flavoured carriers a
total ``plus`` and/or ``star``.  Optional operations are plain attributes: a
carrier that supports star simply defines ``star``.

Identities are never assumed, they are checked: every suite in this module
samples tuples of elements (seeded, deterministic) and reports violations as
data in a :class:`LawReport` rather than raising.  Counterexample
reproduction is a feature, so a failing law is a report entry, not an
exception.  :func:`check_laws` is the one loop that fills law reports, here
and in the valuation, extension, matrix and series checks: it counts the
trials, records the failures and applies the failure cap.  The matrix group
identity report is the one exception; its docstring says why.
"""

from __future__ import annotations

import itertools
import math
import random

DEFAULT_SEED = 42
DEFAULT_TRIALS = 1000

# Cap on |elements|^arity when a suite silently switches to exhaustive mode.
_EXHAUSTIVE_LIMIT = 5000


class CommutativeMonoid:
    """Value domain with commutative, associative ``add`` and neutral ``zero``."""

    name = "monoid"
    zero = None

    def add(self, a, b):
        raise NotImplementedError

    def eq(self, a, b) -> bool:
        return a == b

    def show(self, a) -> str:
        return str(a)

    def read(self, text: str):
        raise NotImplementedError(f"{self.name} has no string reader")

    def sample(self, rng: random.Random):
        raise NotImplementedError

    def elements(self):
        """All elements for finite carriers, else None (enables exhaustive suites)."""
        return None

    def nat_act(self, n: int, a):
        """n-fold sum of ``a`` (the natural action of the naturals), by
        doubling in O(log n) additions.  That regroups the sum, which every
        carrier's ``add`` allows: each is exact or idempotent."""
        if n < 0:
            raise ValueError("nat_act needs n >= 0")
        out = self.zero
        while n:
            if n & 1:
                out = self.add(out, a)
            n >>= 1
            if n:
                a = self.add(a, a)
        return out

    def sum(self, values):
        out = self.zero
        for v in values:
            out = self.add(out, v)
        return out


class Hemiring(CommutativeMonoid):
    """Semiring without a required multiplicative unit."""

    name = "hemiring"

    def mul(self, a, b):
        raise NotImplementedError


class Semiring(Hemiring):
    name = "semiring"
    one = None


def has_one(c) -> bool:
    return getattr(c, "one", None) is not None


def has_plus(c) -> bool:
    return callable(getattr(c, "plus", None))


def has_star(c) -> bool:
    return callable(getattr(c, "star", None))


def has_omega(c) -> bool:
    return callable(getattr(c, "omega", None))


# --- star/plus conventions -------------------------------------------------
#
# In a carrier that only has plus, "x* y" abbreviates x+ y + y and "y x*"
# abbreviates y + y x+.  All hemiring-level identities below are stated
# through these two helpers, so they never need a unit.

def star_mul(c, x, y):
    """x* y  ==  plus(x)·y + y"""
    return c.add(c.mul(c.plus(x), y), y)


def mul_star(c, y, x):
    """y x*  ==  y + y·plus(x)"""
    return c.add(y, c.mul(y, c.plus(x)))


# --- values -----------------------------------------------------------------

class Frozen:
    """Base of the library's immutable values.  A subclass lists its fields
    in ``__slots__``, and its constructor takes one value per field, in slot
    order, and stores them; a subclass which checks its input checks it and
    then stores through ``super().__init__``.  After that a field can be
    neither assigned nor deleted.  ``copy``, ``deepcopy`` and ``pickle``
    restore a value's fields through ``__setstate__``."""

    __slots__ = ()

    def __init__(self, *values):
        names = type(self).__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} values, "
                            f"got {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        for name, value in state[1].items():   # (None, slot -> value) of a slotted object
            object.__setattr__(self, name, value)


# --- reports ----------------------------------------------------------------

class LawFailure(Frozen):
    """One failing argument tuple of a law: the law's name, the shown
    inputs and the two shown sides.  Immutable."""

    __slots__ = ("law", "inputs", "lhs", "rhs")


class LawReport:
    __slots__ = ("suite", "trials", "failures", "skipped")

    def __init__(self, suite: str, trials: int, failures: list[LawFailure] | None = None,
                 skipped: dict | None = None):
        self.suite = suite
        self.trials = trials
        self.failures = [] if failures is None else failures
        self.skipped = {} if skipped is None else skipped   # law name -> why it was not checked

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        out = {
            "suite": self.suite,
            "trials": self.trials,
            "failures": [
                {"law": f.law, "inputs": list(f.inputs), "lhs": f.lhs, "rhs": f.rhs}
                for f in self.failures
            ],
        }
        if self.skipped:
            out["skipped"] = dict(self.skipped)
        return out

    def __str__(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} failure(s)"
        by_reason = {}
        for law, why in self.skipped.items():
            by_reason.setdefault(why, []).append(law)
        skipped = "".join(f"; skipped {', '.join(laws)} ({why})" for why, laws in by_reason.items())
        return f"[{self.suite}] {self.trials} trials: {status}{skipped}"


# --- the law runner -----------------------------------------------------------
#
# A law is (name, fn, inputs): fn(*args) returns the (lhs, rhs) pair to
# compare and inputs(*args) the strings that name a failing argument tuple.

def check_laws(report, laws, draws, eq, show, max_failures=None) -> LawReport:
    """Check every law on every argument tuple of ``draws``, into ``report``.

    The one loop that fills law reports: each (law, tuple) is one trial and
    each violation one :class:`LawFailure`, whose inputs are formatted only
    then.  Drawing stops after the tuple at which ``report`` holds
    ``max_failures`` failures, counting those it held before.
    """
    for args in draws:
        for name, fn, inputs in laws:
            report.trials += 1
            lhs, rhs = fn(*args)
            if not eq(lhs, rhs):
                report.failures.append(LawFailure(name, inputs(*args), show(lhs), show(rhs)))
        if max_failures is not None and len(report.failures) >= max_failures:
            break
    return report


# A suite law is (name, kinds, fn, shows) where ``kinds`` is a string of
# argument kinds ('h' = hemiring element, 'v' = module element), fn(*args)
# returns the (lhs, rhs) pair and ``shows`` formats each argument.

def run_law_suite(suite, laws, samplers, eq, show, *, trials=DEFAULT_TRIALS,
                  seed=DEFAULT_SEED, enumerations=None, max_failures=50) -> LawReport:
    """Check each law on every tuple of its kinds' enumerations when there
    are at most ``_EXHAUSTIVE_LIMIT`` of them, else on ``trials`` sampled
    tuples (one for a law without arguments), drawn afresh for each law."""
    rng = random.Random(seed)
    report = LawReport(suite, 0)
    for name, kinds, fn, shows in laws:
        pools = [(enumerations or {}).get(k) for k in kinds]
        if None not in pools and math.prod(map(len, pools)) <= _EXHAUSTIVE_LIMIT:
            draws = itertools.product(*pools)
        else:
            draws = (tuple(samplers[k](rng) for k in kinds) for _ in range(trials))
        check_laws(report, [(name, fn, lambda *args: tuple(s(a) for s, a in zip(shows, args)))],
                   draws, eq, show, max_failures)
        if len(report.failures) >= max_failures:
            break
    return report


def _carrier_suite(suite, c, laws, sampler, trials, seed):
    sampler = sampler or c.sample
    elems = c.elements()
    enum = None if elems is None else {"h": list(elems)}
    named = [(n, k, (lambda fn=fn: lambda *a: fn(c, *a))(), tuple(c.show for _ in k)) for n, k, fn in laws]
    return run_law_suite(suite, named, {"h": sampler}, c.eq, c.show,
                         trials=trials, seed=seed, enumerations=enum)


# identities of Conway semirings: sum star, product star and their standard
# consequences, numbered in the traditional order.
CONWAY_SEMIRING_LAWS = [
    ("sum_star", "hh",
     lambda c, x, y: (c.star(c.add(x, y)), c.mul(c.star(c.mul(c.star(x), y)), c.star(x)))),
    ("product_star", "hh",
     lambda c, x, y: (c.star(c.mul(x, y)),
                      c.add(c.one, c.mul(x, c.mul(c.star(c.mul(y, x)), y))))),
    ("sum_star_dual", "hh",
     lambda c, x, y: (c.star(c.add(x, y)), c.mul(c.star(x), c.star(c.mul(y, c.star(x)))))),
    ("simplified_product_star", "hh",
     lambda c, x, y: (c.mul(c.star(c.mul(x, y)), x), c.mul(x, c.star(c.mul(y, x))))),
    ("star_fixed_point", "h",
     lambda c, x: (c.add(c.mul(x, c.star(x)), c.one), c.star(x))),
    ("dual_star_fixed_point", "h",
     lambda c, x: (c.add(c.mul(c.star(x), x), c.one), c.star(x))),
    ("unary_product_star", "h",
     lambda c, x: (c.mul(x, c.star(x)), c.mul(c.star(x), x))),
    ("zero_star", "",
     lambda c: (c.star(c.zero), c.one)),
]

# the plus-operation counterparts, valid in any Conway hemiring.
CONWAY_HEMIRING_LAWS = [
    ("sum_plus", "hh",
     lambda c, x, y: (c.plus(c.add(x, y)),
                      c.add(mul_star(c, c.plus(star_mul(c, x, y)), x), c.plus(x)))),
    ("simplified_product_plus", "hh",
     lambda c, x, y: (c.mul(c.plus(c.mul(x, y)), x), c.mul(x, c.plus(c.mul(y, x))))),
    ("plus_fixed_point", "h",
     lambda c, x: (c.add(c.mul(x, c.plus(x)), x), c.plus(x))),
    ("dual_plus_fixed_point", "h",
     lambda c, x: (c.add(c.mul(c.plus(x), x), x), c.plus(x))),
    ("unary_product_plus", "h",
     lambda c, x: (c.mul(c.plus(x), x), c.mul(x, c.plus(x)))),
    ("zero_plus", "",
     lambda c: (c.plus(c.zero), c.zero)),
]


def _p(c, x):
    # plus determined by a star operation
    return c.mul(x, c.star(x))


# consequences that hold in every Conway semiring; useful as an extra probe
# because they mix star and plus in a different shape than the axioms.
DERIVED_STAR_PLUS_LAWS = [
    ("star_of_starred_product", "hh",
     lambda c, x, y: (c.star(c.mul(c.star(x), y)),
                      c.mul(c.star(y), c.star(c.mul(_p(c, x), _p(c, y)))))),
    ("star_plus_expansion", "hh",
     lambda c, x, y: (c.mul(c.star(y), c.star(c.mul(_p(c, x), _p(c, y)))),
                      c.add(c.mul(c.mul(c.star(x), _p(c, y)),
                                  c.star(c.mul(_p(c, x), _p(c, y)))), c.one))),
    ("starred_product_expansion", "hh",
     lambda c, x, y: (c.star(c.mul(c.star(x), y)),
                      c.add(c.mul(c.mul(c.star(x), _p(c, y)),
                                  c.star(c.mul(_p(c, x), _p(c, y)))), c.one))),
]


def conway_semiring_laws(c, sampler=None, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED,
                         exhaustive=None, derived=False) -> LawReport:
    """Check the Conway semiring identities on sampled elements of ``c``,
    or on all tuples of its elements when it enumerates them.
    ``exhaustive`` has no effect; it keeps the place of ``derived`` for
    positional callers (``perfbench/algebra.py`` passes True there)."""
    laws = CONWAY_SEMIRING_LAWS + (DERIVED_STAR_PLUS_LAWS if derived else [])
    return _carrier_suite("conway-semiring", c, laws, sampler, trials, seed)


def conway_hemiring_laws(c, sampler=None, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED,
                         exhaustive=None) -> LawReport:
    """Check the plus-operation identities on sampled elements of ``c``, or
    on all tuples of its elements when it enumerates them.  ``exhaustive``
    has no effect; ``perfbench/algebra.py`` passes True in its place."""
    return _carrier_suite("conway-hemiring", c, CONWAY_HEMIRING_LAWS, sampler, trials, seed)


# --- derived carriers --------------------------------------------------------

class _Derived:
    """Carrier view that replaces or adds a few operations of a base carrier."""

    def __init__(self, base, **ops):
        self._base = base
        self.name = ops.pop("name", base.name)
        self._ops = ops

    def __getattr__(self, item):
        if item in self._ops:
            return self._ops[item]
        return getattr(self._base, item)


def star_from_plus(c):
    """Total star from a total plus: star(s) = one + plus(s).

    Requires a multiplicative unit; rejects unit-less carriers.
    """
    if not has_plus(c):
        raise TypeError(f"{c.name}: no plus operation to derive star from")
    if not has_one(c):
        raise TypeError(f"{c.name}: star needs a multiplicative unit")
    return _Derived(c, star=lambda s: c.add(c.one, c.plus(s)), name=c.name + "+star")


def plus_from_star(c):
    """Total plus from a total star: plus(s) = s · star(s)."""
    if not has_star(c):
        raise TypeError(f"{c.name}: no star operation to derive plus from")
    return _Derived(c, plus=lambda s: c.mul(s, c.star(s)), name=c.name + "+plus")


# --- hemimodule pairs ---------------------------------------------------------

class HemimodulePair:
    """A hemiring acting on a commutative monoid, with an omega operation.

    ``act(h, v)`` is the left action H × V → V and ``omega(h)`` the map
    H → V.  The identities checked by :func:`hemimodule_pair_laws` are the
    sum/product omega identities, the omega fixed point, the two starred
    omega shapes, and the action laws.
    """

    __slots__ = ("hemiring", "module", "act", "omega", "name")

    def __init__(self, hemiring, module, act, omega, name: str = "pair"):
        self.hemiring = hemiring
        self.module = module
        self.act = act
        self.omega = omega
        self.name = name

    def star_act(self, x, v):
        """x* v == plus(x)·v + v, the star-convention action."""
        return self.module.add(self.act(self.hemiring.plus(x), v), v)


def self_pair(c, name=None) -> HemimodulePair:
    """The pair (H, H) with the action given by multiplication.

    Needs ``omega`` on the carrier itself (the infinite-product omega of a
    complete carrier).
    """
    if not has_omega(c):
        raise TypeError(f"{c.name}: carrier has no omega operation")
    return HemimodulePair(c, c, c.mul, c.omega, name=name or c.name + "-self")


def hemimodule_pair_laws(pair: HemimodulePair, h_sampler=None, v_sampler=None,
                         trials=200, seed=DEFAULT_SEED) -> LawReport:
    """Omega and action identities of a hemiring-hemimodule pair, sampled,
    or on all tuples of elements when both sides enumerate theirs."""
    H, V = pair.hemiring, pair.module
    h_sampler = h_sampler or H.sample
    v_sampler = v_sampler or V.sample

    def sum_omega(x, y):
        t = star_mul(H, x, y)
        return pair.omega(H.add(x, y)), V.add(pair.star_act(t, pair.omega(x)), pair.omega(t))

    def product_omega(x, y):
        return pair.omega(H.mul(x, y)), pair.act(x, pair.omega(H.mul(y, x)))

    def omega_fixed_point(x):
        return pair.act(x, pair.omega(x)), pair.omega(x)

    def star_omega(x, y):
        return pair.omega(star_mul(H, x, y)), pair.star_act(x, pair.omega(mul_star(H, y, x)))

    def dual_star_omega(x, y):
        return pair.omega(mul_star(H, y, x)), pair.act(y, pair.omega(star_mul(H, x, y)))

    laws = [
        ("sum_omega", "hh", sum_omega, (H.show, H.show)),
        ("product_omega", "hh", product_omega, (H.show, H.show)),
        ("omega_fixed_point", "h", omega_fixed_point, (H.show,)),
        ("star_omega", "hh", star_omega, (H.show, H.show)),
        ("dual_star_omega", "hh", dual_star_omega, (H.show, H.show)),
        ("zero_omega", "", lambda: (pair.omega(H.zero), V.zero), ()),
        ("act_add_left", "hhv",
         lambda x, y, v: (pair.act(H.add(x, y), v), V.add(pair.act(x, v), pair.act(y, v))),
         (H.show, H.show, V.show)),
        ("act_add_right", "hvv",
         lambda x, v, w: (pair.act(x, V.add(v, w)), V.add(pair.act(x, v), pair.act(x, w))),
         (H.show, V.show, V.show)),
        ("act_mul", "hhv",
         lambda x, y, v: (pair.act(H.mul(x, y), v), pair.act(x, pair.act(y, v))),
         (H.show, H.show, V.show)),
        ("act_zero_left", "v", lambda v: (pair.act(H.zero, v), V.zero), (V.show,)),
        ("act_zero_right", "h", lambda x: (pair.act(x, V.zero), V.zero), (H.show,)),
    ]
    he, ve = H.elements(), V.elements()
    enum = None if he is None or ve is None else {"h": list(he), "v": list(ve)}
    # every law above compares V-valued sides, so V's equality decides
    return run_law_suite(f"hemimodule:{pair.name}", laws,
                         {"h": h_sampler, "v": v_sampler}, V.eq, V.show,
                         trials=trials, seed=seed, enumerations=enum)


# --- fixed point / uniqueness -------------------------------------------------

def iterative_fixed_point_check(c, a, b, bound_length=None) -> LawReport:
    """Check that plus(a)·b + b solves x = a·x + b, and uniqueness for series.

    For carriers whose elements expose coefficient queries (series carriers),
    also verifies that the coefficient recurrence x(w) = b(w) + sum over
    nonempty-prefix splits of a(u)·x(v) pins the same series up to
    ``bound_length`` — the induction that makes the solution unique.
    """
    report = LawReport("iterative-fixed-point", 0)
    sol = c.add(c.mul(c.plus(a), b), b)
    check_laws(report, [("solves_fixed_point", lambda: (c.add(c.mul(a, sol), b), sol),
                         lambda: (c.show(a), c.show(b)))], [()], c.eq, c.show)
    alphabet = getattr(c, "alphabet", None)
    weights = getattr(c, "weights", None)
    if alphabet is None or weights is None or bound_length is None:
        return report
    # Coefficient induction: x(w) = b(w) + sum over splits w = uv with u
    # nonempty and v shorter than w of a(u)·x(v).  Since a and b are proper,
    # x(empty) = 0 and the v = empty split contributes nothing, so the
    # recurrence determines x uniquely.
    memo = {}

    def xcoeff(w):
        if w in memo:
            return memo[w]
        if not w:
            memo[w] = b.coeff(w)
            return memo[w]
        total = b.coeff(w)
        for i in range(1, len(w)):
            total = weights.add(total, weights.prod(i, len(w) - i, a.coeff(w[:i]), xcoeff(w[i:])))
        memo[w] = total
        return total

    return check_laws(report, [("unique_solution", lambda w: (xcoeff(w), sol.coeff(w)),
                                lambda w: (c.show(a), c.show(b), w or "<empty>"))],
                      ((w,) for w in words_up_to(alphabet, bound_length)),
                      weights.eq, weights.show)


def words_up_to(alphabet, max_len):
    """All words over ``alphabet`` of length 0..max_len, shortlex order."""
    yield ""
    frontier = [""]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for ch in alphabet:
                nxt.append(w + ch)
        yield from nxt
        frontier = nxt
