"""Concrete carriers: booleans, naturals, min-plus, extended reals, lattices.

Equality is carrier-supplied: exact for the discrete carriers.  The
real-valued one has the one rule for whether two real weights agree:
|x - y| <= REAL_TOL * max(1, |x|, |y|), absolute below magnitude 1 and
relative above it, with the infinities and nan compared exactly.  Samplers
are seeded by the caller and draw from a small, law-revealing slice of each
domain.
"""

from __future__ import annotations

import math
import random
import sys

from .core import CommutativeMonoid, Semiring

REAL_TOL = 1e-9     # ExtRealCarrier.eq: absolute below magnitude 1, relative above
MINPLUS_CAP = 2**31 - 1

INF = math.inf
NEG_INF = -math.inf


class BooleanCarrier(Semiring):
    """Two-element carrier: add = or, mul = and, star constantly one."""

    name = "bool"
    zero = False
    one = True

    def add(self, a, b):
        return a or b

    def mul(self, a, b):
        return a and b

    def star(self, a):
        return True

    def plus(self, a):
        return a

    def omega(self, a):
        # infinite product of a copy of ``a``: truth survives iff a is true
        return a

    def show(self, a):
        return "1" if a else "0"

    def read(self, text):
        t = text.strip().lower()
        if t in ("1", "true"):
            return True
        if t in ("0", "false"):
            return False
        raise ValueError(f"not a boolean weight: {text!r}")

    def sample(self, rng):
        return rng.random() < 0.5

    def elements(self):
        return [False, True]


def _decimal(n: int) -> str:
    """The decimal digits of a natural number of any size.  ``str`` refuses
    more than ``sys.get_int_max_str_digits()`` digits (4,300 by default), so
    a longer number is printed in two halves of digits, each below the limit."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit or n.bit_length() < 3 * limit:       # 8 ** limit < 10 ** limit
        return str(n)
    low = n.bit_length() * 3 // 20                    # about half the digits
    high, rest = divmod(n, 10 ** low)
    return _decimal(high) + _decimal(rest).zfill(low)


class NatCarrier(Semiring):
    """Natural numbers with ordinary + and ×; no star or plus."""

    name = "nat"
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def show(self, a):
        return _decimal(a)

    def read(self, text):
        n = int(text)
        if n < 0:
            raise ValueError("natural weights are nonnegative")
        return n

    def sample(self, rng):
        return rng.randrange(0, 6)


class MinPlusCarrier(Semiring):
    """Tropical carrier on the naturals with infinity: add = min, mul = +.

    Finite values saturate at ``cap`` instead of overflowing; the cap is
    treated as an ordinary finite value so the laws stay intact.
    """

    name = "minplus"
    zero = INF
    one = 0

    def __init__(self, cap=MINPLUS_CAP):
        self.cap = cap

    def add(self, a, b):
        return a if a <= b else b

    def mul(self, a, b):
        s = a + b
        if s < self.cap:
            return s
        return INF if s == INF else self.cap

    def star(self, a):
        return 0

    def plus(self, a):
        return a

    def omega(self, a):
        if a == 0:
            return 0
        return INF

    def show(self, a):
        return "inf" if a == INF else str(a)

    def read(self, text):
        t = text.strip()
        if t in ("inf", "Inf", "INF"):
            return INF
        n = int(t)
        if n < 0:
            raise ValueError("min-plus weights are nonnegative")
        if n > self.cap:
            raise ValueError(f"min-plus weights are at most the cap {self.cap}")
        return n

    def sample(self, rng):
        if rng.random() < 0.15:
            return INF
        return rng.randrange(0, 10)


class ExtRealCarrier(CommutativeMonoid):
    """Nonnegative reals plus both infinities, under sup, with -inf as zero.

    This is the weight monoid the valuation structures build on; -inf is the
    designated zero (sup of the empty family).
    """

    name = "extreal"
    zero = NEG_INF

    def add(self, a, b):
        return max(a, b)

    def eq(self, a, b):
        # exact at the infinities: inf - inf is nan, and d < INF keeps every
        # finite value apart from them; tested before max, it also keeps the
        # comparisons with the zero -inf that every indexed product makes cheap
        return a == b or (d := abs(a - b)) < INF and d <= REAL_TOL * max(1.0, abs(a), abs(b))

    def show(self, a):
        if a == INF:
            return "inf"
        if a == NEG_INF:
            return "-inf"
        if a == int(a):
            return str(int(a))
        return repr(a)

    def read(self, text):
        t = text.strip()
        if t == "inf":
            return INF
        if t == "-inf":
            return NEG_INF
        v = float(t)
        if not v >= 0:  # negative or NaN
            raise ValueError("weights live in the nonnegative reals plus infinities")
        return v

    def sample(self, rng):
        r = rng.random()
        if r < 0.10:
            return NEG_INF
        if r < 0.14:
            return INF
        return rng.randrange(0, 25) / 4.0


class LatticeCarrier(Semiring):
    """Finite distributive lattice of subsets: join = union, meet = intersection."""

    name = "lattice"

    def __init__(self, base=3):
        if not 1 <= base <= 5:
            raise ValueError("lattice base size must be between 1 and 5")
        self.letters = "abcde"[:base]
        self.zero = frozenset()
        self.one = frozenset(self.letters)
        self._all = [frozenset(s) for s in _subsets(self.letters)]

    def add(self, a, b):
        return a | b

    def mul(self, a, b):
        return a & b

    def star(self, a):
        return self.one

    def plus(self, a):
        return a

    def omega(self, a):
        # infinite meet of a constant family
        return a

    def show(self, a):
        return "{" + ",".join(sorted(a)) + "}"

    def read(self, text):
        t = text.strip()
        if not (t.startswith("{") and t.endswith("}")):
            raise ValueError(f"not a lattice element: {text!r}")
        body = t[1:-1].strip()
        members = [x.strip() for x in body.split(",")] if body else []
        for m in members:
            if m not in self.letters:
                raise ValueError(f"unknown lattice atom {m!r}")
        return frozenset(members)

    def sample(self, rng):
        return frozenset(ch for ch in self.letters if rng.random() < 0.5)

    def elements(self):
        return list(self._all)


def _subsets(letters):
    out = [()]
    for ch in letters:
        out += [s + (ch,) for s in out]
    return out


def make_instance(name: str, **params):
    """The carrier registered as ``name`` in :data:`omegalg.valuation.INSTANCES`:
    bool, nat, minplus (param ``cap``), extreal, lattice (param ``base``) or
    lang (param ``bound``).
    """
    from .valuation import lookup
    return lookup(name).make("carrier", **params)
