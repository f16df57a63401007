"""Weight structures for averaging and discounting.

A multi-hemiring is a commutative monoid with a family of length-indexed
products ``prod(m, n, a, b)``; an omega-valuation multi-hemiring adds mixed
products ``prod_omega(m, a, b)`` and an infinitary valuation over
length-weighted sequences.  Infinite inputs are restricted to eventually
periodic (length, value) sequences, where every registered instance has an
exact closed form, plus the two explicit counterexample families.

The five extended-real weight structures (sup, limsup, liminf, discounted
sum, limsup-average) and the lattice infimum structure are registered in
:data:`INSTANCES`, the one table that resolves every instance name to the
roles it provides (carrier, weights, hemimodule pair); :func:`from_carrier`
turns any carrier into a weight structure.
"""

from __future__ import annotations

import itertools
import math
import random

from .core import DEFAULT_SEED, Frozen, LawReport, check_laws, has_omega, self_pair
from .instances import (INF, NEG_INF, BooleanCarrier, ExtRealCarrier, LatticeCarrier,
                        MinPlusCarrier, NatCarrier)


class WeightedSeq(Frozen):
    """Eventually periodic sequence of (length, value) pairs.  Immutable."""

    __slots__ = ("prefix", "block")

    def __init__(self, prefix: tuple, block: tuple):
        if not block:
            raise ValueError("repeated block must be nonempty")
        for n, _ in prefix + block:
            if n < 1:
                raise ValueError("lengths must be positive")
        super().__init__(prefix, block)

    def take(self, count: int) -> tuple:
        out = list(self.prefix)
        i = 0
        while len(out) < count:
            out.append(self.block[i % len(self.block)])
            i += 1
        return tuple(out[:count])

    def head_tail(self):
        if self.prefix:
            return self.prefix[0], WeightedSeq(self.prefix[1:], self.block)
        return self.block[0], WeightedSeq((), self.block[1:] + self.block[:1])

    def regroup(self, size: int, inst: "OmegaValuation") -> "WeightedSeq":
        """Group ``size`` consecutive pairs at a time, combining each group
        with the length-indexed products (the regrouping of infinitary
        associativity)."""
        if size < 1:
            raise ValueError("group size must be positive")
        p, k = len(self.prefix), len(self.block)
        consumed = ((p + size - 1) // size) * size
        period_pairs = size * k // math.gcd(size, k)
        pairs = self.take(consumed + period_pairs)

        def combine(group):
            total = sum(n for n, _ in group)
            return (total, inst.val_weighted(group))

        new_prefix = tuple(combine(pairs[i:i + size]) for i in range(0, consumed, size))
        new_block = tuple(combine(pairs[i:i + size])
                          for i in range(consumed, consumed + period_pairs, size))
        return WeightedSeq(new_prefix, new_block)

    def __str__(self):
        def fmt(pairs):
            return "".join(f"({n},{d})" for n, d in pairs)
        return f"{fmt(self.prefix)}[{fmt(self.block)}]^w"


class ValOmega(Frozen):
    """The valuation of an infinite sequence.  Immutable."""

    __slots__ = ("value",)


class OmegaValuation:
    """An omega-valuation multi-hemiring; doubles as a series weight domain."""

    def __init__(self, name, monoid, prod, prod_omega, valw_periodic, unit,
                 strategy=None, scalar_of=None, params=None):
        self.name = name
        self.monoid = monoid
        self._prod = prod
        self._prod_omega = prod_omega
        self._valw_periodic = valw_periodic
        self.unit = unit
        self.strategy = strategy
        self._scalar_of = scalar_of
        self.params = params or {}
        # weight-protocol delegation
        self.add = monoid.add
        self.zero = monoid.zero
        self.eq = monoid.eq
        self.show = monoid.show
        self.sample = monoid.sample
        self.read = monoid.read

    def is_zero(self, v) -> bool:
        return self.eq(v, self.zero)

    def nat_act(self, n, a):
        return self.monoid.nat_act(n, a)

    def sum(self, values):
        return self.monoid.sum(values)

    def prod(self, m, n, a, b):
        eq, zero = self.eq, self.zero
        if eq(a, zero) or eq(b, zero):
            return zero
        return self._prod(m, n, a, b)

    def prod_omega(self, m, a, b):
        eq, zero = self.eq, self.zero
        if eq(a, zero) or eq(b, zero):
            return zero
        return self._prod_omega(m, a, b)

    def val(self, values) -> object:
        """Induced valuation of a nonempty value sequence (all lengths 1)."""
        values = list(values)
        if not values:
            raise ValueError("valuation of an empty sequence")
        acc = values[-1]
        length = 1
        for d in reversed(values[:-1]):
            acc = self.prod(1, length, d, acc)
            length += 1
        return acc

    def val_weighted(self, pairs) -> object:
        """Left fold of (length, value) pairs with cumulative indices."""
        pairs = list(pairs)
        if not pairs:
            raise ValueError("valuation of an empty sequence")
        m, acc = pairs[0]
        for n, d in pairs[1:]:
            acc = self.prod(m, n, acc, d)
            m += n
        return acc

    def val_omega(self, seq: WeightedSeq) -> ValOmega:
        """Infinitary valuation of an eventually periodic sequence, by the
        instance's exact closed form."""
        if any(self.is_zero(d) for _, d in seq.prefix + seq.block):
            return ValOmega(self.zero)
        if self._valw_periodic is None:
            raise ValueError(f"{self.name}: no exact infinitary valuation")
        return ValOmega(self._valw_periodic(seq.prefix, seq.block))

    def scalar_of(self, v):
        """The natural-number scalar denoting ``v``, if any (for elimination)."""
        if self._scalar_of is None:
            return None
        return self._scalar_of(v)


# --- the registered instances -----------------------------------------------------

def _disc_periodic(lam):
    def valw(prefix, block):
        if any(d == INF for _, d in prefix + block):
            return INF
        total, pos = 0.0, 0
        for m, d in prefix:
            total += lam ** pos * d
            pos += m
        bsum, off = 0.0, 0
        blen = sum(m for m, _ in block)
        for m, d in block:
            bsum += lam ** off * d
            off += m
        return total + lam ** pos * bsum / (1.0 - lam ** blen)
    return valw


def _avg_periodic(prefix, block):
    num = sum(m * d for m, d in block)
    den = sum(m for m, _ in block)
    return num / den


def from_carrier(carrier, strategy=None, name=None) -> OmegaValuation:
    """The multi-hemiring of a hemiring: every indexed product is the product.

    When the carrier has an omega (complete carriers), the infinitary
    valuation of an eventually periodic sequence is the prefix product times
    the omega of the block product.
    """
    valw = None
    if has_omega(carrier):
        def valw(prefix, block):
            bprod = None
            for _, d in block:
                bprod = d if bprod is None else carrier.mul(bprod, d)
            tail = carrier.omega(bprod)
            for _, d in reversed(prefix):
                tail = carrier.mul(d, tail)
            return tail

    def scalar_of(v):
        if carrier.eq(v, carrier.zero):
            return 0
        if carrier.eq(v, carrier.one):
            return 1
        return v if isinstance(v, int) else None

    return OmegaValuation(
        name or carrier.name, carrier,
        prod=lambda m, n, a, b: carrier.mul(a, b),
        prod_omega=lambda m, a, b: carrier.mul(a, b),
        valw_periodic=valw,
        unit=carrier.one,
        strategy=strategy if strategy is not None else _CARRIER_STRATEGIES.get(carrier.name),
        scalar_of=scalar_of)


_CARRIER_STRATEGIES = {"bool": "boolean", "lattice": "lattice"}


def _int_scalar(v):
    if v == NEG_INF:
        return 0
    return int(v) if v != INF and v == int(v) and v >= 0 else None


def _extreal(name, prod, prod_omega, valw_periodic, strategy, params=None):
    return OmegaValuation(name, ExtRealCarrier(), prod, prod_omega, valw_periodic, unit=1.0,
                          strategy=strategy, scalar_of=_int_scalar, params=params)


def _sup():
    return _extreal("sup", lambda m, n, a, b: max(a, b), lambda m, a, b: max(a, b),
                    lambda prefix, block: max(d for _, d in prefix + block), "sup")


def _lim(name, pick, strategy):
    """limsup (``pick`` = max) or liminf (``pick`` = min) of the values."""
    return _extreal(name, lambda m, n, a, b: max(a, b), lambda m, a, b: b,
                    lambda prefix, block: pick(d for _, d in block), strategy)


def _disc(lam):
    if not 0.0 < lam < 1.0:
        raise ValueError(f"disc needs 0 < lam < 1, not {lam}")
    return _extreal("disc", lambda m, n, a, b: a + lam ** m * b,
                    lambda m, a, b: a + lam ** m * b,
                    _disc_periodic(lam), "discounted", {"lam": lam})


def _limsup_avg():
    return _extreal("limsup-avg", lambda m, n, a, b: (m * a + n * b) / (m + n),
                    lambda m, a, b: b, _avg_periodic, "cycle_mean")


def _lattice_inf(base, carrier=None):
    return from_carrier(carrier or LatticeCarrier(base), strategy="lattice", name="lattice-inf")


def _lang_carrier(bound):
    from .series import language_instance
    return language_instance(bound=bound)


def _lang_pair(bound):
    from .omegalang import language_pair
    return language_pair(bound=bound)


# --- the instance registry -------------------------------------------------------------

class Instance(Frozen):
    """One registered instance name.

    ``roles`` maps each role the name provides to the factory that builds it:
    ``carrier`` (a Conway (hemi)semiring, for the Conway suites and the group
    identities), ``weights`` (an :class:`OmegaValuation`, for series and
    automata) and ``pair`` (a hemimodule pair carrying omega; for limsup-avg,
    whose product omega identity fails only on a word no sampler draws, the
    report of the explicit witness).  ``params`` are the keyword parameters
    every factory of the entry takes, with their defaults; ``caps`` bound the
    trials per law suite.  Immutable.
    """

    __slots__ = ("name", "roles", "params", "caps")

    def __init__(self, name: str, roles: dict, params: dict | None = None,
                 caps: dict | None = None):
        super().__init__(name, roles, {} if params is None else params,
                         {} if caps is None else caps)

    def bind(self, options) -> dict:
        """The entry's params, each replaced by ``options``' value if it has one."""
        return {k: options.get(k, v) for k, v in self.params.items()}

    def make(self, role, **params):
        if role not in self.roles:
            raise ValueError(f"instance {self.name!r} has no {role}")
        return self.roles[role](**{**self.params, **params})

    def trials(self, suite, trials):
        return min(trials, self.caps.get(suite, trials))


def _carrier_entry(cls):
    """A carrier, its weight structure and, if it has omega, its self pair."""
    roles = {"carrier": cls, "weights": lambda **p: from_carrier(cls(**p))}
    if has_omega(cls):
        roles["pair"] = lambda **p: self_pair(cls(**p))
    return Instance(cls.name, roles)


INSTANCES = {entry.name: entry for entry in (
    *map(_carrier_entry, (BooleanCarrier, NatCarrier, MinPlusCarrier, LatticeCarrier)),
    Instance("extreal", {"carrier": ExtRealCarrier}),
    Instance("sup", {"weights": _sup}),
    Instance("limsup", {"weights": lambda: _lim("limsup", max, "limsup")}),
    Instance("liminf", {"weights": lambda: _lim("liminf", min, None)}),
    Instance("disc", {"weights": _disc}, {"lam": 0.5}),
    Instance("limsup-avg", {"weights": _limsup_avg,
                            "pair": lambda: product_omega_witness_report()}),
    Instance("lattice-inf", {"weights": _lattice_inf}, {"base": 3}),
    Instance("lang", {"carrier": _lang_carrier, "pair": _lang_pair}, {"bound": 8},
             {"hemimodule": 60, "conway-hemiring": 120, "group-check": 5}),
)}


def lookup(name: str) -> Instance:
    """The registry entry of ``name``."""
    try:
        return INSTANCES[name]
    except KeyError:
        raise ValueError(f"unknown instance {name!r}") from None


def make_valuation_instance(name: str, **params) -> OmegaValuation:
    """The weight structure registered as ``name``: sup, limsup, liminf, disc
    (param ``lam`` in (0,1)), limsup-avg, lattice-inf (param ``base``, or a
    ``carrier``), or any carrier's (bool, nat, minplus, lattice)."""
    return lookup(name).make("weights", **params)


# --- law suites ----------------------------------------------------------------------

def _sample_seq(inst, rng, max_pairs=3) -> WeightedSeq:
    def pair():
        return (rng.randrange(1, 4), inst.monoid.sample(rng))
    prefix = tuple(pair() for _ in range(rng.randrange(0, max_pairs)))
    block = tuple(pair() for _ in range(rng.randrange(1, max_pairs + 1)))
    return WeightedSeq(prefix, block)


def _laws(inst, params, laws):
    """:func:`~omegalg.core.check_laws` laws over tuples drawn in the order
    of the one-letter names in ``params`` (k, m, n are lengths, the others
    values); each law lists, as a string of names, the arguments its
    failures show."""
    def inputs(shown):
        at = [params.index(ch) for ch in shown]
        return lambda *d: tuple(str(d[i]) if params[i] in "kmn" else inst.show(d[i]) for i in at)
    return [(name, fn, inputs(shown)) for name, fn, shown in laws]


def multi_hemiring_laws(inst: OmegaValuation, trials=400, seed=DEFAULT_SEED) -> LawReport:
    """Zero annihilation, indexed associativity and distributivity of the products."""
    rng = random.Random(seed)
    P, add, zero = inst.prod, inst.add, inst.zero
    laws = _laws(inst, "abckmn", [
        ("zero_annihilation", lambda a, b, c, k, m, n: (P(m, n, zero, a), zero), "mna"),
        ("zero_annihilation_right", lambda a, b, c, k, m, n: (P(m, n, a, zero), zero), "mna"),
        ("indexed_associativity", lambda a, b, c, k, m, n:
            (P(k + m, n, P(k, m, a, b), c), P(k, m + n, a, P(m, n, b, c))), "kmnabc"),
        ("left_distributivity", lambda a, b, c, k, m, n:
            (P(m, n, a, add(b, c)), add(P(m, n, a, b), P(m, n, a, c))), "mnabc"),
        ("right_distributivity", lambda a, b, c, k, m, n:
            (P(m, n, add(a, b), c), add(P(m, n, a, c), P(m, n, b, c))), "mnabc"),
    ])
    draws = (tuple(inst.monoid.sample(rng) for _ in range(3))
             + tuple(rng.randrange(1, 5) for _ in range(3)) for _ in range(trials))
    return check_laws(LawReport(f"multi-hemiring:{inst.name}", 0), laws, draws,
                      inst.eq, inst.show, max_failures=20)


def omega_valuation_laws(inst: OmegaValuation, trials=200, seed=DEFAULT_SEED) -> LawReport:
    """The finite laws plus the mixed-product and infinitary identities.

    The infinitary checks run on eventually periodic sequences through the
    exact closed forms: peel/cons consistency, finite-choice distributivity,
    and invariance under regrouping (the law that liminf and limsup-average
    are expected to break; the canonical alternating witness is always
    included).  An instance without an exact infinitary valuation is checked
    on the finite laws only, and the report names the others as skipped."""
    report = multi_hemiring_laws(inst, trials=trials, seed=seed)
    report.suite = f"omega-valuation:{inst.name}"
    rng = random.Random(seed + 1)
    P, PW, add, zero = inst.prod, inst.prod_omega, inst.add, inst.zero
    mixed = _laws(inst, "abcmn", [
        ("omega_zero_annihilation", lambda a, b, c, m, n: (PW(m, zero, a), zero), "ma"),
        ("omega_zero_annihilation_right", lambda a, b, c, m, n: (PW(m, a, zero), zero), "ma"),
        ("mixed_associativity", lambda a, b, c, m, n:
            (PW(m, a, PW(n, b, c)), PW(m + n, P(m, n, a, b), c)), "mnabc"),
        ("omega_left_distributivity", lambda a, b, c, m, n:
            (PW(m, a, add(b, c)), add(PW(m, a, b), PW(m, a, c))), "mabc"),
        ("omega_right_distributivity", lambda a, b, c, m, n:
            (PW(m, add(a, b), c), add(PW(m, a, c), PW(m, b, c))), "mabc"),
    ])
    draws = (tuple(inst.monoid.sample(rng) for _ in range(3))
             + (rng.randrange(1, 5), rng.randrange(1, 5)) for _ in range(trials))
    check_laws(report, mixed, draws, inst.eq, inst.show, max_failures=20)
    if len(report.failures) >= 20:
        return report

    if inst._valw_periodic is None:
        report.skipped = dict.fromkeys(
            ("valuation_peel", "infinitary_distributivity", "regrouping_invariance"),
            f"{inst.name}: no exact infinitary valuation")
        return report

    def val(seq):
        return inst.val_omega(seq).value

    def peel(seq):
        # val^omega(seq) = d1 ·_{n1,omega} val^omega(tail)
        (n1, d1), tail = seq.head_tail()
        return val(seq), PW(n1, d1, val(tail))

    def choices():
        m = rng.randrange(1, 3)
        choice_sets = [tuple(inst.monoid.sample(rng)
                             for _ in range(rng.randrange(1, 4))) for _ in range(m)]
        lens = [rng.randrange(1, 4) for _ in range(m)]
        block = tuple((rng.randrange(1, 4), inst.monoid.sample(rng))
                      for _ in range(rng.randrange(1, 3)))
        return tuple(zip(lens, map(inst.sum, choice_sets))), block, lens, choice_sets

    def distributivity(summed, block, lens, choice_sets):
        return val(WeightedSeq(summed, block)), inst.sum(
            val(WeightedSeq(tuple(zip(lens, combo)), block))
            for combo in itertools.product(*choice_sets))

    check_laws(report, [("valuation_peel", peel, lambda seq: (str(seq),))],
               ((_sample_seq(inst, rng),) for _ in range(trials // 2)), inst.eq, inst.show)
    check_laws(report, [("infinitary_distributivity", distributivity,
                         lambda summed, block, *_: (str(summed), str(block)))],
               (choices() for _ in range(trials // 4)), inst.eq, inst.show)
    # regrouping invariance, always including the alternating 0/1 witness
    witnesses = [(WeightedSeq((), ((1, 0.0), (1, 1.0))), 2)] if inst.monoid.name == "extreal" else []
    witnesses += [(_sample_seq(inst, rng), rng.randrange(2, 4)) for _ in range(trials // 4)]
    regrouping = ("regrouping_invariance",
                  lambda seq, size: (val(seq), val(seq.regroup(size, inst))),
                  lambda seq, size: (str(seq), f"groups of {size}"))
    return check_laws(report, [regrouping], witnesses, inst.eq, inst.show)


# --- the two counterexample harnesses --------------------------------------------------

class RegroupAvgTrace(Frozen):
    """Doubling 0/1 blocks: direct limsup-average 2/3, regrouped 1/3.  The
    regrouped estimate is None below 3 blocks, which have no group ends.
    Immutable."""

    __slots__ = ("block_end_averages", "group_end_averages", "direct_estimate",
                 "regrouped_estimate")

    def to_json(self):
        return {
            "direct": [float(x) for x in self.block_end_averages],
            "regrouped": [float(x) for x in self.group_end_averages],
            "direct_estimate": self.direct_estimate,
            "regrouped_estimate": self.regrouped_estimate,
        }


MAX_REGROUP_BLOCKS = 4096
MAX_PRODUCT_OMEGA_DEPTH = 128


def counterexample_regroup_avg(blocks: int = 24) -> RegroupAvgTrace:
    """Alternating 0/1 value blocks with doubling lengths.

    The running average at the end of every 1-block is exactly 2/3, so the
    limsup-average is 2/3; grouping each 1-block with the following 0-block
    produces constant value 1/3, so the regrouped valuation is 1/3.  The
    exact averages have 2^blocks-sized terms, so ``blocks`` is capped.
    """
    from fractions import Fraction
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    if blocks > MAX_REGROUP_BLOCKS:
        raise ValueError(f"blocks must be at most {MAX_REGROUP_BLOCKS}")
    ones = 0
    total = 0
    block_ends = []
    for j in range(1, blocks + 1):
        length = 2 ** (j - 1)
        value = (j + 1) % 2  # blocks alternate 0, 1, 0, 1, ...
        ones += length * value
        total += length
        block_ends.append(Fraction(ones, total))
    group_ends = []
    g_ones, g_total = 0, 1  # the leading (1, 0) group
    j = 2
    while j + 1 <= blocks:
        length = 2 ** (j - 1) + 2 ** j
        g_ones += 2 ** (j - 1)
        g_total += length
        group_ends.append(Fraction(g_ones, g_total))
        j += 2
    direct = max(block_ends[len(block_ends) // 2:])
    regrouped = float(max(group_ends[len(group_ends) // 2:])) if group_ends else None
    return RegroupAvgTrace(block_ends, group_ends, float(direct), regrouped)


class ProductOmegaTrace(Frozen):
    """Witness that the product omega identity fails for limsup-average.
    Immutable."""

    __slots__ = ("lengths", "lhs_estimates", "rhs_estimates", "rhs_closed_form")

    def to_json(self):
        return {
            "lengths_log4": [(n.bit_length() - 1) // 2 for n in self.lengths],
            "lhs": [float(x) for x in self.lhs_estimates],
            "rhs": [float(x) for x in self.rhs_estimates],
            "rhs_closed_form": [float(x) for x in self.rhs_closed_form],
        }


def counterexample_product_omega(depth: int = 8) -> ProductOmegaTrace:
    """The two sides of (r·s)^omega vs r·(s·r)^omega on the block word.

    r is 1 exactly on a-blocks, s is 0 exactly on b-blocks, and the word
    interleaves them with quickly ascending block lengths (sum of the first
    k lengths is negligible against the next one).  Both sides are evaluated
    from their factorization families: the left side averages the pairs
    (2 n_i, 1/2) and stays exactly 1/2; the right side front-loads an extra
    a-block and climbs toward 1.  The lengths have 4^(depth^2)-sized terms,
    so ``depth`` is capped.
    """
    from fractions import Fraction
    if depth < 4:
        raise ValueError("depth must be at least 4")
    if depth > MAX_PRODUCT_OMEGA_DEPTH:
        raise ValueError(f"depth must be at most {MAX_PRODUCT_OMEGA_DEPTH}")
    lengths = [4 ** (i * i) for i in range(1, depth + 2)]
    lhs = []
    num = den = 0
    for n in lengths[:depth]:
        num += 2 * n * Fraction(1, 2)
        den += 2 * n
        lhs.append(Fraction(num, den))
    rhs = []
    closed = []
    num = Fraction(lengths[0], 1)  # the leading (n_1, 1) factor
    den = lengths[0]
    for k in range(1, depth + 1):
        n_k, n_next = lengths[k - 1], lengths[k]
        pair_len = n_k + n_next
        pair_val = Fraction(n_next, pair_len)  # avg of 0 on b^{n_k} and 1 on a^{n_next}
        num += pair_len * pair_val
        den += pair_len
        rhs.append(Fraction(num, den))
        partial = sum(lengths[:k])
        closed.append(Fraction(partial + lengths[k], 2 * partial + lengths[k]))
    return ProductOmegaTrace(lengths[:depth], lhs, rhs, closed)


def product_omega_witness_report() -> LawReport:
    """The series-pair product omega identity on its explicit witness.

    One law on one argument tuple, the depth-8 trace, run by
    :func:`~omegalg.core.check_laws`: its sides are the last estimates of
    (r·s)^w and r·(s·r)^w on the block word, each shown with its name, and
    the ``limsup-avg`` weights' ``eq`` compares them.  So the counterexample
    is one trial, reported like any other violated identity.
    """
    eq = make_valuation_instance("limsup-avg").eq
    law = ("product_omega",
           lambda t: ((float(t.lhs_estimates[-1]), "((r·s)^w, w)"),
                      (float(t.rhs_estimates[-1]), "(r·(s·r)^w, w), climbing to 1")),
           lambda t: ("r = 1 on a-blocks, s = 0 on b-blocks, w = interleaved blocks",))
    return check_laws(LawReport("hemimodule:limsup-avg-series", 0), [law],
                      [(counterexample_product_omega(depth=8),)],
                      lambda x, y: eq(x[0], y[0]), lambda x: f"{x[0]} {x[1]}")


# --- series over a valuation instance ----------------------------------------------------

def series_carrier(inst: OmegaValuation, alphabet=("a", "b"), bound=8):
    """Proper series with coefficients in ``inst`` and length-indexed Cauchy products."""
    from .series import SeriesCarrier
    return SeriesCarrier(inst, alphabet, bound, name=f"{inst.name}-series")

