"""Formal sums x ⊕ a: extending a hemiring by a semiring acting on it.

An :class:`ExtensionAlgebra` is the direct-sum semiring on pairs
(scalar, ideal) with product (x+a)(y+b) = xy + (xb + ay + ab).  The pairs
with zero scalar form an ideal carrying a star ``(0+a)* = 1 + plus(a)``;
when the scalar side has its own total star, the whole algebra gets one via
``(x+a)* = (x*a)* x*``.  Compatibility conditions between the action and the
plus/omega operations are universally quantified, so they are validated by
seeded sampling at construction time and a violation witness rejects the
construction.
"""

from __future__ import annotations

import random

from .core import DEFAULT_SEED, Frozen, HemimodulePair, LawReport, Semiring, check_laws, has_star


class ExtensionError(ValueError):
    """A sampled compatibility condition failed; carries the witness."""


class FormalSum(Frozen):
    """The formal sum scalar + ideal.  Immutable."""

    __slots__ = ("scalar", "ideal")


class BiAction(Frozen):
    """Left and right action of a semiring on a hemiring.  Immutable."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)     # (x, a) -> H
        object.__setattr__(self, "right", right)   # (a, x) -> H


def biaction_nat(h) -> BiAction:
    """The natural action of the naturals: n·a = a·n = n-fold sum of a."""
    return BiAction(left=lambda n, a: h.nat_act(n, a),
                    right=lambda a, n: h.nat_act(n, a))


def biaction_bool(h) -> BiAction:
    """The boolean action on an idempotent hemiring: 1·a = a, 0·a = 0."""
    return BiAction(left=lambda x, a: a if x else h.zero,
                    right=lambda a, x: a if x else h.zero)


class ExtensionAlgebra(Semiring):
    """Direct-sum semiring of formal sums over (scalar semiring, hemiring)."""

    def __init__(self, s0, h, biaction: BiAction, name=None,
                 validate_samples=200, seed=DEFAULT_SEED):
        self.s0 = s0
        self.h = h
        self.bi = biaction
        self.name = name or f"{s0.name}(+){h.name}"
        self.zero = FormalSum(s0.zero, h.zero)
        self.one = FormalSum(s0.one, h.zero)
        if validate_samples:
            self._validate(validate_samples, seed)

    # -- semiring structure -------------------------------------------------
    def add(self, s, t):
        return FormalSum(self.s0.add(s.scalar, t.scalar), self.h.add(s.ideal, t.ideal))

    def mul(self, s, t):
        x, a = s.scalar, s.ideal
        y, b = t.scalar, t.ideal
        ideal = self.h.add(self.h.add(self.bi.left(x, b), self.bi.right(a, y)),
                           self.h.mul(a, b))
        return FormalSum(self.s0.mul(x, y), ideal)

    def eq(self, s, t):
        return self.s0.eq(s.scalar, t.scalar) and self.h.eq(s.ideal, t.ideal)

    def show(self, s):
        return f"{self.s0.show(s.scalar)} ⊕ {self.h.show(s.ideal)}"

    def sample(self, rng):
        return FormalSum(self.s0.sample(rng), self.h.sample(rng))

    def sample_ideal(self, rng):
        return FormalSum(self.s0.zero, self.h.sample(rng))

    def embed(self, a):
        return FormalSum(self.s0.zero, a)

    def is_ideal(self, s) -> bool:
        return self.s0.eq(s.scalar, self.s0.zero)

    # -- iteration structure ------------------------------------------------
    def partial_star(self, s) -> FormalSum:
        """Star on the ideal: (0 + a)* = 1 + plus(a)."""
        if not self.is_ideal(s):
            raise ExtensionError(
                f"partial star undefined outside the ideal: {self.show(s)}")
        return FormalSum(self.s0.one, self.h.plus(s.ideal))

    def plus(self, s) -> FormalSum:
        if self.is_ideal(s):
            return FormalSum(self.s0.zero, self.h.plus(s.ideal))
        if has_star(self.s0):
            return self.mul(s, self.star(s))
        raise ExtensionError(
            f"plus needs an ideal argument or a starred scalar side: {self.show(s)}")

    def star(self, s) -> FormalSum:
        """Total star (x + a)* = (x* a)* x*, available when s0 has a star."""
        if not has_star(self.s0):
            raise ExtensionError(f"{self.s0.name} has no star operation")
        xs = self.s0.star(s.scalar)
        t = self.bi.left(xs, s.ideal)            # x* a, an ideal element
        return FormalSum(xs, self.bi.right(self.h.plus(t), xs))

    # -- construction-time checks --------------------------------------------
    def _validate(self, samples, seed):
        rng = random.Random(seed)
        s0, h, bi = self.s0, self.h, self.bi
        checks = [
            ("left_add_scalar", lambda x, y, a, b:
                (bi.left(s0.add(x, y), a), h.add(bi.left(x, a), bi.left(y, a)))),
            ("left_mul_scalar", lambda x, y, a, b:
                (bi.left(s0.mul(x, y), a), bi.left(x, bi.left(y, a)))),
            ("left_zero", lambda x, y, a, b: (bi.left(s0.zero, a), h.zero)),
            ("left_one", lambda x, y, a, b: (bi.left(s0.one, a), a)),
            ("left_add_ideal", lambda x, y, a, b:
                (bi.left(x, h.add(a, b)), h.add(bi.left(x, a), bi.left(x, b)))),
            ("left_mul_ideal", lambda x, y, a, b:
                (bi.left(x, h.mul(a, b)), h.mul(bi.left(x, a), b))),
            ("left_annihilate", lambda x, y, a, b: (bi.left(x, h.zero), h.zero)),
            ("right_add_scalar", lambda x, y, a, b:
                (bi.right(a, s0.add(x, y)), h.add(bi.right(a, x), bi.right(a, y)))),
            ("right_mul_scalar", lambda x, y, a, b:
                (bi.right(a, s0.mul(x, y)), bi.right(bi.right(a, x), y))),
            ("right_zero", lambda x, y, a, b: (bi.right(a, s0.zero), h.zero)),
            ("right_one", lambda x, y, a, b: (bi.right(a, s0.one), a)),
            ("right_add_ideal", lambda x, y, a, b:
                (bi.right(h.add(a, b), x), h.add(bi.right(a, x), bi.right(b, x)))),
            ("right_mul_ideal", lambda x, y, a, b:
                (bi.right(h.mul(a, b), x), h.mul(a, bi.right(b, x)))),
            ("middle_associative", lambda x, y, a, b:
                (bi.right(bi.left(x, a), y), bi.left(x, bi.right(a, y)))),
            ("plus_compat_left", lambda x, y, a, b:
                (bi.right(h.plus(bi.left(x, a)), x), bi.left(x, h.plus(bi.right(a, x))))),
            ("plus_compat_right", lambda x, y, a, b:
                (h.mul(h.plus(bi.right(a, x)), a), h.mul(a, h.plus(bi.left(x, a))))),
        ]
        draws = ((s0.sample(rng), s0.sample(rng), h.sample(rng), h.sample(rng))
                 for _ in range(samples))
        _reject("bi-action law ", checks, draws, h, lambda x, y, a, b: (s0.show(x), h.show(a)))


def _reject(what, checks, draws, V, shown):
    """Raise :class:`ExtensionError` from the first (name, fn) check that
    fails on ``draws``; ``shown`` gives a tuple's x and a as shown."""
    report = check_laws(LawReport("validation", 0), [(name, fn, shown) for name, fn in checks],
                        draws, V.eq, V.show, max_failures=1)
    if report.failures:
        f = report.failures[0]
        raise ExtensionError(f"{what}{f.law} fails at x={f.inputs[0]} a={f.inputs[1]}: "
                             f"{f.lhs} != {f.rhs}")


def extension(s0, h, biaction=None, **kw) -> ExtensionAlgebra:
    if biaction is None:
        biaction = biaction_nat(h) if s0.name == "nat" else biaction_bool(h)
    return ExtensionAlgebra(s0, h, biaction, **kw)


# --- the partial-Conway law suite ------------------------------------------------

def partial_conway_laws(ext: ExtensionAlgebra, trials=200, seed=DEFAULT_SEED) -> LawReport:
    """Star identities restricted to the ideal, product forms for mixed arguments."""
    rng = random.Random(seed)
    add, mul, star, one = ext.add, ext.mul, ext.partial_star, ext.one

    def shown(*args):
        return tuple(map(ext.show, args))

    laws = [
        # sum star on ideal arguments
        ("sum_star_ideal", lambda a, b, s:
            (star(add(a, b)), mul(star(mul(star(a), b)), star(a))), lambda a, b, s: shown(a, b)),
        # product star with the mixed argument in either slot
        ("product_star_mixed", lambda a, b, s:
            (star(mul(s, a)), add(one, mul(s, mul(star(mul(a, s)), a)))),
         lambda a, b, s: shown(s, a)),
        ("product_star_mixed_flip", lambda a, b, s:
            (star(mul(a, s)), add(one, mul(a, mul(star(mul(s, a)), s)))),
         lambda a, b, s: shown(a, s)),
        # simplified product plus for mixed arguments
        ("product_plus_mixed", lambda a, b, s:
            (mul(ext.plus(mul(s, a)), s), mul(s, ext.plus(mul(a, s)))), lambda a, b, s: shown(s, a)),
        # star fixed point on the ideal
        ("star_fixed_point_ideal", lambda a, b, s:
            (add(mul(a, star(a)), one), star(a)), lambda a, b, s: shown(a)),
    ]
    draws = ((ext.sample_ideal(rng), ext.sample_ideal(rng), ext.sample(rng)) for _ in range(trials))
    return check_laws(LawReport(f"partial-conway:{ext.name}", 0), laws, draws,
                      ext.eq, ext.show, max_failures=20)


# --- omega on the extension ---------------------------------------------------------

class ExtensionPair(HemimodulePair):
    """Omega for formal sums: (x + a)^omega = (x* a)* x^omega + (x* a)^omega.

    A hemimodule pair whose hemiring is the extension algebra, so
    :func:`core.hemimodule_pair_laws` checks its identities.  Needs a star on
    the scalar side, an omega H -> V, a scalar omega S0 -> V (no general
    principle fixes it, so each instance supplies its own), and compatible
    left actions of both sides on V.
    """

    def __init__(self, ext: ExtensionAlgebra, module, h_act, h_omega,
                 s0_act, s0_omega, validate_samples=200, seed=DEFAULT_SEED, name=None):
        if not has_star(ext.s0):
            raise ExtensionError("extension omega needs a star on the scalar side")
        self.hemiring = ext
        self.module = module
        self.h_act = h_act
        self.h_omega = h_omega
        self.s0_act = s0_act
        self.s0_omega = s0_omega
        self.name = name or f"{ext.name}-pair"
        if validate_samples:
            self._validate(validate_samples, seed)

    def act(self, s: FormalSum, v):
        return self.module.add(self.s0_act(s.scalar, v), self.h_act(s.ideal, v))

    def omega(self, s: FormalSum):
        ext, V = self.hemiring, self.module
        xs = ext.s0.star(s.scalar)
        t = ext.bi.left(xs, s.ideal)             # x* a
        xo = self.s0_omega(s.scalar)
        starred = V.add(self.h_act(ext.h.plus(t), xo), xo)   # (x* a)* x^omega
        return V.add(starred, self.h_omega(t))

    def _validate(self, samples, seed):
        rng = random.Random(seed)
        s0, h, bi = self.hemiring.s0, self.hemiring.h, self.hemiring.bi
        checks = [
            ("omega_compat", lambda x, a, v:
                (self.h_omega(bi.left(x, a)), self.s0_act(x, self.h_omega(bi.right(a, x))))),
            ("act_compat_left", lambda x, a, v:
                (self.h_act(bi.left(x, a), v), self.s0_act(x, self.h_act(a, v)))),
            ("act_compat_right", lambda x, a, v:
                (self.h_act(bi.right(a, x), v), self.h_act(a, self.s0_act(x, v)))),
        ]
        draws = ((s0.sample(rng), h.sample(rng), self.module.sample(rng)) for _ in range(samples))
        _reject("", checks, draws, self.module, lambda x, a, v: (s0.show(x), h.show(a)))


# --- morphisms -------------------------------------------------------------------------

class ExtensionMorphism:
    """tau(x + a) = phi(x) + psi(a), validated to be compatible and homomorphic."""

    def __init__(self, source: ExtensionAlgebra, target: ExtensionAlgebra,
                 phi, psi, validate_samples=200, seed=DEFAULT_SEED):
        self.source = source
        self.target = target
        self.phi = phi
        self.psi = psi
        if validate_samples:
            self._validate(validate_samples, seed)

    def __call__(self, s: FormalSum) -> FormalSum:
        return FormalSum(self.phi(s.scalar), self.psi(s.ideal))

    def _validate(self, samples, seed):
        rng = random.Random(seed)
        src, tgt, phi, psi = self.source, self.target, self.phi, self.psi
        checks = [
            ("compatibility (scalar·ideal)", lambda x, a:
                (tgt.bi.left(phi(x), psi(a)), psi(src.bi.left(x, a)))),
            ("compatibility (ideal·scalar)", lambda x, a:
                (tgt.bi.right(psi(a), phi(x)), psi(src.bi.right(a, x)))),
        ]
        draws = ((src.s0.sample(rng), src.h.sample(rng)) for _ in range(samples))
        _reject("morphism ", checks, draws, tgt.h, lambda x, a: (src.s0.show(x), src.h.show(a)))

    def homomorphism_report(self, trials=200, seed=DEFAULT_SEED) -> LawReport:
        rng = random.Random(seed)
        src, tgt = self.source, self.target
        report = LawReport("extension-morphism", 0)

        def shown(*args):
            return tuple(map(src.show, args))

        check_laws(report, [("preserves_zero", lambda: (self(src.zero), tgt.zero), shown),
                            ("preserves_one", lambda: (self(src.one), tgt.one), shown)],
                   [()], tgt.eq, tgt.show)
        laws = [
            ("preserves_add", lambda s, t, a: (self(src.add(s, t)), tgt.add(self(s), self(t))),
             lambda s, t, a: shown(s, t)),
            ("preserves_mul", lambda s, t, a: (self(src.mul(s, t)), tgt.mul(self(s), self(t))),
             lambda s, t, a: shown(s, t)),
            # the image of an ideal element is its own ideal part
            ("preserves_ideal", lambda s, t, a: (self(a), tgt.embed(self(a).ideal)),
             lambda s, t, a: shown(a)),
            # against the star of the image's ideal part, which is the image
            # itself whenever preserves_ideal holds
            ("preserves_ideal_star", lambda s, t, a:
                (self(src.partial_star(a)), tgt.partial_star(tgt.embed(self(a).ideal))),
             lambda s, t, a: shown(a)),
        ]
        draws = ((src.sample(rng), src.sample(rng), src.sample_ideal(rng)) for _ in range(trials))
        return check_laws(report, laws, draws, tgt.eq, tgt.show, max_failures=20)


# --- natural-action consequences ------------------------------------------------------

def nat_omega_commutation_report(pair, n_max=5, trials=60, seed=DEFAULT_SEED) -> LawReport:
    """omega(n·a) = a · omega(n·a) for the natural action, sampled over a and n.

    Since the natural action is central (a·n = n·a = the n-fold sum), this
    is the omega-commutation consequence of the action: both readings of
    (an)^omega = a(na)^omega collapse to the same checkable equation.
    """
    rng = random.Random(seed)
    H, V = pair.hemiring, pair.module

    def nat_omega(a, n):
        na = H.nat_act(n, a)
        return pair.omega(na), (pair.act(a, pair.omega(na)) if n > 0 else V.zero)

    draws = ((H.sample(rng), rng.randrange(0, n_max + 1)) for _ in range(trials))
    return check_laws(LawReport("nat-omega-commutation", 0),
                      [("nat_omega", nat_omega, lambda a, n: (H.show(a), str(n)))],
                      draws, V.eq, V.show)
