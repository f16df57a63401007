"""Formal sums: the direct-sum algebra, partial and total star, omega, morphisms."""

import random

import pytest

from omegalg import core, extension as E, matrices as M, series
from omegalg.series import OmegaWord


@pytest.fixture(scope="module")
def bool_lang_ext(boolean, lang6):
    return E.extension(boolean, lang6, E.biaction_bool(lang6), validate_samples=60)


@pytest.fixture(scope="module")
def nat_series_ext(nat, nat_series6):
    return E.extension(nat, nat_series6, E.biaction_nat(nat_series6), validate_samples=40)


def test_multiplication_formula(bool_lang_ext, lang6):
    ext = bool_lang_ext
    s = ext.mul(ext.add(ext.one, ext.embed(lang6.language("a"))),
                ext.add(ext.one, ext.embed(lang6.language("b"))))
    # (1 + {a})(1 + {b}) = 1 + ({a} u {b} u {ab})
    assert s.scalar is True
    assert lang6.eq(s.ideal, lang6.language("a", "b", "ab"))


def test_unit_law(bool_lang_ext):
    ext = bool_lang_ext
    rng = random.Random(0)
    for _ in range(20):
        s = ext.sample(rng)
        assert ext.eq(ext.mul(ext.one, s), s)
        assert ext.eq(ext.mul(s, ext.one), s)


def test_ideal_closed_under_product(bool_lang_ext):
    ext = bool_lang_ext
    rng = random.Random(1)
    for _ in range(20):
        a, b = ext.sample_ideal(rng), ext.sample_ideal(rng)
        assert ext.is_ideal(ext.mul(a, b))
        s = ext.sample(rng)
        assert ext.is_ideal(ext.mul(s, a)) and ext.is_ideal(ext.mul(a, s))


def test_partial_star(nat_series_ext, nat_series6):
    ext = nat_series_ext
    two_a = nat_series6.poly({"a": 2})
    st = ext.partial_star(ext.embed(two_a))
    assert st.scalar == 1
    assert st.ideal.coeff("aa") == 4
    assert ext.eq(ext.partial_star(ext.zero), ext.one)


def test_partial_star_rejects_nonideal(nat_series_ext):
    with pytest.raises(E.ExtensionError):
        nat_series_ext.partial_star(nat_series_ext.one)


def test_partial_star_language_example(bool_lang_ext, lang6):
    st = bool_lang_ext.partial_star(bool_lang_ext.embed(lang6.language("ab")))
    assert st.ideal.coeff("abab")
    assert not st.ideal.coeff("aba")


def test_full_star_extends_both_sides(bool_lang_ext, lang6, boolean):
    ext = bool_lang_ext
    # a = 0: star of a scalar is the scalar star
    assert ext.eq(ext.star(E.FormalSum(True, lang6.zero)),
                  E.FormalSum(boolean.star(True), lang6.zero))
    # x = 0: star coincides with the partial star
    rng = random.Random(2)
    for _ in range(20):
        a = ext.sample_ideal(rng)
        assert ext.eq(ext.star(a), ext.partial_star(a))


def test_idempotent_star_collapses_scalar(bool_lang_ext, lang6):
    # (x + a)* = a* in the boolean extension of an idempotent hemiring
    ext = bool_lang_ext
    a = lang6.language("a")
    st = ext.star(ext.add(ext.one, ext.embed(a)))
    assert ext.eq(st, ext.partial_star(ext.embed(a)))


def test_full_star_fixed_point(bool_lang_ext):
    ext = bool_lang_ext
    rng = random.Random(3)
    for _ in range(40):
        s = ext.sample(rng)
        st = ext.star(s)
        assert ext.eq(ext.add(ext.mul(s, st), ext.one), st)


def test_plus_outside_the_ideal(bool_lang_ext, nat_series_ext, nat_series6):
    """Over bool ⊕ lang, plus outside the ideal satisfies plus(s) = s +
    s·plus(s); nat has no star, so over nat ⊕ nat-series neither plus nor
    star reaches outside the ideal."""
    ext = bool_lang_ext
    rng = random.Random(5)
    outside = [s for s in (ext.sample(rng) for _ in range(40)) if not ext.is_ideal(s)]
    assert outside
    for s in outside:
        p = ext.plus(s)
        assert ext.eq(p, ext.add(s, ext.mul(s, p)))
    s = E.FormalSum(2, nat_series6.poly({"a": 1}))
    with pytest.raises(E.ExtensionError,
                       match="plus needs an ideal argument or a starred scalar side"):
        nat_series_ext.plus(s)
    with pytest.raises(E.ExtensionError, match="nat has no star operation"):
        nat_series_ext.star(s)


def test_partial_conway_suite(bool_lang_ext, nat_series_ext):
    for ext in (bool_lang_ext, nat_series_ext):
        report = E.partial_conway_laws(ext, trials=40)
        assert report.ok, report.failures[:2]


def test_biaction_nat_values(nat_series6):
    bi = E.biaction_nat(nat_series6)
    f = nat_series6.poly({"a": 1})
    assert bi.left(0, f).coeff("a") == 0
    assert bi.left(1, f).coeff("a") == 1
    assert bi.left(3, f).coeff("a") == 3


def test_biaction_nat_idempotent_hemiring(lang6):
    bi = E.biaction_nat(lang6)
    f = lang6.language("ab")
    for n in (1, 2, 5):
        assert lang6.eq(bi.left(n, f), f)


def test_invalid_biaction_rejected(boolean, lang6):
    broken = E.BiAction(left=lambda x, a: a,            # ignores the scalar
                        right=lambda a, x: a)
    with pytest.raises(E.ExtensionError):
        E.ExtensionAlgebra(boolean, lang6, broken, validate_samples=60)


def test_extension_pair_omega(bool_lang_ext, lang_pair6, lang6):
    V = lang_pair6.module
    epair = E.ExtensionPair(
        bool_lang_ext, V,
        h_act=lang_pair6.act, h_omega=lang_pair6.omega,
        s0_act=lambda x, v: v if x else V.zero,
        s0_omega=lambda x: V.zero,
        validate_samples=40)
    a = lang6.language("a")
    # scalar-only and ideal-only degenerate cases
    assert epair.omega(E.FormalSum(True, lang6.zero)) == V.zero
    assert epair.omega(bool_lang_ext.embed(a)) == lang_pair6.omega(a)
    # (1 + {a})^omega contains a^omega
    om = epair.omega(bool_lang_ext.add(bool_lang_ext.one, bool_lang_ext.embed(a)))
    assert OmegaWord("", "a") in om
    assert om == lang_pair6.omega(a)


def test_extension_pair_omega_identities_on_formal_sums(bool_lang_ext, lang_pair6):
    """Sum omega, product omega and the omega fixed point on sampled pairs of
    formal sums, using the total star of the boolean-language extension; and
    the whole hemimodule suite on the extension pair."""
    ext = bool_lang_ext
    V = lang_pair6.module
    epair = E.ExtensionPair(
        ext, V, h_act=lang_pair6.act, h_omega=lang_pair6.omega,
        s0_act=lambda x, v: v if x else V.zero,
        s0_omega=lambda x: V.zero, validate_samples=0)
    rng = random.Random(13)
    for _ in range(25):
        s, t = ext.sample(rng), ext.sample(rng)
        # omega fixed point
        assert epair.act(s, epair.omega(s)) == epair.omega(s)
        # product omega
        assert epair.omega(ext.mul(s, t)) == epair.act(s, epair.omega(ext.mul(t, s)))
        # sum omega through the total star
        a = ext.mul(ext.star(s), t)
        want = V.add(epair.act(ext.star(a), epair.omega(s)), epair.omega(a))
        assert epair.omega(ext.add(s, t)) == want
    report = core.hemimodule_pair_laws(epair, trials=40, seed=13)
    assert report.ok and report.trials == 401, report


def test_extension_pair_needs_scalar_star(nat_series_ext, lang_pair6):
    with pytest.raises(E.ExtensionError):
        E.ExtensionPair(nat_series_ext, lang_pair6.module,
                        h_act=lang_pair6.act, h_omega=lang_pair6.omega,
                        s0_act=lambda x, v: v, s0_omega=lambda x: lang_pair6.module.zero,
                        validate_samples=0)


def test_morphism_identity_and_collapse(bool_lang_ext, lang6):
    ident = E.ExtensionMorphism(bool_lang_ext, bool_lang_ext,
                                lambda x: x, lambda a: a, validate_samples=30)
    assert ident.homomorphism_report(trials=40).ok
    rng = random.Random(5)
    s = bool_lang_ext.sample(rng)
    assert bool_lang_ext.eq(ident(s), s)
    collapse = E.ExtensionMorphism(bool_lang_ext, bool_lang_ext,
                                   lambda x: x, lambda a: lang6.zero,
                                   validate_samples=30)
    assert collapse.homomorphism_report(trials=30).ok
    assert bool_lang_ext.eq(collapse(s), E.FormalSum(s.scalar, lang6.zero))


def test_morphism_nat_to_bool_extension(nat, nat_series6, boolean, lang6,
                                        nat_series_ext, bool_lang_ext):
    # phi: naturals -> booleans (is nonzero), psi: counts -> support language
    def psi(f):
        table = {w: bool(f.coeff(w)) for w in core.words_up_to(("a", "b"), 6) if f.coeff(w)}
        return lang6.poly(table)

    tau = E.ExtensionMorphism(nat_series_ext, bool_lang_ext,
                              lambda n: n > 0, psi, validate_samples=25, seed=7)
    report = tau.homomorphism_report(trials=25, seed=7)
    assert report.ok, report.failures[:2]


def test_morphism_report_names_a_non_ideal_image(nat_series_ext):
    # phi(x) = x + 1 sends every ideal element a to 1 + a, outside the ideal;
    # the report says so instead of failing on the partial star of 1 + a
    shifted = E.ExtensionMorphism(nat_series_ext, nat_series_ext, lambda x: x + 1,
                                  lambda a: a, validate_samples=0)
    report = shifted.homomorphism_report(trials=5, seed=3)
    assert not report.ok
    assert "preserves_ideal" in {f.law for f in report.failures}


def test_incompatible_morphism_rejected(bool_lang_ext, lang6):
    # psi that swaps letters only on one side of the action cannot commute
    def bad_psi(a):
        return lang6.plus(a)
    with pytest.raises(E.ExtensionError):
        E.ExtensionMorphism(bool_lang_ext, bool_lang_ext,
                            lambda x: False, bad_psi, validate_samples=60)


def test_nat_omega_commutation(lang_pair6):
    report = E.nat_omega_commutation_report(lang_pair6, trials=30)
    assert report.ok, report.failures[:2]


def test_ideal_matrix_group_identities_in_extension(bool_lang_ext, nat_series_ext):
    """Plus-form group identities for ideal-valued matrices in the extensions."""
    rng = random.Random(11)
    for ext, names in ((bool_lang_ext, ("Z2", "Z3", "Z4", "V4")),
                       (nat_series_ext, ("Z2", "Z3"))):
        for gname in names:
            g = M.builtin_groups()[gname]
            report = M.group_identity_check(
                g, ext, sampler=ext.sample_ideal, trials=2, seed=rng.randrange(99))
            assert report.ok, (gname, ext.name, report.failures[:1])


def test_formal_sum_rendering(bool_lang_ext):
    text = bool_lang_ext.show(bool_lang_ext.one)
    assert "⊕" in text


def test_matrix_star_over_extension_ideal_entries(bool_lang_ext):
    """The star route on ideal matrices: M* = E + M+ entrywise."""
    ext = bool_lang_ext
    rng = random.Random(21)
    for _ in range(5):
        m = M.mat([[ext.sample_ideal(rng) for _ in range(2)] for _ in range(2)])
        star = M.mat_star(ext, m)
        plus = M.mat_plus(ext, m)
        for i in range(2):
            for j in range(2):
                want = plus[i, j] if i != j else ext.add(ext.one, plus[i, j])
                assert ext.eq(star[i, j], want)
