"""Law suites, star/plus conversions, fixed points and the simulation property."""

import random

import pytest

from omegalg import core, extension, matrices, series, valuation
from omegalg.core import (conway_hemiring_laws, conway_semiring_laws,
                          iterative_fixed_point_check, plus_from_star,
                          star_from_plus)


def test_conway_semiring_laws_pass_on_registered_instances(boolean, minplus, lattice):
    for carrier in (boolean, minplus, lattice):
        report = conway_semiring_laws(carrier, trials=300, derived=True)
        assert report.ok, report.failures[:3]


def test_conway_hemiring_laws_via_plus_from_star(boolean, minplus, lattice):
    for carrier in (boolean, minplus, lattice):
        report = conway_hemiring_laws(plus_from_star(carrier), trials=300)
        assert report.ok, report.failures[:3]


def test_boolean_star_values(boolean):
    assert boolean.star(False) is True
    assert boolean.star(True) is True


def test_star_from_plus_round_trip(boolean, minplus):
    for carrier in (boolean, minplus):
        derived = star_from_plus(plus_from_star(carrier))
        rng = random.Random(0)
        for _ in range(50):
            x = carrier.sample(rng)
            assert carrier.eq(derived.star(x), carrier.star(x))


def test_star_from_plus_examples(minplus):
    derived = star_from_plus(minplus)   # min-plus already has plus(a) = a
    assert derived.star(5) == 0
    assert derived.star(minplus.zero) == minplus.one


def test_star_from_plus_yields_conway_semiring(minplus, boolean):
    # a lawful plus hands back a lawful star
    for carrier in (boolean, minplus):
        derived = star_from_plus(carrier)
        report = conway_semiring_laws(derived, trials=300)
        assert report.ok, report.failures[:2]


def test_plus_from_star_examples(boolean, minplus):
    d = plus_from_star(boolean)
    assert d.plus(True) is True
    assert d.plus(boolean.zero) == boolean.zero
    d2 = plus_from_star(minplus)
    assert d2.plus(5) == 5
    assert d2.plus(minplus.zero) == minplus.zero


def test_star_from_plus_rejects_unitless_carrier(lang6):
    with pytest.raises(TypeError):
        star_from_plus(lang6)


def test_broken_star_is_reported_not_raised(boolean):
    class Broken:
        name = "broken"
        zero, one = False, True
        add = staticmethod(lambda a, b: a or b)
        mul = staticmethod(lambda a, b: a and b)
        eq = staticmethod(lambda a, b: a == b)
        show = staticmethod(lambda a: "1" if a else "0")
        sample = staticmethod(lambda rng: rng.random() < 0.5)
        star = staticmethod(lambda a: False)   # violates zero star
        elements = staticmethod(lambda: [False, True])
        sum = boolean.sum
        nat_act = boolean.nat_act

    report = conway_semiring_laws(Broken(), trials=20)
    assert not report.ok
    assert any(f.law == "zero_star" for f in report.failures)


def test_broken_plus_on_nat_series_reports_witness(nat_series6):
    class BrokenPlus:
        def __getattr__(self, item):
            return getattr(nat_series6, item)

        def plus(self, f):
            return f  # identity instead of iteration

    report = conway_hemiring_laws(BrokenPlus(), trials=25, seed=3)
    assert not report.ok
    # the plus fixed point identity (f·f+ + f = f+) must break
    assert any("plus" in f.law for f in report.failures)


def test_language_carrier_passes_hemiring_laws(lang6):
    report = conway_hemiring_laws(lang6, trials=60)
    assert report.ok, report.failures[:3]


def test_derived_star_plus_identities_hold(minplus, lattice):
    for carrier in (minplus, lattice):
        report = conway_semiring_laws(carrier, trials=400, derived=True)
        assert report.ok, [f.law for f in report.failures][:3]


def test_iterative_fixed_point_language(lang6):
    a, b = lang6.language("a"), lang6.language("b")
    report = iterative_fixed_point_check(lang6, a, b, bound_length=6)
    assert report.ok, report.failures[:3]
    sol = lang6.add(lang6.mul(lang6.plus(a), b), b)
    assert sol.coeff("b") and sol.coeff("ab") and sol.coeff("aab")
    assert not sol.coeff("ba")


def test_iterative_fixed_point_nat_series(nat_series6):
    a = nat_series6.poly({"a": 1})
    b = nat_series6.poly({"b": 1})
    report = iterative_fixed_point_check(nat_series6, a, b, bound_length=5)
    assert report.ok
    sol = nat_series6.add(nat_series6.mul(nat_series6.plus(a), b), b)
    assert sol.coeff("aab") == 1


def test_iterative_fixed_point_zero_coefficient(nat_series6):
    b = nat_series6.poly({"b": 2})
    report = iterative_fixed_point_check(nat_series6, nat_series6.zero, b, bound_length=4)
    assert report.ok
    sol = nat_series6.add(nat_series6.mul(nat_series6.plus(nat_series6.zero), b), b)
    for word in ("b", "ab", "bb"):
        assert sol.coeff(word) == b.coeff(word)


def test_simulation_property_on_series_matrices(nat_series6, lang6):
    def powers(carrier):
        def build(rng):
            m = matrices.mat([[carrier.sample(rng) for _ in range(2)] for _ in range(2)])
            return m, m, matrices.mat_mul(carrier, m, m)
        return build

    def poly_commuting(carrier):
        def build(rng):
            m = matrices.mat([[carrier.sample(rng) for _ in range(2)] for _ in range(2)])
            q = matrices.mat_add(carrier, m, matrices.mat_mul(carrier, m, m))
            return m, m, q
        return build

    for carrier in (nat_series6, lang6):
        report = matrices.simulation_check(carrier, [powers(carrier), poly_commuting(carrier)],
                                           trials=5)
        assert report.trials > 0
        assert report.ok, report.failures[:2]


def test_hemimodule_laws_on_self_pairs(boolean, minplus, lattice):
    for carrier in (boolean, minplus, lattice):
        report = core.hemimodule_pair_laws(core.self_pair(carrier), trials=150)
        assert report.ok, (carrier.name, report.failures[:3])


def test_auxiliary_starred_omega_identities(boolean, minplus, lattice, lang_pair6):
    """Three mixed star/plus/omega shapes that hold in every lawful pair:

        (y* a+ y)* y* a^w  =  (a* y+ a)* a^w
        (y* a+ y)* y^w     =  (y* a)* y^w
        (y* a+ y)^w        =  (a* y+ a)^w
    """
    pairs = [core.self_pair(c) for c in (boolean, minplus, lattice)] + [lang_pair6]
    rng = random.Random(27)
    for pair in pairs:
        H, V = pair.hemiring, pair.module
        trials = 8 if pair is lang_pair6 else 80
        for _ in range(trials):
            a, y = H.sample(rng), H.sample(rng)
            inner = core.star_mul(H, y, H.mul(H.plus(a), y))   # y* a+ y
            outer = core.star_mul(H, a, H.mul(H.plus(y), a))   # a* y+ a
            lhs1 = pair.star_act(inner, pair.star_act(y, pair.omega(a)))
            rhs1 = pair.star_act(outer, pair.omega(a))
            assert V.eq(lhs1, rhs1), (pair.name, H.show(a), H.show(y))
            lhs2 = pair.star_act(inner, pair.omega(y))
            rhs2 = pair.star_act(core.star_mul(H, y, a), pair.omega(y))
            assert V.eq(lhs2, rhs2), (pair.name, H.show(a), H.show(y))
            assert V.eq(pair.omega(inner), pair.omega(outer)), (pair.name,)


def test_nat_action_star_commutation(lang6, nat_series6):
    """(a·n)* a = a (n·a)* with the star conventions, for the natural action."""
    rng = random.Random(28)
    for carrier in (lang6, nat_series6):
        for _ in range(25):
            a = carrier.sample(rng)
            n = rng.randrange(0, 5)
            na = carrier.nat_act(n, a)
            lhs = core.star_mul(carrier, na, a)   # (na)+ a + a
            rhs = core.mul_star(carrier, a, na)   # a + a (na)+
            assert carrier.eq(lhs, rhs), (carrier.name, n)


def test_nat_act_is_the_n_fold_sum(nat, nat_series6):
    """n·a by doubling equals a added n times, on every registered carrier
    and on an extension algebra."""
    carriers = [entry.make("carrier") for entry in valuation.INSTANCES.values()
                if "carrier" in entry.roles]
    carriers.append(extension.extension(nat, nat_series6, extension.biaction_nat(nat_series6),
                                        validate_samples=0))
    rng = random.Random(43)
    for carrier in carriers:
        for _ in range(3):
            a, total = carrier.sample(rng), carrier.zero
            for n in range(41):
                assert carrier.eq(carrier.nat_act(n, a), total), (carrier.name, n)
                total = carrier.add(total, a)


def test_law_report_json_shape(boolean):
    report = conway_semiring_laws(boolean, trials=10)
    data = report.to_json()
    assert set(data) == {"suite", "trials", "failures"}
    assert data["failures"] == []


def test_exhaustive_mode_counts(boolean):
    report = conway_semiring_laws(boolean, trials=999)
    # 4 two-variable laws x 4 pairs, 3 one-variable laws x 2, 1 nullary law
    assert report.trials == 4 * 4 + 3 * 2 + 1


def test_words_up_to():
    words = list(core.words_up_to(("a", "b"), 2))
    assert words == ["", "a", "b", "aa", "ab", "ba", "bb"]


# --- the law runner ----------------------------------------------------------------

def _counting_laws(shown):
    """Two laws that fail on every tuple and one that holds; formatting an
    input appends to ``shown``."""
    def inputs(x):
        shown.append(x)
        return (str(x),)
    return [("fails", lambda x: (x, x + 1), inputs), ("fails_too", lambda x: (0, x + 1), inputs),
            ("holds", lambda x: (x, x), inputs)]


def test_check_laws_counts_one_trial_per_law_and_tuple():
    shown = []
    report = core.check_laws(core.LawReport("t", 0), _counting_laws(shown), [(1,), (2,)],
                             lambda a, b: a == b, str)
    assert report.trials == 6
    assert [(f.law, f.inputs, f.lhs, f.rhs) for f in report.failures] == [
        ("fails", ("1",), "1", "2"), ("fails_too", ("1",), "0", "2"),
        ("fails", ("2",), "2", "3"), ("fails_too", ("2",), "0", "3")]


def test_check_laws_formats_inputs_only_on_failures():
    shown = []
    core.check_laws(core.LawReport("t", 0), _counting_laws(shown)[2:], [(1,), (2,)],
                    lambda a, b: a == b, str)
    assert shown == []
    core.check_laws(core.LawReport("t", 0), _counting_laws(shown), [(5,)],
                    lambda a, b: a == b, str)
    assert shown == [5, 5]


def test_check_laws_cap_stops_after_the_tuple():
    draws = iter([(1,), (2,), (3,)])
    report = core.check_laws(core.LawReport("t", 0), _counting_laws([]), draws,
                             lambda a, b: a == b, str, max_failures=4)
    # the second tuple reaches 4 failures; its last law still runs, no third tuple is drawn
    assert (report.trials, len(report.failures)) == (6, 4)
    assert list(draws) == [(3,)]
    report = core.check_laws(core.LawReport("t", 0), _counting_laws([]), [(1,), (2,)],
                             lambda a, b: a == b, str, max_failures=3)
    assert (report.trials, len(report.failures)) == (6, 4)


def test_check_laws_cap_counts_earlier_failures():
    report = core.LawReport("t", 0)
    report.failures.append(core.LawFailure("earlier", (), "", ""))
    core.check_laws(report, _counting_laws([]), [(1,), (2,)], lambda a, b: a == b, str,
                    max_failures=3)
    assert (report.trials, len(report.failures)) == (3, 3)


def test_run_law_suite_draws_afresh_for_each_law():
    seen = []
    laws = [(name, "h", lambda x: (seen.append(x), None), (str,)) for name in ("p", "q")]
    counter = iter(range(100))
    report = core.run_law_suite("s", laws, {"h": lambda rng: next(counter)},
                                lambda a, b: True, str, trials=3)
    assert report.trials == 6 and seen == [0, 1, 2, 3, 4, 5]
