"""The concrete carriers and their codecs."""

import math
import random

import pytest

import oracles
from omegalg import valuation as V
from omegalg.core import LawReport
from omegalg.instances import INF, MINPLUS_CAP, NEG_INF, REAL_TOL, make_instance


def test_make_instance_names():
    for name in ("bool", "nat", "minplus", "extreal", "lattice"):
        c = make_instance(name)
        assert c.name == name


def test_unknown_instance_rejected():
    with pytest.raises(ValueError):
        make_instance("nosuch")


def test_nat_shows_every_size_exactly():
    """Past ``str``'s digit limit a natural number is shown in halves; the
    digits read back, in chunks below the limit, to the same number, with
    the zeros inside kept."""
    nat = make_instance("nat")
    for n in (0, 7, 10 ** 4299, 10 ** 4300 - 1, 10 ** 4300, 10 ** 9000 + 1, 2 ** 60000 - 1,
              3 ** 20000 * 10 ** 5000):
        digits = nat.show(n)
        value = 0
        for i in range(0, len(digits), 1000):
            value = value * 10 ** len(digits[i:i + 1000]) + int(digits[i:i + 1000])
        assert value == n and (digits == "0" or digits[0] != "0")


def test_registry_roles():
    roles = {name: set(entry.roles) for name, entry in V.INSTANCES.items()}
    full = {"carrier", "weights", "pair"}
    assert roles == {
        "bool": full, "nat": {"carrier", "weights"}, "minplus": full, "lattice": full,
        "extreal": {"carrier"}, "sup": {"weights"}, "limsup": {"weights"},
        "liminf": {"weights"}, "disc": {"weights"}, "limsup-avg": {"weights", "pair"},
        "lattice-inf": {"weights"}, "lang": {"carrier", "pair"}}


def test_every_registered_role_builds():
    for name, entry in V.INSTANCES.items():
        if "carrier" in entry.roles:
            assert make_instance(name).name == name
        if "weights" in entry.roles:
            assert V.make_valuation_instance(name).name == name
        if "pair" in entry.roles:
            pair = entry.make("pair")
            assert isinstance(pair, LawReport) or pair.hemiring.name == name


def test_roles_a_name_lacks_are_rejected():
    with pytest.raises(ValueError, match="instance 'sup' has no carrier"):
        make_instance("sup")
    with pytest.raises(ValueError, match="instance 'extreal' has no weights"):
        V.make_valuation_instance("extreal")


def test_registry_params_and_trial_caps():
    assert V.lookup("disc").bind({"lam": 0.7, "bound": 3}) == {"lam": 0.7}
    assert V.lookup("lattice-inf").bind({"lam": 0.7}) == {"base": 3}
    assert V.lookup("bool").bind({"lam": 0.7}) == {}
    lang = V.lookup("lang")
    assert lang.bind({"bound": 4}) == {"bound": 4}
    assert [lang.trials(s, 1000) for s in ("hemimodule", "conway-hemiring", "group-check")] == [
        60, 120, 5]
    assert lang.trials("hemimodule", 7) == 7
    assert V.lookup("minplus").trials("group-check", 1000) == 1000


def test_lattice_params_validated():
    with pytest.raises(ValueError):
        make_instance("lattice", base=6)


def test_boolean_is_conway(boolean):
    assert boolean.star(True) is True and boolean.star(False) is True
    assert boolean.add(False, True) is True
    assert boolean.mul(True, False) is False


def test_minplus_examples(minplus):
    assert minplus.mul(3, INF) == INF
    assert minplus.add(3, 5) == 3
    assert minplus.one == 0 and minplus.zero == INF
    assert minplus.star(7) == 0
    assert minplus.plus(7) == 7


def test_minplus_saturates_at_cap():
    c = make_instance("minplus", cap=100)
    assert c.mul(60, 60) == 100
    assert c.mul(60, INF) == INF
    # associativity survives saturation
    assert c.mul(c.mul(60, 60), 60) == c.mul(60, c.mul(60, 60)) == 100


def test_minplus_ops_match_their_first_forms():
    """``add`` (one comparison) and ``mul`` (one sum, one comparison with
    the cap) equal ``min`` and the ``== INF``-guarded saturated sum on a grid
    around the cap and the infinities, values above the cap included.  An
    infinite result, and ``add`` on tied operands, is the very object the
    first forms return, because the elimination pass skips zero entries by
    identity."""
    for cap in (1, 100, MINPLUS_CAP):
        c = make_instance("minplus", cap=cap)
        grid = [0, 1, cap - 1, cap, cap + 1, 2 ** 40, INF, float("inf")]
        for a in grid:
            for b in grid:
                want, got = oracles.minplus_add_min(a, b), c.add(a, b)
                assert got == want, (cap, a, b)
                if got == INF or a == b:
                    assert got is want, (cap, a, b)
                want, got = oracles.minplus_mul_guarded(c, a, b), c.mul(a, b)
                assert got == want, (cap, a, b)
                if got == INF:
                    assert got is INF, (cap, a, b)


def test_minplus_read_rejects_weights_above_the_cap():
    """A weight above the cap would be saturated by the first ``mul`` and
    break the unit law, so ``read`` refuses it and names the cap."""
    for cap in (100, MINPLUS_CAP):
        c = make_instance("minplus", cap=cap)
        v = c.read(str(cap))
        assert v == cap and c.mul(v, c.one) == v
        with pytest.raises(ValueError, match=f"cap {cap}"):
            c.read(str(cap + 1))


def test_lattice_meet_join(lattice):
    ab = frozenset("ab")
    bc = frozenset("bc")
    assert lattice.mul(ab, bc) == frozenset("b")
    assert lattice.add(ab, bc) == frozenset("abc")
    assert lattice.star(ab) == lattice.one
    assert lattice.show(frozenset("ca")) == "{a,c}"
    assert lattice.read("{a,c}") == frozenset("ac")


def test_extreal_monoid():
    e = make_instance("extreal")
    assert e.zero == NEG_INF
    assert e.add(NEG_INF, 3.0) == 3.0
    assert e.add(2.0, INF) == INF
    assert e.eq(1.0, 1.0 + 1e-12)
    assert not e.eq(1.0, 1.01)
    assert e.eq(INF, INF) and not e.eq(INF, NEG_INF)
    assert e.show(INF) == "inf" and e.show(NEG_INF) == "-inf"
    assert e.read("inf") == INF and e.read("2.5") == 2.5


def test_extreal_eq_matches_its_isinf_form():
    """The one-line relative rule is the branching form on the infinities,
    nan, signed zeros, values half and twice the tolerance apart (absolute
    below magnitude 1, relative at 1e6 and 1e12), a pair of discounted
    values 2e-11 apart in relative terms, and random quarters."""
    e = make_instance("extreal")
    tol = REAL_TOL
    rng = random.Random(19)
    grid = [INF, NEG_INF, math.nan, 0.0, -0.0, 1.0, 3.25, 1e300]
    grid += [x + k * tol for x in (0.0, 1.0, -2.0) for k in (-2, -0.5, 0.5, 2)]
    grid += [x * (1 + k * tol) for x in (1e6, 1e12) for k in (-2, -0.5, 0, 0.5, 2)]
    grid += [750000.7499903475, 750000.749975079]
    grid += [rng.randrange(-40, 41) / 4 for _ in range(24)]
    assert e.eq(750000.7499903475, 750000.749975079)
    for a in grid:
        for b in grid:
            want = oracles.extreal_eq_isinf(a, b, tol)
            assert e.eq(a, b) is want, (a, b)


def test_nat_has_no_star(nat):
    assert not hasattr(nat, "star")
    assert nat.mul(3, 4) == 12 and nat.add(3, 4) == 7


def test_codecs_round_trip(boolean, minplus, nat):
    assert boolean.read(boolean.show(True)) is True
    assert minplus.read(minplus.show(INF)) == INF
    assert minplus.read(minplus.show(5)) == 5
    assert nat.read(nat.show(9)) == 9


def test_omega_values(boolean, minplus, lattice):
    assert boolean.omega(True) is True and boolean.omega(False) is False
    assert minplus.omega(0) == 0 and minplus.omega(3) == INF
    assert lattice.omega(frozenset("ab")) == frozenset("ab")


def test_lattice_elements_complete(lattice):
    elems = lattice.elements()
    assert len(elems) == 8
    assert lattice.zero in elems and lattice.one in elems


def test_extreal_sampler_stays_in_domain():
    import random
    e = make_instance("extreal")
    rng = random.Random(1)
    for _ in range(200):
        v = e.sample(rng)
        assert v == NEG_INF or v == INF or (0 <= v and not math.isnan(v))


def test_extreal_read_rejects_nan():
    e = make_instance("extreal")
    for text in ("nan", "-nan", "NaN"):
        with pytest.raises(ValueError, match="nonnegative reals"):
            e.read(text)
