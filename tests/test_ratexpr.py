"""Expression syntax: parsing, printing, random generation, evaluation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from omegalg import ratexpr as rx, valuation as V
from omegalg.instances import make_instance
from omegalg.series import OmegaWord


def test_parse_examples():
    e = rx.parse("a^+")
    assert isinstance(e, rx.Plus) and isinstance(e.arg, rx.Letter)
    e2 = rx.parse("(a+b)(ab)^w")
    assert isinstance(e2, rx.ActProd)
    assert isinstance(e2.head, rx.Sum)
    assert isinstance(e2.tail, rx.OmegaPow) and isinstance(e2.tail.arg, rx.Prod)
    e3 = rx.parse("2a b")
    assert isinstance(e3, rx.Prod)
    assert isinstance(e3.left, rx.Scalar) and e3.left.coef == 2
    assert rx.expr_equal(rx.parse("2a b"), rx.parse("2ab"))


def test_parse_errors_with_position():
    for text in ("a +", "((a)", "a^w^+", "a^w b", "a + b^w", "2(ab)", "3", "a^"):
        with pytest.raises(rx.ParseError):
            rx.parse(text)
    try:
        rx.parse("a @")
    except rx.ParseError as exc:
        assert exc.pos == 2


def test_omega_nesting_rejected():
    with pytest.raises(rx.ParseError):
        rx.parse("(a^w)^w")
    with pytest.raises(rx.ParseError):
        rx.parse("(a^w)^+")


def test_print_parse_round_trip_thousand():
    rng = random.Random(42)
    for i in range(1000):
        kind = "omega" if i % 3 == 0 else "fin"
        e = rx.random_expr(rng, 4, kind=kind)
        text = rx.to_text(e)
        assert rx.expr_equal(rx.parse(text), e), text


def test_random_expr_deterministic():
    a = rx.random_expr(random.Random(42), 3)
    b = rx.random_expr(random.Random(42), 3)
    assert rx.expr_equal(a, b)
    assert rx.to_text(a) == rx.to_text(b)


def test_random_expr_depth_one_is_leaf():
    rng = random.Random(0)
    for _ in range(20):
        e = rx.random_expr(rng, 1)
        assert isinstance(e, (rx.Letter, rx.Scalar))


def test_random_expr_omega_root_kind():
    rng = random.Random(1)
    for _ in range(30):
        e = rx.random_expr(rng, 3, kind="omega")
        assert rx.is_omega(e)


def test_random_expr_rejects_bad_depth():
    with pytest.raises(ValueError):
        rx.random_expr(random.Random(0), 0)


def test_eval_fin_examples():
    boolw = V.from_carrier(make_instance("bool"))
    natw = V.from_carrier(make_instance("nat"))
    assert rx.eval_fin(rx.parse("a^+"), boolw).coeff("aa") is True
    assert rx.eval_fin(rx.parse("(2a)^+"), natw).coeff("aa") == 4
    assert rx.eval_fin(rx.parse("2a"), natw).coeff("a") == 2


def test_eval_homomorphic_shapes():
    natw = V.from_carrier(make_instance("nat"))
    from omegalg.series import SeriesCarrier, bounded_eq
    sc = SeriesCarrier(natw, ("a", "b"), bound=5)
    rng = random.Random(6)
    for _ in range(20):
        e1, e2 = rx.random_expr(rng, 3), rx.random_expr(rng, 3)
        s1, s2 = (rx.eval_fin(e, natw, ("a", "b"), bound=5) for e in (e1, e2))
        assert bounded_eq(rx.eval_fin(rx.Sum(e1, e2), natw, ("a", "b"), bound=5),
                          sc.add(s1, s2), 5).ok
        assert bounded_eq(rx.eval_fin(rx.Prod(e1, e2), natw, ("a", "b"), bound=5),
                          sc.mul(s1, s2), 5).ok
        assert bounded_eq(rx.eval_fin(rx.Plus(e1), natw, ("a", "b"), bound=5),
                          sc.plus(s1), 5).ok


def test_eval_omega_compile_backed():
    boolw = V.from_carrier(make_instance("bool"))
    s = rx.eval_omega(rx.parse("(ab)^w"), boolw)
    assert s.coeff(OmegaWord("", "ab")) is True
    assert s.coeff(OmegaWord("b", "ab")) is False   # = (ba)^w
    s2 = rx.eval_omega(rx.parse("b(ab)^w"), boolw)
    assert s2.coeff(OmegaWord("b", "ab")) is True
    assert s2.coeff(OmegaWord("", "ab")) is False


def test_letters_of():
    assert rx.letters_of(rx.parse("a(bc)^w")) == {"a", "b", "c"}


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 5), st.sampled_from(["fin", "omega"]))
def test_parse_inverts_to_text(seed, depth, kind):
    e = rx.random_expr(random.Random(seed), depth, kind=kind)
    assert rx.expr_equal(rx.parse(rx.to_text(e)), e)
