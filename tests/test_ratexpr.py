"""Expression syntax: parsing, printing, random generation, evaluation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from omegalg import automata as A, ratexpr as rx, valuation as V
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
    e4 = rx.parse("2(a + 3(b^+))")
    assert isinstance(e4, rx.Scalar) and isinstance(e4.arg, rx.Sum)
    assert isinstance(e4.arg.right, rx.Scalar) and isinstance(e4.arg.right.arg, rx.Plus)


def test_parentheses_nest_up_to_the_cap():
    deepest = "(" * rx.MAX_NESTING + "a" + ")" * rx.MAX_NESTING
    assert isinstance(rx.parse(deepest), rx.Letter)
    with pytest.raises(rx.ParseError) as exc:
        rx.parse(f"({deepest})")
    assert exc.value.pos == rx.MAX_NESTING


def test_long_expressions_walk_without_recursion():
    chain = rx.Letter("a")
    for _ in range(5000):
        chain = rx.Prod(chain, rx.Plus(rx.Letter("b")))
    assert rx.letters_of(chain) == {"a", "b"}
    assert rx.expr_equal(rx.parse(rx.to_text(chain)), chain)
    assert not rx.expr_equal(chain, rx.Prod(chain, rx.Letter("a")))


def test_fold_keeps_no_value_past_its_last_read():
    """The text of a 6,000-letter product: kept for every prefix, the texts
    alone would take 18 MB."""
    import tracemalloc
    chain = rx.parse("a" * 6000)
    tracemalloc.start()
    try:
        assert rx.to_text(chain) == "a" * 6000
        assert tracemalloc.get_traced_memory()[1] < 10_000_000
    finally:
        tracemalloc.stop()


def test_parse_errors_with_position():
    for text in ("a +", "((a)", "a^w^+", "a^w b", "a + b^w", "2(a^w)", "3", "a^",
                 "\u00e9", "a\u00df"):
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
    s = A.infinitary_series(A.compile(rx.parse("(ab)^w"), boolw, ("a", "b")))
    assert s.coeff(OmegaWord("", "ab")) is True
    assert s.coeff(OmegaWord("b", "ab")) is False   # = (ba)^w
    s2 = A.infinitary_series(A.compile(rx.parse("b(ab)^w"), boolw, ("a", "b")))
    assert s2.coeff(OmegaWord("b", "ab")) is True
    assert s2.coeff(OmegaWord("", "ab")) is False


def test_check_alphabet():
    assert rx.check_alphabet("ab") == ("a", "b")
    assert rx.check_alphabet(["z"]) == ("z",)
    for bad, problem in [("aba", "repeats 'a'"), ("a b", "not letters a-z"),
                         ("\u00e9", "not letters a-z"), (["ab"], "not letters a-z"),
                         ("A", "not letters a-z")]:
        with pytest.raises(ValueError, match=problem):
            rx.check_alphabet(bad)


def test_letters_of():
    assert rx.letters_of(rx.parse("a(bc)^w")) == {"a", "b", "c"}


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 5), st.sampled_from(["fin", "omega"]))
def test_parse_inverts_to_text(seed, depth, kind):
    e = rx.random_expr(random.Random(seed), depth, kind=kind)
    assert rx.expr_equal(rx.parse(rx.to_text(e)), e)


def _children(e):
    return [getattr(e, name) for name in type(e).__slots__]


def _scale_compounds(e, rng):
    """``e`` with some of its compound finitary sub-expressions scaled by 2 or 3."""
    if isinstance(e, rx.Letter):
        return e
    out = type(e)(*(v if isinstance(v, int) else _scale_compounds(v, rng)
                    for v in _children(e)))
    if not rx.is_omega(out) and rng.random() < 0.3:
        return rx.Scalar(rng.randrange(2, 4), out)
    return out


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 5), st.sampled_from(["fin", "omega"]))
def test_parse_inverts_to_text_with_scaled_compounds(seed, depth, kind):
    rng = random.Random(seed)
    e = _scale_compounds(rx.random_expr(rng, depth, kind=kind), rng)
    assert rx.expr_equal(rx.parse(rx.to_text(e)), e), rx.to_text(e)
