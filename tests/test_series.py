"""Series coefficients: Cauchy products, the plus DP against brute force,
bounded equality, omega words, and the language instance."""

import ast
import copy
import gc
import importlib
import math
import pathlib
import pickle
import pkgutil
import random
import sys
import time
import tracemalloc
import types
import weakref
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from omegalg import core, dfa, omegalang, series, valuation
from omegalg.instances import make_instance
from omegalg.series import (OmegaWord, Series, SeriesCarrier, _differing, bounded_eq,
                            cauchy_mul, parse_word, series_plus)


# --- omega words -------------------------------------------------------------

def test_omega_word_canonicalization():
    assert OmegaWord("ab", "ab") == OmegaWord("", "ab")
    assert OmegaWord("", "abab") == OmegaWord("", "ab")
    assert OmegaWord("a", "ba") == OmegaWord("", "ab")
    assert OmegaWord("", "ab") != OmegaWord("", "ba")
    assert OmegaWord("b", "ab") == OmegaWord("", "ba")
    assert OmegaWord("ba", "ab").prefix == "ba"  # last letters differ: no roll-up


def test_omega_word_requires_period():
    with pytest.raises(ValueError):
        OmegaWord("a", "")


def test_omega_word_letters_and_suffix():
    w = OmegaWord("ab", "ba")   # last letters of prefix and period differ: kept as built
    assert w.letters(6) == (w.prefix + w.period * 6)[:6]
    assert w.suffix(1) == OmegaWord("b", "ba")
    # dropping the whole prefix lands in a rotation of the period
    drop = len(w.prefix)
    assert w.suffix(drop) == OmegaWord("", w.period)
    assert w.suffix(drop + 1) == OmegaWord("", w.period[1:] + w.period[:1])


def test_omega_word_positions_are_never_negative():
    """``letters``, ``letter_at`` and ``suffix`` refuse a negative argument
    with a ValueError naming it, on a word with a stem and on one without,
    where they once answered for a position that does not exist (or raised
    IndexError)."""
    for w in (OmegaWord("ab", "c"), OmegaWord("", "ab")):
        for method, name in ((w.letters, "count"), (w.letter_at, "index"), (w.suffix, "drop")):
            for bad in (-1, -3):
                with pytest.raises(ValueError, match=f"^{name} must be >= 0, got {bad}$"):
                    method(bad)
        assert w.letters(0) == "" and w.suffix(0) is w


def test_parse_word_forms():
    assert parse_word("abab") == "abab"
    assert parse_word("") == ""
    assert parse_word("ab(ab)^w") == OmegaWord("", "ab")
    assert parse_word("a^w") == OmegaWord("", "a")
    assert parse_word("b(ab)^w") == OmegaWord("b", "ab")
    with pytest.raises(ValueError):
        parse_word("a(")


# Properties of the canonical form, on random lassos over {a, b}; derandomised
# so that every run draws the same examples.
PROPERTY = settings(max_examples=400, derandomize=True, database=None, deadline=None)
stems = st.text("ab", max_size=5)
periods = st.text("ab", min_size=1, max_size=4)


@PROPERTY
@given(stems, periods, st.integers(0, 30))
def test_omega_word_letters_are_stem_then_period(u, v, n):
    assert OmegaWord(u, v).letters(n) == (u + v * (n + 1))[:n]


@PROPERTY
@given(stems, periods, st.integers(0, 4), st.integers(0, 3), st.integers(1, 3))
def test_equal_infinite_words_have_equal_forms(u, v, reps, j, power):
    # u v^w read with more of v in the stem, the period rotated and repeated
    j %= len(v)
    assert OmegaWord(u + v * reps + v[:j], (v[j:] + v[:j]) * power) == OmegaWord(u, v)


@PROPERTY
@given(stems, periods, stems, periods)
def test_forms_are_equal_iff_the_infinite_words_are(u1, v1, u2, v2):
    # two lassos agree everywhere iff they agree on their longer stem plus
    # one common multiple of their periods
    n = max(len(u1), len(u2)) + math.lcm(len(v1), len(v2))
    w1, w2 = OmegaWord(u1, v1), OmegaWord(u2, v2)
    assert (w1 == w2) == (w1.letters(n) == w2.letters(n))


@PROPERTY
@given(stems, periods, st.integers(0, 12), st.integers(0, 12))
def test_omega_word_suffix_drops_letters(u, v, d, n):
    w = OmegaWord(u, v)
    assert w.suffix(d).letters(n) == w.letters(d + n)[d:]


@PROPERTY
@given(stems, periods)
def test_parse_word_inverts_str(u, v):
    w = OmegaWord(u, v)
    assert parse_word(str(w)) == w


# --- interned omega words ------------------------------------------------------

def test_equal_omega_words_are_one_object():
    """Every way of making a lasso gives the one live object of its
    canonical form: the constructor, ``parse_word``, ``suffix`` and the
    canonical family of the fingerprints."""
    w = OmegaWord("b", "ab")
    assert OmegaWord("bab", "ab") is w
    assert OmegaWord(prefix="ba", period="baba") is w
    assert parse_word("b(ab)^w") is w and parse_word("bab(ab)^w") is w
    assert OmegaWord("ab", "ab").suffix(1) is w
    assert OmegaWord("ab", "ba").suffix(3) is OmegaWord("", "ab")
    for group in omegalang.canonical_lassos(("a", "b")).values():
        for x in group:
            assert OmegaWord(x.prefix, x.period) is x
            assert parse_word(str(x)) is x
            assert x.suffix(0) is x


def test_omega_words_survive_pickle_and_deepcopy_as_the_same_object():
    w = OmegaWord("ab", "ba")
    assert pickle.loads(pickle.dumps(w)) is w
    assert copy.deepcopy(w) is w and copy.copy(w) is w
    fp = frozenset([w, OmegaWord("", "a"), OmegaWord("b", "ab")])
    back = pickle.loads(pickle.dumps(fp))
    assert back == fp and all(any(x is y for y in fp) for x in back)


def test_omega_words_are_immutable():
    w = OmegaWord("a", "b")
    for name in ("prefix", "period", "other"):
        with pytest.raises(AttributeError):
            setattr(w, name, "b")
    with pytest.raises(AttributeError):
        del w.prefix
    assert (w.prefix, w.period) == ("a", "b")


def _values(boolean) -> list:
    """One object of each library class whose objects are values."""
    from omegalg import automata, extension, matrices, ratexpr as rx
    a, aw = rx.Letter("a"), rx.OmegaPow(rx.Letter("a"))
    return [
        core.LawFailure("law", ("x",), "1", "2"),
        valuation.WeightedSeq((), ((1, 0.0),)), valuation.ValOmega(0.0), valuation.lookup("disc"),
        a, rx.Scalar(2, a), rx.Sum(a, a), rx.Prod(a, a), rx.Plus(a), aw, rx.ActProd(a, aw),
        rx.OmegaSum(aw, aw),
        extension.FormalSum(1, 2), extension.biaction_bool(boolean),
        matrices.mat([[1]]), matrices.PermutationMatrix((0,)), matrices.cyclic_group(2),
        automata.MatrixAutomaton(valuation.from_carrier(boolean), ("a",), 1, 1, (1,), (1,), ()),
        valuation.counterexample_regroup_avg(4), valuation.counterexample_product_omega(4),
    ]


def test_value_classes_are_immutable(boolean):
    """Each library class whose objects are values refuses to assign or
    delete a field, as an omega word does."""
    values = _values(boolean)
    for value in values:
        for name in type(value).__slots__:
            before = getattr(value, name)
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(value, name)
            assert getattr(value, name) is before, (type(value).__name__, name)
        with pytest.raises(AttributeError):
            value.other = None


def _fields(value) -> dict:
    """A value's fields by name: its ``__slots__``, or its ``__dict__``."""
    if hasattr(value, "__dict__"):
        return vars(value)
    return {name: getattr(value, name) for name in type(value).__slots__}


def _same(x, y) -> bool:
    """x and y hold the same data: the same class, and equal, or (for an
    object equal only to itself, such as an expression node or a carrier)
    fields that hold the same data in turn; a bound method, the same
    function bound to the same data."""
    if type(x) is not type(y):
        return False
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, types.MethodType):
        return x.__func__ is y.__func__ and _same(x.__self__, y.__self__)
    if x == y:
        return True
    return (hasattr(x, "__dict__") or hasattr(type(x), "__slots__")) and _same(_fields(x), _fields(y))


def test_values_copy_deepcopy_and_pickle(boolean):
    """A copy of a value is a value of its class whose fields are the
    original's fields; a deep copy and a pickle round trip give fields that
    hold the same data.  The automaton, the instance and the bi-action hold
    lambdas, which do not pickle.  An omega word comes back as itself."""
    from omegalg import automata, extension
    unpicklable = (automata.MatrixAutomaton, valuation.Instance, extension.BiAction)
    for value in _values(boolean):
        name, fields = type(value).__name__, _fields(value)
        shallow = copy.copy(value)
        assert type(shallow) is type(value) and shallow is not value, name
        assert _fields(shallow).keys() == fields.keys(), name
        assert all(_fields(shallow)[k] is v for k, v in fields.items()), name
        copies = [copy.deepcopy(value)]
        if not isinstance(value, unpicklable):
            copies.append(pickle.loads(pickle.dumps(value)))
        for other in copies:
            assert type(other) is type(value) and other is not value, name
            assert _same(_fields(other), fields), name
    w = OmegaWord("ab", "ba")
    assert copy.copy(w) is w and copy.deepcopy(w) is w and pickle.loads(pickle.dumps(w)) is w


def test_the_immutability_rule_lives_in_one_class(boolean):
    """No class of the library but ``core.Frozen`` defines ``__setattr__``
    or ``__delattr__``, and every value class inherits it.  Fields are stored
    with ``object.__setattr__`` only by ``Frozen`` and by the three classes
    that keep their own constructor."""
    import omegalg
    defined = []
    for info in pkgutil.iter_modules(omegalg.__path__):
        module = importlib.import_module(f"omegalg.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                defined += [f"{info.name}.{cls.__qualname__}.{name}"
                            for name in ("__setattr__", "__delattr__") if name in vars(cls)]
    assert defined == ["core.Frozen.__setattr__", "core.Frozen.__delattr__"]
    for cls in {type(value) for value in _values(boolean)} | {OmegaWord}:
        assert issubclass(cls, core.Frozen), cls.__name__
    stores = set()
    for path in sorted(pathlib.Path(omegalg.__path__[0]).glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            for fn in getattr(cls, "body", ()):
                if any(ast.unparse(node) == "object.__setattr__" for node in ast.walk(fn)):
                    stores.add(f"{path.stem}.{cls.name}.{fn.name}")
    assert stores == {"core.Frozen.__init__", "core.Frozen.__setstate__",
                      "matrices.Matrix.__init__", "series.OmegaWord.__new__",
                      "extension.BiAction.__init__"}


def test_a_value_is_made_from_its_fields_in_slot_order(boolean):
    """Every value is rebuilt by its class from its public fields in slot
    order (an automaton makes its private memo afresh), and a wrong count of
    values raises TypeError naming the class.  Classes that only store
    their fields take exactly one value per slot; a matrix, an omega word
    and a bi-action keep constructors of their own."""
    from omegalg import automata
    own = ("Matrix", "OmegaWord", "BiAction")
    for value in _values(boolean) + [OmegaWord("ab", "ba")]:
        cls, name = type(value), type(value).__name__
        names = [n for n in cls.__slots__ if not n.startswith("_")]
        fields = [getattr(value, n) for n in names]
        rebuilt = cls(*fields)
        assert all(getattr(rebuilt, n) is f for n, f in zip(names, fields)), name
        if isinstance(value, automata.MatrixAutomaton):
            assert rebuilt._memo == {} and rebuilt._memo is not value._memo
        if name in own:
            continue
        with pytest.raises(TypeError, match=name):
            cls(*fields, None)
        if "__init__" not in vars(cls):
            with pytest.raises(TypeError, match=f"^{name} takes {len(names)} values, got 0$"):
                cls()
    w = OmegaWord("", "ab")
    assert OmegaWord("abab", "ab") is w and (w.prefix, w.period) == ("", "ab")


def test_omega_word_text_and_letters_are_unchanged():
    w = OmegaWord("ab", "ba")
    assert repr(w) == "OmegaWord(prefix='ab', period='ba')"
    assert str(w) == "ab(ba)^w"
    assert w.letters(0) == "" and w.letters(3) == "abb" and w.letters(9) == "abbababab"
    assert [w.letter_at(i) for i in range(7)] == list("abbabab")
    assert repr(OmegaWord("abab", "ab")) == "OmegaWord(prefix='', period='ab')"


def test_the_word_table_keeps_no_dead_words():
    """Memory does not grow with the lassos a program makes: 10,000 distinct
    200-letter lassos leave the weak table once they are dropped."""
    gc.collect()
    before = len(series._WORDS)
    words = [OmegaWord(format(i, "0198b").translate(str.maketrans("01", "ab")) + "b", "a")
             for i in range(10_000)]
    assert len({id(w) for w in words}) == 10_000
    assert len(series._WORDS) == before + 10_000
    del words
    gc.collect()
    assert len(series._WORDS) == before


# --- coefficients ------------------------------------------------------------

@pytest.fixture(scope="module")
def natsc():
    return SeriesCarrier(valuation.from_carrier(make_instance("nat")),
                         ("a", "b"), bound=6, name="nat-series")


def test_monomial_coefficients(natsc):
    f = natsc.poly({"a": 2})
    assert f.coeff("a") == 2
    assert f.coeff("b") == 0
    assert f.coeff("") == 0


def test_foreign_letter_rejected(natsc):
    f = natsc.poly({"a": 2})
    with pytest.raises(ValueError):
        f.coeff("az")


def test_cauchy_product_single_split(natsc):
    f = natsc.poly({"a": 2})
    g = natsc.poly({"b": 3})
    assert cauchy_mul(f, g).coeff("ab") == 6
    assert cauchy_mul(f, g).coeff("ba") == 0


def test_product_with_zero_is_zero(natsc):
    f = natsc.poly({"a": 2, "ab": 5})
    h = cauchy_mul(f, natsc.zero)
    for w in core.words_up_to(("a", "b"), 4):
        assert h.coeff(w) == 0


def test_plus_unique_factorization(natsc):
    f = natsc.poly({"a": 2})
    assert series_plus(f).coeff("aa") == 4
    assert series_plus(f).coeff("") == 0


def test_plus_requires_proper(natsc):
    """Properness is read off the table: a zero coefficient on the empty
    word is no obstacle."""
    f = natsc.poly({"": 1, "a": 1})
    with pytest.raises(ValueError):
        series_plus(f)
    assert series_plus(natsc.poly({"": 0, "a": 1})).coeff("aaa") == 1


def test_plus_dp_matches_brute_force(natsc):
    rng = random.Random(9)
    inst = natsc.weights
    for _ in range(25):
        f = natsc.sample(rng)
        fp = series_plus(f)
        for w in core.words_up_to(("a", "b"), 6):
            if not w:
                continue
            expected = oracles.plus_coeff_brute(
                f.coeff, w, inst.add, inst.prod, inst.zero)
            assert fp.coeff(w) == expected, (w,)


def test_plus_dp_matches_brute_force_for_discounting():
    disc = valuation.make_valuation_instance("disc", lam=0.5)
    sc = SeriesCarrier(disc, ("a", "b"), bound=5)
    rng = random.Random(4)
    for _ in range(15):
        f = sc.poly({"a": rng.randrange(1, 3) * 1.0, "ba": 1.0, "b": 0.5})
        fp = series_plus(f)
        for w in core.words_up_to(("a", "b"), 5):
            if not w:
                continue
            expected = oracles.plus_coeff_brute(f.coeff, w, disc.add, disc.prod, disc.zero)
            assert disc.eq(fp.coeff(w), expected), (w, fp.coeff(w), expected)


def test_sum_and_product_check_weights_alike():
    """A sum, like a product, of series over λ = 0.5 and λ = 0.9 raises;
    series over two separately made λ = 0.5 instances combine."""
    make = valuation.make_valuation_instance
    half, other_half, ninth = make("disc", lam=0.5), make("disc", lam=0.5), make("disc", lam=0.9)
    f = series.polynomial(half, ("a", "b"), {"a": 1.0})
    with pytest.raises(ValueError, match="carrier mismatch in sum"):
        series.series_add(f, series.polynomial(ninth, ("a", "b"), {"b": 2.0}))
    with pytest.raises(ValueError, match="carrier mismatch in product"):
        cauchy_mul(f, series.polynomial(ninth, ("a", "b"), {"b": 2.0}))
    g = series.polynomial(other_half, ("a", "b"), {"b": 2.0})
    assert other_half is not half
    assert series.series_add(f, g).coeff("b") == 2.0
    assert cauchy_mul(f, g).coeff("ab") == half.prod(1, 1, 1.0, 2.0)


_MIXED = {   # one operation on {a} over ("a",) and {b} over ("a", "b")
    "carrier add": lambda ab, a, x, y: ab.add(x, y),
    "carrier add, swapped": lambda ab, a, x, y: ab.add(y, x),
    "carrier mul": lambda ab, a, x, y: ab.mul(x, y),
    "carrier mul, swapped": lambda ab, a, x, y: ab.mul(y, x),
    "carrier mul by the empty language": lambda ab, a, x, y: ab.mul(a.zero, y),
    "carrier plus": lambda ab, a, x, y: ab.plus(x),
    "carrier plus of the empty language": lambda ab, a, x, y: ab.plus(a.zero),
    "carrier eq": lambda ab, a, x, y: ab.eq(x, y),
    "dfa union": lambda ab, a, x, y: dfa.union(x.backing, y.backing),
    "dfa concat": lambda ab, a, x, y: dfa.concat(x.backing, y.backing),
    "series sum": lambda ab, a, x, y: series.series_add(*_polys(x, y)),
    "series product": lambda ab, a, x, y: cauchy_mul(*_polys(x, y)),
    "bounded eq": lambda ab, a, x, y: bounded_eq(*_polys(x, y)),
}


def _polys(x, y):
    """Boolean polynomials with the words and alphabets of ``x`` and ``y``."""
    weights = x.weights
    return (series.polynomial(weights, x.alphabet, {"a": weights.unit}),
            series.polynomial(weights, y.alphabet, {"b": weights.unit}))


@pytest.mark.parametrize("case", _MIXED)
def test_operations_refuse_mixed_alphabets(case):
    """Every operation on operands over two alphabets raises the one
    ``alphabet mismatch`` error, at the carrier, DFA and series levels,
    rather than giving a result over one operand's alphabet."""
    a, ab = series.language_instance(("a",)), series.language_instance(("a", "b"))
    x, y = a.language("a"), ab.language("b")
    with pytest.raises(ValueError, match="alphabet mismatch"):
        _MIXED[case](ab, a, x, y)


def test_operations_on_one_alphabet_from_two_carriers_combine():
    """Two carriers over equal alphabets share elements' alphabets: no
    operation raises, and the results are the languages expected."""
    ab, other = series.language_instance(("a", "b")), series.language_instance(["a", "b"])
    x, y = ab.language("a"), other.language("b")
    assert ab.eq(ab.add(x, y), ab.language("a", "b"))
    assert ab.eq(ab.mul(x, y), ab.language("ab"))
    assert ab.eq(ab.plus(y), other.plus(y))
    f, g = _polys(x, y)
    assert series.series_add(f, g).coeff("b") and cauchy_mul(f, g).coeff("ab")


def test_plus_fixed_point_identity():
    sc = SeriesCarrier(valuation.from_carrier(make_instance("nat")), ("a", "b"), bound=8)
    rng = random.Random(12)
    for _ in range(20):
        f = sc.sample(rng)
        fp = sc.plus(f)
        lhs = sc.add(sc.mul(f, fp), f)
        assert bounded_eq(lhs, fp, 8).ok


def test_bounded_eq_reports_witness(natsc):
    f = natsc.poly({"a": 2})
    g = natsc.poly({"a": 3})
    report = bounded_eq(f, g, 1)
    assert not report.ok
    assert report.failures[0].inputs == ("a",)
    assert report.failures[0].lhs == "2" and report.failures[0].rhs == "3"


def test_bounded_eq_same_series(natsc):
    f = natsc.poly({"ab": 2})
    assert bounded_eq(f, f, 6).ok


def test_plus_vs_iterated_products_boolean(lang6):
    # a+ and a·a* agree up to the bound
    a = lang6.language("a")
    aplus = lang6.plus(a)
    astar_a = lang6.add(a, lang6.mul(a, aplus))   # a + a·a+ = a·a*
    assert lang6.eq(aplus, astar_a)


# --- the language instance ------------------------------------------------------

def test_language_instance_examples(lang6):
    a, b = lang6.language("a"), lang6.language("b")
    assert lang6.plus(a).coeff("aaa")
    assert lang6.mul(a, b).coeff("ab") and not lang6.mul(a, b).coeff("ba")
    assert lang6.plus(lang6.add(a, b)).coeff("ba")


def test_language_ops_match_set_oracle(lang6):
    rng = random.Random(31)
    for _ in range(20):
        f, g = lang6.sample(rng), lang6.sample(rng)
        fw = {w for w in core.words_up_to(("a", "b"), 6) if w and f.coeff(w)}
        gw = {w for w in core.words_up_to(("a", "b"), 6) if w and g.coeff(w)}
        union = lang6.add(f, g)
        cat = lang6.mul(f, g)
        plus = lang6.plus(f)
        for w in core.words_up_to(("a", "b"), 6):
            if not w:
                continue
            assert union.coeff(w) == (w in fw or w in gw)
            assert cat.coeff(w) == (w in oracles.concat_languages(fw, gw, 6))
            assert plus.coeff(w) == (w in oracles.plus_language(fw, 6))


def test_boolean_closure_series_match_dfa_language_ops(lang6):
    """The generic weighted-series path over boolean weights computes the
    same languages as the DFA-backed carrier (union, concat, plus)."""
    boolw = valuation.from_carrier(make_instance("bool"))
    sc = SeriesCarrier(boolw, ("a", "b"), bound=6)
    rng = random.Random(41)
    for _ in range(15):
        words_f = {"".join(rng.choice("ab") for _ in range(rng.randrange(1, 3)))
                   for _ in range(2)}
        words_g = {"".join(rng.choice("ab") for _ in range(rng.randrange(1, 3)))}
        f1, g1 = sc.poly(dict.fromkeys(words_f, True)), sc.poly(dict.fromkeys(words_g, True))
        f2, g2 = lang6.language(*words_f), lang6.language(*words_g)
        for op1, op2 in ((sc.add(f1, g1), lang6.add(f2, g2)),
                         (sc.mul(f1, g1), lang6.mul(f2, g2)),
                         (sc.plus(f1), lang6.plus(f2))):
            for w in core.words_up_to(("a", "b"), 6):
                if w:
                    assert bool(op1.coeff(w)) == bool(op2.coeff(w)), (words_f, words_g, w)


def test_language_coeff_matches_dfa_past_the_bound(lang6):
    """Past the bound (6 here) a language element's coefficient is a walk of
    its DFA: on long words and on every factor of one, it is the DFA's run."""
    rng = random.Random(43)
    long_word = "".join(rng.choice("ab") for _ in range(200))
    words = [w for w in core.words_up_to(("a", "b"), 9) if len(w) > 6] + [long_word]
    a, b = lang6.language("a"), lang6.language("b")
    elements = [lang6.plus(lang6.add(a, b)), lang6.plus(lang6.language("ab", "b"))]
    elements += [lang6.sample(rng) for _ in range(8)]
    seen = set()
    for f in elements:
        d = f.backing
        for w in words:
            assert f.coeff(w) == d.run(w), (lang6.show(f), w)
            seen.add(f.coeff(w))
        w = long_word[:14]
        for u in {w[i:j] for i in range(len(w)) for j in range(i + 1, len(w) + 1)}:
            assert f.coeff(u) == d.run(u), (lang6.show(f), u)
    assert seen == {True, False}


def test_language_eq_is_the_bounded_table_comparison():
    """Language equality walks the pairs of DFA states; it gives the boolean
    of comparing the two tables up to the bound, here on random pairs that
    include near misses (one added word, up to the bound long)."""
    rng = random.Random(44)
    for bound in (1, 3, 6, 9):
        lang = series.language_instance(("a", "b"), bound)
        for _ in range(40):
            f = lang.sample(rng)
            r = rng.random()
            if r < 0.4:
                word = "".join(rng.choice("ab") for _ in range(rng.randrange(1, bound + 2)))
                g = lang.add(f, lang.language(word))
            elif r < 0.7:
                g = lang.plus(f)
            else:
                g = lang.sample(rng)
            assert lang.eq(f, g) == (next(_differing(f, g, bound), None) is None), \
                (bound, lang.show(f), lang.show(g))
    with pytest.raises(ValueError):
        lang.eq(lang.zero, series.language_instance(("a", "b", "c")).zero)


# --- the language carrier's memo ---------------------------------------------------

def test_language_memo_changes_no_result():
    """Random sums, products, pluses and finite languages on one carrier, a
    third of them repeats of earlier calls: every result's DFA is ``==`` to
    the operation done afresh on the operands' DFAs and matches the NFA +
    Moore oracle; equal DFAs are one element; and ``eq`` gives the verdict
    of a bare ``agree_up_to`` on every pair."""
    rng = random.Random(46)
    H = series.language_instance(("a", "b"), 5)
    words = [w for w in core.words_up_to(H.alphabet, 3) if w]
    build = {"add": dfa.union, "mul": dfa.concat, "plus": dfa.plus}
    pool, calls, repeats = [H.zero], [], 0
    for _ in range(400):
        if calls and rng.random() < 0.3:
            op, args = rng.choice(calls)
            repeats += 1
        else:
            op = rng.choice(("add", "mul", "mul", "plus", "language"))
            if op == "language":
                args = tuple(rng.sample(words, rng.randrange(1, 4)))
            else:
                args = tuple(rng.choice(pool) for _ in range(1 if op == "plus" else 2))
            calls.append((op, args))
        if op == "language":
            got = H.language(*args)
            assert got.backing == dfa.from_words(H.alphabet, args)
            want = oracles.moore_minimize(oracles.determinize(
                oracles.nfa_from_words(H.alphabet, args)))
        else:
            got = getattr(H, op)(*args)
            backings = [f.backing for f in args]
            assert got.backing == build[op](*backings), (op, [H.show(f) for f in args])
            want = oracles.language_op(op, *backings)
        assert oracles.canonical_dfa(got.backing) == oracles.canonical_dfa(want)
        if got.backing.n < 30 and got not in pool:
            pool.append(got)
    assert repeats > 100 and len(pool) > 40
    by_dfa = {}
    for f in pool:
        assert by_dfa.setdefault(oracles.canonical_dfa(f.backing), f) is f
    for f in pool:
        for g in pool:
            assert H.eq(f, g) == dfa.agree_up_to(f.backing, g.backing, H.bound)


def test_language_memo_keeps_a_bounded_amount():
    """The memo is bounded: on one carrier the memory kept after the
    hemiring suite at 120 trials and after it at 1,200 trials is the same
    within 0.5 MB (its ``RECENT`` entries, about 2 MB), and a carrier made
    for one suite, as the benchmark makes them, keeps nothing once dropped."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        H = series.language_instance(("a", "b"), 6)
        kept = []
        for trials, seed in ((120, 7), (1200, 8)):
            assert core.conway_hemiring_laws(H, None, trials, seed).ok
            gc.collect()
            kept.append(tracemalloc.get_traced_memory()[0] - start)
        del H
        assert core.conway_hemiring_laws(series.language_instance(("a", "b"), 6), None,
                                         120, 9).ok
        gc.collect()
        kept.append(tracemalloc.get_traced_memory()[0] - start)
    finally:
        tracemalloc.stop()
    assert abs(kept[1] - kept[0]) < 0.5e6 and kept[0] < 4e6, kept
    assert abs(kept[2]) < 0.1e6, kept


def test_language_memo_holds_no_element_for_good():
    """An element the caller dropped stays alive only as one of the memo's
    ``RECENT`` latest entries, and one that never went through the memo not
    at all; a dropped carrier frees its elements by reference counting."""
    H = series.language_instance(("a", "b"), 6)
    made = H._from_dfa(dfa.concat(dfa.from_words(H.alphabet, ["ab"]),
                                  dfa.from_words(H.alphabet, ["b"])))
    kept = H.plus(H.language("ab", "b"))
    made, kept = weakref.ref(made), weakref.ref(kept)
    assert made() is None and kept() is not None
    words = [w for w in core.words_up_to(H.alphabet, 10) if w]
    for w in words[:series.RECENT]:
        H.language(w)
    assert kept() is None
    gc.collect()
    gc.disable()
    try:
        H = series.language_instance(("a", "b"), 6)
        f = H.mul(H.plus(H.language("a", "ba")), H.language("b"))
        refs = [weakref.ref(x) for x in (H, f, H.zero)]
        del H, f
        assert [r() for r in refs] == [None] * 3
    finally:
        gc.enable()


# dfa.minimize calls, pinned: each is a language built, so losing the memo
# (or a path around it) shows here as a higher count
MINIMIZE_CALLS = {"conway-hemiring": 1430, "group S3": 464}


def test_language_builds_are_counted(monkeypatch):
    """The number of minimal DFAs the benchmark's language jobs build: the
    hemiring suite on a fresh carrier at seed 7, 120 trials, and the S3
    group check of the algebra workload.  Counts are deterministic."""
    from omegalg import matrices, omegalang
    calls = [0]
    minimize = dfa.minimize

    def counted(d):
        calls[0] += 1
        return minimize(d)
    monkeypatch.setattr(dfa, "minimize", counted)
    core.conway_hemiring_laws(series.language_instance(("a", "b"), 6), None, 120, 7)
    suite, calls[0] = calls[0], 0
    matrices.group_identity_check(matrices.builtin_groups()["S3"],
                                  series.language_instance(("a", "b"), 6), None, 1, 42,
                                  omegalang.language_pair(("a", "b"), bound=6))
    counts = {"conway-hemiring": suite, "group S3": calls[0]}
    assert counts == MINIMIZE_CALLS, counts


def test_operations_make_their_tables_with_the_series():
    """An operation reads each operand's table once, when it makes its
    series; a query within the bound is a lookup in the series' own table;
    and no query, within the bound or past it, changes a bound or a table."""
    natw = valuation.from_carrier(make_instance("nat"))
    sc = SeriesCarrier(natw, ("a", "b"), bound=4)

    class Counted(Series):
        """Counts the reads of its table: the property stands over the slot
        ``Series.table`` and stores through it."""
        __slots__ = ("reads",)

        @property
        def table(self):
            self.reads += 1
            return Series.table.__get__(self)

        @table.setter
        def table(self, table):
            self.reads = 0
            Series.table.__set__(self, table)

    def operand():
        return Counted(natw, ("a", "b"), 4, {"a": 1}, lambda word, memo: series._MISS)

    f, h = operand(), operand()
    assert (f.reads, h.reads) == (0, 0)
    g = sc.add(f, h)
    assert (f.reads, h.reads) == (1, 1)
    k = sc.plus(sc.add(sc.mul(f, h), sc.nat_act(2, f)))
    assert (f.reads, h.reads) == (3, 2)
    made = [(s.table, dict(s.table)) for s in (g, k)]
    assert g.coeff("a") == 2 and k.coeff("aa") == 5     # 1·aa + (2a)(2a)
    assert [k.coeff("a" * n) for n in range(1, 5)] == [2, 5, 12, 29]
    assert (f.reads, h.reads) == (3, 2)                   # within the bound: lookups only
    assert k.coeff("a" * 6) == 169 and k.table_at(6)["a" * 6] == 169
    assert bounded_eq(k, k, 6).ok and next(_differing(k, g, 6), None) is not None
    assert all(s.bound == 4 for s in (f, h, g, k))
    assert all(s.table is table and table == kept for s, (table, kept) in zip((g, k), made))


def test_language_elements_are_bound_zero_machines():
    """The language carrier's elements answer from their DFAs: after the
    hemiring suite and the S3 group check of the benchmark's language jobs,
    every element the carriers hold has bound 0 and the empty table, while
    each carrier keeps its bound for equality."""
    from omegalg import matrices
    lang = series.language_instance(("a", "b"), 6)
    pair = omegalang.language_pair(("a", "b"), bound=6)
    assert core.conway_hemiring_laws(lang, None, 120, 7).ok
    matrices.group_identity_check(matrices.builtin_groups()["S3"], lang, None, 1, 42, pair)
    held = [*lang._interned.values(), *pair.hemiring._interned.values()]
    assert len(held) > 100
    assert all(f.bound == 0 and f.table == {} for f in held)
    assert lang.bound == pair.hemiring.bound == 6


def test_long_operand_chains_build_without_recursion():
    """A 5,000-letter product, a 5,000-term sum and ``a`` under 5,000 plus
    signs build their tables without recursion, each series as it is made:
    with a recursion limit of 150 their evaluation and first queries answer
    as the compiled automaton does."""
    from omegalg import automata as A, ratexpr as rx
    natw = valuation.from_carrier(make_instance("nat"))
    a = rx.Letter("a")
    tower = a
    for _ in range(5000):
        tower = rx.Plus(tower)
    for e in (reduce(rx.Prod, [a] * 5000), reduce(rx.Sum, [a] * 5000), tower):
        aut = A.compile(e, natw, ("a", "b"))
        want = [A.finitary_coeff(aut, w) for w in ("a", "aa")]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            s = rx.eval_fin(e, natw)
            got = [s.coeff(w) for w in ("a", "aa")]
        finally:
            sys.setrecursionlimit(limit)
        assert got == want
    assert want == [1, 5000]


def _series_of_every_kind(lang):
    """Factories of one series per builder kind, at bound 8 and, past which
    queries go, at bound 3, and of the two machines' series, at bound 0."""
    from omegalg import automata as A, ratexpr as rx
    natw = valuation.from_carrier(make_instance("nat"))
    ab = ("a", "b")
    kinds = {}
    for bound in (8, 3):
        def p(bound=bound):
            return series.polynomial(natw, ab, {"a": 2, "ab": 1, "bba": 3}, bound)

        def q(bound=bound):
            return series.polynomial(natw, ab, {"b": 1, "ba": 4}, bound)

        kinds.update({
            f"zero/{bound}": lambda bound=bound: series.zero_series(natw, ab, bound),
            f"poly/{bound}": p,
            f"add/{bound}": lambda p=p, q=q: series.series_add(p(), q()),
            f"mul/{bound}": lambda p=p, q=q: cauchy_mul(p(), q()),
            f"plus/{bound}": lambda p=p: series_plus(p()),
            f"nat/{bound}": lambda p=p: series.scale_nat(3, p()),
        })
    aut = A.compile(rx.parse("(a + 2b)(ab)^+"), natw, ab)
    kinds["automaton"] = lambda: A.finitary_series(aut)
    kinds["language"] = lambda: lang.plus(lang.language("ab", "b"))
    return kinds


def test_in_alphabet_queries_never_reach_the_letter_loop(monkeypatch, lang6):
    """On series of every kind, fresh or already queried, a query on any
    word over the alphabet up to length 8 passes the letter test without the
    loop that names a foreign letter, and answers as before."""
    kinds = _series_of_every_kind(lang6)
    assert {name: make().bound for name, make in kinds.items()} == {
        **{f"{kind}/{bound}": bound for kind in ("zero", "poly", "add", "mul", "plus", "nat")
           for bound in (8, 3)}, "automaton": 0, "language": 0}
    words = [w for w in core.words_up_to(("a", "b"), 8) if w]
    assert len(words) == 510
    want = {name: [make().coeff(w) for w in words] for name, make in kinds.items()}

    def loop(word, alphabet):
        raise AssertionError(f"letter loop reached on {word!r}")

    monkeypatch.setattr(series, "_check_letters", loop)
    for name, make in kinds.items():
        one = make()
        assert [make().coeff(w) for w in words] == want[name], name
        assert [one.coeff(w) for w in words] == want[name], name


def test_tables_past_the_bound_read_the_coefficients(lang6):
    """A table asked for past a series' bound holds exactly its non-zero
    coefficients there, as the same series made at bound 8 has them; and
    ``bounded_eq`` past the bound finds the bound-8 twin equal and every
    non-zero coefficient of the support against zero, in shortlex order."""
    kinds = _series_of_every_kind(lang6)
    words = list(core.words_up_to(("a", "b"), 5))
    for name, make in kinds.items():
        f = make()
        want = {u: f.coeff(u) for u in words if not f.weights.eq(f.coeff(u), f.weights.zero)}
        assert f.table_at(5) == want, name
        if name.endswith("/3"):
            twin = kinds[name.replace("/3", "/8")]()
            assert want == twin.table_at(5), name
            report = bounded_eq(make(), twin, 5)
            assert report.ok and report.trials == len(words) == 63, name
            zero = series.zero_series(f.weights, f.alphabet, 8)
            shown = [(f.weights.show(x), u) for u, x in want.items()]
            assert [(x.lhs, x.inputs[0]) for x in bounded_eq(make(), zero, 5).failures] == \
                shown[:20], name
            assert make().bound == 3


def test_foreign_letters_raise_the_same_error(lang6):
    """A foreign letter at the start, middle or end of a word, within the
    bound and past it, is named in one message; the first one is named."""
    for name, make in _series_of_every_kind(lang6).items():
        for query in (make(), make()):
            for word in ("c", "cab", "acb", "abc", "caaaaaaaaa", "aaaacaaaaa", "aaaaaaaaac",
                         "abcd", "d" * 12 + "c"):
                foreign = next(ch for ch in word if ch not in "ab")
                with pytest.raises(ValueError) as err:
                    query.coeff(word)
                assert str(err.value) == f"letter {foreign!r} outside alphabet ('a', 'b')", name
            query.table
    natw = valuation.from_carrier(make_instance("nat"))
    for word in ("ca", "aca", "ac"):
        with pytest.raises(ValueError, match=r"^letter 'c' outside alphabet \('a', 'b'\)$"):
            series.polynomial(natw, ("a", "b"), {"a": 1, word: 1})


def test_every_carrier_names_a_foreign_letter_alike(lang6):
    """The language carrier's constructors (built by ``dfa.from_words``),
    the ``nat`` series carrier's and ``compile`` name a foreign letter in
    the one message ``Series.coeff`` gives, and the first of two."""
    from omegalg import automata as A, ratexpr as rx
    nat = series.nat_series_instance()
    for word in ("c", "acb", "bbca", "cd", "acdc"):
        for make in (lambda: lang6.language(word), lambda: lang6.poly({word: True}),
                     lambda: nat.poly({word: 1}), lambda: nat.zero.coeff(word),
                     lambda: A.compile(rx.parse(word), nat.weights, ("a", "b"))):
            with pytest.raises(ValueError, match=r"^letter 'c' outside alphabet \('a', 'b'\)$"):
                make()


def _kleene_dump():
    """Every coefficient up to length 8 of 100 seeded expressions over the
    four weight structures of the finitary round trip, with the boolean
    ones eliminated from their automaton and evaluated again."""
    from omegalg import automata as A, ratexpr as rx
    insts = {"bool": valuation.from_carrier(make_instance("bool")),
             "nat": valuation.from_carrier(make_instance("nat")),
             "disc": valuation.make_valuation_instance("disc", lam=0.5),
             "limsup-avg": valuation.make_valuation_instance("limsup-avg")}
    words = [w for w in core.words_up_to(("a", "b"), 8) if w]
    rng = random.Random(4242)
    out = []
    for _ in range(100):
        e = rx.random_expr(rng, 4)
        for name, inst in insts.items():
            s = rx.eval_fin(e, inst)
            out.append([s.coeff(w) for w in words])
            if name == "bool":
                aut = A.compile(e, inst, ("a", "b"))
                if aut.n <= 16:
                    back, _ = A.eliminate(aut)
                    if back is not None:
                        s = rx.eval_fin(back, inst)
                        out.append([s.coeff(w) for w in words])
    return out


def test_coefficients_match_the_first_eq_and_product_forms(monkeypatch):
    """The seeded round-trip coefficients are identical under the branching
    extended-real ``eq`` and the ``is_zero``-guarded products."""
    from omegalg.instances import REAL_TOL, ExtRealCarrier
    got = _kleene_dump()
    monkeypatch.setattr(ExtRealCarrier, "eq",
                        lambda self, a, b: oracles.extreal_eq_isinf(a, b, REAL_TOL))
    monkeypatch.setattr(valuation.OmegaValuation, "prod", oracles.zero_guarded_prod)
    monkeypatch.setattr(valuation.OmegaValuation, "prod_omega", oracles.zero_guarded_prod_omega)
    assert got == _kleene_dump()


def test_language_group_identities_small(lang6, lang_pair6):
    from omegalg import matrices
    for gname in ("Z2", "Z3", "Z4", "V4"):
        g = matrices.builtin_groups()[gname]
        report = matrices.group_identity_check(g, lang6, trials=3, pair=lang_pair6)
        assert report.ok, (gname, report.failures[:1])


# --- truncated tables against brute force, and past the bound ---------------------

def reference_coeff(e, inst, word, memo, letters=None):
    """Coefficient of a finitary expression, with products and plus summed
    over every cut and factorization by the brute-force oracles.  A letter
    weighs ``letters[ch]`` (default: the unit)."""
    from omegalg import ratexpr as rx
    key = (id(e), word)
    if key not in memo:
        def sub(node):
            return lambda u: reference_coeff(node, inst, u, memo, letters)
        if isinstance(e, rx.Letter):
            weight = inst.unit if letters is None else letters[e.ch]
            out = weight if word == e.ch else inst.zero
        elif isinstance(e, rx.Scalar):
            out = inst.nat_act(e.coef, sub(e.arg)(word))
        elif isinstance(e, rx.Sum):
            out = inst.add(sub(e.left)(word), sub(e.right)(word))
        elif isinstance(e, rx.Prod):
            out = oracles.cauchy_coeff_brute(sub(e.left), sub(e.right), word,
                                             inst.add, inst.prod, inst.zero)
        else:
            out = oracles.plus_coeff_brute(sub(e.arg), word, inst.add, inst.prod, inst.zero)
        memo[key] = out
    return memo[key]


@pytest.mark.parametrize("name", ["bool", "nat", "disc", "limsup-avg"])
def test_eval_fin_tables_match_brute_force(name):
    from omegalg import ratexpr as rx
    if name in ("bool", "nat"):
        inst = valuation.from_carrier(make_instance(name))
    else:
        inst = valuation.make_valuation_instance(name)
    rng = random.Random(2024)
    words = [w for w in core.words_up_to(("a", "b"), 6) if w]
    for _ in range(25):
        e = rx.random_expr(rng, 4)
        s = rx.eval_fin(e, inst, ("a", "b"), bound=6)
        memo = {}
        for w in words:
            want = reference_coeff(e, inst, w, memo)
            assert inst.eq(s.coeff(w), want), (name, rx.to_text(e), w, s.coeff(w), want)


@pytest.mark.parametrize("name", ["disc", "limsup-avg"])
def test_length_indexed_products_match_brute_force(name):
    # letters of unequal weight, so that swapping the lengths in
    # prod(|u|, |v|, x, y) changes the coefficients; bound 6 checks the full
    # tables, bound 0 the rules past the bound on each query word's factors
    from omegalg import ratexpr as rx
    inst = valuation.make_valuation_instance(name)
    letters = {"a": 0.0, "b": 3.0}
    rng = random.Random(2025)
    words = [w for w in core.words_up_to(("a", "b"), 6) if w]
    for _ in range(20):
        e = rx.random_expr(rng, 4)
        memo = {}
        for bound in (6, 0):
            sc = SeriesCarrier(inst, ("a", "b"), bound=bound)
            s = rx.eval_fin_in_carrier(e, sc, lambda ch: sc.poly({ch: letters[ch]}))
            for w in words:
                want = reference_coeff(e, inst, w, memo, letters)
                assert inst.eq(s.coeff(w), want), (name, bound, rx.to_text(e), w,
                                                   s.coeff(w), want)


def test_tables_hold_no_zero_coefficients():
    # lattice products of disjoint sets are zero: they must not stay in the table
    lat = valuation.from_carrier(make_instance("lattice"))
    sc = SeriesCarrier(lat, ("a", "b"), bound=4)
    f = sc.poly({"a": frozenset({0}), "b": frozenset({1})})
    g = sc.mul(sc.plus(f), f)
    assert g.coeff("aa") == frozenset({0}) and g.coeff("ab") == frozenset()
    assert all(not lat.eq(v, lat.zero) for v in g.table.values())


def test_carrier_series_exact_past_bound():
    natw = valuation.from_carrier(make_instance("nat"))

    def build(sc):
        a, b = sc.poly({"a": 2}), sc.poly({"b": 1, "abab": 1})
        e = sc.poly({"": 1, "ba": 1})   # not proper: the empty cut counts
        return sc.add(sc.mul(sc.plus(a), sc.mul(e, b)), sc.nat_act(3, sc.plus(b)))

    short = build(SeriesCarrier(natw, ("a", "b"), bound=3))
    full = build(SeriesCarrier(natw, ("a", "b"), bound=9))
    assert short.coeff("aaaab") == 16
    for w in core.words_up_to(("a", "b"), 9):
        assert short.coeff(w) == full.coeff(w), w


def test_eval_fin_exact_past_bound():
    from omegalg import ratexpr as rx
    natw = valuation.from_carrier(make_instance("nat"))
    rng = random.Random(5)
    words = [w for w in core.words_up_to(("a", "b"), 8) if len(w) > 4]
    for _ in range(10):
        e = rx.random_expr(rng, 4)
        short = rx.eval_fin(e, natw, ("a", "b"), bound=4)
        full = rx.eval_fin(e, natw, ("a", "b"), bound=8)
        for w in words:
            assert short.coeff(w) == full.coeff(w), (rx.to_text(e), w)


def test_past_bound_query_on_a_dense_series():
    # ((a+b)^+)^+ has every word in its support; its coefficient at a word of
    # length n counts the compositions of n, 2^(n-1)
    from omegalg import ratexpr as rx
    natw = valuation.from_carrier(make_instance("nat"))
    s = rx.eval_fin(rx.parse("((a+b)^+)^+"), natw, ("a", "b"), bound=4)
    word = "abbabaabbbaababbbaaabaabbabaabab"
    assert s.coeff(word) == 2 ** (len(word) - 1)
    assert s.coeff("aab") == 4


def test_long_past_bound_queries_cost_one_run(lang6):
    """Past the bound, an automaton's behavior (5 states over disc) answers
    an 800-letter word with one run and a plus-closed language with one DFA
    walk: each well within 0.1 s and 1 MB."""
    from omegalg import automata as A, ratexpr as rx
    disc = valuation.make_valuation_instance("disc")
    aut = A.compile(rx.parse("((a + 2b)(a + b)^+)^+"), disc, ("a", "b"))
    assert aut.n == 5
    rng, word = random.Random(800), ""
    while len(word) < 800:      # 800 letters of (ab + b)^+
        word += rng.choice(("ab", "b")) if len(word) < 799 else "b"
    want = A.finitary_coeff(aut, word)
    assert not disc.eq(want, disc.zero)
    cases = [(A.finitary_series(aut), want), (lang6.plus(lang6.language("ab", "b")), True)]
    for f, want in cases:
        t0 = time.perf_counter()
        got = f.coeff(word)
        elapsed = time.perf_counter() - t0
        tracemalloc.start()
        try:
            f.coeff(word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert elapsed < 0.1 and peak < 2 ** 20, (elapsed, peak)


def test_series_are_freed_by_reference_counting(lang6):
    """No series keeps itself alive: with the cyclic collector off, building
    every kind of series and querying it past its bound leaves no object
    behind."""
    from omegalg import automata as A, ratexpr as rx
    natw = valuation.from_carrier(make_instance("nat"))
    sc = SeriesCarrier(natw, ("a", "b"), bound=3)
    aut = A.compile(rx.parse("(a + 2b)^+"), natw, ("a", "b"))

    def build_and_query():
        for _ in range(200):
            a, b = sc.poly({"a": 2}), sc.letter("b")
            f = sc.plus(sc.add(sc.mul(sc.plus(a), b), sc.nat_act(3, sc.plus(b))))
            g = sc.mul(f, sc.add(sc.zero, A.finitary_series(aut)))
            h = lang6.plus(lang6.mul(lang6.language("a", "ab"), lang6.letter("b")))
            assert g.coeff("abbabbab") and h.coeff("abbabbabb")

    build_and_query()   # fill the caches of first use
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        build_and_query()
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert after == before
