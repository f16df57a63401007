"""Valuation structures: induced valuations, closed forms, law suites,
and the quantitative counterexamples."""

import random
from fractions import Fraction

import pytest

import oracles
from omegalg import valuation as V
from omegalg.instances import INF, make_instance
from omegalg.valuation import WeightedSeq

ALL_NAMES = ("sup", "limsup", "liminf", "disc", "limsup-avg", "lattice-inf")


@pytest.fixture(scope="module")
def insts():
    return {name: V.make_valuation_instance(name) for name in ALL_NAMES}


def test_make_instance_parameters():
    with pytest.raises(ValueError):
        V.make_valuation_instance("disc", lam=1.5)
    with pytest.raises(ValueError):
        V.make_valuation_instance("nosuch")


def test_indexed_products(insts):
    sup = insts["sup"]
    assert sup.prod(2, 3, 1.0, 4.0) == 4.0
    limsup = insts["limsup"]
    assert limsup.prod_omega(3, 9.0, 2.0) == 2.0
    avg = insts["limsup-avg"]
    assert avg.prod(1, 2, 3.0, 6.0) == 5.0
    disc = V.make_valuation_instance("disc", lam=0.5)
    assert disc.prod(1, 1, 1.0, 2.0) == 2.0
    assert disc.prod(2, 1, 0.0, 4.0) == 1.0  # 0.0 is a value, not the zero (-inf)


def test_zero_guard_everywhere(insts):
    for name, inst in insts.items():
        z = inst.zero
        a = inst.unit
        assert inst.is_zero(inst.prod(2, 3, z, a))
        assert inst.is_zero(inst.prod(2, 3, a, z))
        assert inst.is_zero(inst.prod_omega(2, z, a))
        assert inst.is_zero(inst.prod_omega(2, a, z))
        seq = WeightedSeq(((1, a),), ((2, z),))
        assert inst.is_zero(inst.val_omega(seq).value), name


def test_products_with_a_zero_operand_return_zero():
    """On every registered weight structure, ``prod`` and ``prod_omega``
    hand back the zero itself when either operand is zero, and agree with
    the ``is_zero`` form elsewhere."""
    rng = random.Random(19)
    for name, entry in V.INSTANCES.items():
        if "weights" not in entry.roles:
            continue
        inst = entry.make("weights")
        z = inst.zero
        values = [z, *(inst.monoid.sample(rng) for _ in range(8))]
        for a in values:
            for b in values:
                if inst.eq(a, z) or inst.eq(b, z):
                    assert inst.prod(2, 3, a, b) is z, (name, a, b)
                    assert inst.prod_omega(2, a, b) is z, (name, a, b)
                else:
                    assert inst.prod(2, 3, a, b) == oracles.zero_guarded_prod(inst, 2, 3, a, b)
                    assert inst.prod_omega(2, a, b) == oracles.zero_guarded_prod_omega(
                        inst, 2, a, b)


def test_induced_valuation_examples(insts):
    avg = insts["limsup-avg"]
    assert avg.val([1.0, 2.0, 3.0]) == 2.0
    disc = V.make_valuation_instance("disc", lam=0.5)
    assert abs(disc.val([1.0, 1.0, 1.0]) - 1.75) < 1e-12
    for inst in insts.values():
        assert inst.val([7.0 if inst.monoid.name == "extreal" else inst.unit]) in (
            7.0, inst.unit)


def test_induced_valuation_split_law(insts):
    import random
    rng = random.Random(3)
    for name, inst in insts.items():
        for _ in range(40):
            m = rng.randrange(1, 4)
            n = rng.randrange(1, 4)
            ds = [inst.monoid.sample(rng) for _ in range(m + n)]
            whole = inst.val(ds)
            split = inst.prod(m, n, inst.val(ds[:m]), inst.val(ds[m:]))
            assert inst.eq(whole, split), (name, ds)


def test_hemiring_derived_val_is_ordinary_product(nat, minplus):
    import random
    rng = random.Random(4)
    for carrier in (nat, minplus):
        inst = V.from_carrier(carrier)
        for _ in range(40):
            ds = [carrier.sample(rng) for _ in range(rng.randrange(1, 5))]
            prod = ds[0]
            for d in ds[1:]:
                prod = carrier.mul(prod, d)
            assert carrier.eq(inst.val(ds), prod)


def test_val_omega_closed_forms(insts):
    sup = insts["sup"]
    assert sup.val_omega(WeightedSeq(((1, 3.0),), ((1, 5.0),))).value == 5.0
    limsup = insts["limsup"]
    assert limsup.val_omega(WeightedSeq(((1, 9.0),), ((1, 5.0), (2, 1.0)))).value == 5.0
    liminf = insts["liminf"]
    assert liminf.val_omega(WeightedSeq(((1, 0.5),), ((1, 5.0), (2, 1.0)))).value == 1.0
    disc = V.make_valuation_instance("disc", lam=0.5)
    assert abs(disc.val_omega(WeightedSeq((), ((1, 1.0),))).value - 2.0) < 1e-12
    avg = insts["limsup-avg"]
    got = avg.val_omega(WeightedSeq(((5, 9.0),), ((1, 1.0), (3, 2.0)))).value
    assert abs(got - (1 * 1.0 + 3 * 2.0) / 4) < 1e-12
    lat = insts["lattice-inf"]
    a, ab = frozenset("a"), frozenset("ab")
    assert lat.val_omega(WeightedSeq(((1, ab),), ((2, a),))).value == a


def test_val_omega_matches_truncation(insts):
    disc = V.make_valuation_instance("disc", lam=0.5)
    seq = WeightedSeq(((2, 3.0),), ((1, 1.0), (2, 0.5)))
    exact = disc.val_omega(seq).value
    result = oracles.truncated_discounted_sum(disc, seq, 40)
    assert abs(result.value - exact) <= result.error_bound + 1e-12


def test_disc_truncation_bounds_decrease():
    disc = V.make_valuation_instance("disc", lam=0.5)
    seq = WeightedSeq((), ((1, 1.0),))
    bounds = [oracles.truncated_discounted_sum(disc, seq, n).error_bound for n in (2, 4, 8, 16)]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
    for n in (2, 4, 8, 16):
        r = oracles.truncated_discounted_sum(disc, seq, n)
        assert abs(r.value - 2.0) <= r.error_bound + 1e-12


def test_multi_hemiring_suite_passes(insts):
    for name, inst in insts.items():
        report = V.multi_hemiring_laws(inst, trials=250)
        assert report.ok, (name, report.failures[:2])


def test_omega_valuation_suite(insts):
    for name in ("sup", "limsup", "disc", "lattice-inf"):
        report = V.omega_valuation_laws(insts[name], trials=150)
        assert report.ok, (name, report.failures[:2])
    # limsup-average passes on eventually periodic inputs; its infinitary
    # associativity failure needs the doubling witness below
    assert V.omega_valuation_laws(insts["limsup-avg"], trials=150).ok


def test_liminf_fails_regrouping_with_canonical_witness(insts):
    report = V.omega_valuation_laws(insts["liminf"], trials=150)
    assert not report.ok
    assert {f.law for f in report.failures} == {"regrouping_invariance"}
    inst = insts["liminf"]
    seq = WeightedSeq((), ((1, 0.0), (1, 1.0)))
    assert inst.val_omega(seq).value == 0.0
    assert inst.val_omega(seq.regroup(2, inst)).value == 1.0


def test_regroup_shapes(insts):
    sup = insts["sup"]
    seq = WeightedSeq(((1, 1.0),), ((1, 2.0), (2, 3.0), (1, 4.0)))
    g = seq.regroup(2, sup)
    assert sum(n for n, _ in g.prefix) == 2       # rounded up to a group boundary
    assert sum(n for n, _ in g.block) == 8        # whole groups of length 2
    assert sup.val_omega(seq).value == sup.val_omega(g).value == 4.0


def test_weighted_seq_validation():
    with pytest.raises(ValueError):
        WeightedSeq(((1, 1.0),), ())
    with pytest.raises(ValueError):
        WeightedSeq(((0, 1.0),), ((1, 1.0),))


def test_from_carrier_valuations(boolean, minplus, lattice):
    for carrier, seq_val in ((boolean, True), (minplus, 3), (lattice, frozenset("ab"))):
        inst = V.from_carrier(carrier)
        seq = WeightedSeq((), ((1, seq_val),))
        got = inst.val_omega(seq).value
        assert carrier.eq(got, carrier.omega(seq_val))


def test_nat_has_no_infinitary_valuation(nat):
    inst = V.from_carrier(nat)
    with pytest.raises(ValueError):
        inst.val_omega(WeightedSeq((), ((1, 2),)))


def test_complete_wrapper_infinitary_axioms(boolean, minplus, lattice, insts):
    """The complete-carrier wrappers satisfy the infinite-product axioms on
    eventually periodic data: tail peeling, regrouping, distribution over
    finite choices.  The sup instance is checked the same way."""
    import random
    rng = random.Random(19)
    wrapped = [V.from_carrier(c) for c in (boolean, minplus, lattice)] + [insts["sup"]]
    for inst in wrapped:
        for _ in range(60):
            prefix = tuple((1, inst.monoid.sample(rng)) for _ in range(rng.randrange(0, 3)))
            block = tuple((1, inst.monoid.sample(rng)) for _ in range(rng.randrange(1, 4)))
            seq = WeightedSeq(prefix, block)
            whole = inst.val_omega(seq).value
            # tail law: a1 · prod_{j >= 2} = prod_{j >= 1}
            (n1, d1), tail = seq.head_tail()
            assert inst.eq(whole, inst.prod_omega(n1, d1, inst.val_omega(tail).value))
            # regrouping invariance
            for g in (2, 3):
                assert inst.eq(whole, inst.val_omega(seq.regroup(g, inst)).value)
        # distribution over a finite choice in the first coordinate
        for _ in range(30):
            choices = [inst.monoid.sample(rng) for _ in range(2)]
            block = ((1, inst.monoid.sample(rng)),)
            lhs = inst.val_omega(WeightedSeq(((1, inst.sum(choices)),), block)).value
            rhs = inst.sum(inst.val_omega(WeightedSeq(((1, c),), block)).value
                           for c in choices)
            assert inst.eq(lhs, rhs)


# --- counterexamples ------------------------------------------------------------

def test_regroup_avg_counterexample():
    trace = V.counterexample_regroup_avg(24)
    assert abs(trace.direct_estimate - 2 / 3) <= 0.02
    assert abs(trace.regrouped_estimate - 1 / 3) <= 0.02
    # the running average is exactly 2/3 at the end of every 1-block
    for j, avg in enumerate(trace.block_end_averages, start=1):
        if j % 2 == 0:
            assert avg == Fraction(2, 3)


def test_regroup_avg_two_blocks_exact():
    trace = V.counterexample_regroup_avg(2)
    assert trace.block_end_averages[-1] == Fraction(2, 3)
    assert trace.direct_estimate == pytest.approx(2 / 3)


def test_product_omega_counterexample():
    trace = V.counterexample_product_omega(8)
    assert all(x == Fraction(1, 2) for x in trace.lhs_estimates)
    assert trace.rhs_estimates == trace.rhs_closed_form
    assert all(a < b for a, b in zip(trace.rhs_estimates, trace.rhs_estimates[1:]))
    assert float(trace.rhs_estimates[-1]) >= 0.9
    # quickly ascending: the partial sums vanish against the next length
    partial = 0
    for n in trace.lengths:
        assert partial * 10 < n or partial == 0
        partial += n


def test_product_omega_requires_depth():
    with pytest.raises(ValueError):
        V.counterexample_product_omega(2)


def test_product_omega_witness_report():
    report = V.product_omega_witness_report()
    assert not report.ok
    assert report.failures[0].law == "product_omega"


def test_trace_json_serializable():
    import json
    json.dumps(V.counterexample_regroup_avg(10).to_json())
    json.dumps(V.counterexample_product_omega(6).to_json())
