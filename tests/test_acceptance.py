"""Acceptance criteria, one test per criterion, each printing a pass line.

Tolerances and runtime budgets are pinned here and nowhere else: exact
equality for the discrete carriers, 1e-9 for real-valued ones (relative
above magnitude 1), 0.02 for the averaged counterexample estimates, 1e-6 for
the discounted evaluation.
"""

import random
import time
from fractions import Fraction

import oracles
from omegalg import automata as A
from omegalg import core, extension as E, matrices as M
from omegalg import omegalang, ratexpr as rx, series, valuation as V
from omegalg.core import self_pair
from omegalg.instances import make_instance
from omegalg.series import OmegaWord

AB = ("a", "b")


def _report(num, elapsed, budget, detail):
    line = f"ACCEPTANCE {num}: PASS ({elapsed:.1f}s / budget {budget}s) — {detail}"
    print(line)
    assert elapsed < budget, line


def test_acceptance_01_law_suites():
    start = time.monotonic()
    boolean, lattice, minplus = (make_instance(n) for n in ("bool", "lattice", "minplus"))
    checked = []
    for carrier in (boolean, lattice):
        star = core.conway_semiring_laws(carrier)
        plus = core.conway_hemiring_laws(core.plus_from_star(carrier))
        assert star.ok and plus.ok, (carrier.name, star.failures[:2], plus.failures[:2])
        size = len(carrier.elements())
        for report, laws in ((star, core.CONWAY_SEMIRING_LAWS), (plus, core.CONWAY_HEMIRING_LAWS)):
            assert report.trials == sum(size ** len(kinds) for _, kinds, _ in laws), report
        checked.append(f"{carrier.name} exhaustive")
    star = core.conway_semiring_laws(minplus, trials=1000)
    plus = core.conway_hemiring_laws(core.plus_from_star(minplus), trials=1000)
    assert star.ok and plus.ok
    assert star.trials >= 1000 and plus.trials >= 1000
    checked.append("minplus >=1000 samples")
    _report(1, time.monotonic() - start, 5, "; ".join(checked))


def test_acceptance_02_hemimodule_suite():
    start = time.monotonic()
    pair = omegalang.language_pair(AB, bound=8, stem_max=4, period_max=4)
    report = core.hemimodule_pair_laws(pair, trials=40)
    assert report.ok, report.failures[:3]
    _report(2, time.monotonic() - start, 30,
            f"language pair, {report.trials} checks, lassos |u|,|v| <= 4")


def test_acceptance_03_group_identities():
    start = time.monotonic()
    carriers = [make_instance(n) for n in ("bool", "minplus", "lattice")]
    lang = series.language_instance(AB, bound=6)
    lang_pair = omegalang.language_pair(AB, bound=6)
    count = 0
    for g in M.groups_up_to(6):
        for carrier in carriers:
            rep = M.group_identity_check(g, carrier, trials=12, pair=self_pair(carrier))
            assert rep.ok, (g.name, carrier.name, rep.failures[:1])
            count += 1
        rep = M.group_identity_check(g, lang, trials=2, pair=lang_pair)
        assert rep.ok, (g.name, "lang", rep.failures[:1])
        count += 1
    _report(3, time.monotonic() - start, 60,
            f"{count} group/carrier combinations, plus and omega forms")


def test_acceptance_04_matrix_formulas():
    start = time.monotonic()
    boolean, minplus = make_instance("bool"), make_instance("minplus")
    rng = random.Random(42)
    split_samples = star_oracle_samples = perm_samples = mmstar_samples = 0
    for carrier in (boolean, minplus):
        pair = self_pair(carrier)
        for n in (3, 4):
            for _ in range(30):
                m = M.mat([[carrier.sample(rng) for _ in range(n)] for _ in range(n)])
                base = M.mat_star(carrier, m)
                for k in range(1, n):
                    assert M.mat_eq(carrier, base, M.mat_star(carrier, m, split=k))
                    split_samples += 1
                assert M.mat_eq(carrier, M.mat_plus(carrier, m),
                                M.mat_mul(carrier, m, base))
                mmstar_samples += 1
                pi = M.PermutationMatrix(tuple(rng.sample(range(n), n)))
                assert M.permutation_plus_check(carrier, m, pi)
                assert M.permutation_omega_check(pair, m, pi)
                perm_samples += 2
    for _ in range(80):
        n = rng.choice((2, 3, 4))
        weights = [[minplus.sample(rng) for _ in range(n)] for _ in range(n)]
        star = M.mat_star(minplus, M.mat(weights))
        oracle = oracles.floyd_warshall(weights)
        assert all(star[i, j] == oracle[i][j] for i in range(n) for j in range(n))
        star_oracle_samples += 1
    assert split_samples >= 200 and perm_samples >= 200 and mmstar_samples >= 200 // 2
    _report(4, time.monotonic() - start, 10,
            f"{split_samples} splits, {perm_samples} permutation checks, "
            f"{star_oracle_samples} shortest-path comparisons (exact)")


def test_acceptance_05_extension():
    start = time.monotonic()
    boolean = make_instance("bool")
    lang = series.language_instance(AB, bound=8)
    ext = E.extension(boolean, lang, E.biaction_bool(lang), validate_samples=100)
    # the idempotent-extension star collapses the scalar part
    a = lang.language("a")
    assert ext.eq(ext.star(ext.add(ext.one, ext.embed(a))),
                  ext.partial_star(ext.embed(a)))
    rng = random.Random(42)
    for _ in range(200):
        s = ext.sample(rng)
        st = ext.star(s)
        assert ext.eq(ext.add(ext.mul(s, st), ext.one), st)
    tau = E.ExtensionMorphism(ext, ext, lambda x: x, lambda f: f, validate_samples=60)
    hom = tau.homomorphism_report(trials=100)
    assert hom.ok, hom.failures[:2]
    _report(5, time.monotonic() - start, 20,
            "scalar-collapse witness (L=8), 200 fixed points, morphism checks")


def test_acceptance_06_kleene_round_trips():
    start = time.monotonic()
    boolw = V.from_carrier(make_instance("bool"))
    natw = V.from_carrier(make_instance("nat"))
    disc = V.make_valuation_instance("disc", lam=0.5)
    rng = random.Random(42)
    fin_exprs = [rx.random_expr(rng, 4) for _ in range(500)]
    words = [w for w in core.words_up_to(AB, 8) if w]
    for inst in (boolw, natw, disc):
        for e in fin_exprs:
            s = rx.eval_fin(e, inst, AB)
            table = A.batch_finitary(A.compile(e, inst, AB), 8)
            for w in words:
                assert inst.eq(s.coeff(w), table.get(w, inst.zero)), \
                    (inst.name, rx.to_text(e), w)
    pair = omegalang.language_pair(AB, bound=6)
    omega_exprs = [rx.random_expr(rng, 3, kind="omega") for _ in range(200)]
    for e in omega_exprs:
        fp = rx.eval_omega_in_pair(e, pair, pair.hemiring.letter)
        aut = A.compile(e, boolw, AB)
        for w in pair.module.lassos:
            assert A.infinitary_coeff(aut, w) == (w in fp), (rx.to_text(e), str(w))
    # eliminate . compile preserves both behaviors under the same bounds
    fin_checked = omega_checked = 0
    for e in fin_exprs:
        aut = A.compile(e, boolw, AB)
        if aut.n > 16 or fin_checked >= 150:
            continue
        fin_checked += 1
        fin, _ = A.eliminate(aut)
        s1 = rx.eval_fin(e, boolw, AB)
        if fin is None:
            assert all(not s1.coeff(w) for w in words)
            continue
        s2 = rx.eval_fin(fin, boolw, AB)
        for w in words:
            assert s1.coeff(w) == s2.coeff(w), (rx.to_text(e), w)
    for e in omega_exprs:
        aut = A.compile(e, boolw, AB)
        if aut.n > 10 or omega_checked >= 60:
            continue
        omega_checked += 1
        _, om = A.eliminate(aut)
        fp1 = rx.eval_omega_in_pair(e, pair, pair.hemiring.letter)
        fp2 = (rx.eval_omega_in_pair(om, pair, pair.hemiring.letter)
               if om is not None else frozenset())
        assert fp1 == fp2, rx.to_text(e)
    assert fin_checked >= 100 and omega_checked >= 40
    _report(6, time.monotonic() - start, 300,
            f"500 finitary x 3 instances, 200 omega, eliminate on "
            f"{fin_checked}+{omega_checked} of them")


def test_acceptance_07_liminf_regroup_counterexample():
    start = time.monotonic()
    inst = V.make_valuation_instance("liminf")
    seq = V.WeightedSeq((), ((1, 0.0), (1, 1.0)))
    direct = inst.val_omega(seq).value
    regrouped = inst.val_omega(seq.regroup(2, inst)).value
    assert direct == 0.0
    assert regrouped == 1.0
    _report(7, time.monotonic() - start, 5, "liminf: direct 0 vs regrouped 1, exact")


def test_acceptance_08_average_regroup_counterexample():
    start = time.monotonic()
    trace = V.counterexample_regroup_avg(24)
    assert abs(trace.direct_estimate - 2 / 3) <= 0.02
    assert abs(trace.regrouped_estimate - 1 / 3) <= 0.02
    _report(8, time.monotonic() - start, 5,
            f"direct {trace.direct_estimate:.4f} ~ 2/3, "
            f"regrouped {trace.regrouped_estimate:.4f} ~ 1/3 at 24 blocks")


def test_acceptance_09_product_omega_counterexample():
    start = time.monotonic()
    trace = V.counterexample_product_omega(8)
    assert all(x == Fraction(1, 2) for x in trace.lhs_estimates)
    assert float(trace.rhs_estimates[-1]) >= 0.9
    assert all(a < b for a, b in zip(trace.rhs_estimates, trace.rhs_estimates[1:]))
    assert all(x < 1 for x in trace.rhs_estimates)
    assert trace.rhs_estimates == trace.rhs_closed_form
    _report(9, time.monotonic() - start, 5,
            f"lhs exactly 1/2 at every boundary, rhs {float(trace.rhs_estimates[-1]):.4f} "
            "monotone toward 1, closed form verified")


def test_acceptance_10_discounted_evaluation():
    start = time.monotonic()
    disc = V.make_valuation_instance("disc", lam=0.5)
    aut = A.MatrixAutomaton(disc, ("a",), 1, 1, (1,), (1,), ((0, "a", 0, 1.0),))
    value, trace = oracles.discounted_value_iteration(aut, OmegaWord("", "a"), tol=1e-9)
    assert abs(value - 2.0) <= 1e-6
    for estimate, bound in trace:
        assert abs(estimate - 2.0) <= bound + 1e-12
    _report(10, time.monotonic() - start, 5,
            f"a^w value {value:.9f} = 2.0 ± 1e-6; bound dominates at all "
            f"{len(trace)} depths")
