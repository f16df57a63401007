"""Workload ``algebra``: identities on carriers and matrices.

This is where the paper's identities and counterexamples live.  One round
runs, each as its own job and with fresh matrices and suite seeds:

* the Conway semiring and hemiring suites on bool and lattice (exhaustive)
  and min-plus; the hemiring suite on the series carriers (naturals and
  discounted weights, bounded equality at L = 6) and on the language
  carrier; the hemimodule suite on the self pairs and the language pair;
* the multi-hemiring and omega-valuation suites on all six valuation
  instances;
* matrix star, plus, omega and omega_k on min-plus and boolean matrices at
  n = 16, 32 and 64 (omega at 64 in the traced run only), the literal ``split=k`` forms and the permutation
  checks at small n, and the group identities for every group of order at
  most 6 over bool, min-plus, lattice and languages;
* one extension construction with star fixed points, and the three
  counterexample harnesses.

Every suite's verdict is known: all hold except the omega-valuation suite
on liminf, which the regrouping witness breaks.  Matrix results are checked
against shortest paths and reachability computed with networkx.

Matrices carry a large share here and little anywhere else (``mat_omega``
at n = 64 is O(n^4)); series appear as shallow sampled polynomials
compared by bounded equality, the opposite of ``kleene``'s deep lazy
expressions; the language carrier puts real load on the DFA kit.
"""

from __future__ import annotations

import random
from fractions import Fraction

import bench_oracles as oracles
from lasso import language_pair, language_proxy
from omegalg import core, series
from omegalg import extension as E
from omegalg import matrices as M
from omegalg import valuation as V
from omegalg.instances import INF, make_instance

AB = ("a", "b")
SERIES_BOUND = 6
SERIES_TRIALS = 25
SIZES = (16, 32, 64)
# mat_omega at n = 64 is O(n^4) and takes about 5 s on min-plus, half a
# pass on its own: the traced run measures it, the timed run stops at 32.
TRACE_ONLY_SIZE = 64
MATRIX_OPS = ("mat_star", "mat_plus", "mat_omega", "mat_omega_k")
VALUATIONS = ("sup", "limsup", "liminf", "disc", "limsup-avg", "lattice-inf")
# the only suite expected to fail, with the laws it breaks
EXPECTED_FAILURES = {("valuation", "omega", "liminf"): ("regrouping_invariance",)}
# Group identities over languages draw the acceptance test's first sample
# (seed 42) instead of a seeded one.  Their cost is heavy-tailed in the
# samples: at order >= 4 about one sample seed in five makes a single check
# run for seconds to minutes (determinize blow-up in the language carrier),
# which no run length here could average out.
LANG_GROUP_SEED = 42
LANG_GROUP_TRIALS = 1


def _random_matrix(rng, name, n):
    if name == "minplus":
        return [[INF if rng.random() < 0.65 else rng.randrange(0, 7) for _ in range(n)]
                for _ in range(n)]
    return [[rng.random() < 2.0 / n for _ in range(n)] for _ in range(n)]


def _entries(result):
    if isinstance(result, M.Matrix):
        return [list(row) for row in result.entries]
    return list(result)


class Carriers:
    """The carriers one mode of a run hands to the library."""

    def __init__(self, tr):
        self.tr = tr
        self.base = {name: tr.wrap(make_instance(name)) for name in ("bool", "lattice", "minplus")}

    def valuation(self, name):
        if name == "lattice-inf":
            return V.make_valuation_instance(
                "lattice-inf", carrier=self.tr.wrap(make_instance("lattice")))
        return self.tr.wrap(V.make_valuation_instance(name))

    def series(self, name):
        """Series carrier at bound 6 whose weights count their operations and
        whose bounded equality opens ``series.carrier_eq``."""
        tr = self.tr
        if name == "nat-series":
            c = series.nat_series_instance(AB, SERIES_BOUND)
            if tr.enabled:
                c.weights = tr.wrap(c.weights)
                c.zero = series.zero_series(c.weights, c.alphabet)
        else:
            c = V.series_carrier(tr.wrap(V.make_valuation_instance("disc", lam=0.5)),
                                 AB, SERIES_BOUND)
        return tr.wrap(c, spans={"eq": "series.carrier_eq"}, counted=False) if tr.enabled else c

    def lang(self, bound=SERIES_BOUND):
        lang = series.language_instance(AB, bound)
        return language_proxy(self.tr, lang) if self.tr.enabled else lang


class Algebra:
    name = "algebra"
    round_s = 10.0
    trace_rounds = 1

    def __init__(self, seed, rounds):
        rng = random.Random(seed)
        self.groups = M.builtin_groups()
        self.jobs = [job for _ in range(rounds) for job in self._round(rng)]
        self.trace_jobs = self.jobs + [("matrix", "mat_omega", c, TRACE_ONLY_SIZE,
                                        _random_matrix(rng, c, TRACE_ONLY_SIZE))
                                       for c in ("minplus", "bool")]

    def _round(self, rng):
        """One of each job, with fresh matrices and suite seeds."""
        def sub():
            return rng.randrange(2 ** 31)

        jobs = []
        for c in ("bool", "lattice", "minplus"):
            jobs.append(("suite", "conway-semiring", c, sub()))
            jobs.append(("suite", "conway-hemiring", c, sub()))
        for c in ("nat-series", "disc-series", "lang"):
            jobs.append(("suite", "conway-hemiring", c, sub()))
        for c in ("bool", "lattice", "minplus", "lang"):
            jobs.append(("suite", "hemimodule", c, sub()))
        for name in VALUATIONS:
            jobs.append(("valuation", "multi", name, sub()))
            jobs.append(("valuation", "omega", name, sub()))
        for c in ("minplus", "bool"):
            for n in SIZES:
                for op in MATRIX_OPS:
                    if not (op == "mat_omega" and n == TRACE_ONLY_SIZE):
                        jobs.append(("matrix", op, c, n, _random_matrix(rng, c, n)))
        for c in ("minplus", "bool"):
            carrier = make_instance(c)
            for n in (3, 4):
                for _ in range(10):
                    rows = [[carrier.sample(rng) for _ in range(n)] for _ in range(n)]
                    jobs.append(("split", c, rows))
                    jobs.append(("perm", c, rows, sub()))
        for g in M.groups_up_to(6):
            for c in ("bool", "minplus", "lattice"):
                jobs.append(("group", g.name, c, sub()))
            jobs.append(("group", g.name, "lang", LANG_GROUP_SEED))
        jobs.append(("extension", sub()))
        for which in ("liminf-regroup", "avg-regroup", "avg-product-omega"):
            jobs.append(("counterexample", which))
        return jobs

    def instances(self, tr):
        return Carriers(tr)

    # -- jobs ---------------------------------------------------------------------

    def run(self, job, tr, cs):
        return getattr(self, "_" + job[0])(job, tr, cs)

    def _suite(self, job, tr, cs):
        _, suite, name, seed = job
        if suite == "hemimodule":
            if name == "lang":
                pair = language_pair(cs.tr)
                args = (core.hemimodule_pair_laws, pair, None, None, 20, seed)
            else:
                args = (core.hemimodule_pair_laws, core.self_pair(cs.base[name]), None, None,
                        200, seed)
        else:
            fn = (core.conway_semiring_laws if suite == "conway-semiring"
                  else core.conway_hemiring_laws)
            if name in ("nat-series", "disc-series"):
                args = (fn, cs.series(name), None, SERIES_TRIALS, seed)
            elif name == "lang":
                args = (fn, cs.lang(), None, 120, seed)
            elif name == "minplus":
                args = (fn, cs.base[name], None, 1000, seed)
            else:
                args = (fn, cs.base[name], None, 1000, seed, True)
        report = tr.call("core.law_suites", *args)
        tr.count("core.law_suites.trials", report.trials)
        return _verdict(report)

    def _valuation(self, job, tr, cs):
        _, suite, name, seed = job
        fn = V.multi_hemiring_laws if suite == "multi" else V.omega_valuation_laws
        trials = 400 if suite == "multi" else 200
        report = tr.call("valuation.law_suites", fn, cs.valuation(name), trials, seed)
        tr.count("valuation.law_suites.trials", report.trials)
        return _verdict(report)

    def _matrix(self, job, tr, cs):
        _, op, name, n, rows = job
        c = cs.base[name]
        m = M.mat(rows)
        span = f"matrices.{op}.n{n}"
        if op == "mat_star":
            out = tr.call(span, M.mat_star, c, m)
        elif op == "mat_plus":
            out = tr.call(span, M.mat_plus, c, m)
        elif op == "mat_omega":
            out = tr.call(span, M.mat_omega, core.self_pair(c), m)
        else:
            out = tr.call(span, M.mat_omega_k, core.self_pair(c), m, n // 2)
        return _entries(out)

    def _split(self, job, tr, cs):
        _, name, rows = job
        return tr.call("matrices.split_forms", _split_forms, cs.base[name], rows)

    def _perm(self, job, tr, cs):
        _, name, rows, seed = job
        return tr.call("matrices.permutation_checks", _permutation_checks, cs.base[name],
                       rows, seed)

    def _group(self, job, tr, cs):
        _, gname, name, seed = job
        g = self.groups[gname]
        if name == "lang":
            report = tr.call("matrices.group_identity_check", M.group_identity_check, g,
                             cs.lang(), None, LANG_GROUP_TRIALS, seed, language_pair(cs.tr))
        else:
            c = cs.base[name]
            report = tr.call("matrices.group_identity_check", M.group_identity_check,
                             g, c, None, 12, seed, core.self_pair(c))
        return _verdict(report)

    def _extension(self, job, tr, cs):
        seed = job[1]
        boolean, lang = cs.base["bool"], cs.lang()
        ext = tr.call("extension.extension", lambda: E.extension(
            boolean, lang, E.biaction_bool(lang), validate_samples=100))
        a = lang.language("a")
        collapse = ext.eq(tr.call("extension.star", ext.star, ext.add(ext.one, ext.embed(a))),
                          ext.partial_star(ext.embed(a)))
        rng = random.Random(seed)
        held = 0
        for _ in range(200):
            s = ext.sample(rng)
            st = tr.call("extension.star", ext.star, s)
            held += ext.eq(ext.add(ext.mul(s, st), ext.one), st)
        return collapse, held

    def _counterexample(self, job, tr, cs):
        which = job[1]
        if which == "liminf-regroup":
            def liminf():
                inst = V.make_valuation_instance("liminf")
                seq = V.WeightedSeq((), ((1, 0.0), (1, 1.0)))
                return inst.val_omega(seq).value, inst.val_omega(seq.regroup(2, inst)).value
            return tr.call("valuation.counterexamples", liminf)
        if which == "avg-regroup":
            trace = tr.call("valuation.counterexamples", V.counterexample_regroup_avg, 24)
            return trace.direct_estimate, trace.regrouped_estimate
        trace = tr.call("valuation.counterexamples", V.counterexample_product_omega, 8)
        return list(trace.lhs_estimates), list(trace.rhs_estimates)

    # -- oracles --------------------------------------------------------------------

    def expected(self, job):
        kind = job[0]
        if kind in ("suite", "valuation", "group"):
            return EXPECTED_FAILURES.get(job[:3], ())
        if kind == "matrix":
            _, op, name, n, rows = job
            return _matrix_oracle(name)(rows, op.split("_", 1)[1], n // 2)
        if kind == "split":
            _, name, rows = job
            return _matrix_oracle(name)(rows, "star")
        if kind == "counterexample" and job[1] == "avg-product-omega":
            return oracles.product_omega_closed_form(8)
        return None

    def check(self, job, output, expected):
        kind = job[0]
        if kind in ("suite", "valuation", "group"):
            ok, laws, trials = output
            return trials > 0 and ok == (not expected) and laws == expected
        if kind in ("matrix", "split"):
            if kind == "split":
                same, output = output
                if not same:
                    return False
            return output == expected
        if kind == "perm":
            return output is True
        if kind == "extension":
            return output == (True, 200)
        which = job[1]
        if which == "liminf-regroup":
            return output == (0.0, 1.0)
        if which == "avg-regroup":
            direct, regrouped = output
            return abs(direct - 2 / 3) <= 0.02 and abs(regrouped - 1 / 3) <= 0.02
        lhs, rhs = output
        return (all(x == Fraction(1, 2) for x in lhs) and rhs == expected
                and all(a < b < 1 for a, b in zip(rhs, rhs[1:])) and float(rhs[-1]) >= 0.9)

    def oracle_name(self, job):
        kind = job[0]
        if kind in ("matrix", "split"):
            if job[2 if kind == "matrix" else 1] == "bool":
                return "reachability"
            op = job[1] if kind == "matrix" else "mat_star"
            return "zero_cycle" if "omega" in op else "floyd_warshall"
        if kind == "counterexample":
            return "pinned"
        return "known_verdict"


def _matrix_oracle(name):
    return oracles.minplus_matrix_oracle if name == "minplus" else oracles.bool_matrix_oracle


def _verdict(report):
    return report.ok, tuple(sorted({f.law for f in report.failures})), report.trials


def _split_forms(c, rows):
    """Literal block formulas at every split point against the default;
    returns whether all agree, and the default star."""
    pair = core.self_pair(c)
    m = M.mat(rows)
    star, plus, omega = M.mat_star(c, m), M.mat_plus(c, m), M.mat_omega(pair, m)
    same = True
    for k in range(1, m.rows):
        same = same and M.mat_eq(c, star, M.mat_star(c, m, split=k))
        same = same and M.mat_eq(c, plus, M.mat_plus(c, m, split=k))
        same = same and all(c.eq(x, y) for x, y in zip(omega, M.mat_omega(pair, m, split=k)))
    return same, _entries(star)


def _permutation_checks(c, rows, seed):
    """Plus, star and omega commute with conjugation by a random permutation."""
    m = M.mat(rows)
    pi = M.PermutationMatrix(tuple(random.Random(seed).sample(range(m.rows), m.rows)))
    return (M.permutation_plus_check(c, m, pi) and M.permutation_star_check(c, m, pi)
            and M.permutation_omega_check(core.self_pair(c), m, pi))
