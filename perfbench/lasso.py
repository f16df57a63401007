"""Workload ``lasso``: infinitary coefficients on ultimately periodic words.

One job is one (omega expression, instance) pair: ``automata.compile``,
then ``automata.infinitary_coeff`` on every canonical lasso with stem and
period at most 4 (352 lassos).  Every instance has its own strategy
(boolean, sup, limsup, cycle mean, discounted at 0.5 and 0.99, lattice
infimum).  Boolean jobs add two routes: the omega-language fingerprint of
the expression, and for automata with at most 10 states the omega side of
``automata.eliminate``.  The oracle builds its own product graphs.

Jobs run in rounds of one job per instance, each on a fresh expression.
Discounting at 0.99 queries a smaller slice, the 16 lassos with stem and
period at most 2: its value iteration grows as 1/(1 - lambda), and on the
full 352 an expression that accepts most lassos takes seconds, so one draw
would decide a run's throughput.
"""

from __future__ import annotations

import random

import bench_oracles as oracles
from kleene import dag_size
from omegalg import automata as A
from omegalg import omegalang
from omegalg import ratexpr as rx
from omegalg import valuation as V
from omegalg.core import HemimodulePair
from omegalg.instances import LatticeCarrier, make_instance

AB = ("a", "b")
DEPTH = 3
ELIMINATE_MAX_STATES = 10
FINGERPRINT_BOUND = 6
SLOW = "disc-0.99"
SLOW_STEM = SLOW_PERIOD = 2


def instances(wrap):
    """One instance per strategy; ``wrap`` puts a counting proxy on the
    carrier, or the valuation weight instance, that the library receives."""
    return {
        "bool": V.from_carrier(wrap(make_instance("bool"))),
        "sup": wrap(V.make_valuation_instance("sup")),
        "limsup": wrap(V.make_valuation_instance("limsup")),
        "limsup-avg": wrap(V.make_valuation_instance("limsup-avg")),
        "disc-0.5": wrap(V.make_valuation_instance("disc", lam=0.5)),
        "disc-0.99": wrap(V.make_valuation_instance("disc", lam=0.99)),
        "lattice-inf": V.make_valuation_instance("lattice-inf",
                                                 carrier=wrap(LatticeCarrier(3))),
    }


def language_pair(tr):
    """A fresh (languages, omega-languages) pair; traced, its ``act`` and
    ``omega`` open spans and its language carrier is a counting proxy."""
    pair = omegalang.language_pair(AB, bound=FINGERPRINT_BOUND)
    if not tr.enabled:
        return pair
    return HemimodulePair(
        hemiring=language_proxy(tr, pair.hemiring),
        module=pair.module,
        act=lambda h, v: tr.call("omegalang.act_language", pair.act, h, v),
        omega=lambda h: tr.call("omegalang.omega_language", pair.omega, h),
        name=pair.name)


def language_proxy(tr, lang):
    """Counting proxy of a language carrier: add, mul and plus each
    determinize and minimize, so they open ``dfa.lang_ops`` spans and add
    the result's state count to ``dfa.lang_states``; bounded equality opens
    ``series.carrier_eq``."""
    dfa_op = "dfa.lang_ops"
    proxy = tr.wrap(lang, spans={"add": dfa_op, "mul": dfa_op, "plus": dfa_op,
                                 "eq": "series.carrier_eq"})

    def with_states(fn):
        def call(*args):
            out = fn(*args)
            tr.count("dfa.lang_states", out.backing.n)
            return out
        return call

    for op in ("add", "mul", "plus"):
        setattr(proxy, op, with_states(getattr(proxy, op)))
    return proxy


def thresholds(inst) -> int:
    """Product graphs per query: one per nonzero lattice element, else one."""
    elements = inst.monoid.elements() if inst.strategy == "lattice" else None
    return len(elements) - 1 if elements else 1


def _flat(groups):
    return tuple(w for group in groups.values() for w in group)


class Lasso:
    name = "lasso"
    round_s = 0.4       # one job per instance
    trace_rounds = 20

    def __init__(self, seed, rounds):
        rng = random.Random(seed)
        self.plain = instances(lambda c: c)
        everything = _flat(omegalang.canonical_lassos(AB))
        small = _flat(omegalang.canonical_lassos(AB, SLOW_STEM, SLOW_PERIOD))
        self.lassos = {name: small if name == SLOW else everything for name in self.plain}
        self.jobs = [(rx.random_expr(rng, DEPTH, kind="omega"), name)
                     for _ in range(rounds) for name in self.plain]
        self.trace_jobs = self.jobs

    def instances(self, tr):
        return instances(tr.wrap) if tr.enabled else self.plain

    def run(self, job, tr, insts):
        expr, name = job
        inst = insts[name]
        aut = tr.call("automata.compile", A.compile, expr, inst, AB)
        tr.count("automata.compile.states", aut.n)
        lassos = self.lassos[name]
        span = "automata.infinitary_coeff." + name
        values = tuple(tr.call(span, A.infinitary_coeff, aut, w) for w in lassos)
        if tr.enabled:
            tr.count("automata.infinitary_coeff.queries", len(lassos))
            per_letter = aut.n * thresholds(inst)
            tr.count("automata.infinitary_coeff.product_nodes",
                     per_letter * sum(len(w.prefix) + len(w.period) for w in lassos))
        agree = True
        if name == "bool":
            pair = language_pair(tr)
            letter = pair.hemiring.letter
            fp = tr.call("ratexpr.eval_omega_in_pair", rx.eval_omega_in_pair, expr, pair, letter)
            agree = all(v == (w in fp) for v, w in zip(values, lassos))
            if aut.n <= ELIMINATE_MAX_STATES:
                _, om = tr.call("automata.eliminate", A.eliminate, aut)
                if tr.enabled:
                    tr.count("automata.eliminate.expr_nodes", dag_size(om))
                back = frozenset() if om is None else tr.call(
                    "ratexpr.eval_omega_in_pair", rx.eval_omega_in_pair, om, pair, letter)
                agree = agree and back == fp
        return agree, values

    def expected(self, job):
        expr, name = job
        aut = A.compile(expr, self.plain[name], AB)
        return oracles.lasso_values(aut.n, aut.k, aut.alpha, aut.edges, oracles.strategy(name),
                                    [(w.prefix, w.period) for w in self.lassos[name]])

    def check(self, job, output, expected):
        agree, values = output
        st = oracles.strategy(job[1])
        return agree and all(st.close(v, x) for v, x in zip(values, expected))

    def oracle_name(self, job):
        return "lasso_graph"
