"""Workload ``kleene``: the finitary Kleene round trip.

One job is one (expression, instance) pair.  The series route evaluates
the expression with ``ratexpr.eval_fin`` and asks ``coeff`` for every
nonempty word up to length 8; the automaton route compiles it and sweeps
``automata.batch_finitary``; for boolean automata with at most 16 states
the elimination route turns the automaton back into an expression and
evaluates that.  The verdict is that all routes agree; the oracle is a
truncated coefficient table computed from the expression tree.

The series layer does almost all the work here, so a change to how series
are represented should move this workload.
"""

from __future__ import annotations

import random

import bench_oracles as oracles
from omegalg import automata as A
from omegalg import core
from omegalg import ratexpr as rx
from omegalg import valuation as V
from omegalg.instances import make_instance

AB = ("a", "b")
BOUND = 8
DEPTH = 4
WORDS = tuple(w for w in core.words_up_to(AB, BOUND) if w)
ELIMINATE_MAX_STATES = 16


def instances(wrap):
    """The four weight instances; ``wrap`` puts a counting proxy on the
    carrier the library receives (identity in the untraced run)."""
    return {
        "bool": V.from_carrier(wrap(make_instance("bool"))),
        "nat": V.from_carrier(wrap(make_instance("nat"))),
        "disc": wrap(V.make_valuation_instance("disc", lam=0.5)),
        "limsup-avg": wrap(V.make_valuation_instance("limsup-avg")),
    }


def dag_size(expr) -> int:
    """Distinct nodes of an expression DAG (shared subterms count once)."""
    seen = set()
    work = [expr]
    while work:
        node = work.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        for field in ("arg", "left", "right", "head", "tail"):
            child = getattr(node, field, None)
            if child is not None:
                work.append(child)
    return len(seen)


class Kleene:
    name = "kleene"
    round_s = 0.1       # one job per instance
    trace_rounds = 40

    def __init__(self, seed, rounds):
        rng = random.Random(seed)
        self.plain = instances(lambda c: c)
        # a fresh expression for every job
        self.jobs = [(rx.random_expr(rng, DEPTH), name)
                     for _ in range(rounds) for name in self.plain]
        self.trace_jobs = self.jobs

    def instances(self, tr):
        return instances(tr.wrap) if tr.enabled else self.plain

    def run(self, job, tr, insts):
        expr, name = job
        inst = insts[name]
        eq = self.plain[name].eq
        series = tr.call("ratexpr.eval_fin", rx.eval_fin, expr, inst, AB, BOUND)
        values = [tr.call("series.coeff", series.coeff, w) for w in WORDS]
        aut = tr.call("automata.compile", A.compile, expr, inst, AB)
        tr.count("automata.compile.states", aut.n)
        table = tr.call("automata.batch_finitary", A.batch_finitary, aut, BOUND)
        zero = inst.zero
        agree = all(eq(v, table.get(w, zero)) for w, v in zip(WORDS, values))
        if name == "bool" and aut.n <= ELIMINATE_MAX_STATES:
            fin, _ = tr.call("automata.eliminate", A.eliminate, aut)
            if tr.enabled:
                tr.count("automata.eliminate.expr_nodes", dag_size(fin))
            if fin is None:
                agree = agree and not any(values)
            else:
                back = tr.call("ratexpr.eval_fin", rx.eval_fin, fin, inst, AB, BOUND)
                agree = agree and all(eq(tr.call("series.coeff", back.coeff, w), v)
                                      for w, v in zip(WORDS, values))
        return agree, values

    def expected(self, job):
        expr, name = job
        return oracles.series_table(expr, oracles.weights(name), AB, BOUND)

    def check(self, job, output, expected):
        agree, values = output
        w = oracles.weights(job[1])
        return agree and all(w.close(v, expected.get(word, w.zero))
                             for word, v in zip(WORDS, values))

    def oracle_name(self, job):
        return "series_table"
