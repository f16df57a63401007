"""Workload ``cli``: cold-start invocations of ``python -m omegalg.cli``.

One job is one subprocess, run to completion before the next starts.  A
round covers every command (laws, coeff on finite and omega words, compile
then behavior, group-check, the three counterexamples, manifest), with the
expressions and words of the coeff and compile calls drawn from the seed,
and the bad inputs whose documented exit code is 2.  Each verdict checks
the exit code and stdout; expected values come from the benchmark's
oracles (for omega words, from a product graph built on the library's
compiled automaton).

Four bad inputs violate the documented exit code at the time this
benchmark was written (they exit 1 with a traceback, or print ``0``).
They stay in every round, marked as known defects: they count as failed
verdicts, and a fix turns them into passed ones.  Any other failure is
unexpected and makes the run incorrect.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import bench_oracles as oracles
from omegalg import automata as A
from omegalg import omegalang
from omegalg import ratexpr as rx
from omegalg import valuation as V
from omegalg.instances import make_instance

AB = ("a", "b")
TIMEOUT_S = 120
REPEATS = 5


@dataclass(frozen=True)
class Call:
    command: str
    argv: tuple
    code: int                     # documented exit code
    check: str = "none"           # how stdout is checked
    payload: tuple = ()           # inputs of the stdout check
    known_defect: bool = False
    saves: str | None = None      # file that receives stdout (compile)


def _read(kind, text):
    """Parse one printed weight the way the instance shows it."""
    text = text.strip()
    if kind == "bool":
        return {"1": True, "0": False}[text]
    if kind == "nat":
        return int(text)
    return float(text)


class Cli:
    name = "cli"
    round_s = 9.0
    trace_rounds = 1

    def __init__(self, seed, rounds):
        rng = random.Random(seed)
        self.lassos = [w for group in omegalang.canonical_lassos(AB).values() for w in group]
        # round r passes seed + r to the commands that take a seed
        self.jobs = [call for r in range(rounds) for call in self._round(rng, r, seed + r)]
        self.trace_jobs = self.jobs
        self.src = str(Path(__file__).resolve().parent.parent / "src")

    def _round(self, rng, r, seed):
        """Every command once, with fresh expressions and words; compiled
        automata go to files named after the round."""
        lassos = self.lassos
        disc, fin, omega = (f"{kind}{r}.json" for kind in ("disc", "fin", "omega"))

        def word(lo=1, hi=6):
            return "".join(rng.choice(AB) for _ in range(rng.randint(lo, hi)))

        def lasso():
            w = rng.choice(lassos)
            return f"{w.prefix}({w.period})^w"

        s = str(seed)
        calls = [
            Call("laws", ("laws", "--instance", "minplus", "--suite", "conway-semiring",
                          "--samples", "200", "--seed", s), 0, "no_failures"),
            Call("laws", ("laws", "--instance", "liminf", "--suite", "omega-valuation",
                          "--samples", "60", "--seed", s), 1, "fails", ("regrouping_invariance",)),
            Call("laws", ("laws", "--instance", "lang", "--suite", "conway-hemiring",
                          "--samples", "30", "--bound", "6", "--seed", s), 0, "no_failures"),
            Call("laws", ("laws", "--instance", "minplus", "--suite", "hemimodule",
                          "--samples", "100", "--seed", s), 0, "no_failures"),
            Call("laws", ("laws", "--instance", "limsup-avg", "--suite", "hemimodule"),
                 1, "fails", ("product_omega",)),
            Call("coeff", ("coeff", "--instance", "nat", "--expr", "(2a)^+", "--word", "aa"),
                 0, "equals", ("4",)),
            Call("coeff", ("coeff", "--instance", "bool", "--expr", "(ab)^w",
                           "--word", "(ab)^w"), 0, "equals", ("1",)),
        ]
        for inst in ("bool", "nat", "disc", "limsup-avg") * 2:
            e, w = rx.random_expr(rng, 3), word()
            calls.append(Call("coeff", ("coeff", "--instance", inst, "--expr", rx.to_text(e),
                                        "--word", w), 0, "fin_coeff", (inst, e, w)))
        for inst in ("bool", "sup", "limsup", "limsup-avg", "disc"):
            e, w = rx.random_expr(rng, 3, kind="omega"), lasso()
            calls.append(Call("coeff", ("coeff", "--instance", inst, "--expr", rx.to_text(e),
                                        "--word", w), 0, "omega_coeff", (inst, e, w)))
        e_fin = rx.random_expr(rng, 3)
        e_omega = rx.to_text(rx.random_expr(rng, 3, kind="omega"))
        calls += [
            Call("compile", ("compile", "--instance", "disc", "--expr", "a^w", "--alphabet", "a"),
                 0, "automaton", saves=disc),
            Call("behavior", ("behavior", "--aut", disc, "--instance", "disc",
                              "--word", "a^w", "--lambda", "0.5"), 0, "equals_real", (2.0,)),
            Call("compile", ("compile", "--instance", "nat", "--expr", rx.to_text(e_fin)),
                 0, "automaton", saves=fin),
            Call("behavior", ("behavior", "--aut", fin, "--instance", "nat",
                              "--word", word()), 0, "fin_behavior", (e_fin,)),
            Call("compile", ("compile", "--instance", "limsup", "--expr", e_omega),
                 0, "automaton", saves=omega),
            Call("behavior", ("behavior", "--aut", omega, "--instance", "limsup",
                              "--word", lasso()), 0, "omega_behavior", ("limsup", omega)),
            Call("group-check", ("group-check", "--group", "S3", "--instance", "minplus",
                                 "--samples", "10", "--seed", s), 0, "no_failures"),
            Call("group-check", ("group-check", "--group", "Z3", "--instance", "lang",
                                 "--samples", "2", "--seed", s), 0, "no_failures"),
            Call("group-check", ("group-check", "--group", "V4", "--instance", "lattice",
                                 "--samples", "10", "--seed", s), 0, "no_failures"),
            Call("counterexample", ("counterexample", "--name", "liminf-regroup"),
                 1, "liminf"),
            Call("counterexample", ("counterexample", "--name", "avg-regroup", "--depth", "24"),
                 1, "avg_regroup"),
            Call("counterexample", ("counterexample", "--name", "avg-product-omega",
                                    "--depth", "8"), 1, "product_omega"),
            Call("manifest", ("manifest", "--instance", "disc", "--lambda", "0.5", "--seed", s),
                 0, "manifest", (seed,)),
            # bad input: documented exit code 2, a message and no traceback
            Call("laws", ("laws", "--instance", "nosuch", "--suite", "conway-semiring"), 2),
            Call("coeff", ("coeff", "--instance", "bool", "--expr", "a +", "--word", "a"), 2),
            Call("coeff", ("coeff", "--instance", "bool", "--expr", "a^+", "--word", ""), 2),
            Call("coeff", ("coeff", "--instance", "bool", "--expr", "a^w", "--word", "aa"), 2),
            Call("coeff", ("coeff", "--instance", "bool", "--expr", "a", "--word", "c"), 2,
                 known_defect=True),
            Call("coeff", ("coeff", "--instance", "liminf", "--expr", "a^w", "--word", "a^w"), 2,
                 known_defect=True),
            Call("coeff", ("coeff", "--instance", "disc", "--expr", "a^+", "--word", "a",
                           "--lambda", "1.5"), 2, known_defect=True),
            Call("coeff", ("coeff", "--instance", "bool", "--expr", "(ab)^w", "--word", "c^w"), 2,
                 known_defect=True),
        ]
        return calls

    def instances(self, tr):
        return None

    def env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        env.pop("OMEGA_WEIGHTS_SEED", None)
        return env

    def start(self, workdir):
        """Run the invocations that follow in ``workdir``."""
        self.workdir = Path(workdir)

    def run(self, call, tr, _):
        proc = tr.call(f"cli.{call.command}", lambda: subprocess.run(
            [sys.executable, "-m", "omegalg.cli", *call.argv], cwd=self.workdir,
            env=self.env(), capture_output=True, text=True, timeout=TIMEOUT_S))
        if call.saves:
            (self.workdir / call.saves).write_text(proc.stdout)
        return proc.returncode, proc.stdout, "Traceback" in proc.stderr

    def layer_metrics(self, tr):
        """Interpreter and import cold starts, and mean wall time per command."""
        def cold(code):
            walls = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env(), check=True,
                               capture_output=True, timeout=TIMEOUT_S)
                walls.append(time.perf_counter() - start)
            return statistics.median(walls)

        out = {"cli.python_s": cold("pass"), "cli.import_s": cold("import omegalg.cli")}
        for span, calls in tr.calls.items():
            if span.startswith("cli."):
                out[f"{span}.wall_s"] = tr.self_s[span] / calls
        return out

    # -- oracles --------------------------------------------------------------------

    def expected(self, call):
        kind, payload = call.check, call.payload
        if kind == "fin_coeff":
            inst, expr, word = payload
            w = oracles.weights(inst)
            return oracles.series_table(expr, w, AB, len(word)).get(word, w.zero)
        if kind == "fin_behavior":
            w = oracles.weights("nat")
            word = call.argv[call.argv.index("--word") + 1]
            return oracles.series_table(payload[0], w, AB, len(word)).get(word, w.zero)
        if kind == "omega_coeff":
            inst, expr, word = payload
            aut = A.compile(expr, _valuation(inst), AB)
            return _lasso_value(inst, aut.n, aut.k, aut.alpha, aut.edges, word)
        if kind == "omega_behavior":
            inst, path = payload
            data = json.loads((self.workdir / path).read_text())
            edges = [(t["from"], t["letter"], t["to"], float(t["weight"]))
                     for t in data["transitions"]]
            word = call.argv[call.argv.index("--word") + 1]
            return _lasso_value(inst, data["n"], data["k"], [int(x) for x in data["alpha"]],
                                edges, word)
        if kind == "product_omega":
            return [float(x) for x in oracles.product_omega_closed_form(8)]
        return None

    def check(self, call, output, expected):
        code, stdout, traceback = output
        if code != call.code or traceback:
            return False
        kind = call.check
        if kind == "none":
            return True
        if kind == "equals":
            return stdout.strip() == call.payload[0]
        if kind == "equals_real":
            return abs(float(stdout) - call.payload[0]) <= oracles.DISC_TOL
        if kind in ("fin_coeff", "fin_behavior"):
            inst = call.payload[0] if kind == "fin_coeff" else "nat"
            return oracles.weights(inst).close(_read(inst, stdout), expected)
        if kind in ("omega_coeff", "omega_behavior"):
            inst = call.payload[0]
            return oracles.strategy(inst).close(_read(inst, stdout), expected)
        data = json.loads(stdout)
        if kind == "no_failures":
            return data["failures"] == []
        if kind == "fails":
            return {f["law"] for f in data["failures"]} == set(call.payload)
        if kind == "automaton":
            return data["n"] > 0 and bool(data["transitions"]) and set(data["alphabet"]) <= set(AB)
        if kind == "liminf":
            return data == {"direct": 0.0, "regrouped": 1.0}
        if kind == "avg_regroup":
            return (abs(data["direct_estimate"] - 2 / 3) <= 0.02
                    and abs(data["regrouped_estimate"] - 1 / 3) <= 0.02)
        if kind == "product_omega":
            rhs = data["rhs"]
            return (all(x == 0.5 for x in data["lhs"])
                    and all(abs(a - b) <= oracles.REAL_TOL for a, b in zip(rhs, expected))
                    and all(a < b < 1 for a, b in zip(rhs, rhs[1:])) and rhs[-1] >= 0.9)
        if kind == "manifest":
            return data == {"name": "disc", "params": {"lam": 0.5}, "bound_length": 8,
                            "depth": 24, "seed": call.payload[0]}
        raise ValueError(f"unknown check {kind!r}")

    def oracle_name(self, call):
        return "cli_expected"


def _valuation(name):
    if name == "bool":
        return V.from_carrier(make_instance("bool"))
    return V.make_valuation_instance(name)


def _lasso_value(inst, n, k, alpha, edges, word):
    prefix, rest = word.split("(", 1)
    period = rest.split(")", 1)[0]
    return oracles.lasso_values(n, k, alpha, edges, oracles.strategy(inst),
                                [(prefix, period)])[0]
