"""Alternating parent/change benchmark pairs, written to one JSON file.

    python3 tools/bench_pairs.py PARENT_DIR --out BENCH_19.json [--seed algebra=7 ...]

PARENT_DIR holds the files of the parent commit (for example
``git archive <parent> | tar -x -C PARENT_DIR``).  For each workload,
at its seed in SEEDS or the one ``--seed WORKLOAD=SEED`` gives it (so that
a claimed gain can be checked at a seed not used while writing the change),
``perfbench/run.py --seconds 20 --trace 0`` runs PAIRS times in PARENT_DIR
and in this checkout, alternating which of the two goes first, and every
run's end-to-end metrics and speed factor are kept.  ``summary`` gives,
per workload and metric, both medians, the parent's interquartile range,
``change_higher`` (the pairs in which the change reads higher) and
``change_better`` (the pairs the change wins by the metric's ``better`` in
``BENCHMARK.json``, ties counting for neither), so a claimed gain reads
straight off it: wins in at least 9 of 10 pairs and a median gap above the
parent's interquartile range.  ``unresolved`` is true when the parent's
interquartile range exceeds the metric's ``bound`` times the parent
median, unless every change run is better than every parent run: the
parent's own spread is then wider than the change the bound allows, so the
pairs can neither show nor rule out a regression.  Then the traced
``kleene``, ``lasso``, ``algebra`` and ``cli`` runs at seed 7 (per-layer
spans and carrier op counts; of ``cli`` its ``cli.*`` figures),
TRACED_RUNS times in each tree, alternating which tree goes first: the
machine's speed moves between runs, so every run is kept with the median
of each figure.  ``counts_moved`` lists, per traced workload, every
per-layer metric whose ``BENCHMARK.json`` unit is ``count`` and whose
parent and change medians differ, with both medians; it is ``{}`` when no
count moved.  Then ``lasso_products``: per tree, one subprocess runs that
tree's ``perfbench/lasso.py`` job list at seed 7 (the timed list of a
20-second run: compile, then ``infinitary_coeff`` on each of the job's
lassos) with that tree's ``src`` first on the path, and counts the
``automata._Period`` products its lasso kernel builds (``products``), their
nodes, states times period length (``nodes``), the products with a live
node (``live``) and the states of the compiled automata (``states``), with
the file ``automata`` came from, relative to the tree (``source``).  Then
``tier1``: the tier-1 suite, ``PYTHONPATH=<tree>/src
python -m pytest -q -s --continue-on-collection-errors``, TIER1_RUNS times
in each tree, alternating which tree goes first; per run its wall time in seconds,
pytest's summary line, and each ``ACCEPTANCE n: PASS (t / budget)`` line
as ``{n: [t, budget]}`` in seconds.  Last, the cold start: the median wall
time of ``python -c pass``, of ``python -c "import omegalg.cli"`` and of
one call of each command, without a bytecode cache
(``PYTHONDONTWRITEBYTECODE=1``) and with one (a temporary
``PYTHONPYCACHEPREFIX``, filled by one run of every call first).  The runs
of one call are adjacent: COLD_REPEATS rounds, each running it in both
trees, alternating which tree goes first, and in each tree without and
with the cache, so a drift of the machine's speed between calls falls on
both trees alike.  And, per tree, where the ``coeff`` call's import time
goes: each module it loads beyond ``python -c pass`` without a bytecode
cache, with the median of its
``-X importtime`` self time over COLD_REPEATS runs, and the sum of those
medians (``coeff_imports``).  And ``src_lines``: per tree, the ``wc -l``
of each ``src/omegalg/*.py`` file and their total.  And ``lang_group_checks``:
per tree, the wall time of one ``omegalg group-check --instance lang`` call
for each group and seed of LANG_GROUP_CHECKS, the trees alternating which
goes first, with a LANG_TIMEOUT_S timeout; a call that runs out is recorded
as timed out, at the timeout.
Run it on an otherwise idle machine; it takes about 20 minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {"kleene": 4242, "lasso": 2718, "algebra": 4242, "cli": 3}
PAIRS = 10   # per workload; fewer runs' quartiles cannot resolve a set-up time
SECONDS = "20"
TRACED_RUNS = 3
TIER1_RUNS = 2
COLD_REPEATS = 9
ACCEPTANCE = re.compile(r"ACCEPTANCE (\S+): PASS \(([0-9.]+)s / budget ([0-9.]+)s\)")
IMPORT_TIME = re.compile(r"import time:\s+(\d+) \|\s+\d+ \| +(\S+)$")
LASSO_PRODUCTS_SEED = 7
# Run in a tree with ``sys.executable -c``: the lasso products of the job list.
LASSO_PRODUCTS = """\
import json, os, sys
sys.path[:0] = [os.path.abspath("src"), os.path.abspath("perfbench")]
import run
from lasso import AB, Lasso
from omegalg import automata as A
built = []
class Counted(A._Period):
    def __init__(self, aut, out, period):
        super().__init__(aut, out, period)
        built.append((len(self.succ), any(self.live)))
A._Period = Counted
seed, seconds = map(int, sys.argv[1:])
wl = Lasso(seed, run.rounds(Lasso, seconds))
states = 0
for expr, name in wl.jobs:
    aut = A.compile(expr, wl.plain[name], AB)
    states += aut.n
    for w in wl.lassos[name]:
        A.infinitary_coeff(aut, w)
print(json.dumps({"products": len(built), "nodes": sum(n for n, _ in built),
                  "live": sum(live for _, live in built), "states": states,
                  "source": os.path.relpath(A.__file__)}))
"""
# Language group checks whose subset constructions used to blow up (ROADMAP item 2).
LANG_GROUP_CHECKS = (("V4", 8), ("Z4", 6), ("S3", 8))
LANG_TIMEOUT_S = 30

# The cold-start calls: interpreter start, the CLI's import, and one call of
# each command (``behavior`` reads the automaton ``compile`` writes).
COLD_CALLS = {
    "python": ("-c", "pass"),
    "import": ("-c", "import omegalg.cli"),
    **{argv[0]: ("-m", "omegalg.cli", *argv) for argv in [
        ("laws", "--instance", "minplus", "--suite", "conway-semiring", "--samples", "200",
         "--seed", "7"),
        ("coeff", "--instance", "nat", "--expr", "(2a)^+", "--word", "aa"),
        ("compile", "--instance", "disc", "--expr", "a^w", "--alphabet", "a"),
        ("behavior", "--aut", "aut.json", "--instance", "disc", "--word", "a^w"),
        ("group-check", "--group", "S3", "--instance", "minplus", "--samples", "10",
         "--seed", "7"),
        ("counterexample", "--name", "avg-regroup", "--depth", "24"),
        ("manifest", "--instance", "disc"),
    ]},
}

def run(tree: Path, *args) -> tuple[dict, float | None]:
    """The last stdout line of perfbench/run.py in ``tree``, and the median
    speed factor it reported."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tree,
                          capture_output=True, text=True, check=True)
    factor = re.search(r"speed factor median ([0-9.]+)", proc.stdout + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), factor and float(factor.group(1))


def metrics(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(rows: list) -> dict:
    """Per metric: parent and change medians, the parent's interquartile
    range, the pairs in which the change reads higher (``change_higher``),
    the pairs it wins by the metric's ``better`` in ``BENCHMARK.json``
    (``change_better``; a tie counts for neither side), and ``unresolved``
    (the parent's interquartile range above ``bound`` times its median,
    unless every change run beats every parent run)."""
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    out = {}
    for name in rows[0]["parent"]:
        parent = [row["parent"][name] for row in rows]
        change = [row["change"][name] for row in rows]
        q1, _, q3 = statistics.quantiles(parent, n=4)
        median = statistics.median(parent)
        lower = spec[name]["better"] == "lower"
        all_better = max(change) < min(parent) if lower else min(change) > max(parent)
        out[name] = {"parent_median": median,
                     "change_median": statistics.median(change), "parent_iqr": q3 - q1,
                     "change_higher": sum(c > p for p, c in zip(parent, change)),
                     "change_better": sum(c < p if lower else c > p
                                          for p, c in zip(parent, change)),
                     "unresolved": q3 - q1 > spec[name]["bound"] * median
                                   and not all_better}
    return out


def counts_moved(out: dict) -> dict:
    """Per traced workload, the count-unit per-layer metrics whose parent
    and change medians differ, with both medians; workloads where none
    moved are left out."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    moved = {}
    for workload in SEEDS:
        parent, change = (out[f"traced_{workload}_seed_7"][side]["median"]
                          for side in ("parent", "change"))
        diff = {name: {"parent": parent.get(name), "change": change.get(name)}
                for name in sorted(counts & (parent.keys() | change.keys()))
                if parent.get(name) != change.get(name)}
        if diff:
            moved[workload] = diff
    return moved


def lasso_products(trees: dict) -> dict:
    """Per tree, the products, product nodes and live products its lasso
    kernel builds over the ``lasso`` job list at LASSO_PRODUCTS_SEED, the
    states of the automata compiled for those jobs, and the source of the
    ``automata`` it counted, from one subprocess."""
    out = {}
    for side, tree in trees.items():
        proc = subprocess.run([sys.executable, "-c", LASSO_PRODUCTS, str(LASSO_PRODUCTS_SEED),
                               SECONDS], cwd=tree, capture_output=True, text=True, check=True)
        out[side] = json.loads(proc.stdout)
    return out


def src_lines(tree: Path) -> dict:
    """The ``wc -l`` (newline count) of each ``src/omegalg/*.py`` file of
    ``tree``, by file name, and their ``total``."""
    out = {f.name: f.read_bytes().count(b"\n")
           for f in sorted((tree / "src" / "omegalg").glob("*.py"))}
    return {**out, "total": sum(out.values())}


def tier1(trees: dict) -> dict:
    """Per tree, TIER1_RUNS runs of the tier-1 suite, alternating which tree
    goes first: each run's wall time, summary line and acceptance lines."""
    runs = {side: [] for side in trees}
    for i in range(TIER1_RUNS):
        for side in trees if i % 2 == 0 else reversed(trees):
            env = {**os.environ, "PYTHONPATH": str(trees[side] / "src")}
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s",
                                   "--continue-on-collection-errors"], cwd=trees[side],
                                  env=env, capture_output=True, text=True)
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            runs[side].append({"wall_s": wall, "summary": lines[-1] if lines else "",
                               "acceptance": {n: [float(t), float(budget)] for n, t, budget
                                              in ACCEPTANCE.findall(proc.stdout)}})
    return runs


def import_self_times(stderr: str) -> dict:
    """Per module, its self time in seconds, from ``-X importtime`` output."""
    return {m.group(2): int(m.group(1)) / 1e6
            for m in map(IMPORT_TIME.match, stderr.splitlines()) if m}


def cold_start(trees: dict) -> dict:
    """Per tree and cache setting, the median wall time in seconds of each
    of COLD_CALLS, run in a fresh process: command by command, COLD_REPEATS
    times, each time in both trees (alternating which goes first) and
    without, then with, the cache; and per tree ``coeff_imports``,
    the median self time of each module the ``coeff`` call loads beyond
    ``python -c pass``, without a bytecode cache, and their sum."""
    with tempfile.TemporaryDirectory() as tmp:
        envs = {}
        for side, tree in trees.items():
            env = {**os.environ, "PYTHONPATH": str(tree / "src")}
            env.pop("OMEGA_WEIGHTS_SEED", None)
            env.pop("PYTHONPYCACHEPREFIX", None)
            envs[side, "no_cache"] = {**env, "PYTHONDONTWRITEBYTECODE": "1"}
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            envs[side, "cache"] = {**env, "PYTHONPYCACHEPREFIX": f"{tmp}/pycache-{side}"}

        def call(env, name, *options):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, *options, *COLD_CALLS[name]], cwd=tmp,
                                  env=env, capture_output=True, text=True)
            wall = time.perf_counter() - start
            if proc.returncode not in (0, 1):   # 1: the counterexample holds
                raise RuntimeError(f"{name}: exit {proc.returncode}: {proc.stderr}")
            if name == "compile":
                Path(tmp, "aut.json").write_text(proc.stdout)
            return wall, proc.stderr

        for key, env in envs.items():   # writes aut.json and fills the caches
            for name in COLD_CALLS:
                call(env, name)
        walls = {key: {name: [] for name in COLD_CALLS} for key in envs}
        for name in COLD_CALLS:   # one command's runs back to back, so drift hits both trees
            for i in range(COLD_REPEATS):
                for side in trees if i % 2 == 0 else reversed(trees):
                    for cache in ("no_cache", "cache"):
                        walls[side, cache][name].append(call(envs[side, cache], name)[0])
        self_s = {side: {} for side in trees}
        for i in range(COLD_REPEATS):
            for side in trees if i % 2 == 0 else reversed(trees):
                bare, coeff = (import_self_times(call(envs[side, "no_cache"], name,
                                                      "-X", "importtime")[1])
                               for name in ("python", "coeff"))
                for module in coeff.keys() - bare.keys():
                    self_s[side].setdefault(module, []).append(coeff[module])
    out = {side: {cache: {name: statistics.median(w) for name, w in walls[side, cache].items()}
                  for cache in ("no_cache", "cache")} for side in trees}
    for side, runs in self_s.items():
        medians = {module: statistics.median(s) for module, s in sorted(runs.items())}
        out[side]["coeff_imports"] = {"self_s": medians, "total_s": sum(medians.values())}
    return out


def lang_group_checks(trees: dict) -> dict:
    """Per tree and ``GROUP SEED``, the wall time in seconds of one
    ``group-check --instance lang`` call and whether it timed out (then
    at LANG_TIMEOUT_S), and its exit code (None on a timeout)."""
    out = {side: {} for side in trees}
    for i, (group, seed) in enumerate(LANG_GROUP_CHECKS):
        for side in trees if i % 2 == 0 else reversed(trees):
            env = {**os.environ, "PYTHONPATH": str(trees[side] / "src")}
            argv = [sys.executable, "-m", "omegalg.cli", "group-check", "--group", group,
                    "--instance", "lang", "--seed", str(seed)]
            start = time.perf_counter()
            try:
                code = subprocess.run(argv, cwd=trees[side], env=env, capture_output=True,
                                      text=True, timeout=LANG_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = None
            wall = time.perf_counter() - start
            out[side][f"{group} {seed}"] = {
                "wall_s": LANG_TIMEOUT_S if code is None else wall,
                "timed_out": code is None, "exit": code}
    return out


def workload_seed(text: str) -> tuple[str, int]:
    """``WORKLOAD=SEED`` as (workload, seed), for a workload of SEEDS."""
    workload, _, seed = text.partition("=")
    if workload not in SEEDS or not seed.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected WORKLOAD=SEED with WORKLOAD one of {', '.join(SEEDS)}, got {text!r}")
    return workload, int(seed)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=workload_seed, action="append", default=[],
                   metavar="WORKLOAD=SEED", help="run WORKLOAD's pairs at SEED (repeatable)")
    args = p.parse_args(argv)
    args.seeds = {**SEEDS, **dict(args.seed)}
    return args


def main(argv=None):
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    out = {"env": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                   "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
           "command": " ".join(["python3 tools/bench_pairs.py PARENT_DIR --out", args.out.name,
                                *(f"--seed {w}={s}" for w, s in args.seed)]),
           "pairs": {}, "summary": {}, "speed_factors": [], "traced_kleene_seed_7": {},
           "traced_lasso_seed_7": {}, "traced_algebra_seed_7": {}, "traced_cli_seed_7": {},
           "counts_moved": {}, "lasso_products": {}, "tier1": {},
           "cold_start_s": {}, "lang_group_checks": {},
           "src_lines": {side: src_lines(tree) for side, tree in trees.items()}}
    for workload, seed in args.seeds.items():
        rows = []
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            row = {"seed": seed, "first": order[0]}
            for side in order:
                result, factor = run(trees[side], "--workload", workload, "--seed", str(seed),
                                     "--seconds", SECONDS, "--trace", "0")
                row[side] = metrics(result)
                out["speed_factors"].append(factor)
            rows.append(row)
            print(workload, i, {s: round(row[s]["verdicts_per_s"], 2) for s in trees},
                  file=sys.stderr)
        out["pairs"][workload] = rows
        out["summary"][workload] = summary(rows)
    for workload in ("kleene", "lasso", "algebra", "cli"):
        runs = {side: [] for side in trees}
        for i in range(TRACED_RUNS):
            for side in trees if i % 2 == 0 else reversed(trees):
                result, _ = run(trees[side], "--workload", workload, "--seed", "7", "--trace", "1")
                runs[side].append({name: value for name, value in metrics(result).items()
                                   if workload != "cli" or name.startswith("cli.")})
        out[f"traced_{workload}_seed_7"] = {
            side: {"runs": rs, "median": {name: statistics.median(r[name] for r in rs)
                                          for name in rs[0]}} for side, rs in runs.items()}
    out["counts_moved"] = counts_moved(out)
    out["lasso_products"] = lasso_products(trees)
    out["tier1"] = tier1(trees)
    out["cold_start_s"] = cold_start(trees)
    out["lang_group_checks"] = lang_group_checks(trees)
    args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
