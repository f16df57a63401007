"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Each workload's oracle must flag a planted wrong answer; traced counts must
repeat exactly across processes and hash seeds; the counting proxies must
not change a single verdict; the tail must be the percentile its definition
names; a seed not used while the benchmark was written must pass on
kleene, lasso and algebra; and without the library the command must fail
without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import algebra  # noqa: E402
import cli  # noqa: E402
import kleene  # noqa: E402
import lasso  # noqa: E402
from run import Tally, tail  # noqa: E402
from tracing import NULL, Tracer  # noqa: E402

FRESH_SEED = 20261017


def passing(wl, job):
    out = wl.run(job, NULL, wl.instances(NULL))
    expected = wl.expected(job)
    assert wl.check(job, out, expected)
    return out, expected


def find(wl, predicate):
    return next(job for job in wl.jobs if predicate(job))


# --- planted wrong answers -------------------------------------------------------

def test_kleene_oracle_flags_planted_coefficient():
    wl = kleene.Kleene(7, 2)
    job = find(wl, lambda j: j[1] == "nat")
    (agree, values), expected = passing(wl, job)
    planted = list(values)
    planted[5] += 1
    assert not wl.check(job, (agree, planted), expected)
    assert not wl.check(job, (False, values), expected)


def test_lasso_oracle_flags_planted_value():
    wl = lasso.Lasso(7, 1)
    job = find(wl, lambda j: j[1] == "disc-0.5")
    (agree, values), expected = passing(wl, job)
    planted = list(values)
    planted[0] = 0.0 if math.isinf(planted[0]) else planted[0] + 1e-3
    assert not wl.check(job, (agree, tuple(planted)), expected)
    # the cycle-mean oracle enumerates simple cycles: a different method
    # from the library's
    job = find(wl, lambda j: j[1] == "limsup-avg")
    (agree, values), expected = passing(wl, job)
    hit = next(i for i, v in enumerate(values) if not math.isinf(v))
    planted = list(values)
    planted[hit] -= 1e-6
    assert not wl.check(job, (agree, tuple(planted)), expected)


def test_algebra_oracles_flag_planted_results():
    wl = algebra.Algebra(7, 1)
    job = find(wl, lambda j: j[:4] == ("matrix", "mat_omega", "minplus", 16))
    column, expected = passing(wl, job)
    planted = list(column)
    planted[3] = 0 if planted[3] == math.inf else math.inf
    assert not wl.check(job, planted, expected)
    suite = find(wl, lambda j: j[:3] == ("valuation", "omega", "liminf"))
    verdict, expected = passing(wl, suite)
    assert not wl.check(suite, (True, (), verdict[2]), expected)


def test_cli_oracle_flags_planted_stdout(tmp_path):
    wl = cli.Cli(7, 1)
    wl.start(tmp_path)
    call = find(wl, lambda c: c.check == "fin_coeff" and c.payload[0] == "nat")
    (code, stdout, traceback), expected = passing(wl, call)
    assert not wl.check(call, (code, str(int(stdout) + 1), traceback), expected)
    assert not wl.check(call, (1, stdout, traceback), expected)


def test_cli_known_defects_count_as_failures(tmp_path):
    wl = cli.Cli(7, 1)
    wl.start(tmp_path)
    tally = Tally(wl)
    defects = [(i, c) for i, c in enumerate(wl.jobs) if c.known_defect]
    assert len(defects) == 4
    for index, call in defects:
        tally.add(index, call, wl.run(call, NULL, None))
    # each is a failed verdict today, none of them unexpected
    assert tally.failed == 4 and tally.unexpected == 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(1, 164))) == (93, 152)
    assert tail(list(range(1, 42))) == (75, 31)


# --- tracing -----------------------------------------------------------------------

def traced_counts(workload, seed, hash_seed):
    """Every count metric of one traced run, in a fresh process."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--trace", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


@pytest.mark.parametrize("workload", ["kleene", "lasso"])
def test_traced_counts_repeat_exactly(workload):
    first = traced_counts(workload, 5, 1)
    assert any(first.values())
    assert traced_counts(workload, 5, 2) == first


# Algebra jobs whose work runs over sets of languages and lattice elements,
# the ones whose iteration order could follow the hash seed.
SET_JOBS = (("suite", "conway-hemiring", "lang"), ("suite", "conway-semiring", "lattice"),
            ("suite", "hemimodule", "lattice"), ("valuation", "omega", "lattice-inf"),
            ("group", "Z2", "lang"), ("group", "Z3", "lattice"), ("extension",))

ALGEBRA_COUNTS = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import algebra
from tracing import Tracer
wl = algebra.Algebra(5, 1)
tr = Tracer()
insts = wl.instances(tr)
for job in wl.jobs:
    if any(job[:len(key)] == key for key in {keys!r}):
        tr.call("job", wl.run, job, tr, insts)
print(json.dumps([tr.calls, tr.span_ops, tr.ops, tr.counts], sort_keys=True))
"""


def test_traced_algebra_counts_repeat_across_hash_seeds():
    code = ALGEBRA_COUNTS.format(src=str(ROOT / "src"), bench=str(BENCH), keys=SET_JOBS)
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env=dict(os.environ, PYTHONHASHSEED=str(seed))).stdout
            for seed in (1, 2)]
    calls = json.loads(runs[0])[0]
    assert calls["job"] == len(SET_JOBS) and calls["dfa.lang_ops"] > 0
    assert runs[0] == runs[1]


def test_proxies_leave_algebra_verdicts_unchanged():
    wl = algebra.Algebra(5, 1)
    jobs = [j for j in wl.jobs if j[0] in ("suite", "valuation", "group", "split", "perm")
            and "series" not in repr(j)]
    jobs.append(find(wl, lambda j: j[:4] == ("matrix", "mat_omega", "minplus", 16)))
    plain, tr = wl.instances(NULL), Tracer()
    traced = wl.instances(tr)
    for job in jobs:
        assert wl.run(job, NULL, plain) == tr.call("job", wl.run, job, tr, traced)
    assert tr.span_ops["matrices.mat_omega.n16"] > 0 and tr.counts["dfa.lang_states"] > 0


# --- a fresh seed ---------------------------------------------------------------------

@pytest.mark.parametrize("cls, rounds", [(kleene.Kleene, 15), (lasso.Lasso, 5),
                                         (algebra.Algebra, 1)])
def test_fresh_seed_has_no_failed_verdicts(cls, rounds):
    wl = cls(FRESH_SEED, rounds)
    insts = wl.instances(NULL)
    tally = Tally(wl)
    for index, job in enumerate(wl.jobs):
        tally.add(index, job, wl.run(job, NULL, insts))
    assert tally.attempted and tally.failed == 0


# --- the command without the library --------------------------------------------------------

def test_without_library_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kleene",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
