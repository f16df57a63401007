"""``tools/bench_pairs.py``'s summary of alternating benchmark pairs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _rows(parent, change, name):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


def test_summary_flags_a_parent_spread_wider_than_the_bound():
    """With bound 0.25: a parent interquartile range within a quarter of
    its median is resolved; a wider one is unresolved unless every change
    run beats every parent run, by the metric's ``better``."""
    narrow = [1.0, 1.05, 0.95, 1.1, 0.9, 1.0, 1.02, 0.98, 1.04, 0.96]     # IQR about 0.07
    wide = [1.0, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]            # IQR about 0.55
    cases = [   # parent runs, change runs, metric, unresolved
        (narrow, narrow, "setup_s", False),
        (wide, wide, "setup_s", True),
        (wide, [0.5] * 10, "setup_s", False),
        (wide, [2.0] * 10, "setup_s", True),
        (wide, [0.5] * 9 + [0.6], "setup_s", True),       # one change run ties the best parent run
        (wide, [2.0] * 10, "verdicts_per_s", False),
        (wide, [0.5] * 10, "verdicts_per_s", True),
        (narrow, [0.5] * 10, "verdicts_per_s", False),
    ]
    for i, (parent, change, name, want) in enumerate(cases):
        assert bench_pairs.summary(_rows(parent, change, name))[name]["unresolved"] is want, i


def test_algebra_setup_of_bench_21_reads_unresolved():
    """``BENCH_21.json``'s ``algebra`` ``setup_s``: parent IQR 0.086 s on a
    0.148 s median, and the change runs overlap the parent's."""
    rows = json.loads((ROOT / "BENCH_21.json").read_text())["pairs"]["algebra"]
    out = bench_pairs.summary(rows)
    assert round(out["setup_s"]["parent_iqr"], 3) == 0.086
    assert out["setup_s"]["unresolved"] is True
    assert out["verdicts_per_s"]["unresolved"] is False


def test_import_self_times_read_every_module_line():
    """``-X importtime`` prints a header, then one line per module with its
    self and cumulative time in microseconds, indented by import depth."""
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       169 |        169 |   _io\n"
              "import time:      1395 |       2531 | argparse\n"
              "import time:        31 |         31 |     json.scanner\n"
              "import time:      7322 |       7322 | omegalg.core\n"
              "Error: not an import line\n")
    assert bench_pairs.import_self_times(stderr) == {
        "_io": 0.000169, "argparse": 0.001395, "json.scanner": 0.000031, "omegalg.core": 0.007322}


def test_cold_start_runs_each_call_in_both_trees_back_to_back(monkeypatch):
    """After the warm-up round, each cold-start call runs COLD_REPEATS times
    in a row, each time in both trees, the first tree alternating, and in
    each tree without, then with, the bytecode cache."""
    calls = []

    def fake_run(argv, cwd, env, capture_output, text):
        name = next(n for n, tail in bench_pairs.COLD_CALLS.items()
                    if tuple(argv[-len(tail):]) == tail)
        cache = "no_cache" if env.get("PYTHONDONTWRITEBYTECODE") else "cache"
        calls.append((Path(env["PYTHONPATH"]).parent.name, cache, name,
                      "importtime" in argv))
        return subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    bench_pairs.cold_start({"parent": Path("/p/parent"), "change": Path("/c/change")})
    names, repeats = list(bench_pairs.COLD_CALLS), bench_pairs.COLD_REPEATS
    warm_up = len(names) * 4
    want = [(side, cache, name, False) for name in names for i in range(repeats)
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent"))
            for cache in ("no_cache", "cache")]
    assert calls[warm_up:warm_up + len(want)] == want


def test_seed_flag_overrides_a_workloads_seed():
    """``--seed WORKLOAD=SEED`` (repeatable) replaces that workload's seed
    in SEEDS and keeps the others; without it the seeds are SEEDS."""
    args = bench_pairs.parse_args(["parent", "--out", "b.json"])
    assert args.seeds == bench_pairs.SEEDS
    args = bench_pairs.parse_args(["parent", "--out", "b.json", "--seed", "algebra=7",
                                   "--seed", "cli=11", "--seed", "algebra=8"])
    assert args.seeds == {**bench_pairs.SEEDS, "algebra": 8, "cli": 11}
    assert bench_pairs.SEEDS["algebra"] == 4242


def test_seed_flag_rejects_a_bad_pair(capsys):
    for bad in ("algebra", "algebra=", "algebra=x", "algebra=-1", "nope=3", "=3"):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.parse_args(["parent", "--out", "b.json", "--seed", bad])
        assert exc.value.code == 2
        assert "expected WORKLOAD=SEED" in capsys.readouterr().err, bad


def test_lang_group_checks_time_each_case_once_per_tree(monkeypatch):
    """Each case of LANG_GROUP_CHECKS runs once in each tree, the first tree
    alternating, under LANG_TIMEOUT_S; a call that runs out is recorded as
    timed out, at the timeout, with no exit code."""
    calls = []

    def fake_run(argv, cwd, env, capture_output, text, timeout):
        case = f"{argv[argv.index('--group') + 1]} {argv[argv.index('--seed') + 1]}"
        side = Path(env["PYTHONPATH"]).parent.name
        assert argv[argv.index("--instance") + 1] == "lang" and timeout == bench_pairs.LANG_TIMEOUT_S
        calls.append((side, case))
        if (side, case) == ("parent", "Z4 6"):
            raise subprocess.TimeoutExpired(argv, timeout)
        return subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = bench_pairs.lang_group_checks({"parent": Path("/p/parent"), "change": Path("/c/change")})
    cases = [f"{g} {s}" for g, s in bench_pairs.LANG_GROUP_CHECKS]
    assert cases == ["V4 8", "Z4 6", "S3 8"]
    assert calls == [(side, case) for i, case in enumerate(cases)
                     for side in (("parent", "change") if i % 2 == 0 else ("change", "parent"))]
    assert out["parent"]["Z4 6"] == {"wall_s": bench_pairs.LANG_TIMEOUT_S, "timed_out": True,
                                     "exit": None}
    for side, case in calls:
        if (side, case) != ("parent", "Z4 6"):
            got = out[side][case]
            assert not got["timed_out"] and got["exit"] == 0 and got["wall_s"] < 1, (side, case)


def test_lasso_products_count_each_trees_own_kernel(monkeypatch, tmp_path):
    """One subprocess per tree runs that tree's ``lasso`` job list with that
    tree's ``src`` first on the path: a tree of links to this checkout's
    ``src`` and ``perfbench`` counts the ``automata`` under its own path,
    and the same products as this checkout, some of them live."""
    (tmp_path / "src").symlink_to(ROOT / "src")
    (tmp_path / "perfbench").symlink_to(ROOT / "perfbench")
    calls, run = [], bench_pairs.subprocess.run

    def counted(argv, cwd, **kwargs):
        calls.append(cwd)
        return run(argv, cwd=cwd, **kwargs)

    monkeypatch.setattr(bench_pairs.subprocess, "run", counted)
    out = bench_pairs.lasso_products({"parent": tmp_path, "change": ROOT})
    assert calls == [tmp_path, ROOT]
    assert out["parent"] == out["change"]
    got = out["change"]
    assert got["source"] == "src/omegalg/automata.py"
    assert got["nodes"] > got["products"] >= got["live"] > 0, got
