"""``tools/bench_pairs.py``'s summary of alternating benchmark pairs."""

import importlib.util
import json
from pathlib import Path

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
