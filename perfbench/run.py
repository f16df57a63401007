"""The omegalg benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload kleene --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its ``src``
directory.  Workloads: ``kleene`` (finitary round trips), ``lasso``
(infinitary coefficients), ``algebra`` (law suites, matrices, groups,
counterexamples) and ``cli`` (cold-start invocations of the command).

Load model: a closed loop with one client.  Every workload builds a fixed,
seeded job list of whole rounds, sized so that ``PASSES`` passes over it
take about ``--seconds`` at the seed commit's speed.  A worker process runs
the passes, one job after another, each building fresh library objects,
and counts each job with its fastest timing, scaled to the machine's
reference speed (see ``PROBE_REF_S``).  The worker does nothing else, so
its peak memory is the workload's; this process checks every output it
recorded against an oracle afterwards.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; set-up is
timed in separate processes, from process start to the first timed job,
and reported as the median of several.  ``--trace 1`` runs the workload's
traced job list twice, untraced and then traced with spans and counting
carrier proxies, and prints the per-layer metrics.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from tracing import NULL, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = {"kleene": "Kleene", "lasso": "Lasso", "algebra": "Algebra", "cli": "Cli"}
# Passes over the job list; a job counts with its faster one, which drops
# most hiccups of a shared machine (a collection, a neighbour's burst).
PASSES = 2
# Times are reported at a reference speed of the machine.  The shared 2-core
# machine these figures come from runs at two speeds, 1.5-1.7x apart, for a
# minute or more at a time, which no run of this length averages out.  Just
# before and just after each job (and each set-up process) the benchmark
# times ``probe``, fixed pure-Python work that no library change touches, and
# scales the measured time by the mean of the two PROBE_REF_S / (probe time)
# factors: the time the job would take when the probe takes PROBE_REF_S, as
# it does on that machine at its faster speed.
PROBE_REF_S = 200e-6
PROBE_REPEATS = 3
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120
WORKER_TIMEOUT_S = 150
# the tail is the highest whole percentile with at least ten samples beyond it
MIN_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs and exit (times set-up)")
    p.add_argument("--worker", metavar="FILE",
                   help="run the timed passes and record them in FILE (internal)")
    p.add_argument("--workdir", help="directory the jobs write to (internal)")
    return p.parse_args(argv)


def load_workload(name):
    """Import the library from this checkout's source, then the workload."""
    sys.path.insert(0, str(SRC))
    try:
        import omegalg
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import omegalg from {SRC}: {exc}")
    if Path(omegalg.__file__).resolve().parent != SRC / "omegalg":
        sys.exit(f"perfbench: omegalg came from {omegalg.__file__}, not from {SRC}")
    return getattr(importlib.import_module(name), WORKLOADS[name])


def rounds(cls, seconds) -> int:
    """Rounds of jobs that ``PASSES`` passes fit into ``seconds``."""
    return max(1, round(seconds / (PASSES * cls.round_s)))


# --- verdicts ---------------------------------------------------------------------

class Tally:
    """Checks each verdict against the workload's oracle and counts what
    each oracle checked.  A job's oracle answer is computed once and
    reused for its other passes."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = self.unexpected = 0
        self.by_oracle = Counter()
        self._expected = {}

    def add(self, index, job, output, error=None, same=True):
        wl = self.wl
        self.attempted += 1
        ok = False
        if error is None:
            try:
                if index not in self._expected:
                    self._expected[index] = wl.expected(job)
                ok = same and wl.check(job, output, self._expected[index])
            except (ValueError, KeyError, TypeError) as exc:
                error = f"output the oracle cannot read: {exc!r}"
            self.by_oracle[wl.oracle_name(job)] += 1
        if ok:
            return
        self.failed += 1
        if getattr(job, "known_defect", False):
            return
        self.unexpected += 1
        if self.unexpected == 1:
            why = error or ("traced output differs from untraced" if not same else "wrong verdict")
            print(f"perfbench: {wl.name} job {index} failed: {why}", file=sys.stderr)


def probe() -> int:
    """Dict updates, tuples, small lists and a sort: the kind of work the
    library does, but always the same work."""
    counts = {}
    rows = []
    for i in range(800):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + i
        if i % 7 == 0:
            rows.append([key, str(i)])
    rows.sort(key=lambda row: row[1])
    return len(counts) + len(rows)


def speed() -> float:
    """Factor that turns a time measured now into one at the reference
    speed (below 1 while the machine runs slow)."""
    best = math.inf
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        probe()
        best = min(best, perf_counter() - start)
    return PROBE_REF_S / best


def run_job(wl, job, tr, insts):
    """(output, None) or (None, traceback) for an unexpected exception."""
    try:
        return wl.run(job, tr, insts), None
    except Exception:
        return None, traceback.format_exc()


@contextmanager
def scratch_directory():
    """A fresh directory inside the checkout, removed afterwards."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


# --- the untraced run ------------------------------------------------------------------

def measure_setup(args) -> float:
    """Median wall time, at the reference speed, of fresh processes that
    only build the workload."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    walls = []
    before = speed()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(cmd, check=True, capture_output=True, timeout=SETUP_TIMEOUT_S)
        took = perf_counter() - start
        after = speed()
        walls.append(took * (before + after) / 2)
        before = after
    return statistics.median(walls)


def worker(cls, args):
    """The measured process: runs the passes and records, per execution,
    the job's index, its wall time, the mean of the speed factors measured
    just before and just after it, and its output or traceback; then the peak resident memory of the
    jobs (of the largest child process for ``cli``)."""
    wl = cls(args.seed, rounds(cls, args.seconds))
    insts = wl.instances(NULL)
    if args.workdir:
        wl.start(Path(args.workdir))
    # set-up objects (the job list) are not the library's: keep them out of
    # the collections that run during the jobs
    gc.collect()
    gc.freeze()
    with open(args.worker, "wb") as out:
        before = speed()
        for _ in range(PASSES):
            for index, job in enumerate(wl.jobs):
                start = perf_counter()
                output, error = run_job(wl, job, NULL, insts)
                took = perf_counter() - start
                after = speed()
                pickle.dump((index, took, (before + after) / 2, output, error), out)
                before = after
        who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
        pickle.dump(resource.getrusage(who).ru_maxrss, out)


def records(path):
    """What a worker wrote: (index, seconds, speed factor, output, error)
    tuples, then the peak resident memory in KiB."""
    with open(path, "rb") as f:
        while True:
            try:
                yield pickle.load(f)
            except EOFError:
                return


def tail(times):
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank); returns (percentile, value)."""
    ordered = sorted(times)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= MIN_BEYOND:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def timed_run(cls, args):
    setup_s = measure_setup(args)
    wl = cls(args.seed, rounds(cls, args.seconds))
    tally = Tally(wl)
    best = [math.inf] * len(wl.jobs)        # at the reference speed
    best_wall = [math.inf] * len(wl.jobs)   # as measured
    scales = []
    with scratch_directory() as scratch:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--worker", str(scratch / "passes.pickle")]
        if hasattr(wl, "start"):
            wl.start(scratch)
            cmd += ["--workdir", str(scratch)]
        subprocess.run(cmd, check=True, timeout=WORKER_TIMEOUT_S)
        for record in records(scratch / "passes.pickle"):
            if isinstance(record, int):
                rss_kib = record
                continue
            index, took, scale, output, error = record
            scales.append(scale)
            best[index] = min(best[index], took * scale)
            best_wall[index] = min(best_wall[index], took)
            tally.add(index, wl.jobs[index], output, error)
    count = len(best)
    pct, tail_s = tail(best)
    metrics = {
        "setup_s": setup_s,
        "verdicts_per_s": count / sum(best),
        "verdict_p50_ms": statistics.median(best) * 1000,
        "verdict_tail_ms": tail_s * 1000,
        "verdict_ok_share": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": rss_kib / 1024,
    }
    beyond = count - math.ceil(pct / 100 * count)
    print(f"{wl.name} seed {args.seed}: {count} jobs x {PASSES} passes; tail is p{pct:g} of "
          f"{count} samples ({beyond} beyond); speed factor median "
          f"{statistics.median(scales):.3f}, as measured {count / sum(best_wall):.4g} verdicts/s, "
          f"p50 {statistics.median(best_wall) * 1000:.4g} ms; failed {tally.failed} of "
          f"{tally.attempted} ({tally.unexpected} unexpected); "
          f"oracle checks {dict(sorted(tally.by_oracle.items()))}")
    return tally, metrics


# --- the traced run ----------------------------------------------------------------------

def traced_run(cls, args, per_layer):
    wl = cls(args.seed, cls.trace_rounds)
    jobs = wl.trace_jobs
    tally = Tally(wl)
    tr = Tracer()
    with scratch_directory() as scratch:
        if hasattr(wl, "start"):
            wl.start(scratch)
        plain = wl.instances(NULL)
        gc.collect()
        start = perf_counter()
        outputs = [run_job(wl, job, NULL, plain) for job in jobs]
        plain_wall = perf_counter() - start
        insts = wl.instances(tr)
        gc.collect()
        start = perf_counter()
        traced = [tr.call("job", run_job, wl, job, tr, insts) for job in jobs]
        traced_wall = perf_counter() - start
        for index, (job, (out, err), (tout, terr)) in enumerate(zip(jobs, outputs, traced)):
            tally.add(index, job, out, err or terr, same=(out == tout))
        extra = wl.layer_metrics(tr) if hasattr(wl, "layer_metrics") else {}
    extra["trace.overhead_s"] = traced_wall - plain_wall
    metrics = {}
    for name in per_layer:
        value = extra[name] if name in extra else tr.metric(name)
        metrics[name] = 0 if value is None else value
    spans = sum(v for k, v in tr.self_s.items() if k != "job")
    print(f"{wl.name} seed {args.seed} traced: {len(jobs)} jobs, untraced {plain_wall:.2f} s, "
          f"traced {traced_wall:.2f} s; layer spans cover {spans / traced_wall:.1%} of the "
          f"traced wall time, benchmark code between spans {tr.self_s['job'] / traced_wall:.1%}; "
          f"oracle checks {dict(sorted(tally.by_oracle.items()))}")
    for name, value in sorted(tr.self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {name:42s} self {value:9.3f} s  {value / traced_wall:6.1%}  "
              f"calls {tr.calls[name]:8d}  carrier ops {tr.span_ops[name]:10d}")
    return tally, metrics


def main(argv=None):
    args = parse_args(argv)
    cls = load_workload(args.workload)
    if args.setup_only:
        cls(args.seed, rounds(cls, args.seconds))
        return
    if args.worker:
        worker(cls, args)
        return
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        tally, metrics = traced_run(cls, args, declared)
    else:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        tally, metrics = timed_run(cls, args)
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))


if __name__ == "__main__":
    main()
