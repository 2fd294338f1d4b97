"""fampersist benchmark: seeded closed-loop workloads, timed from outside.

Usage (from the repository root):

    python3 perfbench/run.py --workload kde-levels --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --all              # every workload, both modes
    python3 perfbench/run.py --capture-golden   # rewrite perfbench/golden.json

One run generates job 0, 1, 2, ... of the workload from ``--seed``, runs
each to completion in this process (one client, no concurrency) until
``--seconds`` have passed, and checks every output.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` each job runs once
untraced and once under the tracer (order alternating) and the run reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Metric names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SCRATCH = ROOT / ".bench_out"
DEFAULT_SEED = 0
SETUP_REPEATS = 11
# Exact counts are taken over the first jobs of a traced run, so two traced
# runs with the same seed report identical counts whatever their length.
COUNT_JOBS = 2
GOLDEN_JOBS = 16
EXIT_SETUP = 2


def import_package():
    """Import fampersist from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fampersist" / "__init__.py").is_file():
        raise ImportError(f"no fampersist package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import fampersist
    if Path(fampersist.__file__).resolve().parent != src / "fampersist":
        raise ImportError(f"imported {fampersist.__file__}, not {src}")
    import workloads
    import tracer
    return workloads, tracer


def metric_specs():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def load_golden(workload, seed):
    if seed != DEFAULT_SEED:
        return []
    with open(GOLDEN) as fh:
        return json.load(fh)["digests"][workload]


# ----- one run --------------------------------------------------------------


class Outcome:
    """Counts of one run: jobs attempted, failed, and golden matches."""

    def __init__(self, golden):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.golden_checked = 0

    def verify(self, wl, job, out):
        """Check one job's output; return its digest or None if it failed."""
        try:
            problems = wl.check(job, out)
            digest = wl.digest(job, out)
        except Exception:
            traceback.print_exc()
            problems, digest = ["check raised"], None
        index = job["index"]
        if digest is not None and index < len(self.golden):
            self.golden_checked += 1
            if digest != self.golden[index]:
                problems.append("digest differs from golden")
        for p in problems:
            print(f"job {index}: {p}", file=sys.stderr)
        return None if problems else digest


def run_job(wl, job):
    """Run one job; return (seconds, output or None if it raised)."""
    start = time.perf_counter()
    try:
        out = wl.run(job)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - start, None
    return time.perf_counter() - start, out


def measure(wl, seed, seconds, golden, workdir):
    """Untraced closed loop; returns (Outcome, job times)."""
    outcome = Outcome(golden)
    times = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        job = wl.generate(seed, index, workdir)
        elapsed, out = run_job(wl, job)
        times.append(elapsed)
        outcome.attempted += 1
        if out is None or outcome.verify(wl, job, out) is None:
            outcome.failed += 1
        index += 1
    return outcome, times


def measure_traced(wl, seed, seconds, golden, workdir, tr):
    """Each job untraced and, under the Tracer ``tr``, traced, order
    alternating over an even number of jobs; returns (Outcome, per-layer
    metric values)."""
    outcome = Outcome(golden)
    plain, traced, jobs = [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < COUNT_JOBS or index % 2 or \
            time.perf_counter() < deadline:
        job = wl.generate(seed, index, workdir)
        digests = []
        for traced_turn in ((False, True) if index % 2 == 0
                            else (True, False)):
            if traced_turn:
                with tr, tr.job(index):
                    elapsed, out = run_job(wl, job)
                traced.append(elapsed)
            else:
                elapsed, out = run_job(wl, job)
                plain.append(elapsed)
            digests.append(None if out is None
                           else outcome.verify(wl, job, out))
        outcome.attempted += 1
        if None in digests or digests[0] != digests[1]:
            outcome.failed += 1
        jobs.append(index)
        index += 1
    return outcome, layer_metrics(tr, jobs, plain, traced)


SELF_TIME = {
    "cli.self_s": ("cli",),
    "family.build_s": ("family.build",),
    "io.load_s": ("io.load",),
    "io.serialize_s": ("io.serialize",),
    "simplicial.prism_s": ("simplicial.prism",),
    "simplicial.slab_s": ("simplicial.slab",),
    "homology.betti_s": ("homology.betti",),
    "homology.induced_rank_s": ("homology.induced_rank",),
    "homology.staged_reduce_s": ("homology.staged_reduce",),
    "module3.build_s": ("module3.build",),
    "module3.thin_s": ("module3.thin",),
    "module3.query_s": ("module3.query",),
    "cerf.trace_s": ("cerf.trace",),
    "cerf.classify_s": ("cerf.classify",),
    "stability.check_s": ("stability.check",),
}
CALLS = {
    "simplicial.slab_calls": "simplicial.slab",
    "homology.betti_calls": "homology.betti",
    "homology.induced_rank_calls": "homology.induced_rank",
    "homology.staged_reduce_calls": "homology.staged_reduce",
    "module3.rank_calls": "module3.rank",
    "cerf.classify_calls": "cerf.classify",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, jobs, plain, traced):
    """Per-layer metrics: self times averaged over every traced job, exact
    counts and ratios over the first COUNT_JOBS jobs."""
    n = len(jobs)
    out = {}
    self_times = [tr.self_times(j) for j in jobs]
    for metric, names in SELF_TIME.items():
        out[metric] = sum(st.get(nm, 0.0) for st in self_times
                          for nm in names) / n
    out["module3.rank_incl_s"] = sum(
        tr.inclusive_times(j, "module3.rank") for j in jobs) / n

    counted = jobs[:COUNT_JOBS]
    calls = [tr.call_counts(j) for j in counted]
    for metric, name in CALLS.items():
        out[metric] = sum(c.get(name, 0) for c in calls) / len(counted)
    cs = [tr.counters[j] for j in counted]

    def total(attr):
        return sum(getattr(c, attr) for c in cs)

    per_job = len(counted)
    out["simplicial.slab_simplices"] = total("slab_simplices") / per_job
    out["simplicial.slab_distinct_ratio"] = _ratio(
        sum(len(c.slab_distinct) for c in cs),
        sum(c.get("simplicial.slab", 0) for c in calls))
    out["homology.filtration_len"] = total("filtration_len") / per_job
    out["module3.grid_points"] = total("grid_points") / per_job
    out["module3.edge_useful_ratio"] = _ratio(total("edge_nonzero"),
                                              total("edge_calls"))
    out["module3.window_edge_share"] = _ratio(
        total("window_edges"), total("window_edges") + total("level_edges"))
    out["stability.checks"] = total("checks") / per_job
    out["io.bytes_out"] = total("bytes_out") / per_job
    out["trace.jobs_per_s"] = len(traced) / sum(traced)
    out["trace.overhead_ratio"] = sum(traced) / sum(plain)
    return out


def setup_seconds(workload, seed):
    """Median set-up time of fresh interpreters: each imports the package,
    generates job 0 and loads the golden digests, and reports how long
    that took."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, cwd=ROOT, capture_output=True, text=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def setup_probe(workload, seed):
    start = time.perf_counter()
    workloads, _ = import_package()
    wl = workloads.WORKLOADS[workload]()
    with workdir() as tmp:
        wl.generate(seed, 0, tmp)
    load_golden(workload, seed)
    print(time.perf_counter() - start)


@contextlib.contextmanager
def workdir():
    """A private scratch directory inside the checkout, removed on exit."""
    path = SCRATCH / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_once(workload, seed, seconds, trace):
    end_to_end, per_layer = metric_specs()
    workloads, tracer_mod = import_package()
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    wl = workloads.WORKLOADS[workload]()
    golden = load_golden(workload, seed)
    if trace:
        tr = tracer_mod.Tracer()
        with workdir() as tmp:
            outcome, values = measure_traced(wl, seed, seconds, golden, tmp,
                                             tr)
        SCRATCH.mkdir(exist_ok=True)
        spans = SCRATCH / f"spans-{workload}-seed{seed}.jsonl"
        tr.write(spans)
        print(f"{len(tr.spans)} spans written to {spans.relative_to(ROOT)}")
        specs = per_layer
    else:
        setup = setup_seconds(workload, seed)
        with workdir() as tmp:
            outcome, times = measure(wl, seed, seconds, golden, tmp)
        values = {
            "jobs_per_s": len(times) / sum(times),
            "job_s.p50": statistics.median(times),
            "setup_s": setup,
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        specs = end_to_end
    print(f"{workload} seed {seed} trace {trace}: {outcome.attempted} jobs, "
          f"{outcome.failed} failed, golden digests "
          f"{outcome.golden_checked} checked")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }


# ----- whole-benchmark modes -----------------------------------------------


def run_all(seconds):
    """Every workload untraced and traced at the default seed, printed as a
    table; returns the number of failed jobs."""
    workloads, _ = import_package()
    failures = 0
    for name in workloads.WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(DEFAULT_SEED),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(f"  {line}")
            results[trace] = json.loads(lines[-1])
        plain, traced = results[0], results[1]
        failures += plain["failed"] + traced["failed"]
        print(f"== {name}: {plain['attempted']} jobs, failed_ratio "
              f"{plain['failed'] / plain['attempted']:g} "
              f"({plain['failed']}/{plain['attempted']})")
        for key, m in list(plain["metrics"].items()) + \
                list(traced["metrics"].items()):
            print(f"  {key:32s} {m['value']:14.6g} {m['unit']}")
        rate = plain["metrics"]["jobs_per_s"]["value"]
        traced_rate = traced["metrics"]["trace.jobs_per_s"]["value"]
        ratio = traced["metrics"]["trace.overhead_ratio"]["value"]
        print(f"  tracing overhead: {traced_rate:.4g} jobs/s traced against "
              f"{rate:.4g} jobs/s untraced; traced / plain job time on the "
              f"same inputs {ratio:.3f}")
    return failures


def capture_golden(jobs):
    workloads, _ = import_package()
    digests = {}
    with workdir() as tmp:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls()
            digests[name] = []
            for index in range(jobs):
                job = wl.generate(DEFAULT_SEED, index, tmp)
                out = wl.run(job)
                problems = wl.check(job, out)
                if problems:
                    raise SystemExit(f"{name} job {index}: {problems}")
                digests[name].append(wl.digest(job, out))
                print(f"{name} job {index}: {digests[name][-1]}")
    with open(GOLDEN, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--capture-golden", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
        elif args.capture_golden:
            capture_golden(GOLDEN_JOBS)
        elif args.all:
            return 1 if run_all(args.seconds) else 0
        elif args.workload:
            result = run_once(args.workload, args.seed, args.seconds,
                              args.trace)
            print(json.dumps(result))
        else:
            parser.error("need --workload, --all or --capture-golden")
    except (ImportError, OSError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SETUP
    return 0


if __name__ == "__main__":
    sys.exit(main())
