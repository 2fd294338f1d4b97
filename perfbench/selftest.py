"""Self-tests for the benchmark itself, on reduced workload sizes.

Run from the repository root:

    python3 perfbench/selftest.py

They check that the benchmark notices a wrong answer, that the tracer puts
time where it is spent, and that the exact counts are exact.
"""

from __future__ import annotations

import copy
import json
import sys
import traceback

import run

workloads, tracer = run.import_package()

SMALL = (
    workloads.KdeLevels(tres=3, xres=12, samples=60),
    workloads.WindowsQueries(breakpoints=5, points=8),
    workloads.SurfaceStability(subdiv=6),
)
SEED = 3


def _small(name):
    return next(wl for wl in SMALL if wl.name == name)


def test_outputs_pass_their_checks():
    with run.workdir() as tmp:
        for wl in SMALL:
            outcome, _ = run.measure(wl, SEED, 0, [], tmp)
            assert (outcome.attempted, outcome.failed) == (1, 0), wl.name


def _check_after_tamper(wl):
    def check(job, out):
        wl.tamper(job, out)
        return wl.check(job, out)
    return check


def test_tampered_output_counts_as_failed():
    with run.workdir() as tmp:
        for wl in SMALL:
            tampered = copy.copy(wl)
            tampered.check = _check_after_tamper(wl)
            outcome, _ = run.measure(tampered, SEED, 0, [], tmp)
            assert (outcome.attempted, outcome.failed) == (1, 1), wl.name


def test_golden_mismatch_counts_as_failed():
    with run.workdir() as tmp:
        wl = _small("windows-queries")
        outcome, _ = run.measure(wl, SEED, 0, ["0" * 64], tmp)
        assert (outcome.golden_checked, outcome.failed) == (1, 1)


def _traced(wl, delays=None):
    with run.workdir() as tmp:
        outcome, values = run.measure_traced(wl, SEED, 0, [], tmp,
                                             tracer.Tracer(delays))
    assert outcome.failed == 0
    return values


def test_injected_delay_shows_in_its_layer():
    wl = _small("windows-queries")
    delay = 0.002
    base = _traced(wl)
    slow = _traced(wl, {"homology.betti": delay})
    injected = base["homology.betti_calls"] * delay
    gained = slow["homology.betti_s"] - base["homology.betti_s"]
    assert 0.9 * injected < gained < 1.5 * injected, (gained, injected)
    for other in ("module3.build_s", "simplicial.slab_s",
                  "homology.induced_rank_s"):
        assert abs(slow[other] - base[other]) < 0.25 * injected, other


def test_exact_counts_repeat():
    counts = [m["name"] for m in run.metric_specs()[1]
              if m["unit"] in ("count", "bytes")]
    for wl in SMALL[:2]:
        first, second = _traced(wl), _traced(wl)
        assert {k: first[k] for k in counts} == \
            {k: second[k] for k in counts}, wl.name
        assert first["simplicial.slab_calls"] > 0


def test_tracer_restores_every_wrapped_name():
    saved = [workloads.module3.slab_sublevel, workloads.cli.main,
             workloads.module3.Module3.__dict__["rank"]]
    with tracer.Tracer():
        assert workloads.module3.slab_sublevel is not saved[0]
    after = [workloads.module3.slab_sublevel, workloads.cli.main,
             workloads.module3.Module3.__dict__["rank"]]
    assert after == saved


def test_benchmark_json_names_every_metric():
    end_to_end, per_layer = run.metric_specs()
    with run.workdir() as tmp:
        _, values = run.measure_traced(_small("kde-levels"), SEED, 0, [],
                                       tmp, tracer.Tracer())
    assert sorted(m["name"] for m in per_layer) == sorted(values)
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"] for m in end_to_end} == \
        {"jobs_per_s", "job_s.p50", "setup_s", "peak_rss_mib"}


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"pass {name}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
