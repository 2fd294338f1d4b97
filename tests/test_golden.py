"""Every recorded seed-0 job of every benchmark workload reproduces its
output digest: the byte-identity gate for changes to the engine."""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = load_workloads().WORKLOADS


def check_job(name, index, workdir):
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    assert golden["seed"] == 0
    wl = WORKLOADS[name]()
    job = wl.generate(0, index, str(workdir))
    out = wl.run(job)
    assert wl.check(job, out) == []
    assert wl.digest(job, out) == golden["digests"][name][index]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_job_zero_matches_golden_digest(name, tmp_path):
    check_job(name, 0, tmp_path)


@pytest.mark.parametrize("index", range(1, 16))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_next_jobs_match_golden_digests(name, index, tmp_path):
    check_job(name, index, tmp_path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tampered_job_zero_fails_its_check(name, tmp_path):
    """The benchmark's checks see a tampered output, which pins what each
    workload's tamper hook changes (surface-stability's writes
    ``Module3.dims``, which ``Module3.dim`` must read)."""
    wl = WORKLOADS[name]()
    job = wl.generate(0, 0, str(tmp_path))
    out = wl.run(job)
    wl.tamper(job, out)
    assert wl.check(job, out) != []
