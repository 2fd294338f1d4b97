"""Job 0 of every benchmark workload at seed 0 reproduces its recorded
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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_job_zero_matches_golden_digest(name, tmp_path):
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    assert golden["seed"] == 0
    wl = WORKLOADS[name]()
    job = wl.generate(0, 0, str(tmp_path))
    out = wl.run(job)
    assert wl.check(job, out) == []
    assert wl.digest(job, out) == golden["digests"][name][0]
