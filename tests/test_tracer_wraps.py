"""The benchmark tracer wraps package functions by the names their modules
hold; a name that is gone breaks every traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("module_name, attr_path, span",
                         load_tracer().WRAPS)
def test_wrapped_name_is_held_by_its_owner(module_name, attr_path, span):
    owner, attr = load_tracer()._resolve(module_name, attr_path)
    assert attr in owner.__dict__, f"{module_name}.{attr_path} ({span})"
