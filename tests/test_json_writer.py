"""``io.dump_json`` against ``json.dumps(..., sort_keys=True, indent=2)``."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fampersist.io import _rows, dump_json


def reference(data):
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# Floats and int keys are not written by dump_json itself; they check the
# re-indented fallback.
scalars = (st.none() | st.booleans() | st.integers(-5, 5)
           | st.integers(-2**100, 2**100) | st.text(max_size=6)
           | st.floats())
# Rows of one shape, so that lists take the template path; the "%" in a
# key must reach the output as written.
rows = st.lists(
    st.tuples(st.integers(), st.text(max_size=3), st.booleans()).map(list)
    | st.fixed_dictionaries({
        "a%d": st.integers(),
        "point": st.lists(st.text(max_size=2), min_size=3, max_size=3),
        "pass": st.booleans()}),
    min_size=2, max_size=4)
values = st.recursive(
    scalars | rows,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.tuples(kids, kids)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=4)
                  | st.dictionaries(st.integers(), kids, max_size=2)),
    max_leaves=20)


@given(values)
def test_matches_json_dumps(data):
    assert dump_json(data) == reference(data)


def test_edge_rows_and_checks_take_the_template():
    edges = [[[0, 0, k], [0, 1, k], 1] for k in range(3)]
    checks = [{"direction": "f_to_g", "lhs_rank": k, "pass": k > 0,
               "point": ["0", "1/2", str(k)], "rhs_dim": 1}
              for k in range(3)]
    for data in (edges, checks):
        assert _rows(data, "\n  ") is not None
        assert dump_json(data) == reference(data)
        assert dump_json({"0": {"x": data}}) == reference({"0": {"x": data}})


@pytest.mark.parametrize("data", [
    [[[0, 0, 0], [0, 0, 1], 1], [[0, 0, 0], [0, 0, 1], True]],  # bool
    [[[0, 0, 0], [0, 0, 1], 1], [[0, 0, 0], [0, 0, "1"], 1]],  # str
    [[1, 2], [1, 2.5]],  # float
    [[1, 2], (1, 2), [3, 4]],  # tuple row among list rows
    [[[1, 2, 3], [1, 2, 3], 1], [[1, 2], [1, 2, 3], 1]],  # ragged triple
    [{"a": 1, "b": "x"}, {"a": 1, "b": "y", "c": 3}],  # extra key
    [{"a": 1, "b": "x"}, {"a": 1}],  # missing key
    [{"a": 1, "b": "x"}, {"a": 1, "c": "x"}],  # other key
    [1, True, 2],  # a bool in a list of ints
], ids=["bool", "str", "float", "tuple", "ragged", "extra key",
        "missing key", "other key", "int list"])
def test_near_miss_rows_fall_back(data):
    assert _rows(data, "\n  ") is None
    assert dump_json(data) == reference(data)
    assert dump_json({"rows": data}) == reference({"rows": data})


def test_writes_the_text_it_returns(tmp_path):
    path = tmp_path / "out.json"
    data = {"b": [1, 2], "a": [[1, "é"], [2, "\""]], "c": None}
    text = dump_json(data, str(path))
    assert text == reference(data)
    assert path.read_text() == text
