"""``io.dump_json`` against ``json.dumps(..., sort_keys=True, indent=2)``,
with every ``io.Rows`` expanded into the rows it declares."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fampersist.io import Rows, dump_json

from payload import expand


def reference(data):
    return json.dumps(expand(data), sort_keys=True, indent=2) + "\n"


# Floats and int keys are not written by dump_json itself; they check the
# re-indented fallback.
texts = st.text(max_size=4) | st.sampled_from(
    ["%", "%d", "%s%%", "\"", "\\", "é", "€\n", "a%(b)s"])
scalars = (st.none() | st.booleans() | st.integers(-5, 5)
           | st.integers(-2**100, 2**100) | texts | st.floats())
# Plain lists of rows, written item by item; the "%" in a key must reach
# the output as written.
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


LEAVES = {int: st.integers(-2**70, 2**70), str: texts, bool: st.booleans()}
forms = st.recursive(
    st.sampled_from(list(LEAVES)),
    lambda kids: (st.lists(kids, min_size=1, max_size=3)
                  | st.dictionaries(texts, kids, min_size=1, max_size=3)),
    max_leaves=6)


def kinds(form):
    """The leaf types of form in written order, dict keys sorted."""
    if isinstance(form, dict):
        return [k for key in sorted(form) for k in kinds(form[key])]
    if isinstance(form, list):
        return [k for f in form for k in kinds(f)]
    return [form]


def declared(form):
    row = st.tuples(*[LEAVES[k] for k in kinds(form)])
    return st.lists(row, max_size=4).map(lambda rs: Rows(form, rs))


row_lists = forms.flatmap(declared)
payloads = st.recursive(
    scalars | row_lists,
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(texts, kids, max_size=3)),
    max_leaves=8)


@given(payloads)
def test_rows_match_json_dumps_of_their_expansion(data):
    assert dump_json(data) == reference(data)


def test_edge_rows_and_checks_take_the_template():
    edges = Rows([[int] * 3, [int] * 3, int],
                 [(0, 0, k, 0, 1, k, 1) for k in range(3)])
    checks = Rows({"direction": str, "lhs_rank": int, "pass": bool,
                   "point": [str] * 3, "rhs_dim": int},
                  [("f_to_g", k, k > 0, "0", "1/2", str(k), 1)
                   for k in range(3)])
    assert expand(checks)[1] == {"direction": "f_to_g", "lhs_rank": 1,
                                 "pass": True, "point": ["0", "1/2", "1"],
                                 "rhs_dim": 1}
    assert expand(edges)[2] == [[0, 0, 2], [0, 1, 2], 1]
    keyed = Rows({"%": int, "a%(b)s": [str, {"%d": bool}]},
                 [(1, "%s", True), (-2, "\"é%%", False)])
    for data in (edges, checks, keyed):
        assert dump_json(data) == reference(data)
        assert dump_json({"0": {"x": data}}) == reference({"0": {"x": data}})


def test_empty_rows_write_an_empty_list():
    for form in ([int], {"a": [str, bool]}):
        assert dump_json(Rows(form, [])) == "[]\n"
        assert dump_json({"x": Rows(form, [])}) == '{\n  "x": []\n}\n'


@pytest.mark.parametrize("form", [
    [], {}, [int, []], {"a": int, "b": {}}, [float], [int, None], "int",
    [int, [str, list]], {1: int}, {"a": int, 1: int},
], ids=["empty list", "empty dict", "nested empty list", "nested empty dict",
        "float", "None", "string", "container type", "int key",
        "mixed keys"])
def test_bad_form_raises_when_declared(form):
    with pytest.raises((TypeError, ValueError)):
        Rows(form, [])


@pytest.mark.parametrize("form, rows", [
    ([int, int], [(1, 2), (3,)]),
    ([int, int], [(1, 2), (3, 4, 5)]),
    ([int, int], [(1, 2, 3), (3, 4, 5)]),
    ([int, str], [(1, "a"), (2,)]),
    ([int, str], [(1, "a"), (2, "b", 3)]),
    ([int, str], [(1, "a", 9), (2, "b", 3)]),
    ({"a": int, "b": bool}, [(1, True), (2, False), (3, True, 4)]),
    ({"a": int, "b": bool}, [(1,), (2,)]),
], ids=["int short", "int long", "int all long", "str short", "str long",
        "str all long", "bool long", "bool all short"])
def test_row_of_wrong_length_raises(form, rows):
    with pytest.raises((TypeError, ValueError)):
        dump_json({"rows": Rows(form, rows)})


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
    """Plain lists of rows of nearly one shape are written item by item."""
    assert dump_json(data) == reference(data)
    assert dump_json({"rows": data}) == reference({"rows": data})


def test_writes_the_text_it_returns(tmp_path):
    path = tmp_path / "out.json"
    data = {"b": [1, 2], "a": [[1, "é"], [2, "\""]], "c": None}
    text = dump_json(data, str(path))
    assert text == reference(data)
    assert path.read_text() == text
