"""Expand the ``io.Rows`` of a payload into the nested lists and dicts they
declare, read from each form alone, so that ``json.dumps`` can write the
payload that ``io.dump_json`` writes."""

from fampersist.io import Rows


def expand(data):
    """data with every ``Rows`` replaced by its list of rows; a leaf whose
    type is not the one its form declares, or a row of the wrong length,
    fails."""
    if type(data) is Rows:
        return [expand_row(data.form, row) for row in data.rows]
    if isinstance(data, dict):
        return {k: expand(v) for k, v in data.items()}
    if isinstance(data, (list, tuple)):
        return [expand(x) for x in data]
    return data


def expand_row(form, row):
    leaves = list(reversed(row))
    out = _fill(form, leaves)
    assert not leaves, f"row {row!r} is longer than its form {form!r}"
    return out


def _fill(form, leaves):
    if isinstance(form, dict):
        return {k: _fill(form[k], leaves) for k in sorted(form)}
    if isinstance(form, (list, tuple)):
        return [_fill(f, leaves) for f in form]
    assert leaves, f"a row is shorter than its form at a {form.__name__}"
    leaf = leaves.pop()
    assert type(leaf) is form, f"{leaf!r} is not a {form.__name__}"
    return leaf
