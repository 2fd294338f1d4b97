"""File formats: family descriptions, data samples, and result writers."""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import List, Optional, Tuple

from .family import PLFamily
from .rational import format_rational, parse_rational
from .simplicial import ComplexError, SimplicialComplex


class IOFormatError(ValueError):
    pass


def family_to_json_dict(f: PLFamily):
    maximal = sorted(
        s for s in f.base.simplices
        if not any(len(t) == len(s) + 1 and set(s) <= set(t)
                   for t in f.base.simplices))
    return {
        "base": {
            "vertices": f.base.n_vertices,
            "simplices": [list(s) for s in maximal],
        },
        "time_breakpoints": [format_rational(t) for t in f.time_breakpoints],
        "vertex_values": [[format_rational(v) for v in row]
                          for row in f.vertex_values],
    }


def _json_int(value) -> int:
    """value when it is a JSON integer; a boolean, float or string is not."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_list(value, read) -> list:
    """read(item) for each item of value, a JSON list: a string or an
    object is not one, though it iterates."""
    items = [read(v) for v in value]
    if type(value) is not list:
        raise TypeError(f"expected a list, got {value!r}")
    return items


def family_from_json_dict(data) -> PLFamily:
    try:
        base_data = data["base"]
        n = _json_int(base_data["vertices"])
        simplices = _json_list(base_data["simplices"],
                               lambda s: _json_list(s, _json_int))
        base = SimplicialComplex.from_maximal(n, simplices)
        times = tuple(_json_list(data["time_breakpoints"], parse_rational))
        values = tuple(_json_list(
            data["vertex_values"],
            lambda row: tuple(_json_list(row, parse_rational))))
    except (KeyError, TypeError, ValueError, ComplexError) as exc:
        raise IOFormatError(f"bad family description: {exc}") from exc
    if len(values) != len(times):
        raise IOFormatError(
            f"bad family description: {len(values)} vertex_values rows for "
            f"{len(times)} time breakpoints")
    for i, row in enumerate(values):
        if len(row) != n:
            raise IOFormatError(
                f"bad family description: vertex_values row {i} has "
                f"{len(row)} values for {n} vertices")
    return PLFamily(base=base, time_breakpoints=times, vertex_values=values)


def load_family(path: str) -> PLFamily:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IOFormatError(f"cannot read family file {path}: {exc}") from exc
    return family_from_json_dict(data)


def dump_json(data, path: Optional[str] = None) -> str:
    """Serialize deterministically: sorted keys, no trailing whitespace.

    The text is byte-identical to ``json.dumps(data, sort_keys=True,
    indent=2) + "\\n"``; this is the one JSON writer of the package.  Dicts
    with ``str`` keys, lists, tuples, ``str``, ``int``, ``bool`` and
    ``None`` are written here.  A list of plain ``int`` is one join.  A
    list of two or more rows whose first row is a non-empty container is
    written through one ``%`` template compiled from that first row, when
    every row has exactly its shape: the same container types and lengths,
    the same dict keys, and the same leaf type (``int``, ``str`` or
    ``bool``) at each leaf; otherwise the list is written item by item.
    Any other value (a float, a dict with a non-``str`` key, a subclass) is
    left to ``json.dumps`` and re-indented.
    """
    text = _encode(data, "\n") + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


_LITERALS = {None: "null", True: "true", False: "false"}
# The template arguments of a leaf, by its exact type.
_LEAF_FILLS = {
    int: lambda v: (v,),
    str: lambda v: (encode_basestring_ascii(v),),
    bool: lambda v: (_LITERALS[v],),
}


def _encode(v, nl: str) -> str:
    """JSON text of v, whose lines after the first start with nl."""
    t = type(v)
    if t is str:
        return encode_basestring_ascii(v)
    if t is int:
        return int.__repr__(v)
    if v is None or t is bool:
        return _LITERALS[v]
    if t is list or t is tuple:
        if not v:
            return "[]"
        inner = nl + "  "
        if type(v[0]) is int and all(type(x) is int for x in v):
            items = map(int.__repr__, v)
        else:
            items = _rows(v, inner) or [_encode(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is dict and all(type(k) is str for k in v):
        if not v:
            return "{}"
        inner = nl + "  "
        return ("{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _encode(v[k], inner)
             for k in sorted(v)]) + nl + "}")
    return json.dumps(v, sort_keys=True, indent=2).replace("\n", nl)


def _rows(v, nl: str):
    """v's items through one template compiled from v[0], or None when v
    is not a list of two or more rows of one shape."""
    if len(v) < 2 or type(v[0]) not in (list, tuple, dict) or not v[0]:
        return None
    shape = _shape(v[0], nl)
    if shape is None:
        return None
    template, leaves = shape
    args = [leaves(row) for row in v]
    if None in args:
        return None
    return [template % a for a in args]


def _shape(x, nl: str):
    """Compile the shape of container x, written at line start nl, into
    ``(template, leaves)``: ``leaves(y)`` is the tuple that fills the
    template with y's leaves when y has exactly x's shape, else None.
    None when x holds an empty container or a leaf that is not a plain
    int, str or bool."""
    t = type(x)
    inner = nl + "  "
    if t is dict:
        if not all(type(k) is str for k in x):
            return None
        keys = sorted(x)
        heads = [encode_basestring_ascii(k).replace("%", "%%") + ": "
                 for k in keys]
        items = [x[k] for k in keys]
        brackets = "{}"
    else:
        heads, items, brackets = [""] * len(x), x, "[]"
    parts, fills = [], []
    for head, item in zip(heads, items):
        ti = type(item)
        if ti in _LEAF_FILLS:
            parts.append(head + ("%d" if ti is int else "%s"))
            fills.append(_LEAF_FILLS[ti])
        elif ti in (list, tuple, dict) and item:
            shape = _shape(item, inner)
            if shape is None:
                return None
            parts.append(head + shape[0])
            fills.append(shape[1])
        else:
            return None
    template = (brackets[0] + inner + ("," + inner).join(parts) + nl
                + brackets[1])
    types = tuple(map(type, items))
    ints_only = all(f is _LEAF_FILLS[int] for f in fills)

    def leaves(y):
        if type(y) is not t:
            return None
        if t is dict:
            if y.keys() != x.keys():
                return None
            y = tuple(map(y.__getitem__, keys))
        if tuple(map(type, y)) != types:
            return None
        if ints_only:
            return tuple(y)
        out = []
        for fill, item in zip(fills, y):
            got = fill(item)
            if got is None:
                return None
            out += got
        return tuple(out)

    return template, leaves


def write_text(text: str, path: Optional[str] = None) -> str:
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _looks_like_header(row: List[str], columns: int) -> bool:
    for cell in row[:columns]:
        try:
            parse_rational(cell.strip())
        except (ValueError, ZeroDivisionError):
            return True
    return False


def load_samples(path: str, columns: int) -> List[Tuple[Fraction, ...]]:
    """Read numeric rows from a CSV file, skipping an optional header row
    (the first row that is not blank).

    Accepts rationals ("3/4") and decimal strings; every data row must have
    at least the requested number of columns.
    """
    rows, seen_row = [], False
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for lineno, row in enumerate(reader):
                if not row or all(not c.strip() for c in row):
                    continue
                if not seen_row:
                    seen_row = True
                    if _looks_like_header(row, columns):
                        continue
                if len(row) < columns:
                    raise IOFormatError(
                        f"{path}: row {lineno + 1} has {len(row)} columns, "
                        f"need {columns}")
                try:
                    rows.append(tuple(parse_rational(c.strip())
                                      for c in row[:columns]))
                except (ValueError, ZeroDivisionError) as exc:
                    raise IOFormatError(
                        f"{path}: row {lineno + 1}: {exc}") from exc
    except OSError as exc:
        raise IOFormatError(f"cannot read sample file {path}: {exc}") from exc
    if not rows:
        raise IOFormatError(f"{path}: no data rows")
    return rows
