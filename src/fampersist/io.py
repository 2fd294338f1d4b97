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


class Rows:
    """A JSON list of rows of one declared form, written by ``dump_json``.

    ``form`` is one row with each leaf replaced by its type, ``int``,
    ``str`` or ``bool``: ``[[int] * 3, [int] * 3, int]`` declares rows
    written as ``[[0, 1, 2], [0, 1, 3], 1]``.  ``rows`` is a list whose
    items are the flat tuples of each row's leaves in written order, dict
    keys sorted: ``(0, 1, 2, 0, 1, 3, 1)``.  The form is checked here,
    when it is declared; the rows are trusted to fit it.
    """

    def __init__(self, form, rows):
        _template(form, "\n")
        self.form, self.rows = form, rows


def dump_json(data, path: Optional[str] = None) -> str:
    """Serialize deterministically: sorted keys, no trailing whitespace.

    The text is byte-identical to ``json.dumps(data, sort_keys=True,
    indent=2) + "\\n"``, once each ``Rows`` is expanded into its list of
    rows; this is the one JSON writer of the package.  Dicts with ``str``
    keys, lists, tuples, ``str``, ``int``, ``bool`` and ``None`` are
    written here.  A list of plain ``int`` is one join.  A ``Rows`` is
    written through one ``%`` template compiled from its form, with its
    ``str`` and ``bool`` leaves encoded column by column and no row checked
    against the form; a row of the wrong length raises.  Any other value
    (a float, a dict with a non-``str`` key, a subclass) is left to
    ``json.dumps`` and re-indented.
    """
    text = _encode(data, "\n") + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


_LITERALS = {None: "null", True: "true", False: "false"}


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
            items = [_encode(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is Rows:
        return _encode_rows(v, nl)
    if t is dict and all(type(k) is str for k in v):
        if not v:
            return "{}"
        inner = nl + "  "
        return ("{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _encode(v[k], inner)
             for k in sorted(v)]) + nl + "}")
    return json.dumps(v, sort_keys=True, indent=2).replace("\n", nl)


def _encode_rows(v: Rows, nl: str) -> str:
    if not v.rows:
        return "[]"
    inner = nl + "  "
    template, kinds = _template(v.form, inner)
    rows = v.rows
    if str in kinds or bool in kinds:
        columns = list(zip(*rows, strict=True))  # no row cut to the shortest
        if len(columns) != len(kinds):
            raise ValueError(f"rows of {len(columns)} leaves for {len(kinds)}")
        for n, kind in enumerate(kinds):
            if kind is str:
                columns[n] = map(encode_basestring_ascii, columns[n])
            elif kind is bool:
                columns[n] = map(_LITERALS.__getitem__, columns[n])
        rows = zip(*columns)
    return ("[" + inner + ("," + inner).join([template % r for r in rows])
            + nl + "]")


def _template(form, nl: str):
    """The ``%`` template of one row of ``form``, written at line start nl,
    and the types of its leaves in written order.  Raises for a form that
    holds an empty container, a non-``str`` key or a leaf that is not
    ``int``, ``str`` or ``bool``."""
    if form in (int, str, bool):
        return ("%d" if form is int else "%s"), [form]
    t = type(form)
    if t is dict:
        keys = sorted(form)
        heads = [encode_basestring_ascii(k).replace("%", "%%") + ": "
                 for k in keys]
        items = [form[k] for k in keys]
        brackets = "{}"
    elif t is list or t is tuple:
        heads, items, brackets = [""] * len(form), form, "[]"
    else:
        raise TypeError(f"row form leaf {form!r} is not int, str or bool")
    if not items:
        raise ValueError(f"row form holds an empty container {form!r}")
    inner = nl + "  "
    parts, kinds = [], []
    for head, item in zip(heads, items):
        template, leaves = _template(item, inner)
        parts.append(head + template)
        kinds += leaves
    return (brackets[0] + inner + ("," + inner).join(parts) + nl
            + brackets[1]), kinds


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
