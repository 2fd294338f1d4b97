"""File formats: family descriptions, data samples, and result writers."""

from __future__ import annotations

import csv
import json
from fractions import Fraction
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


def family_from_json_dict(data) -> PLFamily:
    try:
        base_data = data["base"]
        n = int(base_data["vertices"])
        simplices = [tuple(sorted(int(v) for v in s))
                     for s in base_data["simplices"]]
        base = SimplicialComplex.from_maximal(n, simplices)
        times = tuple(parse_rational(t) for t in data["time_breakpoints"])
        values = tuple(tuple(parse_rational(v) for v in row)
                       for row in data["vertex_values"])
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
    """Serialize deterministically: sorted keys, no trailing whitespace."""
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


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
