"""Stability checks for modules of nearby families.

If two families on the same prism grid differ by at most epsilon in sup
norm, their modules are epsilon-interleaved in the level direction.  A
necessary consequence checked here pointwise: the rank of the level shift
by 2*epsilon in one module is at most the dimension of the other module at
the level shifted by epsilon.  Both sides are read from the two modules:
a module's level grid holds every vertex value of its prism, so the slab at
any level c is the slab at the highest grid level <= c, and empty below the
lowest one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import merge
from itertools import groupby
from operator import le
from typing import List

from .family import FamilyError, PLFamily
from .module3 import Module3
from .rational import format_rational
# Not called here; the tracer in perfbench/tracer.py wraps them by name.
from .homology import betti, induced_rank  # noqa: F401
from .simplicial import slab_sublevel  # noqa: F401


def sup_distance(f: PLFamily, g: PLFamily) -> Fraction:
    """Sup-norm distance between two families on the same breakpoints.

    Both families are linear between shared breakpoints, so the maximum of
    the vertexwise differences at the breakpoints is exact.
    """
    if f.base != g.base or f.time_breakpoints != g.time_breakpoints:
        raise FamilyError("families must share the base and the breakpoints")
    best = Fraction(0)
    for row_f, row_g in zip(f.vertex_values, g.vertex_values):
        for vf, vg in zip(row_f, row_g):
            best = max(best, abs(vf - vg))
    return best


@dataclass
class ShiftCheck:
    point: tuple  # (a, b, c) as Fractions
    direction: str  # "f_to_g" | "g_to_f"
    lhs_rank: int
    rhs_dim: int

    @property
    def passed(self) -> bool:
        return self.lhs_rank <= self.rhs_dim


@dataclass
class PerturbationReport:
    """Per window (i, j) of ``times``, in ``Module3.windows()`` order, one
    (direction, lhs, rhs) per direction: at level n, the source's rank from
    levels[n] to levels[n] + 2*epsilon and the target's dim at levels[n] +
    epsilon.  ``checks`` lists the checks by window, level and direction."""
    epsilon: Fraction
    degree: int
    times: List[Fraction]
    levels: List[Fraction]
    curves: list  # of ((i, j), [(direction, lhs, rhs), ...])

    @property
    def checks(self) -> List[ShiftCheck]:
        return [ShiftCheck((self.times[i], self.times[j], c), name, lhs[n],
                           rhs[n]) for (i, j), dirs in self.curves
                for n, c in enumerate(self.levels) for name, lhs, rhs in dirs]

    @property
    def overall(self) -> bool:
        return all(all(map(le, lhs, rhs))
                   for _, dirs in self.curves for _, lhs, rhs in dirs)

    def to_json_dict(self):
        """The payload for ``io.dump_json``: the checks as ``io.Rows`` of
        flat tuples (direction, lhs_rank, pass, a, b, c, rhs_dim), read
        from the curves with each time and level formatted once."""
        from .io import Rows  # not at import: the package loads no writer
        times = [format_rational(t) for t in self.times]
        levels = [format_rational(c) for c in self.levels]
        rows = [(name, lhs[n], lhs[n] <= rhs[n], times[i], times[j], c,
                 rhs[n]) for (i, j), dirs in self.curves
                for n, c in enumerate(levels) for name, lhs, rhs in dirs]
        return {
            "epsilon": format_rational(self.epsilon),
            "degree": self.degree,
            "checks": Rows({"direction": str, "lhs_rank": int, "pass": bool,
                            "point": [str] * 3, "rhs_dim": int}, rows),
            "overall": self.overall,
        }


def grid_indices(grid, values) -> List[int]:
    """bisect_right(grid, v) - 1 per v, one merge walk over ascending lists."""
    out, k, top = [], -1, len(grid) - 1
    for v in values:
        while k < top and grid[k + 1] <= v:
            k += 1
        out.append(k)
    return out


def check_interleaving_necessary(mf: "Module3", mg: "Module3",
                                 epsilon) -> PerturbationReport:
    """Check the pointwise rank consequence of an epsilon-interleaving.

    For every grid triple (a, b, c) and each of the two directions, the
    rank of the map raising the level from c to c + 2*epsilon in one module
    must not exceed the dimension of the other module at level c + epsilon.
    Levels are taken from the union of the two grids, one merge of the two
    sorted lists.  A module answers a shifted level c at the
    ``grid_indices`` index of its highest grid level <= c, which has the
    same slab (index -1 is the empty slab, below every birth).  Per window
    and direction, both sides are rank curves of the window barcodes the
    build reduced, kept as int lists.
    """
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise FamilyError("epsilon must be nonnegative")
    if mf.degree != mg.degree:
        raise FamilyError("modules must have the same degree")
    if mf.fieldspec != mg.fieldspec:
        raise FamilyError("modules must share the coefficient field")
    if mf.time_values != mg.time_values:
        raise FamilyError("families must share the breakpoints")

    levels = [c for c, _ in groupby(merge(mf.level_values, mg.level_values))]
    mid, top = ([c + e for c in levels] for e in (epsilon, 2 * epsilon))
    directions = [(name, src, dst, grid_indices(src.level_values, levels),
                   grid_indices(src.level_values, top),
                   grid_indices(dst.level_values, mid))
                  for name, src, dst in (("f_to_g", mf, mg),
                                         ("g_to_f", mg, mf))]
    curves = [(w, [(name, src.barcode(w, w).rank_curve(src.degree, lo, hi),
                    dst.barcode(w, w).rank_curve(dst.degree, at, at))
                   for name, src, dst, lo, hi, at in directions])
              for w in mf.windows()]
    return PerturbationReport(epsilon, mf.degree, mf.time_values, levels,
                              curves)
