"""Stability checks for modules of nearby families.

If two families on the same prism grid differ by at most epsilon in sup
norm, their modules are epsilon-interleaved in the level direction.  A
necessary consequence checked here pointwise: the rank of the level shift
by 2*epsilon in one module is at most the dimension of the other module at
the level shifted by epsilon.  Both sides are read from the two modules:
when a level grid holds every vertex value, the slab at any level c is the
slab at the highest grid level <= c, and empty below the lowest one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
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
    epsilon: Fraction
    degree: int
    checks: List[ShiftCheck]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self):
        return {
            "epsilon": format_rational(self.epsilon),
            "degree": self.degree,
            "checks": [
                {
                    "point": [format_rational(v) for v in c.point],
                    "direction": c.direction,
                    "lhs_rank": c.lhs_rank,
                    "rhs_dim": c.rhs_dim,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
            "overall": self.overall,
        }


def check_interleaving_necessary(mf: "Module3", mg: "Module3",
                                 epsilon) -> PerturbationReport:
    """Check the pointwise rank consequence of an epsilon-interleaving.

    For every grid triple (a, b, c) and each of the two directions, the
    rank of the map raising the level from c to c + 2*epsilon in one module
    must not exceed the dimension of the other module at level c + epsilon.
    Levels are taken from the union of the two grids.  A shifted level need
    not lie on a grid: each module answers at the index
    bisect_right(level_values, c) - 1 of the highest grid level <= c, which
    has the same slab (index -1 is the empty slab, of dim and rank 0).
    This needs every vertex value of a module's prism on its level grid, as
    build_module's default grid has; otherwise FamilyError.
    """
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise FamilyError("epsilon must be nonnegative")
    if mf.degree != mg.degree:
        raise FamilyError("modules must have the same degree")
    if mf.fieldspec != mg.fieldspec:
        raise FamilyError("modules must share the coefficient field")
    if mf.prism is None or mg.prism is None:
        raise FamilyError("both modules need their source complexes")
    if mf.time_values != mg.time_values:
        raise FamilyError("families must share the breakpoints")
    for m in (mf, mg):
        if not set(m.prism.vertex_level.values()) <= set(m.level_values):
            raise FamilyError("a level grid misses a vertex value")

    def at(m, i, j, c):
        return (i, j, bisect_right(m.level_values, c) - 1)

    times = mf.time_values
    checks = []
    for i in range(len(times)):
        for j in range(i, len(times)):
            for c in sorted(set(mf.level_values) | set(mg.level_values)):
                for name, src, dst in (("f_to_g", mf, mg), ("g_to_f", mg, mf)):
                    lo = at(src, i, j, c)
                    lhs = (src.rank(lo, at(src, i, j, c + 2 * epsilon))
                           if lo[2] >= 0 else 0)
                    rhs = dst.dim(at(dst, i, j, c + epsilon))
                    checks.append(ShiftCheck(
                        point=(times[i], times[j], c),
                        direction=name, lhs_rank=lhs, rhs_dim=rhs))
    return PerturbationReport(epsilon=epsilon, degree=mf.degree, checks=checks)
