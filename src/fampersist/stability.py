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
        """The payload for ``io.dump_json``: the checks as ``io.Rows`` of
        flat tuples (direction, lhs_rank, pass, a, b, c, rhs_dim).  Each
        time and level object is formatted once, found by identity, since
        hashing a Fraction costs more than formatting it."""
        from .io import Rows  # not at import: the package loads no writer
        values = {id(v): v for c in self.checks for v in c.point}
        texts = {k: format_rational(v) for k, v in values.items()}
        rows = [(c.direction, c.lhs_rank, c.passed,
                 *map(texts.__getitem__, map(id, c.point)), c.rhs_dim)
                for c in self.checks]
        return {
            "epsilon": format_rational(self.epsilon),
            "degree": self.degree,
            "checks": Rows({"direction": str, "lhs_rank": int, "pass": bool,
                            "point": [str] * 3, "rhs_dim": int}, rows),
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
    has the same slab, since the grid holds every vertex value of the
    module's prism (index -1 is the empty slab, below every birth).  The
    ranks of one window and direction are one rank curve of the source's
    window barcode, from the indices of c to those of c + 2*epsilon.
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

    times = mf.time_values
    levels = sorted(set(mf.level_values) | set(mg.level_values))

    def at(m, shift):
        return [bisect_right(m.level_values, c + shift) - 1 for c in levels]

    # Per direction, the grid indices of c, c + 2*epsilon in the source and
    # of c + epsilon in the target, for every level c: none depends on the
    # window.
    directions = [(name, src, dst, at(src, 0), at(src, 2 * epsilon),
                   at(dst, epsilon))
                  for name, src, dst in (("f_to_g", mf, mg),
                                         ("g_to_f", mg, mf))]
    checks = []
    for w in mf.windows():
        curves = [(name, src.barcode(w, w).rank_curve(src.degree, lo, hi),
                   dst, mid) for name, src, dst, lo, hi, mid in directions]
        for n, c in enumerate(levels):
            for name, lhs, dst, mid in curves:
                checks.append(ShiftCheck(
                    point=(times[w[0]], times[w[1]], c), direction=name,
                    lhs_rank=lhs[n], rhs_dim=dst.dim((*w, mid[n]))))
    return PerturbationReport(epsilon=epsilon, degree=mf.degree, checks=checks)
