"""Three-parameter persistence modules of fibered PL families.

A family f(t, x) = (t, f_t(x)) yields, for each degree j, a module over the
grid of triples (a, b, c): the homology of the part of the prism complex
lying over times in [a, b] with vertex values at most c.  The partial order
has (a, b, c) below (a', b', c') when [a, b] is contained in [a', b'] and
c <= c', so structure maps widen the time window and raise the level.

Along the level axis a window's slabs are the sublevel sets of a lower-star
filtration, so one persistence reduction per window gives every dim of the
window and every rank between two of its levels as a bar count.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import homology
from .homology import Barcode, FieldSpec, induced_rank
from .rational import format_rational, parse_rational
from .simplicial import PrismComplex, slab_sublevel
# Not called here; the tracer in perfbench/tracer.py wraps it by name.
from .homology import betti  # noqa: F401

Point = Tuple[int, int, int]  # (a_index, b_index, c_index), a_index <= b_index


class ModuleError(ValueError):
    pass


class ThinRefusal(Exception):
    """The module is not presented as a direct sum of thin summands.

    Distinct from ModuleError: the input is a perfectly good module, it just
    does not admit (or we cannot certify) a thin decomposition.  Carries a
    witness grid point or pair.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _leq(x: Point, y: Point) -> bool:
    return y[0] <= x[0] and x[1] <= y[1] and x[2] <= y[2]


def _join(x: Point, y: Point) -> Point:
    return (min(x[0], y[0]), max(x[1], y[1]), max(x[2], y[2]))


@dataclass
class IntervalSummand:
    """A thin summand: pointwise dimension one over its support."""

    support: frozenset  # of Point


@dataclass
class Module3:
    degree: int
    fieldspec: FieldSpec
    time_values: List[Fraction]
    level_values: List[Fraction]
    dims: Dict[Point, int]
    edge_ranks: Dict[Tuple[Point, Point], int]
    prism: Optional[PrismComplex] = None
    # Lower-star barcode of each window (a_index, b_index), stage k being
    # level_values[k]; kept by build_module, never serialized.
    bars: Optional[Dict[Tuple[int, int], Barcode]] = None

    # ----- queries -------------------------------------------------------

    def points(self):
        nt, nl = len(self.time_values), len(self.level_values)
        for i in range(nt):
            for j in range(i, nt):
                for k in range(nl):
                    yield (i, j, k)

    def dim(self, point: Point) -> int:
        return self.dims.get(point, 0)

    def _check_point(self, point: Point):
        i, j, k = point
        if not (0 <= i <= j < len(self.time_values)
                and 0 <= k < len(self.level_values)):
            raise ModuleError(f"grid point {point} out of range")

    def neighbors_up(self, point: Point):
        """Grid points one step up in the order (wider window or higher level)."""
        i, j, k = point
        if i > 0:
            yield (i - 1, j, k)
        if j < len(self.time_values) - 1:
            yield (i, j + 1, k)
        if k < len(self.level_values) - 1:
            yield (i, j, k + 1)

    def neighbors_down(self, point: Point):
        i, j, k = point
        if i < j:
            yield (i + 1, j, k)
            yield (i, j - 1, k)
        if k > 0:
            yield (i, j, k - 1)

    def edge_rank(self, x: Point, y: Point) -> int:
        return self.edge_ranks.get((x, y), 0)

    def slab(self, point: Point) -> frozenset:
        """Simplices of the prism slab at a grid point."""
        if self.prism is None:
            raise ModuleError(f"the slab at {point} needs the source complex")
        i, j, k = point
        return slab_sublevel(self.prism, i, j, self.level_values[k]).simplices

    def rank(self, x: Point, y: Point) -> int:
        """Rank of the structure map x -> y between grid points.

        Identities, maps with a zero end and adjacent edges are read from
        the dims and the stored nonzero edge ranks.  A map that only raises
        the level is a bar count in the window's barcode when build_module
        kept it.  Composing edge ranks only bounds the other long maps from
        above, so those go back to the prism.
        """
        self._check_point(x)
        self._check_point(y)
        if not _leq(x, y):
            raise ModuleError(f"{x} is not below {y}")
        if x == y:
            return self.dim(x)
        if not self.dim(x) or not self.dim(y):
            return 0
        if y in self.neighbors_up(x):
            return self.edge_rank(x, y)
        if self.bars is not None and x[:2] == y[:2]:
            return self.bars[x[:2]].rank(self.degree, x[2], y[2])
        return induced_rank(self.slab(x), self.slab(y),
                            self.degree, self.fieldspec)

    def support(self):
        return {p for p, d in self.dims.items() if d > 0}

    # ----- serialization --------------------------------------------------

    def to_json_dict(self):
        nt, nl = len(self.time_values), len(self.level_values)
        dims = [[[self.dim((i, j, k)) for k in range(nl)]
                 if i <= j else None
                 for j in range(nt)] for i in range(nt)]
        edges = sorted(
            ([list(x), list(y), r] for (x, y), r in self.edge_ranks.items()
             if r > 0),
            key=lambda e: (e[0], e[1]))
        return {
            "degree": self.degree,
            "field": self.fieldspec.characteristic,
            "time_values": [format_rational(t) for t in self.time_values],
            "level_values": [format_rational(c) for c in self.level_values],
            "dims": dims,
            "edge_ranks": edges,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["a", "b", "c", "dim"])
        for i, j, k in self.points():
            w.writerow([format_rational(self.time_values[i]),
                        format_rational(self.time_values[j]),
                        format_rational(self.level_values[k]),
                        self.dim((i, j, k))])
        return buf.getvalue()

    @classmethod
    def from_json_dict(cls, data) -> "Module3":
        times = [parse_rational(t) for t in data["time_values"]]
        levels = [parse_rational(c) for c in data["level_values"]]
        dims = {}
        for i, row in enumerate(data["dims"]):
            for j, col in enumerate(row):
                if col is None:
                    continue
                for k, d in enumerate(col):
                    if d:
                        dims[(i, j, k)] = int(d)
        edges = {(tuple(x), tuple(y)): int(r)
                 for x, y, r in data.get("edge_ranks", [])}
        return cls(degree=int(data["degree"]),
                   fieldspec=FieldSpec(int(data["field"])),
                   time_values=times, level_values=levels,
                   dims=dims, edge_ranks=edges)


def _lower_star_cells(p: PrismComplex, levels: List[Fraction]):
    """(simplex, tmin, tmax, stage) for every prism simplex on the grid.

    tmin and tmax are the simplex's first and last time index, and stage is
    the first grid index whose level is at least its top vertex value, so
    the slab at (i, j, k) holds exactly the simplices with i <= tmin,
    tmax <= j and stage <= k.  A simplex above the top level is left out.
    """
    cells = []
    for s in p.simplices:
        stage = bisect_left(levels, max(p.vertex_level[v] for v in s))
        if stage < len(levels):
            times = [v[0] for v in s]
            cells.append((s, min(times), max(times), stage))
    return cells


def _barcode(entries, fieldspec: FieldSpec) -> Barcode:
    """Barcode of (stage, simplex) pairs whose faces never stage later."""
    if not entries:
        return Barcode()
    entries.sort(key=lambda e: (e[0], len(e[1]), e[1]))
    return homology.staged_reduce([(s, st) for st, s in entries], fieldspec)


def _window_edge_ranks(cells, dims, nt: int, nl: int, degree: int,
                       fieldspec: FieldSpec) -> Dict[Tuple[Point, Point], int]:
    """Ranks of the window-widening edges between support points.

    At a fixed level k and right end j, the slabs (i, j, k) for i = j..0 are
    the stages j - tmin of one filtration; at a fixed left end i, the slabs
    (i, j, k) for j = i..nt-1 are the stages tmax - i.  One reduction per
    such chain serves all of its edges, and it runs only at the levels where
    the chain's slabs change: the levels above one, up to the next, hold the
    same slabs and get the same ranks.
    """
    ranks = {}

    def chain(members, point, length):
        # members: (chain stage, level stage, simplex); point(q, k) is the
        # grid point of chain stage q at level k.
        changes = sorted({st for _, st, _ in members})
        for n, r in enumerate(changes):
            needed = [q for q in range(length - 1)
                      if point(q, r) in dims and point(q + 1, r) in dims]
            if not needed:
                continue
            bc = _barcode([(q, s) for q, st, s in members if st <= r],
                          fieldspec)
            upto = changes[n + 1] if n + 1 < len(changes) else nl
            for q in needed:
                rank = bc.rank(degree, q, q + 1)
                for k in range(r, upto):
                    ranks[(point(q, k), point(q + 1, k))] = rank

    for j in range(1, nt):
        chain([(j - lo, st, s) for s, lo, hi, st in cells if hi <= j],
              lambda q, k: (j - q, j, k), j + 1)
    for i in range(nt - 1):
        chain([(hi - i, st, s) for s, lo, hi, st in cells if i <= lo],
              lambda q, k: (i, i + q, k), nt - i)
    return ranks


def build_module(p: PrismComplex, degree: int,
                 fieldspec: FieldSpec = FieldSpec(),
                 level_values: Optional[List[Fraction]] = None) -> Module3:
    """Compute dims and adjacent-edge ranks over the full grid.

    The level grid defaults to the distinct vertex values, midpoints between
    consecutive ones, and one value above the maximum, which captures every
    combinatorial change of the sublevel complexes; a given grid must be
    strictly increasing.  Each window's slabs form one lower-star
    filtration, reduced once: its barcode, kept on the module as ``bars``,
    gives the dims and every rank between two levels of the window as bar
    counts.  Window-widening edges come from one reduction per chain of
    nested windows at each level where that chain's slabs change.
    """
    if degree < 0:
        raise ModuleError("degree must be nonnegative")
    times = list(p.time_breakpoints)
    levels = list(level_values) if level_values is not None else p.level_values()
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise ModuleError("level values must be strictly increasing")
    nt, nl = len(times), len(levels)
    cells = _lower_star_cells(p, levels)
    bars = {(i, j): _barcode([(st, s) for s, lo, hi, st in cells
                              if i <= lo and hi <= j], fieldspec)
            for i in range(nt) for j in range(i, nt)}
    mod = Module3(degree=degree, fieldspec=fieldspec, time_values=times,
                  level_values=levels, dims={}, edge_ranks={}, prism=p,
                  bars=bars)
    dims = mod.dims
    for (i, j), bc in bars.items():
        for k in range(nl):
            d = bc.betti_at_stage(degree, k)
            if d:
                dims[(i, j, k)] = d
    ranks = _window_edge_ranks(cells, dims, nt, nl, degree, fieldspec)
    for pt in dims:
        for up in mod.neighbors_up(pt):
            if pt[:2] == up[:2]:
                r = bars[pt[:2]].rank(degree, pt[2], up[2])
            else:
                r = ranks.get((pt, up), 0)
            if r:
                mod.edge_ranks[(pt, up)] = r
    return mod


@dataclass
class BettiReport:
    modules: Dict[int, Module3]

    def to_json_dict(self):
        return {str(j): m.to_json_dict() for j, m in sorted(self.modules.items())}


def betti_report(p: PrismComplex, max_degree: int,
                 fieldspec: FieldSpec = FieldSpec()) -> BettiReport:
    return BettiReport({j: build_module(p, j, fieldspec)
                        for j in range(max_degree + 1)})


@dataclass
class Subdiagram:
    """Restriction of a module to a chosen list of grid points."""

    module: Module3
    points: List[Point]
    dims: List[int]
    ranks: Dict[Tuple[int, int], int]  # positions in the point list

    def rank(self, src: int, dst: int) -> int:
        if (src, dst) not in self.ranks:
            raise ModuleError(
                f"points {self.points[src]} and {self.points[dst]} are "
                "incomparable; no structure map between them")
        return self.ranks[(src, dst)]


def finite_subdiagram(mod: Module3, points: List[Point]) -> Subdiagram:
    """Dims at the chosen points plus composite ranks of every comparable
    ordered pair, each computed by ``Module3.rank``."""
    for p in points:
        mod._check_point(p)
    dims = [mod.dim(p) for p in points]
    ranks = {}
    for s, x in enumerate(points):
        for t, y in enumerate(points):
            if _leq(x, y):
                ranks[(s, t)] = mod.rank(x, y)
    return Subdiagram(module=mod, points=list(points), dims=dims, ranks=ranks)


# ----- thin decomposition --------------------------------------------------


def _zigzag_components(mod: Module3, support, edge):
    """Components of the support under adjacent edges with edge(x, y) >= 1."""

    def adjacency(x):
        return ([y for y in mod.neighbors_up(x) if edge(x, y) >= 1]
                + [y for y in mod.neighbors_down(x) if edge(y, x) >= 1])

    seen = set()
    comps = []
    for start in sorted(support):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in adjacency(x):
                if y in support and y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(IntervalSummand(frozenset(comp)))
    return comps


def _check_components_split(mod: Module3, comps: List[IntervalSummand]):
    """Conservative soundness checks on the rank-one adjacency components.

    Inside a component every adjacent in-support edge must carry rank one,
    and comparable points of distinct components must have composite rank
    zero (checked on one witness pair per ordered component pair when the
    source complex is available)."""
    for comp in comps:
        for x in comp.support:
            for y in mod.neighbors_up(x):
                if y in comp.support and mod.edge_rank(x, y) == 0:
                    raise ThinRefusal(
                        f"support is connected through {x} -> {y} but the "
                        "edge carries rank 0; not a sum of thin summands",
                        witness=(x, y))
    if len(comps) < 2 or mod.prism is None:
        return
    for ca in comps:
        for cb in comps:
            if ca is cb:
                continue
            pair = next(((x, y) for x in sorted(ca.support)
                         for y in sorted(cb.support) if _leq(x, y)), None)
            if pair is not None and mod.rank(*pair) >= 1:
                raise ThinRefusal(
                    "components are not independent: nonzero map "
                    f"{pair[0]} -> {pair[1]} across components",
                    witness=pair)


def _top_point(mod: Module3) -> Point:
    return (0, len(mod.time_values) - 1, len(mod.level_values) - 1)


def _joint_rank(mod: Module3, x: Point, xp: Point, y: Point) -> int:
    """Dimension of the span of the two images in H(y) in degree zero.

    The union of the two slab complexes includes into the slab at y, and in
    degree zero the image of the union is exactly the sum of the images.
    """
    return induced_rank(mod.slab(x) | mod.slab(xp), mod.slab(y),
                        mod.degree, mod.fieldspec)


def thin_decompose(mod: Module3) -> List[IntervalSummand]:
    """Split the module into thin (pointwise dimension one) summands.

    With all dims at most one this is the zigzag component decomposition of
    the support along rank-one edges.  With dims up to two the layer that
    survives to the widest window at the highest level is peeled off first,
    provided the peel is consistent: any two minimal points of the peel must
    have images spanning at most one dimension at their join.  Otherwise, or
    with a dim above two, the module is refused with a witness.
    """
    support = mod.support()
    if not support:
        return []
    max_dim = max(mod.dims.values())
    if max_dim == 1:
        comps = _zigzag_components(mod, support, mod.edge_rank)
        _check_components_split(mod, comps)
        return comps
    if max_dim > 2:
        worst = max(support, key=lambda p: mod.dims[p])
        raise ThinRefusal(
            f"no thin decomposition: dimension {mod.dims[worst]} at grid "
            f"point {worst}", witness=worst)

    top = _top_point(mod)
    if mod.dim(top) != 1:
        raise ThinRefusal(
            "no thin decomposition along the top layer: dimension at the "
            f"widest window, highest level is {mod.dim(top)}, not 1",
            witness=top)
    peel = {x for x in support if mod.rank(x, top) >= 1}
    minimal = [x for x in sorted(peel)
               if not any(y in peel and y != x and _leq(y, x)
                          for y in mod.neighbors_down(x))]
    for idx, x in enumerate(minimal):
        for xp in minimal[idx + 1:]:
            y = _join(x, xp)
            if _joint_rank(mod, x, xp, y) > 1:
                raise ThinRefusal(
                    "no thin decomposition: the classes at grid points "
                    f"{x} and {xp} stay independent at {y}",
                    witness=(x, xp, y))
    residual_dims = {x: mod.dims.get(x, 0) - (1 if x in peel else 0)
                     for x in support}
    residual = {x for x, d in residual_dims.items() if d >= 1}
    if any(d > 1 for d in residual_dims.values()):
        worst = max(residual, key=lambda p: residual_dims[p])
        raise ThinRefusal(
            f"no thin decomposition after the peel: dimension "
            f"{residual_dims[worst]} left at {worst}", witness=worst)

    def res_edge(x, y):
        r = mod.edge_rank(x, y)
        return r - (1 if x in peel and y in peel else 0)

    rest = _zigzag_components(mod, residual, res_edge)
    return [IntervalSummand(frozenset(peel))] + rest


def check_indecomposable_sufficient(mod: Module3) -> bool:
    """Sufficient indecomposability test for modules with a one-dimensional
    top corner: every minimal support point must send a nonzero class all
    the way to the widest window at the highest level.  Returns False when
    the criterion does not apply or some minimal point dies on the way."""
    support = mod.support()
    if not support:
        return False
    top = _top_point(mod)
    if mod.dim(top) != 1:
        return False
    minimal = [x for x in support
               if all(mod.dim(y) == 0 for y in mod.neighbors_down(x))]
    return all(mod.rank(x, top) >= 1 for x in minimal)
