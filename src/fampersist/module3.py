"""Three-parameter persistence modules of fibered PL families.

A family f(t, x) = (t, f_t(x)) yields, for each degree j, a module over the
grid of triples (a, b, c): the homology of the part of the prism complex
lying over times in [a, b] with vertex values at most c.  The partial order
has (a, b, c) below (a', b', c') when [a, b] is contained in [a', b'] and
c <= c', so structure maps widen the time window and raise the level.
The grid is the prism's: its time breakpoints and
``PrismComplex.level_values``.  A slab changes only at a vertex value, so
that grid holds every dim and every structure map of the module on
continuous (a, b, c).

Along the level axis a window's slabs are the sublevel sets of a lower-star
filtration, so one persistence reduction per window gives every dim of the
window and every rank between two of its levels as a bar count.  One
reduction per pair of nested windows, an image barcode, does the same for
every map from a slab of the inner window into one of the outer.  A module
is a view of these window-pair barcodes, kept in one cache that the modules
of all degrees share: the build reduces each window once and reads its dims
as rank curves, one pass per barcode and degree, and every structure map,
adjacent edges included, is a bar count in the barcode of its pair, which
is reduced on first read.
Each simplex of the prism has a grade, (tmin, tmax, stage), and every slab,
window and union of slabs is a downset of grades.  So one Morse complex,
built once per build from a matching that pairs simplices of one grade only,
serves every reduction with unchanged barcodes: its critical cells are
listed in filtration order, each with its Morse boundary as (position in
that list, integer coefficient) pairs.  Every reduction reads its window's
critical cells by those positions, and every image reduction clears the
columns that ended zero in its outer window's own reduction.  The thin
decomposition's peel check is one more image reduction, of the union of two
slabs in the slab at their join, which is a prefix of the join's window.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from . import homology
from .homology import Barcode, FieldSpec
from .rational import format_rational
from .simplicial import PrismComplex
# Not called here; the tracer in perfbench/tracer.py wraps them by name.
from .homology import betti, induced_rank  # noqa: F401
from .simplicial import slab_sublevel  # noqa: F401

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
    # Never serialized, shared by one report's modules: the two lists of
    # _lower_star_cells over the critical cells, and the barcodes that
    # barcode has reduced, of each window (w, w) by the build and of each
    # pair (w, w') read since.
    cells: list
    index: list
    bars: Dict[tuple, Barcode]

    # ----- queries -------------------------------------------------------

    def windows(self):
        nt = len(self.time_values)
        return [(i, j) for i in range(nt) for j in range(i, nt)]

    def points(self):
        for w in self.windows():
            for k in range(len(self.level_values)):
                yield w + (k,)

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

    def rank(self, x: Point, y: Point) -> int:
        """Rank of the structure map x -> y between grid points.

        Every map, an identity, an adjacent edge or a longer one, is a bar
        count in the barcode of its window pair, reduced on first read and
        kept for the next map between the same two windows.  Composing
        edge ranks would only bound these from above.
        """
        self._check_point(x)
        self._check_point(y)
        if not _leq(x, y):
            raise ModuleError(f"{x} is not below {y}")
        return self.barcode(x[:2], y[:2]).rank(self.degree, x[2], y[2])

    def _slab(self, pt: Point, among=None) -> List[int]:
        """Positions of the critical cells in the slab at pt, in filtration
        order, taken from ``among`` when it is given."""
        a, b, k = pt
        cells, index = self.cells, self.index
        return [g for g in (range(len(cells)) if among is None else among)
                if a <= cells[g][0] and cells[g][1] <= b and index[g][1] <= k]

    def barcode(self, w, wp) -> Barcode:
        """Barcode whose rank(n, s, t) is the rank of H_n(slab(w, s)) ->
        H_n(slab(wp, t)) for a window w inside wp, reduced on first use and
        kept in ``bars``: wp's own for w == wp, else the image barcode of w,
        which clears the columns that ended zero in wp's own reduction."""
        if (w, wp) not in self.bars:
            top = len(self.level_values) - 1
            window = self._slab((*wp, top))
            sub = None
            if w != wp:
                sub = (self._slab((*w, top), window), self.barcode(w, w),
                       self.barcode(wp, wp).zero)
            self.bars[w, wp] = homology.staged_reduce(
                window, self.index, self.fieldspec, sub=sub)
        return self.bars[w, wp]

    def support(self):
        return {p for p, d in self.dims.items() if d > 0}

    # ----- serialization --------------------------------------------------

    def to_json_dict(self):
        """The payload for ``io.dump_json``: the dims over the grid and the
        positive adjacent-edge ranks as ``io.Rows`` of sorted flat tuples
        (i, j, k, i', j', k', rank).  Edges are rank curves: from each level
        to the next over each window's barcode for its level edges, from
        each level to itself over the barcode of each widening (w, w') in
        the grid for its window edges, reduced on first read."""
        from .io import Rows  # not at import: the package loads no writer
        nt, nl = len(self.time_values), len(self.level_values)
        stages = list(range(nl))
        dims = [[[self.dims.get((i, j, k), 0) for k in stages]
                 if i <= j else None
                 for j in range(nt)] for i in range(nt)]
        edges = []
        for i, j in self.windows():
            for a, b in ((i, j), (i - 1, j), (i, j + 1)):
                if a >= 0 and b < nt:
                    up = int((a, b) == (i, j))
                    curve = self.barcode((i, j), (a, b)).rank_curve(
                        self.degree, stages[:nl - up], stages[up:])
                    edges += [(i, j, k, a, b, k + up, r)
                              for k, r in enumerate(curve) if r]
        edges.sort()
        return {
            "degree": self.degree,
            "field": self.fieldspec.characteristic,
            "time_values": [format_rational(t) for t in self.time_values],
            "level_values": [format_rational(c) for c in self.level_values],
            "dims": dims,
            "edge_ranks": Rows([[int] * 3, [int] * 3, int], edges),
        }

    def to_csv(self) -> str:
        """One row (a, b, c, dim) per grid point; canonical rationals and
        ints need no csv quoting."""
        times = [format_rational(t) for t in self.time_values]
        levels = [format_rational(c) for c in self.level_values]
        dims = self.dims
        return "a,b,c,dim\n" + "".join(
            f"{times[i]},{times[j]},{levels[k]},{dims.get((i, j, k), 0)}\n"
            for i, j, k in self.points())


def _lower_star_cells(p: PrismComplex, levels: List[Fraction]):
    """The critical cells of the prism's Morse complex in filtration order:
    by stage, then dimension, then simplex.  Returns two lists over them,
    ``cells`` of (tmin, tmax) and the face index of (boundary, stage, dim).

    tmin and tmax are a simplex's first and last time index, and stage is
    the index in ``levels``, the prism's grid, of its top vertex value, so
    the slab at (i, j, k) holds exactly the simplices with i <= tmin,
    tmax <= j and stage <= k: every slab, window, union of slabs and their
    pairs is a downset of these grades.  ``homology.morse_complex`` pairs
    simplices of one grade only, so each of those keeps its barcode on the
    critical cells it holds, found by the same three tests.  A boundary
    holds (position in these lists, integer coefficient) pairs, and every
    reduction reads its cells by position in this index.
    """
    stage = {v: bisect_left(levels, x) for v, x in p.vertex_level.items()}
    order, index = homology.lower_star(p.simplices, stage)
    cells = [(s[0][0], s[-1][0]) for s in order]
    critical, morse = homology.morse_complex(
        index, [(-a, b, st) for (a, b), (_, st, _) in zip(cells, index)])
    return [cells[g] for g in critical], morse


def _build_modules(p: PrismComplex, degrees, fieldspec: FieldSpec):
    """One module per degree on the prism's grid, all reading one cache of
    barcodes, with the dims read from one reduction per window."""
    times = list(p.time_breakpoints)
    levels = p.level_values()
    cells, index = _lower_star_cells(p, levels)
    bars = {}
    mods = [Module3(degree=d, fieldspec=fieldspec, time_values=times,
                    level_values=levels, dims={},
                    cells=cells, index=index, bars=bars) for d in degrees]
    stages = list(range(len(levels)))
    for w in mods[0].windows():
        bc = mods[0].barcode(w, w)
        for mod in mods:
            for k, d in enumerate(bc.rank_curve(mod.degree, stages, stages)):
                if d:
                    mod.dims[w + (k,)] = d
    return mods


def build_module(p: PrismComplex, degree: int,
                 fieldspec: FieldSpec = FieldSpec()) -> Module3:
    """Compute dims over the full grid from one reduction per window; the
    barcode of a pair of windows is reduced when a map across it is read.

    The level grid is the prism's: the distinct vertex values, midpoints
    between consecutive ones, and one value above the maximum.  A slab
    changes only at a vertex value, so this grid holds every dim and every
    structure map of the module; any other grid would only re-sample it.
    It is the one-degree case of ``betti_report``.
    """
    if degree < 0:
        raise ModuleError("degree must be nonnegative")
    return _build_modules(p, [degree], fieldspec)[0]


@dataclass
class BettiReport:
    modules: Dict[int, Module3]

    def to_json_dict(self):
        return {str(j): m.to_json_dict() for j, m in sorted(self.modules.items())}


def betti_report(p: PrismComplex, max_degree: int,
                 fieldspec: FieldSpec = FieldSpec()) -> BettiReport:
    """Modules of degrees 0..max_degree, one pass, one shared barcode cache."""
    if max_degree < 0:
        raise ModuleError("max degree must be nonnegative")
    mods = _build_modules(p, range(max_degree + 1), fieldspec)
    return BettiReport({mod.degree: mod for mod in mods})


@dataclass
class Subdiagram:
    """Restriction of a module to a chosen list of grid points."""

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
    return Subdiagram(points=list(points), dims=dims, ranks=ranks)


# ----- thin decomposition --------------------------------------------------


def _top_point(mod: Module3) -> Point:
    return (0, len(mod.time_values) - 1, len(mod.level_values) - 1)


def _joint_rank(mod: Module3, x: Point, xp: Point, y: Point) -> int:
    """Rank of H_n(slab x ∪ slab xp) -> H_n(slab y) for x and xp below y.

    In degree zero this is the dimension of the span of the two images in
    H_0(slab y); in higher degrees the union can carry classes that come
    from neither slab, so it is only an upper bound on that span.

    The slab at y is a prefix of its window's filtration, and whether a
    column ends zero depends only on the columns before it, so the image
    reduction of the union in that prefix clears the columns that ended
    zero in the window's own reduction.
    """
    whole = mod._slab(y)
    members = sorted({*mod._slab(x, whole), *mod._slab(xp, whole)})
    inner = homology.staged_reduce(members, mod.index, mod.fieldspec)
    image = homology.staged_reduce(
        whole, mod.index, mod.fieldspec,
        sub=(members, inner, mod.barcode(y[:2], y[:2]).zero))
    return image.rank(mod.degree, y[2], y[2])


def thin_decompose(mod: Module3) -> List[IntervalSummand]:
    """Split the module into thin (pointwise dimension one) summands.

    A dim above two is refused at once, with a witness.  With dims up to
    two the layer that survives to the widest window at the highest level,
    one rank curve per window, is peeled off first, provided the peel is
    consistent: for any two minimal points x, x' of the peel, H_n(slab x ∪
    slab x') -> H_n(slab y) at their join y must have rank at most one.
    Only joins of dim two are reduced: y lies above a peel point, so its
    dim is one or two, and a map into a space of dim one has rank at most
    one.  In degree zero that rank is the dimension of the span of the two
    images at y; in higher degrees it can exceed that span, so the peel may
    refuse conservatively.  With all dims at most one the peel is empty.

    What remains, of dim at most one, is split in one walk over its
    support in sorted order, which reads each adjacent pair of residual
    points once: its residual rank is the edge's rank, less one when both
    ends lie in the peel.  A pair of residual rank one joins the classes of
    its ends (union-find); the summands are the peel, then the classes in
    order of their least point.  The module is refused at the first pair
    of residual rank zero, in walk order, whose ends lie in one class.
    Points of distinct classes need no rank check: a nonzero map x -> y
    factors through every edge of a monotone lattice path from x to y, so
    each of those edges is nonzero, hence of rank one, and x and y lie in
    one class.
    """
    support = mod.support()
    if not support:
        return []
    worst = max(support, key=mod.dim)
    max_dim = mod.dim(worst)
    if max_dim > 2:
        raise ThinRefusal(
            f"no thin decomposition: dimension {max_dim} at grid "
            f"point {worst}", witness=worst)

    peel = set()
    if max_dim == 2:
        top = _top_point(mod)
        if mod.dim(top) != 1:
            raise ThinRefusal(
                "no thin decomposition along the top layer: dimension at "
                f"the widest window, highest level is {mod.dim(top)}, not 1",
                witness=top)
        stages = list(range(top[2] + 1))
        peel = {(*w, k) for w in {x[:2] for x in support}
                for k, r in enumerate(mod.barcode(w, top[:2]).rank_curve(
                    mod.degree, stages, [top[2]] * len(stages))) if r}
        minimal = [x for x in sorted(peel)
                   if not any(y in peel for y in mod.neighbors_down(x))]
        for idx, x in enumerate(minimal):
            for xp in minimal[idx + 1:]:
                y = _join(x, xp)
                if mod.dim(y) == 2 and _joint_rank(mod, x, xp, y) > 1:
                    raise ThinRefusal(
                        "no thin decomposition: the classes at grid points "
                        f"{x} and {xp} stay independent at {y}",
                        witness=(x, xp, y))
    residual_dims = {x: mod.dim(x) - (x in peel) for x in support}
    residual = {x for x, d in residual_dims.items() if d >= 1}
    if any(d > 1 for d in residual_dims.values()):
        worst = max(residual, key=lambda p: residual_dims[p])
        raise ThinRefusal(
            f"no thin decomposition after the peel: dimension "
            f"{residual_dims[worst]} left at {worst}", witness=worst)

    parent = {x: x for x in residual}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = sorted(residual)
    zero = []
    for x in order:
        for y in mod.neighbors_up(x):
            if y in residual:
                if mod.rank(x, y) - (x in peel and y in peel):
                    parent[find(x)] = find(y)
                else:
                    zero.append((x, y))
    for x, y in zero:
        if find(x) == find(y):
            raise ThinRefusal(
                f"support is connected through {x} -> {y} but the edge "
                "carries rank 0; not a sum of thin summands", witness=(x, y))
    comps = {}
    for x in order:
        comps.setdefault(find(x), set()).add(x)
    return ([IntervalSummand(frozenset(peel))] if peel else []) + [
        IntervalSummand(frozenset(comp)) for comp in comps.values()]


def check_indecomposable_sufficient(mod: Module3) -> bool:
    """Indecomposability test for modules with a one-dimensional top
    corner: every minimal support point must send a nonzero class all the
    way to the widest window at the highest level.  Returns False when the
    criterion does not apply or some minimal point dies on the way.
    True is no certificate, as a summand can start above another's minimal
    point: on ``path(3)`` with values (0, 2, 1) at t = 0 and t = 1 this
    answers True, and ``thin_decompose`` returns two summands."""
    support = mod.support()
    if not support:
        return False
    top = _top_point(mod)
    if mod.dim(top) != 1:
        return False
    minimal = [x for x in support
               if all(mod.dim(y) == 0 for y in mod.neighbors_down(x))]
    return all(mod.rank(x, top) >= 1 for x in minimal)
