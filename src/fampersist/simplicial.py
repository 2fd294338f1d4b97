"""Finite simplicial complexes and prism triangulations of [0,1] x X.

A one-parameter PL family of functions on a base complex X is realized as a
prism complex: a triangulation of [0,1] x X whose vertices sit on the time
breakpoints and carry the family's values.  Slabs F(a,b,c) are modeled as
full subcomplexes on the vertices with time in [t_a, t_b] and value <= c,
which is homotopy-correct for PL functions as long as levels are compared
against vertex values only (see PrismComplex.level_values for the level
grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

Simplex = tuple  # sorted tuple of vertex ids
PrismVertex = tuple  # (time index, base vertex id)


class ComplexError(ValueError):
    """Raised for malformed complexes or invalid slab requests."""


def faces(simplex: Simplex):
    """All proper faces of a simplex, down to vertices."""
    for k in range(1, len(simplex)):
        yield from combinations(simplex, k)


def close_downward(simplices: Iterable[Sequence]) -> frozenset:
    """Downward closure of a set of simplices (as sorted tuples)."""
    out = set()
    for s in simplices:
        t = tuple(sorted(s))
        if len(set(t)) != len(t):
            raise ComplexError(f"simplex {s!r} has repeated vertices")
        out.add(t)
        out.update(faces(t))
    return frozenset(out)


def is_downward_closed(simplices: frozenset) -> bool:
    return all(f in simplices for s in simplices for f in faces(s))


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite abstract simplicial complex on vertices 0..n_vertices-1.

    Every vertex id below ``n_vertices`` is a vertex of the complex (a
    0-simplex), whether or not it appears in a higher simplex.
    """

    n_vertices: int
    simplices: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        sims = set(self.simplices)
        for v in range(self.n_vertices):
            sims.add((v,))
        sims = frozenset(sims)
        object.__setattr__(self, "simplices", sims)
        for s in sims:
            if list(s) != sorted(set(s)):
                raise ComplexError(f"simplex {s!r} not sorted/distinct")
            if s and (s[0] < 0 or s[-1] >= self.n_vertices):
                raise ComplexError(f"simplex {s!r} out of vertex range")
        if not is_downward_closed(sims):
            raise ComplexError("simplex set is not downward closed")

    @classmethod
    def from_maximal(cls, n_vertices: int, maximal: Iterable[Sequence]) -> "SimplicialComplex":
        return cls(n_vertices, close_downward(maximal))

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        return cls(0)

    @classmethod
    def point(cls) -> "SimplicialComplex":
        return cls(1)

    @classmethod
    def path(cls, n_vertices: int) -> "SimplicialComplex":
        edges = [(i, i + 1) for i in range(n_vertices - 1)]
        return cls.from_maximal(n_vertices, edges)

    @classmethod
    def circle(cls, n_vertices: int) -> "SimplicialComplex":
        if n_vertices < 3:
            raise ComplexError("a triangulated circle needs at least 3 vertices")
        edges = [(i, (i + 1) % n_vertices) for i in range(n_vertices)]
        return cls.from_maximal(n_vertices, edges)

    @property
    def dim(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def link(self, v: int) -> frozenset:
        """Simplices s with v not in s and s + {v} in the complex."""
        out = set()
        for s in self.simplices:
            if v in s:
                t = tuple(u for u in s if u != v)
                if t:
                    out.add(t)
        return frozenset(out)

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplices)


def _staircase_prisms(sigma: Simplex, i: int):
    """Top simplices of the staircase triangulation of sigma x [t_i, t_i+1].

    For sigma = (v_0 < ... < v_k) the j-th path simplex is
    {(i, v_0..v_j)} + {(i+1, v_j..v_k)}; keyed by the global vertex order so
    shared faces of adjacent prisms agree.
    """
    k = len(sigma) - 1
    for j in range(k + 1):
        bottom = [(i, sigma[r]) for r in range(j + 1)]
        top = [(i + 1, sigma[r]) for r in range(j, k + 1)]
        yield tuple(sorted(bottom + top))


@dataclass(frozen=True)
class PrismComplex:
    """Triangulated [0,1] x X carrying the fibered PL map as vertex values."""

    base: SimplicialComplex
    time_breakpoints: tuple  # strictly increasing Fractions, 0 .. 1
    vertices: tuple  # sorted (time index, base vertex) pairs
    simplices: frozenset
    vertex_time: Mapping[PrismVertex, Fraction]
    vertex_level: Mapping[PrismVertex, Fraction]

    @property
    def n_times(self) -> int:
        return len(self.time_breakpoints)

    def fiber_simplices(self, i: int) -> frozenset:
        """The subcomplex {t_i} x X (simplicially isomorphic to the base)."""
        if not 0 <= i < self.n_times:
            raise ComplexError(f"time index {i} out of range")
        return frozenset(s for s in self.simplices if all(v[0] == i for v in s))

    def level_values(self) -> list:
        """Grid of levels where sublevel slabs can change, refined with
        midpoints to witness the open intervals, plus one value above the
        maximum where every slab is the whole window."""
        distinct = sorted(set(self.vertex_level.values()))
        if not distinct:
            return [Fraction(0)]
        out = []
        for k, v in enumerate(distinct):
            out.append(v)
            if k + 1 < len(distinct):
                out.append((v + distinct[k + 1]) / 2)
        out.append(distinct[-1] + 1)
        return out


@dataclass(frozen=True)
class SlabSubcomplex:
    """The simplicial model of F(a,b,c) = f^{-1}([t_a, t_b] x (-inf, c])."""

    parent: PrismComplex
    a_index: int
    b_index: int
    level: Fraction
    simplices: frozenset


def build_prism(base: SimplicialComplex, time_breakpoints: Sequence,
                vertex_values: Sequence[Sequence]) -> PrismComplex:
    """Build the prism triangulation of [0,1] x base with the given values.

    ``vertex_values[i][v]`` is the family's value at breakpoint i, base
    vertex v; values between breakpoints interpolate linearly along prism
    edges.  Breakpoints must be strictly increasing from 0 to 1.
    """
    bps = tuple(Fraction(t) for t in time_breakpoints)
    if len(bps) < 1:
        raise ComplexError("need at least one time breakpoint")
    if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
        raise ComplexError("time breakpoints must be strictly increasing")
    if bps[0] != 0 or bps[-1] != 1:
        raise ComplexError("time breakpoints must start at 0 and end at 1")
    if len(vertex_values) != len(bps):
        raise ComplexError("one row of vertex values per breakpoint required")
    rows = []
    for row in vertex_values:
        if len(row) != base.n_vertices:
            raise ComplexError("vertex value row length != number of base vertices")
        rows.append([Fraction(x) for x in row])

    vertex_time = {}
    vertex_level = {}
    for i, t in enumerate(bps):
        for v in range(base.n_vertices):
            vertex_time[(i, v)] = t
            vertex_level[(i, v)] = rows[i][v]

    tops = []
    for i, _ in enumerate(bps[:-1]):
        for sigma in base.simplices:
            tops.extend(_staircase_prisms(sigma, i))
    if len(bps) == 1:  # degenerate: a single fiber
        tops = [tuple((0, v) for v in s) for s in base.simplices]
    simplices = close_downward(tops) if tops else frozenset()

    return PrismComplex(
        base=base,
        time_breakpoints=bps,
        vertices=tuple(sorted(vertex_time)),
        simplices=simplices,
        vertex_time=vertex_time,
        vertex_level=vertex_level,
    )


def slab_sublevel(p: PrismComplex, a_index: int, b_index: int, c) -> SlabSubcomplex:
    """Full subcomplex on vertices with time index in [a,b] and value <= c."""
    if not (0 <= a_index <= b_index < p.n_times):
        raise ComplexError(
            f"slab indices ({a_index}, {b_index}) out of range for {p.n_times} breakpoints")
    c = Fraction(c)

    def ok(v):
        return a_index <= v[0] <= b_index and p.vertex_level[v] <= c

    sims = frozenset(s for s in p.simplices if all(ok(v) for v in s))
    return SlabSubcomplex(parent=p, a_index=a_index, b_index=b_index, level=c,
                          simplices=sims)
