"""Cerf diagrams of PL families: critical-value curves, slope signs, and
cobordism classification of slabs.

A vertex of a fiber is PL-critical when its lower link (neighbors lower in
the total order by (value, vertex id)) has nonzero reduced homology; the
index is the degree of that homology plus one, with an empty lower link
giving index 0 (a local minimum).  Indices are read from one lower-star
barcode per fiber, not from the links one by one: the homology of the
fiber up to a vertex relative to the part below it is that of the cone on
the lower link relative to the link.  Ties are broken by vertex id, so
plateau pairs created at wrinkle birth/death times stay regular there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import List, Optional

from . import homology
from .homology import FieldSpec
from .simplicial import ComplexError, PrismComplex
# Not called here; the tracer in perfbench/tracer.py wraps it by name.
from .homology import betti  # noqa: F401


class CerfError(ValueError):
    pass


class AmbiguityError(CerfError):
    """Critical-vertex matching across breakpoints is not unique."""


class CobordismClass(Enum):
    NO_CRITICAL_POINTS_PRODUCT = "no_critical_points_product"
    LEFT_PRODUCT = "left_product"
    RIGHT_PRODUCT = "right_product"
    MIXED = "mixed"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class CriticalVertex:
    base_vertex: int
    value: Fraction
    index: int


@dataclass(frozen=True)
class Segment:
    start: tuple  # (t, value)
    end: tuple
    index: int
    sign: str  # "positive" | "negative" | "flat"


@dataclass
class Curve:
    points: List[tuple]  # (t, value), strictly increasing t
    indices: List[int]  # per segment
    base_vertex: Optional[int] = None

    def segments(self):
        out = []
        for k in range(len(self.points) - 1):
            out.append(Segment(self.points[k], self.points[k + 1],
                               self.indices[k],
                               classify_sign(self.points[k], self.points[k + 1])))
        return out


@dataclass
class CerfDiagram:
    curves: List[Curve]
    events: List[tuple] = field(default_factory=list)  # (t, value)

    def all_segments(self):
        for c in self.curves:
            yield from c.segments()

    def to_json_dict(self):
        from .rational import format_rational as fr

        return {
            "curves": [
                {
                    "points": [[fr(t), fr(v)] for t, v in c.points],
                    "segments": [{"index": s.index, "sign": s.sign}
                                 for s in c.segments()],
                }
                for c in self.curves
            ],
            "events": [[fr(t), fr(v)] for t, v in sorted(self.events)],
        }


def classify_sign(start, end) -> str:
    """Slope sign of a segment in (t, value) space."""
    if end[1] == start[1]:
        return "flat"
    return "positive" if end[1] > start[1] else "negative"


def fiber_critical_vertices(p: PrismComplex, i: int,
                            fieldspec: FieldSpec = FieldSpec()):
    """PL-critical vertices of fiber i with values and index labels.

    The fiber {t_i} x X is the base complex under (i, v) -> v.  Its
    vertices, ranked by (value, id), are the stages of one lower-star
    filtration K_0 <= K_1 <= ..., whose barcode gives every index at once:
    K_r is K_{r-1} with the cone from the stage-r vertex over its lower
    link glued on along that link, so by excision H_k(K_r, K_{r-1}) is the
    reduced H_{k-1} of the link.  By the exact sequence of the pair, its
    dimension counts the bars of positive length born at stage r in degree
    k and those dying there in degree k - 1.  A vertex's index is the
    lowest such k; an empty link gives a bar born in degree 0, so index 0.
    """
    if not 0 <= i < p.n_times:
        raise ComplexError(f"time index {i} out of range")
    ranked = sorted(range(p.base.n_vertices),
                    key=lambda v: (p.vertex_level[(i, v)], v))
    stage = {v: r for r, v in enumerate(ranked)}
    _, index = homology.lower_star(p.base.simplices, stage)
    bc = homology.staged_reduce(range(len(index)), index, fieldspec)
    lowest = {}  # stage -> lowest degree of relative homology there
    for d, bars in bc.bars.items():
        for b, e in bars:
            if b != e:
                lowest[b] = min(d, lowest.get(b, d))
                if e is not None:
                    lowest[e] = min(d + 1, lowest.get(e, d + 1))
    return [CriticalVertex(v, p.vertex_level[(i, v)], lowest[r])
            for r, v in enumerate(ranked) if r in lowest]


def _runs_by_vertex(p: PrismComplex, fieldspec: FieldSpec):
    """Maximal runs of consecutive breakpoints on which a vertex is critical."""
    per_time = [
        {cv.base_vertex: cv for cv in fiber_critical_vertices(p, i, fieldspec)}
        for i in range(p.n_times)
    ]
    runs = []  # (vertex, first index, last index, index label)
    open_runs = {}
    for i, crits in enumerate(per_time):
        for v, cv in crits.items():
            if v in open_runs and open_runs[v][-1][0] == i - 1:
                open_runs[v].append((i, cv))
            else:
                if v in open_runs:
                    runs.append((v, open_runs.pop(v)))
                open_runs[v] = [(i, cv)]
    runs.extend((v, items) for v, items in open_runs.items())
    return runs


def trace_cerf(p: PrismComplex, fieldspec: FieldSpec = FieldSpec()) -> CerfDiagram:
    """Trace critical-value curves across breakpoints.

    Critical vertices are matched across consecutive fibers by base-vertex
    identity.  A curve whose run starts (ends) at an interior breakpoint is
    extended one breakpoint backward (forward) along its vertex's values;
    such open ends must pair up exactly, two ends of adjacent index meeting
    at a common point, which is recorded as a birth/death event.  Anything
    else is rejected as non-generic.
    """
    m = p.n_times - 1
    curves = []
    open_starts = []  # (point, curve, index label)
    open_ends = []
    for v, items in _runs_by_vertex(p, fieldspec):
        first, last = items[0][0], items[-1][0]
        pts = [(p.time_breakpoints[i], cv.value) for i, cv in items]
        idxs = [cv.index for _, cv in items]
        if first > 0:
            pts.insert(0, (p.time_breakpoints[first - 1],
                           p.vertex_level[(first - 1, v)]))
            idxs.insert(0, idxs[0])
        if last < m:
            pts.append((p.time_breakpoints[last + 1],
                        p.vertex_level[(last + 1, v)]))
        seg_indices = idxs[:len(pts) - 1]
        curve = Curve(points=pts, indices=seg_indices, base_vertex=v)
        curves.append(curve)
        if first > 0:
            open_starts.append((pts[0], curve, items[0][1].index))
        if last < m:
            open_ends.append((pts[-1], curve, items[-1][1].index))

    curves.sort(key=lambda c: (c.points[0],
                               -1 if c.base_vertex is None else c.base_vertex))
    events = []
    for label, group in (("birth", open_starts), ("death", open_ends)):
        by_point = {}
        for pt, curve, idx in group:
            by_point.setdefault(pt, []).append((curve, idx))
        for pt, members in by_point.items():
            if len(members) != 2 or abs(members[0][1] - members[1][1]) != 1:
                raise AmbiguityError(
                    f"cannot pair {label} endpoints at {pt}: family is not "
                    "generic for this tracer")
            events.append(pt)
    return CerfDiagram(curves=curves, events=sorted(events))


def _crossings(diagram: CerfDiagram, a: Fraction, b: Fraction, c: Fraction):
    """Signs of transversal crossings of curves with the open segment
    (a,b) x {c}; raises CerfError on any regularity violation."""
    for t, v in diagram.events:
        if a <= t <= b and v == c:
            raise CerfError(f"event point at (t={t}) lies on the strip edge")
    signs = []
    for curve in diagram.curves:
        pts = curve.points
        touched = []  # param t where the curve meets level c inside [a, b]
        for k in range(len(pts) - 1):
            (t0, v0), (t1, v1) = pts[k], pts[k + 1]
            if v0 == v1:
                if v0 == c and t0 < b and t1 > a:
                    raise CerfError(
                        f"flat segment at level {c} inside the strip")
                continue
            lo, hi = min(v0, v1), max(v0, v1)
            if not (lo <= c <= hi):
                continue
            tc = t0 + (t1 - t0) * (c - v0) / (v1 - v0)
            if tc < a or tc > b:
                continue
            touched.append((tc, "positive" if v1 > v0 else "negative"))
        # Merge duplicate hits at shared polyline vertices.
        merged = []
        for tc, sgn in sorted(touched):
            if merged and merged[-1][0] == tc:
                if merged[-1][1] != sgn:
                    raise CerfError(
                        f"curve touches level {c} non-transversally at t={tc}")
                continue
            merged.append((tc, sgn))
        for tc, sgn in merged:
            if tc == a or tc == b:
                raise CerfError(
                    f"curve passes through the strip corner at t={tc}")
            signs.append(sgn)
    return signs


def classify_cobordism(diagram: CerfDiagram, a, b, c) -> CobordismClass:
    """Classify the slab over [a,b] at level c from its Cerf crossings.

    All crossings positive -> left product; all negative -> right product;
    none -> product with no critical points; both -> mixed.  Regularity
    violations (flat segments at level c, events or crossings on the strip
    boundary) give UNCLASSIFIED.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a > b:
        raise CerfError("need a <= b")
    try:
        signs = _crossings(diagram, a, b, c)
    except CerfError:
        return CobordismClass.UNCLASSIFIED
    if not signs:
        return CobordismClass.NO_CRITICAL_POINTS_PRODUCT
    if all(s == "positive" for s in signs):
        return CobordismClass.LEFT_PRODUCT
    if all(s == "negative" for s in signs):
        return CobordismClass.RIGHT_PRODUCT
    return CobordismClass.MIXED
