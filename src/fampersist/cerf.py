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

Each fiber's indices are read once into a table.  Critical vertices are
matched across fibers by base-vertex identity: each maximal run of
breakpoints on which a vertex is critical is one curve along its values,
extended one breakpoint past each interior end.  Those open ends must meet
in pairs of adjacent index at a common point, a birth or death event.
Otherwise the family is not generic, and AmbiguityError names the first
unpaired end, births before deaths, then by (t, value): "cannot pair birth
endpoints at t=0, value=1: ...".

A strip (a,b) x {c} is classified from the slope signs of the curves
crossing it.  It is UNCLASSIFIED when it is not regular: an event lies on
it, a flat segment at level c overlaps it, a curve touches level c inside
it without crossing, or a curve crosses level c at a strip corner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import groupby
from typing import List

from . import homology
from .homology import FieldSpec
from .rational import format_rational
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
    base_vertex: int
    # Built once, from points and indices, when the curve is.
    segments: List[Segment] = field(init=False, repr=False)

    def __post_init__(self):
        self.segments = [Segment(s, e, i, classify_sign(s, e))
                         for s, e, i in zip(self.points, self.points[1:],
                                            self.indices)]


@dataclass
class CerfDiagram:
    curves: List[Curve]
    events: List[tuple]  # (t, value)

    def to_json_dict(self):
        fr = format_rational
        return {
            "curves": [
                {
                    "points": [[fr(t), fr(v)] for t, v in c.points],
                    "segments": [{"index": s.index, "sign": s.sign}
                                 for s in c.segments],
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


def trace_cerf(p: PrismComplex, fieldspec: FieldSpec = FieldSpec()) -> CerfDiagram:
    """Trace critical-value curves across breakpoints (see the module
    docstring).  A segment carries the index at its left end, or at its
    right end where it extends a run backward."""
    m = p.n_times - 1
    index = [{cv.base_vertex: cv.index
              for cv in fiber_critical_vertices(p, i, fieldspec)}
             for i in range(p.n_times)]
    curves = []
    ends = {}  # (label, point) -> index labels of the open ends there
    for v in range(p.base.n_vertices):
        for critical, run in groupby(range(p.n_times),
                                     key=lambda i: v in index[i]):
            if not critical:
                continue
            run = list(run)
            first, last = run[0], run[-1]
            lo, hi = max(first - 1, 0), min(last + 1, m)
            pts = [(p.time_breakpoints[i], p.vertex_level[(i, v)])
                   for i in range(lo, hi + 1)]
            curves.append(Curve(pts, [index[max(i, first)][v]
                                      for i in range(lo, hi)], v))
            if first > 0:
                ends.setdefault(("birth", pts[0]), []).append(index[first][v])
            if last < m:
                ends.setdefault(("death", pts[-1]), []).append(index[last][v])

    curves.sort(key=lambda c: (c.points[0], c.base_vertex))
    for (label, (t, value)), labels in sorted(ends.items()):
        if len(labels) != 2 or abs(labels[0] - labels[1]) != 1:
            raise AmbiguityError(
                f"cannot pair {label} endpoints at t={format_rational(t)}, "
                f"value={format_rational(value)}: family is not generic "
                "for this tracer")
    return CerfDiagram(curves, sorted(pt for _, pt in ends))


def _crossings(diagram: CerfDiagram, a: Fraction, b: Fraction, c: Fraction):
    """Signs of the curves' crossings of the open segment (a,b) x {c}, or
    None when the strip is not regular (see the module docstring)."""
    if any(a <= t <= b and v == c for t, v in diagram.events):
        return None
    signs = []
    for curve in diagram.curves:
        hits = {}  # t -> slope sign where the curve meets level c in [a, b]
        for seg in curve.segments:
            (t0, v0), (t1, v1) = seg.start, seg.end
            if seg.sign == "flat":
                if v0 == c and t0 < b and t1 > a:
                    return None
                continue
            if not min(v0, v1) <= c <= max(v0, v1):
                continue
            tc = t0 + (t1 - t0) * (c - v0) / (v1 - v0)
            if a <= tc <= b and hits.setdefault(tc, seg.sign) != seg.sign:
                return None
        if a in hits or b in hits:
            return None
        signs.extend(hits.values())
    return signs


def classify_cobordism(diagram: CerfDiagram, a, b, c) -> CobordismClass:
    """Classify the slab over [a,b] at level c from its Cerf crossings.

    All crossings positive -> left product; all negative -> right product;
    none -> product with no critical points; both -> mixed.  A strip that
    is not regular (see the module docstring) gives UNCLASSIFIED.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a > b:
        raise CerfError("need a <= b")
    signs = _crossings(diagram, a, b, c)
    if signs is None:
        return CobordismClass.UNCLASSIFIED
    if not signs:
        return CobordismClass.NO_CRITICAL_POINTS_PRODUCT
    if all(s == "positive" for s in signs):
        return CobordismClass.LEFT_PRODUCT
    if all(s == "negative" for s in signs):
        return CobordismClass.RIGHT_PRODUCT
    return CobordismClass.MIXED
