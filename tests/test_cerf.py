import random
from fractions import Fraction as F

import pytest

from fampersist import cerf, homology
from fampersist.cerf import (AmbiguityError, CerfError, CobordismClass,
                             classify_cobordism, classify_sign,
                             fiber_critical_vertices, trace_cerf)
from fampersist.family import (PLFamily, cylinder_family, hat_family,
                               point_family, wrinkled_cylinder_family,
                               zigzag_family)
from fampersist.homology import FieldSpec, betti
from fampersist.simplicial import (ComplexError, SimplicialComplex,
                                   build_prism, close_downward)


def reversed_family(fam: PLFamily) -> PLFamily:
    bps = tuple(1 - t for t in reversed(fam.time_breakpoints))
    rows = tuple(reversed(fam.vertex_values))
    return PLFamily(fam.base, bps, rows)


class TestFiberCritical:
    def test_hat_single_minimum(self):
        prism = hat_family(4).to_prism()
        for i in range(5):
            crits = fiber_critical_vertices(prism, i)
            assert [(cv.base_vertex, cv.index) for cv in crits] == [(0, 0)]

    def test_cylinder_min_and_max(self):
        prism = cylinder_family(4).to_prism()
        crits = fiber_critical_vertices(prism, 0)
        assert [(cv.value, cv.index) for cv in crits] == [(F(-1), 0), (F(1), 1)]

    def test_wrinkle_plateau_pair_not_critical(self):
        # At the wrinkle's opening time both extra vertices share value m;
        # the id tie-break keeps them regular there.
        prism = wrinkled_cylinder_family().to_prism()
        for i in (1, 3):
            crits = fiber_critical_vertices(prism, i)
            assert [(cv.value, cv.index) for cv in crits] == \
                [(F(0), 0), (F(4), 1)]

    def test_time_index_out_of_range(self):
        prism = hat_family(4).to_prism()
        for i in (-1, prism.n_times):
            with pytest.raises(ComplexError):
                fiber_critical_vertices(prism, i)


def link(base: SimplicialComplex, v: int) -> frozenset:
    return frozenset(tuple(u for u in s if u != v)
                     for s in base.simplices if v in s and len(s) > 1)


def lower_link_critical_vertices(p, i, fieldspec):
    """Reference: reduced Betti numbers of each lower link, one degree at
    a time; the index is the lowest nonzero degree plus one."""
    out = []
    for v in range(p.base.n_vertices):
        key = (p.vertex_level[(i, v)], v)
        lower = close_downward(
            s for s in link(p.base, v)
            if all((p.vertex_level[(i, w)], w) < key for w in s))
        if not lower:
            out.append((v, p.vertex_level[(i, v)], 0))
            continue
        for j in range(max(len(s) for s in lower)):
            if betti(lower, j, fieldspec) > (j == 0):
                out.append((v, p.vertex_level[(i, v)], j + 1))
                break
    return sorted(out, key=lambda c: (c[1], c[0]))


PROJECTIVE_PLANE = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]

BASES = {
    "path": SimplicialComplex.path(5),
    "circle": SimplicialComplex.circle(5),
    "filled triangles": SimplicialComplex.from_maximal(
        5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 4)]),
    "disk cone": SimplicialComplex.from_maximal(
        6, [(k, (k + 1) % 5, 5) for k in range(5)]),
    "hollow tetrahedron": SimplicialComplex.from_maximal(
        4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
    "two tetrahedra on a face": SimplicialComplex.from_maximal(
        5, [(0, 1, 2, 3), (1, 2, 3, 4)]),
    # Its cone point's lower link, the whole plane, has homology over
    # GF(2) only.
    "projective plane cone": SimplicialComplex.from_maximal(
        7, [s + (6,) for s in PROJECTIVE_PLANE]),
}


@pytest.mark.parametrize("name", sorted(BASES))
@pytest.mark.parametrize("p", [2, 3])
def test_critical_vertices_match_lower_link_homology(name, p):
    base, fieldspec = BASES[name], FieldSpec(p)
    rng = random.Random(f"{name}:{p}")
    for _ in range(40):
        # Few distinct values, so ties broken by vertex id are common.
        rows = [[rng.randint(0, 3) for _ in range(base.n_vertices)]
                for _ in range(2)]
        prism = build_prism(base, [0, 1], rows)
        for i in range(prism.n_times):
            got = [(cv.base_vertex, cv.value, cv.index) for cv in
                   fiber_critical_vertices(prism, i, fieldspec)]
            assert got == lower_link_critical_vertices(prism, i, fieldspec)


def test_projective_plane_cone_point_critical_over_gf2_only():
    base = BASES["projective plane cone"]
    prism = build_prism(base, [0, 1], [[0] * 6 + [1]] * 2)
    for p, want in ((2, [(6, 2)]), (3, [])):
        crits = fiber_critical_vertices(prism, 0, FieldSpec(p))
        assert [(cv.base_vertex, cv.index) for cv in crits
                if cv.base_vertex == 6] == want


def test_one_reduction_per_fiber(monkeypatch):
    calls = {"staged_reduce": 0, "betti": 0}
    for owner, name in ((homology, "staged_reduce"), (cerf, "betti")):
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    trace_cerf(wrinkled_cylinder_family().to_prism())
    assert calls == {"staged_reduce": 5, "betti": 0}


class TestTraceCerf:
    def test_point_family_graph_reproduced(self):
        g = [("0", "1/2"), ("1/4", "0"), ("1/2", "1"), ("3/4", "1/3"),
             ("1", "2")]
        diagram = trace_cerf(point_family(g).to_prism())
        assert len(diagram.curves) == 1
        assert diagram.curves[0].points == \
            [(F(t), F(v)) for t, v in
             [(0, F(1, 2)), (F(1, 4), 0), (F(1, 2), 1), (F(3, 4), F(1, 3)),
              (1, 2)]]
        assert not diagram.events

    def test_hat_signs(self):
        diagram = trace_cerf(hat_family(2).to_prism())
        segs = [s for c in diagram.curves for s in c.segments]
        assert [s.sign for s in segs] == ["positive", "negative"]
        assert all(s.index == 0 for s in segs)

    def test_cylinder_two_flat_curves(self):
        diagram = trace_cerf(cylinder_family(4).to_prism())
        levels = sorted({pt[1] for c in diagram.curves for pt in c.points})
        assert levels == [F(-1), F(1)]
        assert all(s.sign == "flat"
                   for c in diagram.curves for s in c.segments)
        assert len(diagram.curves) == 2
        assert not diagram.events

    def test_wrinkled_lens_and_events(self):
        diagram = trace_cerf(wrinkled_cylinder_family().to_prism())
        assert len(diagram.curves) == 4
        assert diagram.events == [(F(1, 4), F(2)), (F(3, 4), F(2))]
        flat = [c for c in diagram.curves
                if all(s.sign == "flat" for s in c.segments)]
        lens = [c for c in diagram.curves if c not in flat]
        assert {c.points[0][1] for c in flat} == {F(0), F(4)}
        assert len(lens) == 2
        for c in lens:
            assert c.points[0] == (F(1, 4), F(2))
            assert c.points[-1] == (F(3, 4), F(2))
        assert {c.segments[0].index for c in lens} == {0, 1}

    def test_birth_death_parity_closed_ends(self):
        diagram = trace_cerf(wrinkled_cylinder_family().to_prism())
        starts = [c.points[0] for c in diagram.curves]
        ends = [c.points[-1] for c in diagram.curves]
        births = [e for e in diagram.events if starts.count(e) == 2]
        deaths = [e for e in diagram.events if ends.count(e) == 2]
        assert len(births) == len(deaths) == 1

    def test_time_reversal_swaps_signs(self):
        fam = wrinkled_cylinder_family()
        fwd = trace_cerf(fam.to_prism())
        bwd = trace_cerf(reversed_family(fam).to_prism())
        fwd_signs = sorted(s.sign for c in fwd.curves for s in c.segments)
        bwd_signs = sorted(s.sign for c in bwd.curves for s in c.segments)
        assert fwd_signs == bwd_signs  # lens is symmetric: swap preserved
        hat_fwd = trace_cerf(hat_family(2).to_prism())
        hat_bwd = trace_cerf(reversed_family(hat_family(2)).to_prism())
        assert [s.sign for c in hat_fwd.curves for s in c.segments] == \
            [s.sign for c in hat_bwd.curves for s in c.segments]

    def test_nongeneric_family_rejected(self):
        base = SimplicialComplex.path(3)
        rows = [(F(0), F(1), F(2)), (F(0), F(-1), F(2)), (F(0), F(-1), F(2))]
        prism = build_prism(base, [F(0), F(1, 2), F(1)], rows)
        with pytest.raises(AmbiguityError):
            trace_cerf(prism)

    def test_ambiguity_names_the_earliest_unpaired_end(self):
        # Each edge's minimum moves to its other vertex after t = 0, so both
        # edges leave an unpaired birth there; the lower one is named, not
        # the one whose vertex is lower once it is critical.
        base = SimplicialComplex.from_maximal(4, [(0, 1), (2, 3)])
        rows = [(0, 1, 2, 3), (5, 4, 3, 2), (5, 4, 3, 2)]
        prism = build_prism(base, [F(0), F(1, 2), F(1)], rows)
        with pytest.raises(AmbiguityError) as excinfo:
            trace_cerf(prism)
        assert str(excinfo.value) == (
            "cannot pair birth endpoints at t=0, value=1: family is not "
            "generic for this tracer")

    def test_json_shape(self):
        data = trace_cerf(hat_family(2).to_prism()).to_json_dict()
        assert data["curves"][0]["points"] == [["0", "0"], ["1/2", "1"],
                                               ["1", "0"]]
        assert data["curves"][0]["segments"] == \
            [{"index": 0, "sign": "positive"}, {"index": 0, "sign": "negative"}]
        assert data["events"] == []


class TestClassifySign:
    def test_signs(self):
        assert classify_sign((F(0), F(0)), (F(1, 2), F(1))) == "positive"
        assert classify_sign((F(1, 2), F(1)), (F(1), F(0))) == "negative"
        assert classify_sign((F(0), F(1)), (F(1), F(1))) == "flat"


class TestClassifyCobordism:
    def setup_method(self):
        self.hat = trace_cerf(hat_family(8).to_prism())
        self.wrinkled = trace_cerf(wrinkled_cylinder_family().to_prism())

    def test_hat_left_product(self):
        assert classify_cobordism(self.hat, F(1, 8), F(1, 2), F(1, 2)) == \
            CobordismClass.LEFT_PRODUCT

    def test_hat_right_product(self):
        assert classify_cobordism(self.hat, F(1, 2), F(7, 8), F(1, 2)) == \
            CobordismClass.RIGHT_PRODUCT

    def test_hat_mixed(self):
        assert classify_cobordism(self.hat, F(1, 8), F(7, 8), F(1, 2)) == \
            CobordismClass.MIXED

    def test_hat_product_above_peak(self):
        assert classify_cobordism(self.hat, F(0), F(1), F(3, 2)) == \
            CobordismClass.NO_CRITICAL_POINTS_PRODUCT

    def test_wrinkled_below_lens(self):
        assert classify_cobordism(self.wrinkled, F(1, 4), F(3, 4), F(1, 2)) \
            == CobordismClass.NO_CRITICAL_POINTS_PRODUCT

    def test_wrinkled_descending_side(self):
        assert classify_cobordism(self.wrinkled, F(1, 4), F(1, 2), F(3, 2)) \
            == CobordismClass.RIGHT_PRODUCT

    def test_wrinkled_ascending_side(self):
        assert classify_cobordism(self.wrinkled, F(1, 2), F(3, 4), F(3, 2)) \
            == CobordismClass.LEFT_PRODUCT

    def test_flat_segment_unclassified(self):
        diagram = trace_cerf(cylinder_family(4).to_prism())
        assert classify_cobordism(diagram, F(0), F(1), F(1)) == \
            CobordismClass.UNCLASSIFIED

    def test_endpoint_crossing_unclassified(self):
        # The rising hat edge passes exactly through the strip corner.
        assert classify_cobordism(self.hat, F(1, 4), F(5, 8), F(1, 2)) == \
            CobordismClass.UNCLASSIFIED

    def test_touch_without_crossing_unclassified(self):
        # The graph meets level 1 at its peak t = 1/2 and turns back.
        diagram = trace_cerf(
            point_family([("0", "0"), ("1/2", "1"), ("1", "0")]).to_prism())
        assert classify_cobordism(diagram, F(1, 4), F(3, 4), F(1)) == \
            CobordismClass.UNCLASSIFIED

    def test_crossing_through_a_polyline_vertex_counts_once(self):
        diagram = trace_cerf(
            point_family([("0", "0"), ("1/2", "1"), ("1", "2")]).to_prism())
        assert classify_cobordism(diagram, F(1, 4), F(3, 4), F(1)) == \
            CobordismClass.LEFT_PRODUCT

    def test_event_on_segment_unclassified(self):
        assert classify_cobordism(self.wrinkled, F(0), F(1, 2), F(2)) == \
            CobordismClass.UNCLASSIFIED

    def test_reversed_time_swaps_products(self):
        rev = trace_cerf(reversed_family(hat_family(8)).to_prism())
        pairs = [((F(1, 8), F(1, 2)), CobordismClass.LEFT_PRODUCT),
                 ((F(1, 2), F(7, 8)), CobordismClass.RIGHT_PRODUCT)]
        swap = {CobordismClass.LEFT_PRODUCT: CobordismClass.RIGHT_PRODUCT,
                CobordismClass.RIGHT_PRODUCT: CobordismClass.LEFT_PRODUCT}
        for (a, b), want in pairs:
            assert classify_cobordism(self.hat, a, b, F(1, 2)) == want
            assert classify_cobordism(rev, 1 - b, 1 - a, F(1, 2)) == swap[want]

    def test_refinement_invariance(self):
        coarse = trace_cerf(hat_family(2).to_prism())
        fine = trace_cerf(hat_family(16).to_prism())
        strips = [(F(1, 8), F(1, 2), F(1, 2)), (F(1, 2), F(7, 8), F(1, 2)),
                  (F(1, 8), F(7, 8), F(1, 2)), (F(0), F(1), F(3, 2)),
                  (F(3, 8), F(5, 8), F(1, 4))]
        for a, b, c in strips:
            assert classify_cobordism(coarse, a, b, c) == \
                classify_cobordism(fine, a, b, c)

    def test_bad_interval(self):
        with pytest.raises(CerfError):
            classify_cobordism(self.hat, F(1), F(0), F(1, 2))

    def test_segments_built_with_the_curve(self, monkeypatch):
        data = self.wrinkled.to_json_dict()

        def forbidden(*args):
            raise AssertionError("classify_sign called after tracing")

        monkeypatch.setattr(cerf, "classify_sign", forbidden)
        assert classify_cobordism(self.wrinkled, F(1, 4), F(1, 2), F(3, 2)) \
            == CobordismClass.RIGHT_PRODUCT
        assert self.wrinkled.to_json_dict() == data


# ----- differential test against the run-list tracer -------------------------
#
# The reference below is the tracer and strip classifier that trace_cerf and
# classify_cobordism replaced: runs collected into a list first, open ends
# paired per kind, and crossings re-derived from the raw points, with
# regularity violations raised as CerfError.


def reference_runs_by_vertex(p, fieldspec):
    per_time = [
        {cv.base_vertex: cv for cv in fiber_critical_vertices(p, i, fieldspec)}
        for i in range(p.n_times)
    ]
    runs = []  # (vertex, [(breakpoint index, critical vertex), ...])
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


def reference_trace_cerf(p, fieldspec):
    m = p.n_times - 1
    curves = []
    open_starts = []  # (point, curve, index label)
    open_ends = []
    for v, items in reference_runs_by_vertex(p, fieldspec):
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
        curve = cerf.Curve(pts, idxs[:len(pts) - 1], v)
        curves.append(curve)
        if first > 0:
            open_starts.append((pts[0], curve, items[0][1].index))
        if last < m:
            open_ends.append((pts[-1], curve, items[-1][1].index))

    curves.sort(key=lambda c: (c.points[0], c.base_vertex))
    events = []
    for label, group in (("birth", open_starts), ("death", open_ends)):
        by_point = {}
        for pt, curve, idx in group:
            by_point.setdefault(pt, []).append((curve, idx))
        for pt, members in by_point.items():
            if len(members) != 2 or abs(members[0][1] - members[1][1]) != 1:
                raise AmbiguityError(f"cannot pair {label} endpoints at {pt}")
            events.append(pt)
    return cerf.CerfDiagram(curves, sorted(events))


def reference_crossings(diagram, a, b, c):
    for t, v in diagram.events:
        if a <= t <= b and v == c:
            raise CerfError("event point on the strip")
    signs = []
    for curve in diagram.curves:
        pts = curve.points
        touched = []  # param t where the curve meets level c inside [a, b]
        for k in range(len(pts) - 1):
            (t0, v0), (t1, v1) = pts[k], pts[k + 1]
            if v0 == v1:
                if v0 == c and t0 < b and t1 > a:
                    raise CerfError("flat segment at level c inside the strip")
                continue
            lo, hi = min(v0, v1), max(v0, v1)
            if not (lo <= c <= hi):
                continue
            tc = t0 + (t1 - t0) * (c - v0) / (v1 - v0)
            if tc < a or tc > b:
                continue
            touched.append((tc, "positive" if v1 > v0 else "negative"))
        merged = []
        for tc, sgn in sorted(touched):
            if merged and merged[-1][0] == tc:
                if merged[-1][1] != sgn:
                    raise CerfError("touch without a crossing")
                continue
            merged.append((tc, sgn))
        for tc, sgn in merged:
            if tc == a or tc == b:
                raise CerfError("crossing at a strip corner")
            signs.append(sgn)
    return signs


def reference_classify(diagram, a, b, c):
    try:
        signs = reference_crossings(diagram, a, b, c)
    except CerfError:
        return CobordismClass.UNCLASSIFIED
    if not signs:
        return CobordismClass.NO_CRITICAL_POINTS_PRODUCT
    if all(s == "positive" for s in signs):
        return CobordismClass.LEFT_PRODUCT
    if all(s == "negative" for s in signs):
        return CobordismClass.RIGHT_PRODUCT
    return CobordismClass.MIXED


DIFFERENTIAL_BASES = {
    "path": SimplicialComplex.path(4),
    "circle": SimplicialComplex.circle(4),
    "two filled triangles": SimplicialComplex.from_maximal(
        4, [(0, 1, 2), (1, 2, 3)]),
}


def seeded_families(name, p):
    """Seeded prisms over one base.  One vertex moves by 1/2 per breakpoint,
    so values tie often, and a tie that splits is a birth or death."""
    base = DIFFERENTIAL_BASES[name]
    rng = random.Random(f"differential:{name}:{p}")
    for _ in range(20):
        inner = sorted(rng.sample(range(1, 8), rng.randint(1, 3)))
        times = [F(0)] + [F(k, 8) for k in inner] + [F(1)]
        row = [F(rng.randint(0, 4), 2) for _ in range(base.n_vertices)]
        rows = [row]
        for _ in inner + [1]:
            row = list(row)
            row[rng.randrange(base.n_vertices)] += rng.choice([F(-1, 2),
                                                               F(1, 2)])
            rows.append(row)
        yield build_prism(base, times, rows)


def midpoints(xs):
    xs = sorted(set(xs))
    return sorted(xs + [(x + y) / 2 for x, y in zip(xs, xs[1:])])


def strip_grid(diagram, prism):
    times = midpoints(prism.time_breakpoints)
    levels = midpoints(v for c in diagram.curves for _, v in c.points)
    return [(a, b, c) for i, a in enumerate(times) for b in times[i:]
            for c in levels]


def constructed_families():
    """The built-in examples and their time reversals; a circle whose
    minimum and maximum swap roles, so its curves change index; and a path
    whose two new minima are born at one point, which is not generic."""
    examples = [hat_family(4), zigzag_family(3), cylinder_family(4),
                wrinkled_cylinder_family()]
    for fam in examples + [reversed_family(fam) for fam in examples]:
        yield fam.to_prism()
    yield build_prism(SimplicialComplex.circle(4), [0, F(1, 2), 1],
                      [(0, 1, 2, 1), (2, 1, 0, 1), (2, 1, 0, 1)])
    yield build_prism(SimplicialComplex.path(3), [0, F(1, 2), 1],
                      [(1, 0, 1), (0, 1, 0), (0, 1, 0)])


def traced_families(name, p):
    """(prism, reference diagram or None) for each family of a kind."""
    fieldspec = FieldSpec(p)
    prisms = (constructed_families() if name == "constructed"
              else seeded_families(name, p))
    for prism in prisms:
        try:
            yield prism, reference_trace_cerf(prism, fieldspec)
        except AmbiguityError:
            yield prism, None


@pytest.mark.parametrize("name", ["constructed", *DIFFERENTIAL_BASES])
@pytest.mark.parametrize("p", [2, 3])
def test_trace_and_classify_match_reference(name, p):
    outcomes = set()
    for prism, want in traced_families(name, p):
        outcomes.add(want is None)
        if want is None:
            with pytest.raises(AmbiguityError):
                trace_cerf(prism, FieldSpec(p))
            continue
        got = trace_cerf(prism, FieldSpec(p))
        assert [(c.points, c.indices, c.base_vertex) for c in got.curves] == \
            [(c.points, c.indices, c.base_vertex) for c in want.curves]
        assert got.events == want.events
        for a, b, c in strip_grid(want, prism):
            assert classify_cobordism(got, a, b, c) == \
                reference_classify(want, a, b, c), (a, b, c)
    assert outcomes == {True, False}  # both generic and rejected families


def sublevel_bettis(prism, i, keep, fieldspec):
    """Betti numbers of the full subcomplex of fiber i on the vertices
    whose value passes keep, built from vertex tuples."""
    simplices = frozenset(s for s in prism.base.simplices
                          if all(keep(prism.vertex_level[(i, v)]) for v in s))
    return [betti(simplices, j, fieldspec)
            for j in range(max(map(len, prism.base.simplices)))]


@pytest.mark.parametrize("name", ["constructed", *DIFFERENTIAL_BASES])
@pytest.mark.parametrize("p", [2, 3])
def test_betti_changes_only_at_curve_values(name, p):
    fieldspec = FieldSpec(p)
    for prism, diagram in traced_families(name, p):
        if diagram is None:
            continue
        for i, t in enumerate(prism.time_breakpoints):
            curve_values = {v for c in diagram.curves for s, v in c.points
                            if s == t}
            for c in {prism.vertex_level[(i, v)]
                      for v in range(prism.base.n_vertices)}:
                below = sublevel_bettis(prism, i, lambda x: x < c, fieldspec)
                up_to = sublevel_bettis(prism, i, lambda x: x <= c, fieldspec)
                if below != up_to:
                    assert c in curve_values, (t, c)
