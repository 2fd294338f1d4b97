import random
from fractions import Fraction as F

import pytest

from fampersist import cerf, homology
from fampersist.cerf import (AmbiguityError, CerfError, CobordismClass,
                             classify_cobordism, classify_sign,
                             fiber_critical_vertices, trace_cerf)
from fampersist.family import (PLFamily, cylinder_family, hat_family,
                               point_family, wrinkled_cylinder_family)
from fampersist.homology import FieldSpec, betti
from fampersist.simplicial import (ComplexError, SimplicialComplex,
                                   build_prism, close_downward)


def reversed_family(fam: PLFamily) -> PLFamily:
    bps = tuple(1 - t for t in reversed(fam.time_breakpoints))
    rows = tuple(reversed(fam.vertex_values))
    return PLFamily(fam.base, bps, rows, label=fam.label + ":reversed")


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
        segs = list(diagram.all_segments())
        assert [s.sign for s in segs] == ["positive", "negative"]
        assert all(s.index == 0 for s in segs)

    def test_cylinder_two_flat_curves(self):
        diagram = trace_cerf(cylinder_family(4).to_prism())
        levels = sorted({pt[1] for c in diagram.curves for pt in c.points})
        assert levels == [F(-1), F(1)]
        assert all(s.sign == "flat" for s in diagram.all_segments())
        assert len(diagram.curves) == 2
        assert not diagram.events

    def test_wrinkled_lens_and_events(self):
        diagram = trace_cerf(wrinkled_cylinder_family().to_prism())
        assert len(diagram.curves) == 4
        assert diagram.events == [(F(1, 4), F(2)), (F(3, 4), F(2))]
        flat = [c for c in diagram.curves
                if all(s.sign == "flat" for s in c.segments())]
        lens = [c for c in diagram.curves if c not in flat]
        assert {c.points[0][1] for c in flat} == {F(0), F(4)}
        assert len(lens) == 2
        for c in lens:
            assert c.points[0] == (F(1, 4), F(2))
            assert c.points[-1] == (F(3, 4), F(2))
        assert {c.segments()[0].index for c in lens} == {0, 1}

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
        fwd_signs = sorted(s.sign for s in fwd.all_segments())
        bwd_signs = sorted(s.sign for s in bwd.all_segments())
        assert fwd_signs == bwd_signs  # lens is symmetric: swap preserved
        hat_fwd = trace_cerf(hat_family(2).to_prism())
        hat_bwd = trace_cerf(reversed_family(hat_family(2)).to_prism())
        assert [s.sign for s in hat_fwd.all_segments()] == \
            [s.sign for s in hat_bwd.all_segments()]

    def test_nongeneric_family_rejected(self):
        base = SimplicialComplex.path(3)
        rows = [(F(0), F(1), F(2)), (F(0), F(-1), F(2)), (F(0), F(-1), F(2))]
        prism = build_prism(base, [F(0), F(1, 2), F(1)], rows)
        with pytest.raises(AmbiguityError):
            trace_cerf(prism)

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
