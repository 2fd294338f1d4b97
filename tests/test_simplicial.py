import random
from fractions import Fraction as F

import pytest

from fampersist.simplicial import (ComplexError, SimplicialComplex,
                                   build_prism, close_downward,
                                   is_downward_closed, slab_sublevel)


def hat_prism(steps=2):
    bps = [F(i, steps) for i in range(steps + 1)]
    rows = [(2 * min(t, 1 - t),) for t in bps]
    return build_prism(SimplicialComplex.point(), bps, rows)


class TestSimplicialComplex:
    def test_closure_enforced(self):
        with pytest.raises(ComplexError):
            SimplicialComplex(3, frozenset({(0, 1, 2)}))

    def test_from_maximal_closes(self):
        cx = SimplicialComplex.from_maximal(3, [(0, 1, 2)])
        assert len(cx.simplices) == 7
        assert is_downward_closed(cx.simplices)

    def test_unsorted_simplex_rejected(self):
        with pytest.raises(ComplexError):
            SimplicialComplex(2, frozenset({(1, 0)}))

    def test_repeated_vertices_rejected(self):
        with pytest.raises(ComplexError):
            SimplicialComplex.from_maximal(2, [(1, 1)])


class TestBuildPrism:
    def test_hat_is_a_path(self):
        p = hat_prism(2)
        assert len(p.vertex_level) == 3
        edges = [s for s in p.simplices if len(s) == 2]
        assert len(edges) == 2

    def test_empty_base(self):
        p = build_prism(SimplicialComplex.empty(), [F(0), F(1)], [(), ()])
        assert not p.vertex_level
        assert p.n_times == 2

    def test_cylinder_euler_zero(self):
        base = SimplicialComplex.circle(8)
        rows = [tuple(F(k, 7) for k in range(8))] * 2
        p = build_prism(base, [F(0), F(1)], rows)
        chi = sum((-1) ** (len(s) - 1) for s in p.simplices)
        assert chi == 0

    def test_fiber_restriction_matches_base(self):
        base = SimplicialComplex.from_maximal(4, [(0, 1, 2), (2, 3)])
        rows = [tuple(F(k) for k in range(4))] * 3
        p = build_prism(base, [F(0), F(1, 2), F(1)], rows)
        for i in range(3):
            fiber = {tuple(v[1] for v in s) for s in p.simplices
                     if all(v[0] == i for v in s)}
            assert fiber == set(base.simplices)

    def test_nonmonotone_breakpoints_rejected(self):
        with pytest.raises(ComplexError):
            build_prism(SimplicialComplex.point(), [F(0), F(1), F(1, 2)],
                        [(F(0),), (F(0),), (F(0),)])

    def test_breakpoints_must_span_unit_interval(self):
        with pytest.raises(ComplexError):
            build_prism(SimplicialComplex.point(), [F(0), F(1, 2)],
                        [(F(0),), (F(0),)])

    def test_row_shape_mismatch_rejected(self):
        with pytest.raises(ComplexError):
            build_prism(SimplicialComplex.point(), [F(0), F(1)],
                        [(F(0),), (F(0), F(1))])

    def test_prism_downward_closed(self):
        base = SimplicialComplex.from_maximal(4, [(0, 1, 2), (1, 2, 3)])
        rows = [tuple(F(k) for k in range(4))] * 3
        p = build_prism(base, [F(0), F(1, 2), F(1)], rows)
        assert is_downward_closed(p.simplices)


class TestSlabSublevel:
    def test_peak_window_below_peak_is_empty(self):
        p = hat_prism(2)
        assert not slab_sublevel(p, 1, 1, F(0)).simplices

    def test_saturation_gives_whole_complex(self):
        p = hat_prism(4)
        top = max(p.vertex_level.values())
        assert slab_sublevel(p, 0, p.n_times - 1, top).simplices == p.simplices

    def test_two_components_at_half(self):
        p = hat_prism(2)
        s = slab_sublevel(p, 0, 2, F(1, 2)).simplices
        assert {v for sx in s for v in sx} == {(0, 0), (2, 0)}

    def test_monotone_in_all_directions(self):
        base = SimplicialComplex.circle(4)
        rng = random.Random(7)
        rows = [tuple(F(rng.randint(-4, 4), 2) for _ in range(4))
                for _ in range(3)]
        p = build_prism(base, [F(0), F(1, 2), F(1)], rows)
        levels = sorted(set(p.vertex_level.values()))
        for a in range(3):
            for b in range(a, 3):
                for ci in range(len(levels) - 1):
                    small = slab_sublevel(p, a, b, levels[ci]).simplices
                    assert small <= slab_sublevel(p, a, b, levels[ci + 1]).simplices
                    if a > 0:
                        assert small <= slab_sublevel(p, a - 1, b, levels[ci]).simplices
                    if b < 2:
                        assert small <= slab_sublevel(p, a, b + 1, levels[ci]).simplices
                    assert is_downward_closed(small)

    def test_fiber_consistency(self):
        p = hat_prism(4)
        for i in range(p.n_times):
            c = p.vertex_level[(i, 0)]
            fiber = {s for s in p.simplices if all(v[0] == i for v in s)}
            assert slab_sublevel(p, i, i, c).simplices == fiber

    def test_gluing_along_a_middle_fiber(self):
        base = SimplicialComplex.path(3)
        rng = random.Random(3)
        rows = [tuple(F(rng.randint(0, 6), 3) for _ in range(3))
                for _ in range(3)]
        p = build_prism(base, [F(0), F(1, 2), F(1)], rows)
        for c in sorted(set(p.vertex_level.values())):
            left = slab_sublevel(p, 0, 1, c).simplices
            right = slab_sublevel(p, 1, 2, c).simplices
            whole = slab_sublevel(p, 0, 2, c).simplices
            assert left | right == whole
            assert left & right == slab_sublevel(p, 1, 1, c).simplices

    def test_index_out_of_range(self):
        p = hat_prism(2)
        with pytest.raises(ComplexError):
            slab_sublevel(p, 0, 9, F(1))


def test_close_downward_roundtrip():
    s = close_downward([(0, 2, 3)])
    assert (0, 3) in s and (2,) in s and len(s) == 7
