import json
from fractions import Fraction as F

import pytest

from fampersist.family import (cylinder_family, hat_family,
                               wrinkled_cylinder_family, zigzag_family)
from fampersist.homology import FieldSpec
from fampersist.module3 import (Module3, ModuleError, ThinRefusal,
                                betti_report, build_module,
                                check_indecomposable_sufficient,
                                finite_subdiagram, thin_decompose)
from fampersist.simplicial import slab_sublevel

from oracle import component_count


def hat_expected(a, b, c):
    if c >= 1:
        return 1
    lo, hi = 2 * min(a, 1 - b), 2 * max(a, 1 - b)
    if hi <= c:
        return 2
    if lo <= c:
        return 1
    return 0


def grid_point(mod, a, b, c):
    return (mod.time_values.index(a), mod.time_values.index(b),
            mod.level_values.index(c))


class TestBuildModule:
    def test_hat_dims_match_two_peak_formula(self):
        mod = build_module(hat_family(4).to_prism(), 0)
        for i, j, k in mod.points():
            assert mod.dim((i, j, k)) == hat_expected(
                mod.time_values[i], mod.time_values[j], mod.level_values[k])

    def test_hat_higher_degrees_vanish(self):
        prism = hat_family(4).to_prism()
        for degree in (1, 2):
            assert not build_module(prism, degree).dims

    def test_cylinder_loop_threshold(self):
        mod = build_module(cylinder_family(6).to_prism(), 1)
        for i, j, k in mod.points():
            want = 1 if mod.level_values[k] >= 1 else 0
            assert mod.dim((i, j, k)) == want

    def test_edge_ranks_bounded_by_dims(self):
        mod = build_module(wrinkled_cylinder_family().to_prism(), 0)
        for (x, y), r in mod.edge_ranks.items():
            assert r <= min(mod.dim(x), mod.dim(y))

    def test_composite_rank_bounded_by_edges(self):
        mod = build_module(hat_family(4).to_prism(), 0)
        x = grid_point(mod, F(0), F(0), F(0))
        top = grid_point(mod, F(0), F(1), F(2))
        path_rank = mod.rank(x, top)
        # the long map factors through every step of a monotone path
        cur = x
        while cur != top:
            nxt = next(y for y in mod.neighbors_up(cur)
                       if y[0] <= top[0] and y[1] <= top[1] and y[2] <= top[2])
            assert path_rank <= mod.edge_rank(cur, nxt)
            cur = nxt
        assert path_rank == 1

    def test_dims_are_component_counts(self):
        prism = zigzag_family(2).to_prism()
        mod = build_module(prism, 0)
        for i, j, k in mod.points():
            slab = slab_sublevel(prism, i, j, mod.level_values[k]).simplices
            assert mod.dim((i, j, k)) == component_count(slab)

    def test_negative_degree_rejected(self):
        with pytest.raises(ModuleError):
            build_module(hat_family(2).to_prism(), -1)

    @pytest.mark.parametrize("levels", [[F(1), F(0)],
                                        [F(1, 2), F(0), F(1)],
                                        [F(0), F(0), F(1)]])
    def test_level_grid_not_strictly_increasing_rejected(self, levels):
        with pytest.raises(ModuleError):
            build_module(hat_family(2).to_prism(), 0, level_values=levels)

    def test_level_refinement_keeps_old_dims(self):
        prism = hat_family(2).to_prism()
        mod = build_module(prism, 0)
        levels = sorted(set(mod.level_values)
                        | {(u + v) / 2 for u, v in
                           zip(mod.level_values, mod.level_values[1:])})
        fine = build_module(prism, 0, level_values=levels)
        for i, j, k in mod.points():
            kk = fine.level_values.index(mod.level_values[k])
            assert mod.dim((i, j, k)) == fine.dim((i, j, kk))


class TestSerialization:
    def test_json_round_trip(self):
        mod = build_module(hat_family(2).to_prism(), 0, FieldSpec(3))
        data = json.loads(json.dumps(mod.to_json_dict()))
        back = Module3.from_json_dict(data)
        assert back.dims == mod.dims
        assert back.edge_ranks == mod.edge_ranks
        assert back.time_values == mod.time_values
        assert back.fieldspec == mod.fieldspec

    @pytest.mark.parametrize("fam, degree", [(zigzag_family(2), 0),
                                             (cylinder_family(4), 1)])
    def test_loaded_module_answers_short_ranks(self, fam, degree):
        mod = build_module(fam.to_prism(), degree)
        back = Module3.from_json_dict(
            json.loads(json.dumps(mod.to_json_dict())))
        assert back.prism is None
        short = 0
        for x in mod.points():
            for y in mod.points():
                if x == y or not (y[0] <= x[0] and x[1] <= y[1]
                                  and x[2] <= y[2]):
                    continue
                adjacent = y in mod.neighbors_up(x)
                if adjacent or not mod.dim(x) or not mod.dim(y):
                    assert back.rank(x, y) == mod.rank(x, y), (x, y)
                    short += 1
                else:
                    with pytest.raises(ModuleError):
                        back.rank(x, y)
        assert short

    def test_csv_contains_full_window_row(self):
        mod = build_module(hat_family(2).to_prism(), 0)
        assert "0,1,1,1" in mod.to_csv().splitlines()

    def test_dims_nested_shape(self):
        mod = build_module(hat_family(2).to_prism(), 0)
        data = mod.to_json_dict()
        assert data["dims"][1][0] is None  # a_index > b_index
        assert data["dims"][0][2][-1] == 1


class TestBettiReport:
    def test_hat_top_corner(self):
        report = betti_report(hat_family(2).to_prism(), 1)
        mod0 = report.modules[0]
        top = grid_point(mod0, F(0), F(1), F(2))
        assert mod0.dim(top) == 1
        assert report.modules[1].dim(top) == 0

    def test_cylinder_chi_zero_on_full_slab(self):
        report = betti_report(cylinder_family(4).to_prism(), 2)
        mod0 = report.modules[0]
        top = (0, 1, len(mod0.level_values) - 1)
        chi = sum((-1) ** j * report.modules[j].dim(top) for j in (0, 1, 2))
        assert chi == 0


class TestThinDecompose:
    def test_cylinder_single_summands(self):
        prism = cylinder_family(6).to_prism()
        for degree in (0, 1):
            summands = thin_decompose(build_module(prism, degree))
            assert len(summands) == 1

    def test_wrinkled_degree_one_bounded_and_unbounded(self):
        mod = build_module(wrinkled_cylinder_family().to_prism(), 1)
        summands = thin_decompose(mod)
        assert len(summands) == 2
        top = (0, len(mod.time_values) - 1, len(mod.level_values) - 1)
        bounded = [s for s in summands if top not in s.support]
        assert len(bounded) == 1
        assert all(mod.level_values[pt[2]] < 3 for pt in bounded[0].support)

    def test_wrinkled_degree_zero_peels_into_two(self):
        mod = build_module(wrinkled_cylinder_family().to_prism(), 0)
        summands = thin_decompose(mod)
        assert len(summands) == 2

    def test_hat_refused_with_witness(self):
        mod = build_module(hat_family(2).to_prism(), 0)
        with pytest.raises(ThinRefusal) as err:
            thin_decompose(mod)
        assert err.value.witness is not None

    def test_empty_module(self):
        mod = build_module(hat_family(2).to_prism(), 2)
        assert thin_decompose(mod) == []


class TestIndecomposable:
    def test_hat_certified(self):
        assert check_indecomposable_sufficient(
            build_module(hat_family(4).to_prism(), 0))

    def test_zigzag_certified(self):
        assert check_indecomposable_sufficient(
            build_module(zigzag_family(3).to_prism(), 0))

    def test_cylinder_loop_certified(self):
        assert check_indecomposable_sufficient(
            build_module(cylinder_family(4).to_prism(), 1))

    def test_wrinkled_loops_inconclusive(self):
        # Two independent loop summands: the bounded one dies on the way up.
        assert not check_indecomposable_sufficient(
            build_module(wrinkled_cylinder_family().to_prism(), 1))

    def test_empty_module_inconclusive(self):
        assert not check_indecomposable_sufficient(
            build_module(hat_family(2).to_prism(), 2))


class TestFiniteSubdiagram:
    def test_zigzag_component_counts(self):
        mod = build_module(zigzag_family(2).to_prism(), 0)
        half = mod.level_values.index(F(1, 2))
        pts = [(2 * i, 2 * j, half) for i in range(3) for j in range(i, 3)]
        sub = finite_subdiagram(mod, pts)
        dims = {pts[s]: d for s, d in zip(range(len(pts)), sub.dims)}
        assert dims == {(0, 0, half): 1, (0, 2, half): 2, (0, 4, half): 3,
                        (2, 2, half): 1, (2, 4, half): 2, (4, 4, half): 1}

    def test_hat_five_point_diagram(self):
        mod = build_module(hat_family(2).to_prism(), 0)
        pts = [grid_point(mod, F(1, 2), F(1, 2), F(0)),
               grid_point(mod, F(0), F(0), F(1, 2)),
               grid_point(mod, F(1, 2), F(1, 2), F(1)),
               grid_point(mod, F(0), F(1), F(1, 2)),
               grid_point(mod, F(0), F(1), F(1))]
        sub = finite_subdiagram(mod, pts)
        assert sub.dims == [0, 1, 1, 2, 1]
        assert sub.rank(1, 3) == 1  # one component into two
        assert sub.rank(2, 4) == 1
        assert sub.rank(3, 4) == 1  # two components merge into one
        assert sub.rank(0, 3) == 0

    def test_incomparable_pair_rejected(self):
        mod = build_module(hat_family(2).to_prism(), 0)
        p1 = grid_point(mod, F(0), F(0), F(1, 2))
        p2 = grid_point(mod, F(1, 2), F(1, 2), F(1))
        sub = finite_subdiagram(mod, [p1, p2])
        with pytest.raises(ModuleError):
            sub.rank(0, 1)

    def test_rank_out_of_range_point_rejected(self):
        mod = build_module(hat_family(4).to_prism(), 0)
        for x, y in [((0, 2, 1), (0, 7, 3)), ((0, 2, -1), (0, 2, 1)),
                     ((0, 2, 1), (0, 2, len(mod.level_values)))]:
            with pytest.raises(ModuleError):
                mod.rank(x, y)

    def test_out_of_range_point(self):
        mod = build_module(hat_family(2).to_prism(), 0)
        with pytest.raises(ModuleError):
            finite_subdiagram(mod, [(0, 99, 0)])
