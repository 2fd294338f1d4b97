from fractions import Fraction as F

import pytest

from fampersist.family import (cylinder_family, hat_family,
                               wrinkled_cylinder_family, zigzag_family)
from fampersist import homology, module3
from fampersist.homology import FieldSpec, induced_rank
from fampersist.module3 import (Module3, ModuleError, ThinRefusal,
                                betti_report, build_module,
                                check_indecomposable_sufficient,
                                finite_subdiagram, thin_decompose)
from fampersist.simplicial import slab_sublevel

from oracle import component_count
from payload import expand


def hat_expected(a, b, c):
    if c >= 1:
        return 1
    lo, hi = 2 * min(a, 1 - b), 2 * max(a, 1 - b)
    if hi <= c:
        return 2
    if lo <= c:
        return 1
    return 0


def count_reductions(monkeypatch):
    """A list that grows by one on each ``staged_reduce`` call."""
    calls = []
    reduce = homology.staged_reduce

    def counting(*args, **kwargs):
        calls.append(1)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(homology, "staged_reduce", counting)
    return calls


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
        for x in mod.points():
            for y in mod.neighbors_up(x):
                assert mod.rank(x, y) <= min(mod.dim(x), mod.dim(y))

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
            assert path_rank <= mod.rank(cur, nxt)
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


class TestSerialization:
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

    def test_one_pass_for_every_degree(self, monkeypatch):
        """The build reduces each of the 15 windows once and no pair."""
        calls = count_reductions(monkeypatch)
        prism = wrinkled_cylinder_family().to_prism()
        build_module(prism, 0)
        assert len(calls) == 15
        calls.clear()
        report = betti_report(prism, 2)
        assert len(calls) == 15
        assert report.modules[1].bars is report.modules[0].bars

    def test_faces_indexed_once_per_report(self, monkeypatch):
        calls = []
        index = module3._lower_star_cells

        def counting(*args):
            calls.append(1)
            return index(*args)

        monkeypatch.setattr(module3, "_lower_star_cells", counting)
        prism = wrinkled_cylinder_family().to_prism()
        report = betti_report(prism, 1)
        assert len(calls) == 1
        mod = report.modules[0]
        assert report.modules[1].cells is mod.cells
        x, y = (1, 2, 0), (0, 3, len(mod.level_values) - 1)
        assert mod.dim(x) and mod.dim(y)
        assert ((1, 2), (0, 3)) not in mod.bars
        r = mod.rank(x, y)
        assert ((1, 2), (0, 3)) in mod.bars
        assert len(calls) == 1
        slab_x, slab_y = (slab_sublevel(prism, i, j,
                                        mod.level_values[k]).simplices
                          for i, j, k in (x, y))
        assert r == induced_rank(slab_x, slab_y, 0)

    def test_window_pair_reduced_on_first_map(self, monkeypatch):
        """The first map between two adjacent windows reduces their pair
        once; a second map between them, to another level, reduces nothing."""
        prism = wrinkled_cylinder_family().to_prism()
        mod = build_module(prism, 0)
        x, y = next((x, y) for x in sorted(mod.support())
                    for y in ((x[0] - 1, x[1], x[2] + 2),
                              (x[0], x[1] + 1, x[2] + 2))
                    if y in mod.dims and y[:2] + (x[2] + 1,) in mod.dims)
        maps = [(x, y), (x, y[:2] + (x[2] + 1,))]
        wants = [induced_rank(*(slab_sublevel(prism, i, j,
                                              mod.level_values[k]).simplices
                                for i, j, k in pair), 0) for pair in maps]
        calls = count_reductions(monkeypatch)
        for pair, want in zip(maps, wants):
            assert mod.rank(*pair) == want
            assert len(calls) == 1

    def test_csv_reduces_nothing(self, monkeypatch):
        mod = build_module(wrinkled_cylinder_family().to_prism(), 0)
        calls = count_reductions(monkeypatch)
        mod.to_csv()
        assert calls == []

    @pytest.mark.parametrize("degree", (0, 1))
    def test_json_does_not_depend_on_earlier_queries(self, degree):
        prism = wrinkled_cylinder_family().to_prism()
        fresh = build_module(prism, degree)
        queried = build_module(prism, degree)
        finite_subdiagram(queried, sorted(queried.support()))
        assert len(queried.bars) > len(fresh.bars)
        assert expand(queried.to_json_dict()) == expand(fresh.to_json_dict())


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

    def test_wrinkled_peel_reduces_no_join_of_dim_one(self, monkeypatch):
        """Every join of two minimal peel points has dim 1 here, and a
        map into a space of dim 1 cannot have rank 2."""
        calls = []
        joint_rank = module3._joint_rank

        def counted(*args):
            calls.append(args)
            return joint_rank(*args)

        monkeypatch.setattr(module3, "_joint_rank", counted)
        mod = build_module(wrinkled_cylinder_family().to_prism(), 0)
        assert len(thin_decompose(mod)) == 2
        assert calls == []

    @pytest.mark.parametrize("degree", (0, 1))
    def test_reads_each_residual_pair_once(self, monkeypatch, degree):
        """The walk reads Module3.rank once per adjacent pair of residual
        points and for nothing else."""
        mod = build_module(wrinkled_cylinder_family().to_prism(), degree)
        support = mod.support()
        top = (0, len(mod.time_values) - 1, len(mod.level_values) - 1)
        peel = ({x for x in support if mod.rank(x, top)}
                if max(map(mod.dim, support)) == 2 else set())
        residual = {x for x in support if mod.dim(x) - (x in peel)}
        pairs = [(x, y) for x in residual for y in mod.neighbors_up(x)
                 if y in residual]
        calls = []
        rank = Module3.rank

        def counted(self, x, y):
            calls.append((x, y))
            return rank(self, x, y)

        monkeypatch.setattr(Module3, "rank", counted)
        assert len(thin_decompose(mod)) == 2
        assert sorted(calls) == sorted(pairs)

    def test_rank_zero_edge_inside_a_class_refused(self, monkeypatch):
        """Every dim is one and every adjacent edge has rank one but
        (0,0,0) -> (0,1,0), whose ends are joined through (0,0,1) and
        (0,1,1)."""
        mod = Module3(degree=0, fieldspec=FieldSpec(),
                      time_values=[F(0), F(1)], level_values=[F(0), F(1)],
                      dims={}, cells=[], index=[], bars={})
        mod.dims = {x: 1 for x in mod.points()}
        cut = ((0, 0, 0), (0, 1, 0))
        table = {(x, y): int((x, y) != cut)
                 for x in mod.points() for y in mod.neighbors_up(x)}
        monkeypatch.setattr(Module3, "rank", lambda self, x, y: table[x, y])
        with pytest.raises(ThinRefusal, match="carries rank 0") as err:
            thin_decompose(mod)
        assert err.value.witness == cut

    def test_hat_refused_with_witness(self):
        mod = build_module(hat_family(2).to_prism(), 0)
        with pytest.raises(ThinRefusal) as err:
            thin_decompose(mod)
        witness = ((0, 0, 0), (2, 2, 0), (0, 2, 0))
        assert err.value.witness == witness
        assert mod.dim(witness[2]) == 2

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
