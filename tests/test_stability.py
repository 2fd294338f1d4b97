import json
import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from fampersist.family import (FamilyError, PLFamily, hat_family,
                               point_family, wrinkled_cylinder_family,
                               zigzag_family)
from fampersist.homology import betti, induced_rank
from fampersist.io import dump_json
from fampersist.module3 import Module3, build_module
from fampersist.simplicial import SimplicialComplex, slab_sublevel
from fampersist.stability import (PerturbationReport, ShiftCheck,
                                  check_interleaving_necessary, grid_indices,
                                  sup_distance)

from oracle import all_downward_closed
from payload import expand


def shifted_pair(base, delta):
    g = base.shifted(delta)
    prism_f, prism_g = base.to_prism(), g.to_prism()
    return build_module(prism_f, 0), build_module(prism_g, 0)


class TestSupDistance:
    def test_identical_families(self):
        f = hat_family(4)
        assert sup_distance(f, f) == 0

    def test_uniform_shift(self):
        f = hat_family(4)
        assert sup_distance(f, f.shifted(F(1, 3))) == F(1, 3)

    def test_hat_versus_parabola_samples(self):
        f = hat_family(4)
        g = point_family([(t, 4 * t * (1 - t)) for t in f.time_breakpoints])
        assert sup_distance(f, g) == F(1, 4)

    def test_symmetry(self):
        f, g = hat_family(4), hat_family(4).shifted(F(1, 5))
        assert sup_distance(f, g) == sup_distance(g, f)

    def test_mismatched_breakpoints_rejected(self):
        with pytest.raises(FamilyError):
            sup_distance(hat_family(2), hat_family(4))


# Small denominators, so values tie with grid entries and with each other;
# values range past both ends of every grid.
GRID = st.lists(st.fractions(-2, 2, max_denominator=3), max_size=8).map(sorted)
VALUES = st.lists(st.fractions(-3, 3, max_denominator=6),
                  max_size=12).map(sorted)


@settings(derandomize=True)
@given(GRID, VALUES)
@example([F(0), F(1, 2), F(1)], [F(-1), F(0), F(0), F(1, 4), F(1, 2),
                                 F(1), F(2)])
@example([], [F(0)])
def test_grid_indices_match_bisect(grid, values):
    assert grid_indices(grid, values) == [bisect_right(grid, v) - 1
                                          for v in values]


class TestInterleavingCheck:
    def test_zero_epsilon_identity_passes(self):
        mf, mg = shifted_pair(hat_family(4), F(0))
        report = check_interleaving_necessary(mf, mg, F(0))
        assert report.overall

    def test_uniform_shift_passes_at_delta(self):
        mf, mg = shifted_pair(hat_family(4), F(1, 4))
        assert check_interleaving_necessary(mf, mg, F(1, 4)).overall

    def test_uniform_shift_fails_below_delta(self):
        mf, mg = shifted_pair(hat_family(4), F(1, 4))
        report = check_interleaving_necessary(mf, mg, F(1, 8))
        assert not report.overall
        bad = [c for c in report.checks if not c.passed]
        assert bad and all(c.lhs_rank > c.rhs_dim for c in bad)

    def test_swapped_arguments_agree(self):
        mf, mg = shifted_pair(zigzag_family(2), F(1, 2))
        fwd = check_interleaving_necessary(mf, mg, F(1, 4))
        rev = check_interleaving_necessary(mg, mf, F(1, 4))
        assert fwd.overall == rev.overall

    def test_monotone_in_epsilon(self):
        mf, mg = shifted_pair(zigzag_family(2), F(1, 2))
        results = [check_interleaving_necessary(mf, mg, eps).overall
                   for eps in (F(0), F(1, 4), F(1, 2), F(1))]
        # once it passes it stays passing as epsilon grows
        assert results == sorted(results)
        assert results[-1]

    def test_negative_epsilon_rejected(self):
        mf, mg = shifted_pair(hat_family(2), F(0))
        with pytest.raises(ValueError):
            check_interleaving_necessary(mf, mg, F(-1))

    def test_mismatched_degree_rejected(self):
        prism = hat_family(2).to_prism()
        mf = build_module(prism, 0)
        mg = build_module(prism, 1)
        with pytest.raises(ValueError):
            check_interleaving_necessary(mf, mg, F(0))

    def test_mismatched_breakpoints_rejected(self):
        mf = build_module(hat_family(2).to_prism(), 0)
        mg = build_module(hat_family(4).to_prism(), 0)
        with pytest.raises(ValueError):
            check_interleaving_necessary(mf, mg, F(0))

    def test_report_json_shape(self):
        mf, mg = shifted_pair(hat_family(2), F(1, 4))
        report = check_interleaving_necessary(mf, mg, F(1, 4))
        data = json.loads(dump_json(report.to_json_dict()))
        assert data["overall"] is True
        assert data["epsilon"] == "1/4"
        assert data["degree"] == 0
        check = data["checks"][0]
        assert set(check) == {"point", "direction", "lhs_rank",
                              "rhs_dim", "pass"}


def reference_report(pf, pg, mf, mg, epsilon):
    """The check computed on the prisms pf and pg of modules mf and mg:
    every slab rebuilt at the exact levels c, c + epsilon and
    c + 2*epsilon, off the grids included."""
    degree, fieldspec = mf.degree, mf.fieldspec
    slabs, ranks = {}, {}

    def slab(p, i, j, c):
        key = (id(p), i, j, c)
        if key not in slabs:
            slabs[key] = slab_sublevel(p, i, j, c).simplices
        return slabs[key]

    def rank(sub, sup):
        if (sub, sup) not in ranks:
            ranks[(sub, sup)] = (betti(sub, degree, fieldspec) if sub == sup
                                 else induced_rank(sub, sup, degree,
                                                   fieldspec))
        return ranks[(sub, sup)]

    times = pf.time_breakpoints
    levels = sorted(set(mf.level_values) | set(mg.level_values))
    curves = []
    for i in range(len(times)):
        for j in range(i, len(times)):
            dirs = []
            for name, src, dst in (("f_to_g", pf, pg), ("g_to_f", pg, pf)):
                lhs = [rank(slab(src, i, j, c),
                            slab(src, i, j, c + 2 * epsilon))
                       for c in levels]
                mids = [slab(dst, i, j, c + epsilon) for c in levels]
                dirs.append((name, lhs, [rank(m, m) for m in mids]))
            curves.append(((i, j), dirs))
    return PerturbationReport(epsilon=epsilon, degree=degree,
                              times=list(times), levels=levels,
                              curves=curves)


def random_offsets(rng, fam, choices):
    return [[rng.choice(choices) for _ in row] for row in fam.vertex_values]


def random_family(rng):
    """A small family on a random complex with tied integer values."""
    cx = rng.choice(all_downward_closed(3))
    base = SimplicialComplex(3, cx)
    inner = sorted(rng.sample([F(1, 4), F(1, 3), F(1, 2), F(3, 4)],
                              rng.randint(0, 2)))
    times = tuple([F(0)] + inner + [F(1)])
    rows = tuple(tuple(F(rng.randint(0, 2)) for _ in range(3))
                 for _ in times)
    return PLFamily(base, times, rows)


def differential_pairs():
    rng = random.Random(2024)
    hat = hat_family(4)
    zig = zigzag_family(2)
    wc = wrinkled_cylinder_family(subdiv=6)
    cases = [("hat", hat, [F(-1, 4), 0, F(1, 2)]),
             ("zigzag:2", zig, [F(-1, 2), 0, F(1, 4)]),
             ("wrinkled", wc, [F(-1, 4), 0, F(1, 8), F(1, 2)])]
    cases += [(f"random-{n}", random_family(rng), [-1, 0, 0, 1])
              for n in range(6)]
    return [pytest.param(f, f.shifted(random_offsets(rng, f, choices)),
                         id=label)
            for label, f, choices in cases]


class TestModuleQueriesMatchSlabs:
    @pytest.mark.parametrize("f, g", differential_pairs())
    def test_reports_match_reference(self, f, g):
        pf, pg = f.to_prism(), g.to_prism()
        for degree in (0, 1):
            mf, mg = build_module(pf, degree), build_module(pg, degree)
            for eps in (F(0), F(1, 8), sup_distance(f, g), F(3)):
                got = check_interleaving_necessary(mf, mg, eps)
                want = reference_report(pf, pg, mf, mg, eps)
                assert (expand(got.to_json_dict())
                        == expand(want.to_json_dict())), (degree, eps)

    def test_levels_are_the_sorted_union(self):
        """The merged levels equal the sorted set union, over pairs that
        share some levels and not others."""
        partial = 0
        for f, g in (p.values for p in differential_pairs()):
            mf = build_module(f.to_prism(), 0)
            mg = build_module(g.to_prism(), 0)
            levels = check_interleaving_necessary(mf, mg, F(1, 8)).levels
            union = set(mf.level_values) | set(mg.level_values)
            assert levels == sorted(union)
            partial += 0 < len(set(mf.level_values) & set(mg.level_values)) \
                < len(union)
        assert partial >= 2

    @pytest.mark.parametrize("degree", (0, 1))
    def test_check_reads_curves_not_points(self, monkeypatch, degree):
        """The check reads one rank curve per window and direction from the
        window barcodes the build reduced: no point query."""
        f, g = next(p.values for p in differential_pairs()
                    if p.id == "wrinkled")
        mf = build_module(f.to_prism(), degree)
        mg = build_module(g.to_prism(), degree)

        def point_query(*args):
            raise AssertionError("check_interleaving_necessary read a point")

        monkeypatch.setattr(Module3, "rank", point_query)
        assert check_interleaving_necessary(mf, mg, sup_distance(f, g)).overall

    @pytest.mark.parametrize("degree", (0, 1))
    def test_check_builds_no_shift_check(self, monkeypatch, degree):
        """The check, its verdict and its JSON are read from the rank
        curves; the per-check objects exist only as the ``checks`` view,
        which matches the slab reference."""
        f, g = next(p.values for p in differential_pairs()
                    if p.id == "wrinkled")
        pf, pg = f.to_prism(), g.to_prism()
        mf, mg = build_module(pf, degree), build_module(pg, degree)

        def build(*args, **kwargs):
            raise AssertionError("built a ShiftCheck")

        for eps in (F(0), sup_distance(f, g)):
            with monkeypatch.context() as patch:
                patch.setattr(ShiftCheck, "__init__", build)
                report = check_interleaving_necessary(mf, mg, eps)
                overall = report.overall
                dump_json(report.to_json_dict())
            got = report.checks
            want = reference_report(pf, pg, mf, mg, eps).checks
            assert len(got) == len(want)
            for mine, ref in zip(got, want):
                assert mine == ref, eps
            assert overall == all(c.passed for c in got)
