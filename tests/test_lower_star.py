"""The lower-star engine of build_module against the per-point computation.

``reference_module`` is the earlier build_module: one slab per grid point,
its Betti number from ``betti`` and every adjacent edge from
``induced_rank`` on the two slabs.  The engine must give exactly the same
dims and edge ranks, and every rank between two levels of one window,
answered from the window's barcode, must equal ``induced_rank`` on the two
slabs.
"""

import random
from fractions import Fraction as F

import pytest

from fampersist.family import (PLFamily, cylinder_family, hat_family,
                               wrinkled_cylinder_family, zigzag_family)
from fampersist.homology import FieldSpec, betti, induced_rank
from fampersist.module3 import build_module
from fampersist.simplicial import SimplicialComplex, slab_sublevel


def reference_module(p, degree, fieldspec, levels):
    """Dims and nonzero adjacent-edge ranks, every slab rebuilt per point."""
    nt, nl = len(p.time_breakpoints), len(levels)
    slabs = {(i, j, k): slab_sublevel(p, i, j, levels[k]).simplices
             for i in range(nt) for j in range(i, nt) for k in range(nl)}

    def up(pt):
        i, j, k = pt
        return [y for y in ((i - 1, j, k), (i, j + 1, k), (i, j, k + 1))
                if y in slabs]

    dims = {}
    for pt, sx in slabs.items():
        d = betti(sx, degree, fieldspec)
        if d:
            dims[pt] = d
    edges = {}
    for pt in dims:
        for y in up(pt):
            if y in dims:
                r = induced_rank(slabs[pt], slabs[y], degree, fieldspec)
                if r:
                    edges[(pt, y)] = r
    return dims, edges, slabs


def random_family(rng, base):
    """Integer values 0..2 on a few random breakpoints: many ties."""
    inner = sorted(rng.sample([F(1, 4), F(1, 3), F(1, 2), F(3, 4)],
                              rng.randint(0, 2)))
    times = tuple([F(0)] + inner + [F(1)])
    rows = tuple(tuple(F(rng.randint(0, 2)) for _ in range(base.n_vertices))
                 for _ in times)
    return PLFamily(base, times, rows)


def families():
    rng = random.Random(7)
    triangles = SimplicialComplex.from_maximal(5, [(0, 1, 2), (2, 3, 4)])
    cases = [("hat", hat_family(4)), ("zigzag:3", zigzag_family(3)),
             ("cylinder:6", cylinder_family(6)),
             ("wrinkled:6", wrinkled_cylinder_family(subdiv=6))]
    for name, base in (("path", SimplicialComplex.path(4)),
                       ("circle", SimplicialComplex.circle(4)),
                       ("triangles", triangles)):
        cases += [(f"{name}-{n}", random_family(rng, base)) for n in range(2)]
    return [pytest.param(fam, id=label) for label, fam in cases]


def level_grids(prism):
    """The default grid, verify's hat grid, and a grid reaching below the
    minimum that misses vertex values."""
    values = sorted(set(prism.vertex_level.values()))
    custom = sorted({values[0] - 1, (values[0] + values[-1]) / 2,
                     values[-1]})
    return [None, [F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(9, 8)], custom]


@pytest.mark.parametrize("fam", families())
def test_engine_matches_per_point_reference(fam):
    prism = fam.to_prism()
    for levels in level_grids(prism):
        for fieldspec in (FieldSpec(2), FieldSpec(3)):
            for degree in (0, 1, 2):
                mod = build_module(prism, degree, fieldspec,
                                   level_values=levels)
                dims, edges, slabs = reference_module(
                    prism, degree, fieldspec, mod.level_values)
                assert mod.dims == dims, (levels, fieldspec, degree)
                assert mod.edge_ranks == edges, (levels, fieldspec, degree)
                ranks = {}
                for x in mod.points():
                    for k in range(x[2] + 2, len(mod.level_values)):
                        y = x[:2] + (k,)
                        key = (slabs[x], slabs[y])
                        if key not in ranks:
                            ranks[key] = induced_rank(*key, degree,
                                                      fieldspec)
                        assert mod.rank(x, y) == ranks[key], (x, y)
