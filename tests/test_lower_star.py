"""The lower-star engine of build_module against the per-point computation.

``reference_module`` is the earlier build_module: one slab per grid point,
its Betti number from ``betti`` and every adjacent edge from
``induced_rank`` on the two slabs.  The engine must give exactly the same
dims, and the same edge ranks in its JSON and from ``Module3.rank``; the
rank of every identity must be the dim; every rank between two levels of
one window, answered from the window's barcode, must equal
``induced_rank`` on the two slabs; so must every rank between two windows,
answered from the image barcode of the window pair, a zero end included.
The module's grid is the prism's, and it is complete: at any level c, off
the grid too, a slab is the one at the highest grid level <= c.  No module
computation may build a slab.

The module reduces the critical cells of one Morse complex of the prism.
``SimplicialReference`` reduces the prism's simplices themselves, from
``homology.lower_star``; every window barcode and every image barcode of
a nested pair must have the same bars of positive length, and
``_joint_rank`` the same value on seeded pairs of points; the matching
must pair cells of one grade at incidence +-1 without a closed V-path.
Over GF(2), the bit-mask column loop of ``homology._reduce_columns`` must
give, on the critical cells of every window and every widening in the
grid, the pairs and zero columns of a left-to-right reference reduction.
"""

import csv
import io
import json
import random
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from fractions import Fraction as F
from itertools import combinations

import pytest

from fampersist.family import (PLFamily, cylinder_family, hat_family,
                               wrinkled_cylinder_family, zigzag_family)
from fampersist import homology, module3
from fampersist.homology import FieldSpec, betti, induced_rank
from fampersist.module3 import (ThinRefusal, _join, _joint_rank, _leq,
                                _minimal_points, _top_point, betti_report,
                                build_module,
                                check_indecomposable_sufficient,
                                finite_subdiagram, thin_decompose)
from fampersist.rational import format_rational
from fampersist.stability import check_interleaving_necessary
from fampersist.io import dump_json
from fampersist.verify import run_suite
from fampersist.simplicial import SimplicialComplex, slab_sublevel

from payload import expand
from test_reduction_engine import _reference_columns


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


@pytest.mark.parametrize("fam", families())
def test_engine_matches_per_point_reference(fam):
    prism = fam.to_prism()
    for fieldspec in (FieldSpec(2), FieldSpec(3)):
        for degree in (0, 1, 2):
            mod = build_module(prism, degree, fieldspec)
            dims, edges, slabs = reference_module(
                prism, degree, fieldspec, mod.level_values)
            assert mod.dims == dims, (fieldspec, degree)
            assert {(tuple(x), tuple(y)): r for x, y, r
                    in expand(mod.to_json_dict())["edge_ranks"]} == edges, \
                (fieldspec, degree)
            for x in mod.points():
                for y in mod.neighbors_up(x):
                    assert mod.rank(x, y) == edges.get((x, y), 0), (x, y)
            ranks = {}
            top = _top_point(mod)
            for x in mod.points():
                assert mod.rank(x, x) == dims.get(x, 0), x
                ys = [x[:2] + (k,) for k in range(x[2] + 2, top[2] + 1)]
                for y in ys + [top[:2] + x[2:], top]:
                    key = (slabs[x], slabs[y])
                    if key not in ranks:
                        ranks[key] = induced_rank(*key, degree, fieldspec)
                    assert mod.rank(x, y) == ranks[key], (x, y)


def written_as_expanded(payload):
    """dump_json of a payload of io.Rows is json.dumps of its expansion."""
    want = json.dumps(expand(payload), sort_keys=True, indent=2) + "\n"
    return dump_json(payload) == want


@pytest.mark.parametrize("fam", families())
def test_json_payloads_write_as_their_expansion(fam):
    """The module and stability payloads, in degrees 0-2 over GF(2) and
    GF(3), against every family of the same breakpoints and a copy raised
    by 1/3, which fails the check at epsilon 0."""
    others = [p.values[0] for p in families()
              if p.values[0].time_breakpoints == fam.time_breakpoints]
    others.append(fam.shifted(F(1, 3)))
    prisms = [fam.to_prism()] + [g.to_prism() for g in others]
    for fieldspec in (FieldSpec(2), FieldSpec(3)):
        reports = [betti_report(p, 2, fieldspec) for p in prisms]
        assert written_as_expanded(reports[0].to_json_dict())
        for degree in (0, 1, 2):
            mf = reports[0].modules[degree]
            for other in reports[1:]:
                for eps in (F(0), F(1, 4)):
                    report = check_interleaving_necessary(
                        mf, other.modules[degree], eps)
                    assert written_as_expanded(report.to_json_dict()), \
                        (fieldspec, degree, eps)


def probe_levels(levels, rng):
    """Every grid level, one below the lowest and two above the highest,
    one strictly inside each gap of the grid, and four seeded rationals
    from one below the lowest to two above the highest."""
    lo, hi = levels[0], levels[-1]
    inside = [(3 * u + v) / 4 for u, v in zip(levels, levels[1:])]
    seeded = [lo - 1 + (hi - lo + 3) * F(rng.randint(0, 96), 96)
              for _ in range(4)]
    return sorted({*levels, lo - 1, hi + F(1, 3), hi + 7, *inside, *seeded})


@pytest.mark.parametrize("fam", families())
def test_default_grid_is_complete(fam):
    """At a level c on or off the grid, the slab of a window has the dim of
    the module at the highest grid level <= c, or 0 below the lowest, and
    the map between the slabs at c <= c' has the rank of the module's map
    between those grid points."""
    prism = fam.to_prism()
    levels = prism.level_values()
    probes = probe_levels(levels, random.Random(13))
    grid = [bisect_right(levels, c) - 1 for c in probes]
    nt = len(prism.time_breakpoints)
    windows = [(i, j) for i in range(nt) for j in range(i, nt)]
    slabs = {w + (c,): slab_sublevel(prism, *w, c).simplices
             for w in windows for c in probes}
    for fieldspec in (FieldSpec(2), FieldSpec(3)):
        for degree in (0, 1, 2):
            mod = build_module(prism, degree, fieldspec)
            assert mod.level_values == levels
            ranks = {}
            for w in windows:
                for s, (c, k) in enumerate(zip(probes, grid)):
                    slab = slabs[w + (c,)]
                    want = betti(slab, degree, fieldspec)
                    assert (mod.dim(w + (k,)) if k >= 0 else 0) == want, \
                        (w, c, degree, fieldspec)
                    for cp, kp in zip(probes[s + 1:], grid[s + 1:]):
                        key = (slab, slabs[w + (cp,)])
                        if key not in ranks:
                            ranks[key] = induced_rank(*key, degree,
                                                      fieldspec)
                        got = mod.rank(w + (k,), w + (kp,)) if k >= 0 else 0
                        assert got == ranks[key], (w, c, cp, degree,
                                                   fieldspec)


def higher_degree_families():
    """Seeded random families on a 2-sphere, so that degree 2 is nonzero,
    and on two disjoint circles, so that degrees 0 and 1 give one edge
    different ranks."""
    rng = random.Random(11)
    sphere = SimplicialComplex.from_maximal(
        4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    circles = SimplicialComplex.from_maximal(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    return ([pytest.param(random_family(rng, sphere), id=f"sphere-{n}")
             for n in range(3)]
            + [pytest.param(random_family(rng, circles), id=f"circles-{n}")
               for n in range(2)])


@pytest.mark.parametrize("fam", families() + higher_degree_families())
def test_cross_window_ranks_match_slabs(fam):
    """From build_module, and from one betti_report in degree order, so
    that degrees 1 and 2 read the pair barcodes that degree 0 cached."""
    prism = fam.to_prism()
    slabs, ranks = {}, {}
    for fieldspec in (FieldSpec(2), FieldSpec(3)):
        report = betti_report(prism, 2, fieldspec)
        for degree in (0, 1, 2):
            mod, shared = (build_module(prism, degree, fieldspec),
                           report.modules[degree])
            assert list(shared.dims.items()) == list(mod.dims.items())
            assert (expand(shared.to_json_dict())
                    == expand(mod.to_json_dict()))
            for m in (mod, shared):
                check_cross_window_ranks(prism, m, slabs, ranks)


def check_cross_window_ranks(prism, mod, slabs, ranks):
    fieldspec, degree = mod.fieldspec, mod.degree
    for x in mod.points():
        slabs.setdefault(x, slab_sublevel(
            prism, x[0], x[1], mod.level_values[x[2]]).simplices)
    for x in mod.points():
        for y in mod.points():
            if x[:2] == y[:2] or not (y[0] <= x[0] and x[1] <= y[1]
                                      and x[2] <= y[2]):
                continue
            key = (slabs[x], slabs[y], degree, fieldspec)
            if key not in ranks:
                ranks[key] = induced_rank(*key)
            assert mod.rank(x, y) == ranks[key], (x, y, degree)


@pytest.mark.parametrize("fam", families() + higher_degree_families())
def test_joint_rank_matches_union_of_slabs(fam):
    """The thin peel's rank of H_n(slab x ∪ slab x') -> H_n(slab y), on
    seeded pairs of grid points, into their join and into the top point."""
    prism = fam.to_prism()
    rng = random.Random(5)
    for fieldspec in (FieldSpec(2), FieldSpec(3)):
        mods = betti_report(prism, 2, fieldspec).modules
        levels = mods[0].level_values

        def slab(pt):
            return slab_sublevel(prism, pt[0], pt[1], levels[pt[2]]).simplices

        points = list(mods[0].points())
        for _ in range(8):
            x, xp = rng.sample(points, 2)
            for y in (_join(x, xp), _top_point(mods[0])):
                union, target = slab(x) | slab(xp), slab(y)
                for degree, mod in mods.items():
                    assert _joint_rank(mod, x, xp, y) == induced_rank(
                        union, target, degree, fieldspec), (x, xp, y)


def reference_components(mod, residual, peel=frozenset()):
    """The components of a residual support along adjacent edges of
    residual rank one, by breadth-first search from each least unvisited
    point, and the adjacent residual pairs of residual rank zero in walk
    order (by x, then ``neighbors_up``).  Edge ranks are read from the
    module's JSON; the residual rank is one less when both ends lie in the
    peel."""
    ranks = {(tuple(x), tuple(y)): r
             for x, y, r in expand(mod.to_json_dict())["edge_ranks"]}
    linked, zero = {x: [] for x in residual}, []
    for x in sorted(residual):
        for y in mod.neighbors_up(x):
            if y in residual:
                if ranks.get((x, y), 0) - (x in peel and y in peel):
                    linked[x].append(y)
                    linked[y].append(x)
                else:
                    zero.append((x, y))
    comps, seen = [], set()
    for start in sorted(residual):
        if start in seen:
            continue
        comp, queue = {start}, deque([start])
        while queue:
            for y in linked[queue.popleft()]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return comps, zero


def reference_thin(prism, mod):
    """thin_decompose from plain queries: the peel from ``Module3.rank``
    into the top point, the join check from ``induced_rank`` on a union of
    slabs, and ``reference_components``.  Returns the summand supports in
    thin_decompose's order, or raises its ThinRefusal."""
    support = mod.support()
    if not support:
        return []
    worst = max(support, key=mod.dim)
    if mod.dim(worst) > 2:
        raise ThinRefusal(f"no thin decomposition: dimension "
                          f"{mod.dim(worst)} at grid point {worst}", worst)
    peel = set()
    if mod.dim(worst) == 2:
        top = _top_point(mod)
        if mod.dim(top) != 1:
            raise ThinRefusal(
                "no thin decomposition along the top layer: dimension at "
                f"the widest window, highest level is {mod.dim(top)}, not 1",
                top)
        peel = {x for x in support if mod.rank(x, top)}

        def slab(pt):
            return slab_sublevel(prism, pt[0], pt[1],
                                 mod.level_values[pt[2]]).simplices

        minimal = [x for x in sorted(peel)
                   if not any(y in peel for y in mod.neighbors_down(x))]
        for x, xp in combinations(minimal, 2):
            y = _join(x, xp)
            if mod.dim(y) == 2 and induced_rank(
                    slab(x) | slab(xp), slab(y), mod.degree,
                    mod.fieldspec) > 1:
                raise ThinRefusal(
                    "no thin decomposition: the classes at grid points "
                    f"{x} and {xp} stay independent at {y}", (x, xp, y))
    residual_dims = {x: mod.dim(x) - (x in peel) for x in support}
    residual = {x for x, d in residual_dims.items() if d >= 1}
    if any(d > 1 for d in residual_dims.values()):
        worst = max(residual, key=lambda p: residual_dims[p])
        raise ThinRefusal(
            f"no thin decomposition after the peel: dimension "
            f"{residual_dims[worst]} left at {worst}", worst)
    comps, zero = reference_components(mod, residual, peel)
    label = {x: n for n, comp in enumerate(comps) for x in comp}
    for x, y in zero:
        if label[x] == label[y]:
            raise ThinRefusal(
                f"support is connected through {x} -> {y} but the edge "
                "carries rank 0; not a sum of thin summands", (x, y))
    return ([frozenset(peel)] if peel else []) + comps


@pytest.mark.parametrize("fam", families() + higher_degree_families())
def test_thin_decompose_matches_reference(fam):
    """The same summands in the same order, or the same refusal message
    and witness, in degrees 0-2 over GF(2) and GF(3)."""
    prism = fam.to_prism()
    for fieldspec in (FieldSpec(2), FieldSpec(3)):
        for degree, mod in betti_report(prism, 2, fieldspec).modules.items():
            try:
                want = reference_thin(prism, mod)
            except ThinRefusal as exc:
                with pytest.raises(ThinRefusal) as err:
                    thin_decompose(mod)
                assert ((str(err.value), err.value.witness)
                        == (str(exc), exc.witness)), (fieldspec, degree)
            else:
                assert [s.support for s in thin_decompose(mod)] == want, \
                    (fieldspec, degree)


@pytest.mark.parametrize("fam", families() + higher_degree_families())
def test_components_of_thin_modules_share_no_rank(fam):
    """With every dim at most one, comparable points of distinct rank-one
    components have rank zero, so thin_decompose need not check it."""
    prism = fam.to_prism()
    for fieldspec in (FieldSpec(2), FieldSpec(3)):
        for mod in betti_report(prism, 2, fieldspec).modules.values():
            support = mod.support()
            if not support or max(mod.dims.values()) > 1:
                continue
            for comp in reference_components(mod, support)[0]:
                for x in comp:
                    for y in support - comp:
                        if _leq(x, y):
                            assert mod.rank(x, y) == 0, (x, y)


@pytest.mark.parametrize("fam", families() + higher_degree_families())
def test_minimal_points_match_neighbors_down(fam):
    """``_minimal_points``, read from ``dims``, lists the support points
    whose ``neighbors_down`` all have dim 0, in the support's order."""
    prism = fam.to_prism()
    for fieldspec in (FieldSpec(2), FieldSpec(3)):
        for degree, mod in betti_report(prism, 2, fieldspec).modules.items():
            support = mod.support()
            want = [x for x in support
                    if all(mod.dim(y) == 0 for y in mod.neighbors_down(x))]
            assert _minimal_points(mod, support) == want, (fieldspec, degree)


@pytest.mark.parametrize("fam", families())
def test_csv_matches_csv_writer(fam):
    """to_csv writes what csv.writer writes: its fields need no quoting."""
    for mod in betti_report(fam.to_prism(), 1).modules.values():
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["a", "b", "c", "dim"])
        for i, j, k in mod.points():
            writer.writerow([format_rational(mod.time_values[i]),
                             format_rational(mod.time_values[j]),
                             format_rational(mod.level_values[k]),
                             mod.dim((i, j, k))])
        assert mod.to_csv() == buf.getvalue()


def test_module_computations_build_no_slab(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("slab_sublevel or induced_rank called")

    for owner in ("simplicial", "module3", "stability"):
        monkeypatch.setattr(f"fampersist.{owner}.slab_sublevel", forbidden)
    monkeypatch.setattr("fampersist.module3.induced_rank", forbidden)
    prism = wrinkled_cylinder_family().to_prism()
    mod = build_module(prism, 0)
    assert max(mod.dims.values()) == 2  # so thin_decompose takes the peel
    sub = finite_subdiagram(mod, sorted(mod.support())[::5])
    assert any(sub.ranks.values())
    assert len(thin_decompose(mod)) == 2
    assert check_indecomposable_sufficient(mod)
    assert check_interleaving_necessary(mod, build_module(prism, 0),
                                        F(1, 4)).overall
    assert all(check.passed for check in run_suite())


class SimplicialReference:
    """The prism's simplices in lower-star order, reduced as they are: the
    face index, grades and slabs that the module reads from its critical
    cells."""

    def __init__(self, prism):
        self.levels = prism.level_values()
        stage = {v: bisect_left(self.levels, x)
                 for v, x in prism.vertex_level.items()}
        order, self.index = homology.lower_star(prism.simplices, stage)
        self.grade = [(-s[0][0], s[-1][0], entry[1])
                      for s, entry in zip(order, self.index)]

    def slab(self, pt):
        a, b, k = pt
        return [g for g, (ta, tb, st) in enumerate(self.grade)
                if a <= -ta and tb <= b and st <= k]

    def barcode(self, w, wp, fieldspec):
        top = len(self.levels) - 1
        window = self.slab((*wp, top))
        sub = None
        if w != wp:
            members = self.slab((*w, top))
            sub = (members, homology.staged_reduce(members, self.index,
                                                   fieldspec),
                   bytes(len(self.index)))
        return homology.staged_reduce(window, self.index, fieldspec, sub=sub)

    def joint_rank(self, x, xp, y, degree, fieldspec):
        members = sorted({*self.slab(x), *self.slab(xp)})
        inner = homology.staged_reduce(members, self.index, fieldspec)
        image = homology.staged_reduce(
            self.slab(y), self.index, fieldspec,
            sub=(members, inner, bytes(len(self.index))))
        return image.rank(degree, y[2], y[2])


def positive_bars(bc):
    """Bars per degree that some rank(n, s, t), s <= t, counts: the
    essential ones and those that die after they are born."""
    out = {d: Counter(bar for bar in bars if bar[1] is None or bar[1] > bar[0])
           for d, bars in bc.bars.items()}
    return {d: bars for d, bars in out.items() if bars}


@pytest.mark.parametrize("fam", families() + higher_degree_families())
def test_morse_engine_matches_simplicial_reference(fam):
    prism = fam.to_prism()
    ref = SimplicialReference(prism)
    rng = random.Random(5)
    for fieldspec in (FieldSpec(2), FieldSpec(3)):
        mods = betti_report(prism, 2, fieldspec).modules
        mod = mods[0]
        windows = mod.windows()
        for w in windows:
            for wp in windows:
                if wp[0] <= w[0] and w[1] <= wp[1]:
                    assert positive_bars(mod.barcode(w, wp)) == \
                        positive_bars(ref.barcode(w, wp, fieldspec)), \
                        (w, wp, fieldspec)
        points = list(mod.points())
        for _ in range(8):
            x, xp = rng.sample(points, 2)
            for y in (_join(x, xp), _top_point(mod)):
                for degree, m in mods.items():
                    assert _joint_rank(m, x, xp, y) == ref.joint_rank(
                        x, xp, y, degree, fieldspec), (x, xp, y, degree)


@pytest.mark.parametrize("fam", families() + higher_degree_families())
def test_bit_columns_match_reference_reduction(fam):
    """Over GF(2), on the critical cells of each window w and of each pair
    (w, w') with w' one step wider in the grid, the engine's pairs equal
    those of ``_reference_columns`` on the same columns, read mod 2 with
    the rows ``staged_reduce`` gives them, and the engine marks zero
    exactly the columns the reference leaves unpaired.  An image reduction
    starts from the zero record of w''s own reduction, as it does in a
    module."""
    fieldspec = FieldSpec(2)
    mod = build_module(fam.to_prism(), 0, fieldspec)
    index, n = mod.index, len(mod.index)
    nt, top = len(mod.time_values), len(mod.level_values) - 1
    for i, j in mod.windows():
        for wp in ((i, j), (i - 1, j), (i, j + 1)):
            if wp[0] < 0 or wp[1] >= nt:
                continue
            window = mod._slab((*wp, top))
            if wp == (i, j):
                row, known = None, bytes(n)
            else:
                row = {g: g + n for g in window}
                row.update((g, g) for g in mod._slab((i, j, top), window))
                known = mod.barcode(wp, wp).zero
            zero = bytearray(known)
            pairs = homology._reduce_columns(window, index, row, zero,
                                             fieldspec)
            columns = [{g if row is None else row[g]: 1
                        for g, c in index[h][0] if c % 2} for h in window]
            want = {window[k]: low
                    for k, low in _reference_columns(columns, 2).items()}
            assert pairs == want, ((i, j), wp)
            unpaired = set(window) - set(want)
            assert zero == bytes(g in unpaired for g in range(n)), \
                ((i, j), wp)


def has_closed_v_path(index, partner):
    """Depth-first search of the face graph with each pair reversed: a
    cell points to its facets, and a paired facet to its coface only."""
    n = len(index)
    succ = [[] for _ in range(n)]
    for h, (boundary, _, _) in enumerate(index):
        for f, _ in boundary:
            if partner[f] == h:
                succ[f].append(h)
            else:
                succ[h].append(f)
    state = [0] * n  # 0 new, 1 on the stack, 2 done
    for root in range(n):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            g, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                state[g] = 2
                stack.pop()
            elif state[nxt] == 1:
                return True
            elif not state[nxt]:
                state[nxt] = 1
                stack.append((nxt, iter(succ[nxt])))
    return False


@pytest.mark.parametrize("fam", families() + higher_degree_families())
def test_matching_pairs_one_grade_without_closed_paths(fam):
    ref = SimplicialReference(fam.to_prism())
    index, grade = ref.index, ref.grade
    order, partner = homology._acyclic_matching(index, grade)
    assert sorted(order) == list(range(len(index)))
    for g, h in enumerate(partner):
        if h is None or index[h][2] < index[g][2]:
            continue
        assert partner[h] == g and grade[g] == grade[h]
        assert [c for f, c in index[h][0] if f == g] in ([1], [-1])
    assert not has_closed_v_path(index, partner)
    critical, morse = homology.morse_complex(index, grade)
    assert critical == [g for g, h in enumerate(partner) if h is None]
    for k, (boundary, stage, dim) in enumerate(morse):
        g = critical[k]
        assert (stage, dim) == index[g][1:]
        for f, _ in boundary:
            assert f < k and all(a <= b for a, b in
                                 zip(grade[critical[f]], grade[g]))


@pytest.mark.parametrize("fam", [hat_family(4), zigzag_family(3)],
                         ids=["hat", "zigzag:3"])
def test_point_families_keep_every_cell_critical(fam):
    prism = fam.to_prism()
    cells, index = module3._lower_star_cells(prism, prism.level_values())
    assert len(index) == len(cells) == len(prism.simplices)


def test_wrinkled_cylinder_reduces_to_few_critical_cells():
    prism = wrinkled_cylinder_family(subdiv=8).to_prism()
    cells, index = module3._lower_star_cells(prism, prism.level_values())
    assert len(prism.simplices) == 208
    assert len(cells) == len(index) <= 26
