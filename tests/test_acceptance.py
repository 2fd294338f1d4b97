"""End-to-end acceptance checks.

Each test prints one pass/fail line with its elapsed time and asserts a
runtime budget.  Oracles are independent: union-find component counts,
brute-force Gaussian elimination over GF(p), and direct scans of the
piecewise-linear data.
"""

import random
import time
from fractions import Fraction as F

from fampersist.cerf import CobordismClass, classify_cobordism, trace_cerf
from fampersist.family import (KernelSpec, cylinder_family, hat_family,
                               kde_family, wrinkled_cylinder_family,
                               zigzag_family)
from fampersist.homology import FieldSpec, betti, induced_rank
from fampersist.module3 import (betti_report, build_module,
                                check_indecomposable_sufficient,
                                thin_decompose)
from fampersist.simplicial import close_downward, slab_sublevel
from fampersist.stability import check_interleaving_necessary, sup_distance

from oracle import (all_downward_closed, betti_oracle, component_count,
                    induced_rank_oracle)


def run_criterion(capsys, name, budget, body):
    start = time.monotonic()
    failure = None
    try:
        body()
    except AssertionError as exc:
        failure = exc
    elapsed = time.monotonic() - start
    in_budget = budget is None or elapsed < budget
    status = "pass" if failure is None and in_budget else "FAIL"
    budget_text = "" if budget is None else f", budget {budget:g}s"
    with capsys.disabled():
        print(f"[{status}] {name} ({elapsed:.1f}s{budget_text})")
    if failure is not None:
        raise failure
    assert in_budget, f"{name}: {elapsed:.1f}s over budget {budget:g}s"


def test_criterion_1_hat_grid_formula(capsys):
    def body():
        prism = hat_family(8).to_prism()
        mod = build_module(prism, 0)
        for i, j, k in mod.points():
            a, b = mod.time_values[i], mod.time_values[j]
            c = mod.level_values[k]
            if c >= 1:
                want = 1
            elif 2 * max(a, 1 - b) <= c:
                want = 2
            elif 2 * min(a, 1 - b) <= c:
                want = 1
            else:
                want = 0
            assert mod.dim((i, j, k)) == want, (a, b, c)
        for degree in (1, 2):
            assert not build_module(prism, degree).dims

    run_criterion(capsys, "hat grid two-peak formula", 5, body)


def test_criterion_2_zigzag_subdiagram(capsys):
    def body():
        for n in range(1, 5):
            prism = zigzag_family(n).to_prism()
            mod = build_module(prism, 0)
            half = mod.level_values.index(F(1, 2))
            for i in range(n + 1):
                for j in range(i, n + 1):
                    pt = (2 * i, 2 * j, half)
                    assert mod.dim(pt) == j - i + 1
                    slab = slab_sublevel(prism, 2 * i, 2 * j, F(1, 2))
                    assert mod.dim(pt) == component_count(slab.simplices)
            top = (0, 2 * n, mod.level_values.index(F(1)))
            assert mod.dim(top) == 1
            minimal = [x for x in mod.support()
                       if not any(y in mod.support()
                                  for y in mod.neighbors_down(x))]
            assert minimal
            for x in minimal:
                assert mod.rank(x, top) == 1
            assert check_indecomposable_sufficient(mod)

    run_criterion(capsys, "zigzag subdiagram ranks", 10, body)


def test_criterion_3_cylinder_thresholds(capsys):
    def body():
        prism = cylinder_family(8).to_prism()
        for degree, threshold in ((0, F(-1)), (1, F(1))):
            mod = build_module(prism, degree)
            for i, j, k in mod.points():
                want = 1 if mod.level_values[k] >= threshold else 0
                assert mod.dim((i, j, k)) == want
            assert len(thin_decompose(mod)) == 1

    run_criterion(capsys, "cylinder component/loop thresholds", 10, body)


def _wrinkled_h1_pocket(a, b, c, m, n):
    if not m <= c < n:
        return False
    w = F(1, 4) * (n - c) / (n - m)
    return a <= F(1, 2) - w and b >= F(1, 2) + w


def _wrinkled_h0_pocket(a, b, c, ell, m, n):
    if ell <= c < m:
        w = F(1, 4) * (c - ell) / (m - ell)
        return a <= F(1, 2) + w and b >= F(1, 2) - w
    if m <= c < n:
        w = F(1, 4) * (n - c) / (n - m)
        return F(1, 2) - w < a and b < F(1, 2) + w
    return False


def test_criterion_4_wrinkled_cylinder_summands(capsys):
    def body():
        ell, m, n = F(1), F(2), F(3)
        prism = wrinkled_cylinder_family().to_prism()
        for degree, member in (
                (0, lambda a, b, c: _wrinkled_h0_pocket(a, b, c, ell, m, n)),
                (1, lambda a, b, c: _wrinkled_h1_pocket(a, b, c, m, n))):
            mod = build_module(prism, degree)
            summands = thin_decompose(mod)
            assert len(summands) == 2
            top = (0, len(mod.time_values) - 1, len(mod.level_values) - 1)
            bounded = [s for s in summands if top not in s.support]
            assert len(bounded) == 1
            expected = {
                (i, j, k) for i, j, k in mod.points()
                if member(mod.time_values[i], mod.time_values[j],
                          mod.level_values[k])}
            assert bounded[0].support == expected

    run_criterion(capsys, "wrinkled cylinder pocket supports", 30, body)


def test_criterion_5_perturbation_stability(capsys):
    def body():
        bases = [(hat_family(4), (0,)), (zigzag_family(3), (0,)),
                 (cylinder_family(8), (0, 1))]
        rng = random.Random(20260826)
        for trial in range(20):
            fam, degrees = bases[trial % len(bases)]
            offsets = [
                [F(rng.randrange(-4, 5), 16)
                 for _ in range(fam.base.n_vertices)]
                for _ in fam.time_breakpoints]
            other = fam.shifted(offsets)
            eps = sup_distance(fam, other)
            for degree in degrees:
                mf = build_module(fam.to_prism(), degree)
                mg = build_module(other.to_prism(), degree)
                assert check_interleaving_necessary(mf, mg, eps).overall
        for fam, degrees in bases:
            other = fam.shifted(F(1, 4))
            assert sup_distance(fam, other) == F(1, 4)
            mf = build_module(fam.to_prism(), 0)
            mg = build_module(other.to_prism(), 0)
            assert check_interleaving_necessary(mf, mg, F(1, 4)).overall
            assert not check_interleaving_necessary(mf, mg, F(1, 8)).overall

    run_criterion(capsys, "perturbation rank stability", 60, body)


def test_criterion_6_hat_cobordism_regions(capsys):
    def body():
        diagram = trace_cerf(hat_family(8).to_prism())

        def curve(t):
            return 2 * min(t, 1 - t)

        eighths = [F(i, 8) for i in range(9)]
        half = F(1, 2)
        checked = 0
        for a in eighths:
            for b in eighths:
                if a >= b:
                    continue
                for c in eighths:
                    if a < half and curve(a) < c < curve(b):
                        want = CobordismClass.LEFT_PRODUCT
                    elif b > half and curve(b) < c < curve(a):
                        want = CobordismClass.RIGHT_PRODUCT
                    elif (a < half < b
                          and max(curve(a), curve(b)) < c < 1):
                        want = CobordismClass.MIXED
                    else:
                        continue
                    got = classify_cobordism(diagram, a, b, c)
                    assert got == want, (a, b, c, got)
                    checked += 1
        assert checked > 20

    run_criterion(capsys, "hat cobordism regions", 5, body)


def _random_complex(rng, max_simplices=12, n_vertices=6):
    tops = []
    for _ in range(rng.randrange(1, max_simplices + 1)):
        size = rng.randrange(1, 4)
        tops.append(tuple(sorted(rng.sample(range(n_vertices), size))))
    return close_downward(tops)


def test_criterion_7_oracle_equivalence(capsys):
    def body():
        rng = random.Random(7)
        corpus = list(all_downward_closed(5))
        assert len(corpus) > 7000
        corpus += [_random_complex(rng) for _ in range(200)]
        fields = [(2, FieldSpec(2)), (3, FieldSpec(3))]
        for simplices in corpus:
            max_dim = max(len(s) for s in simplices) - 1
            sub = frozenset()
            if simplices:
                picked = rng.sample(sorted(simplices),
                                    (len(simplices) + 1) // 2)
                sub = close_downward(picked)
            for p, fieldspec in fields:
                for j in range(max_dim + 1):
                    assert betti(simplices, j, fieldspec) == \
                        betti_oracle(simplices, j, p)
                    assert induced_rank(sub, simplices, j, fieldspec) == \
                        induced_rank_oracle(sub, simplices, j, p)

    run_criterion(capsys, "homology oracle equivalence", 120, body)


def test_criterion_8_euler_consistency(capsys):
    def body():
        families = {"hat": hat_family(4), "zigzag:3": zigzag_family(3),
                    "cylinder:8": cylinder_family(8),
                    "wrinkled-cylinder": wrinkled_cylinder_family()}
        for name, fam in families.items():
            prism = fam.to_prism()
            report = betti_report(prism, 2)
            mod0 = report.modules[0]
            for i, j, k in mod0.points():
                c = mod0.level_values[k]
                chi = sum((-1) ** d * report.modules[d].dim((i, j, k))
                          for d in (0, 1, 2))
                slab = slab_sublevel(prism, i, j, c)
                count = sum((-1) ** (len(s) - 1) for s in slab.simplices)
                assert chi == count, (name, i, j, c)

    run_criterion(capsys, "Euler characteristic consistency", None, body)


def test_criterion_9_kde_merge(capsys):
    def body():
        fam = kde_family([-1.0, 1.0], KernelSpec("gaussian"),
                         (F(1, 5), F(2)), t_res=10, x_res=33)
        prism = fam.to_prism()

        def module_components(i):
            row = fam.vertex_values[i]
            return max(betti(slab_sublevel(prism, i, i, c).simplices, 0)
                       for c in sorted(set(row)))

        def row_minima(i):
            row = fam.vertex_values[i]
            count = 0
            for v in range(len(row)):
                left = row[v - 1] if v > 0 else None
                right = row[v + 1] if v + 1 < len(row) else None
                if ((left is None or row[v] < left)
                        and (right is None or row[v] < right)):
                    count += 1
            return count

        counts = [module_components(i)
                  for i in range(len(fam.time_breakpoints))]
        oracle_counts = [row_minima(i)
                         for i in range(len(fam.time_breakpoints))]
        assert counts == oracle_counts
        assert counts[0] == 2 and counts[-1] == 1
        merge = next(i for i, c in enumerate(counts) if c == 1)
        # merge bandwidth is bracketed by adjacent sampled bandwidths
        assert oracle_counts[merge - 1] == 2 and oracle_counts[merge] == 1
        assert sorted(counts, reverse=True) == counts

    run_criterion(capsys, "density estimate mode merge", 30, body)
