import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from fampersist.homology import (FieldSpec, HomologyError, betti,
                                 index_filtration, induced_rank,
                                 staged_reduce)
from fampersist.simplicial import SimplicialComplex, close_downward

from oracle import (all_downward_closed, betti_oracle, component_count,
                    induced_rank_oracle)


def random_complex(rng, max_simplices=12, n_vertices=6):
    simplices = set()
    for _ in range(rng.randint(1, 8)):
        size = rng.randint(1, min(4, n_vertices))
        cand = tuple(sorted(rng.sample(range(n_vertices), size)))
        grown = set(close_downward([cand])) | simplices
        if len(grown) <= max_simplices:
            simplices = grown
    if not simplices:
        simplices = {(0,)}
    return frozenset(simplices)


class TestFieldSpec:
    def test_default_is_two(self):
        assert FieldSpec().characteristic == 2

    def test_composite_rejected(self):
        with pytest.raises(HomologyError):
            FieldSpec(4)

    def test_huge_prime_rejected(self):
        with pytest.raises(HomologyError):
            FieldSpec(65537)

    def test_inverse(self):
        fs = FieldSpec(7)
        for a in range(1, 7):
            assert (a * fs.inv(a)) % 7 == 1


class TestBetti:
    def test_empty(self):
        assert betti(frozenset(), 0) == 0

    def test_circle(self):
        cx = SimplicialComplex.circle(3)
        assert betti(cx.simplices, 0) == 1
        assert betti(cx.simplices, 1) == 1

    def test_two_points(self):
        assert betti(frozenset({(0,), (1,)}), 0) == 2

    def test_degree_beyond_dimension(self):
        assert betti(SimplicialComplex.circle(4).simplices, 5) == 0

    def test_torus_like_sphere_boundary(self):
        # Boundary of the tetrahedron: beta = (1, 0, 1).
        s2 = close_downward([t for t in
                             [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]])
        for p in (2, 3, 5):
            fs = FieldSpec(p)
            assert betti(s2, 0, fs) == 1
            assert betti(s2, 1, fs) == 0
            assert betti(s2, 2, fs) == 1

    def test_non_closed_input_rejected(self):
        triangle = close_downward([(0, 1, 2)])
        for simplices, j in ((frozenset({(0, 1)}), 0),
                             (triangle - {(1, 2)}, 0),  # one edge missing
                             (triangle - {(0,)}, 2)):
            with pytest.raises(HomologyError):
                betti(simplices, j)

    def test_oracle_spot_agreement(self):
        rng = random.Random(11)
        for _ in range(60):
            cx = random_complex(rng)
            for p in (2, 3):
                for j in range(3):
                    assert betti(cx, j, FieldSpec(p)) == betti_oracle(cx, j, p)

    def test_betti_zero_is_component_count(self):
        rng = random.Random(5)
        for _ in range(40):
            cx = random_complex(rng)
            assert betti(cx, 0) == component_count(cx)

    def test_euler_consistency(self):
        rng = random.Random(23)
        for _ in range(40):
            cx = random_complex(rng)
            chi = sum((-1) ** j * betti(cx, j) for j in range(4))
            assert chi == sum((-1) ** (len(s) - 1) for s in cx)


class TestInducedRank:
    def test_identity(self):
        cx = SimplicialComplex.circle(4).simplices
        assert induced_rank(cx, cx, 1) == 1

    def test_merge_two_points(self):
        sup = close_downward([(0, 1)])
        sub = frozenset({(0,), (1,)})
        assert induced_rank(sub, sup, 0) == 1

    def test_injection_component(self):
        sup = frozenset({(0,), (1,)})
        sub = frozenset({(0,)})
        assert induced_rank(sub, sup, 0) == 1

    def test_killed_loop(self):
        sub = close_downward([(0, 1), (1, 2), (0, 2)])
        sup = close_downward([(0, 1, 2)])
        assert induced_rank(sub, sup, 1) == 0

    def test_containment_required(self):
        with pytest.raises(HomologyError):
            induced_rank(frozenset({(1,)}), frozenset({(0,)}), 0)

    def test_non_closed_input_rejected(self):
        edge = close_downward([(0, 1)])
        triangle = close_downward([(0, 1, 2)])
        cases = (
            # A face of a sub simplex lies only in sup.
            (edge - {(1,)}, edge),
            (triangle - {(1, 2)}, triangle),
            # sup itself is not downward closed.
            (frozenset({(0,)}), frozenset({(0,), (0, 1)})),
            (edge, triangle - {(1, 2)}),
        )
        for sub, sup in cases:
            assert sub <= sup
            for j in (0, 1):
                with pytest.raises(HomologyError):
                    induced_rank(sub, sup, j)

    def test_functoriality(self):
        rng = random.Random(37)
        for _ in range(30):
            big = random_complex(rng)
            mid = close_downward(rng.sample(sorted(big), max(1, len(big) // 2)))
            small = close_downward(
                rng.sample(sorted(mid), max(1, len(mid) // 2)))
            for j in range(2):
                r_ac = induced_rank(small, big, j)
                assert r_ac <= induced_rank(small, mid, j)
                assert r_ac <= induced_rank(mid, big, j)

    def test_oracle_spot_agreement(self):
        rng = random.Random(41)
        for _ in range(40):
            sup = random_complex(rng)
            sub = close_downward(rng.sample(sorted(sup), max(1, len(sup) // 2)))
            for p in (2, 3):
                for j in range(3):
                    assert induced_rank(sub, sup, j, FieldSpec(p)) == \
                        induced_rank_oracle(sub, sup, j, p)


def reduce(filtration, fieldspec=FieldSpec(), sub=None):
    """staged_reduce of a filtration of simplices, through index_filtration;
    ``sub``, (set of member simplices, their barcode), asks for the image
    barcode, from a zero record that marks nothing."""
    entries = index_filtration(filtration)
    if sub is not None:
        members, inner = sub
        rows = sorted(g for g, (s, _) in enumerate(filtration)
                      if s in members)
        sub = (rows, inner, bytes(len(entries)))
    return staged_reduce(range(len(entries)), entries, fieldspec, sub=sub)


def assert_rank_curves(bc):
    """Every curve agrees with rank entry by entry: from each of the four
    stages 0..3 to the stage a fixed shift later, including curves cut off
    below the last death, and between seeded non-decreasing stage lists
    over -1..4 with repeated entries, where no bar counts at -1."""
    rng = random.Random(29)
    curves = [(range(n), range(shift, shift + n))
              for shift in range(4) for n in range(5 - shift)]
    for _ in range(20):
        n = rng.randint(1, 8)
        a, b = (sorted(rng.choices(range(-1, 5), k=n)) for _ in "ab")
        curves.append(([min(x, y) for x, y in zip(a, b)],
                       [max(x, y) for x, y in zip(a, b)]))
    for j in range(3):
        for src, dst in curves:
            assert bc.rank_curve(j, src, dst) == \
                [bc.rank(j, s, t) for s, t in zip(src, dst)]


class TestStagedReduce:
    def test_single_vertex(self):
        bc = reduce([((0,), 0)])
        assert bc.bars[0] == [(0, None)]

    def test_circle_edge_last(self):
        filtration = [((0,), 0), ((1,), 0), ((2,), 0),
                      ((0, 1), 0), ((1, 2), 0), ((0, 2), 1)]
        bc = reduce(filtration)
        assert bc.bars[1] == [(1, None)]

    def test_prefix_betti_matches(self):
        rng = random.Random(19)
        for _ in range(25):
            cx = random_complex(rng)
            ordered = sorted(cx, key=lambda s: (len(s), s))
            stages = sorted(rng.randint(0, 3) for _ in ordered)
            filtration = list(zip(ordered, stages))
            bc = reduce(filtration)
            assert_rank_curves(bc)
            earlier = {}
            for stage in range(4):
                prefix = frozenset(s for s, st in filtration if st <= stage)
                closed = close_downward(prefix) if prefix else frozenset()
                if closed != prefix:
                    continue  # stage cut not a subcomplex; skip this stage
                for j in range(3):
                    assert bc.rank_curve(j, range(4), range(4))[stage] == \
                        betti(prefix, j)
                    for s, small in earlier.items():
                        assert bc.rank(j, s, stage) == \
                            induced_rank(small, prefix, j)
                earlier[stage] = prefix

    def test_image_barcode_matches_induced_rank(self):
        rng = random.Random(23)
        for _ in range(40):
            cx = random_complex(rng)
            members = close_downward(
                rng.sample(sorted(cx), max(1, len(cx) // 2)))
            ordered = sorted(cx, key=lambda s: (len(s), s))
            stages = sorted(rng.randint(0, 3) for _ in ordered)
            filtration = list(zip(ordered, stages))
            fieldspec = FieldSpec(rng.choice((2, 3)))
            inner = reduce(
                [(s, st) for s, st in filtration if s in members], fieldspec)
            bc = reduce(filtration, fieldspec, sub=(members, inner))
            assert_rank_curves(bc)
            for s in range(4):
                small = frozenset(x for x, st in filtration
                                  if st <= s and x in members)
                for t in range(s, 4):
                    big = frozenset(x for x, st in filtration if st <= t)
                    for j in range(3):
                        assert bc.rank(j, s, t) == \
                            induced_rank(small, big, j, fieldspec)

    def test_face_order_enforced(self):
        with pytest.raises(HomologyError):
            reduce([((0, 1), 0), ((0,), 0), ((1,), 0)])

    def test_stage_order_enforced(self):
        with pytest.raises(HomologyError):
            reduce([((0,), 1), ((1,), 0)])


def test_exhaustive_three_vertices_all_fields():
    for cx in all_downward_closed(3):
        for p in (2, 3, 5):
            for j in range(3):
                assert betti(cx, j, FieldSpec(p)) == betti_oracle(cx, j, p)


def test_import_does_not_load_numpy():
    # The package is pure Python; importing numpy would add setup time and
    # memory to every run.
    code = "import sys, fampersist; print('numpy' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
