"""The integer-indexed reduction engine against a simplex-keyed reference.

``reference_reduce`` is the reduction the engine replaced: faces looked up
by vertex tuple, every column reduced left to right, no clearing.  The
engine (``index_filtration`` then ``staged_reduce``) clears columns,
reduces by dimension and starts an image reduction from the zero columns
of the whole filtration's plain reduction, which must leave every bar, and
the order of the bars, unchanged: plain and image barcodes, tied and
strictly increasing stages, members that are no prefix of the filtration,
GF(2), GF(3), GF(5).  A hand-written cell complex, with coefficient 2 and
a loop of empty boundary, checks the coefficients that only Morse
boundaries carry.
"""

from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from fampersist import homology
from fampersist.homology import (Barcode, FieldSpec, HomologyError,
                                 index_filtration, staged_reduce)

from oracle import downward_closed


def _reference_columns(columns, p):
    pairs = {}
    pivot_of = {}
    for j, col in enumerate(columns):
        while col:
            low = max(col)
            k = pivot_of.get(low)
            if k is None:
                break
            factor = (col[low] * pow(columns[k][low], p - 2, p)) % p
            for r, v in columns[k].items():
                nv = (col.get(r, 0) - factor * v) % p
                if nv:
                    col[r] = nv
                else:
                    col.pop(r, None)
        if col:
            low = max(col)
            pivot_of[low] = j
            pairs[j] = low
    return pairs


def reference_reduce(filtration, fieldspec, sub=None):
    simplices = [tuple(s) for s, _ in filtration]
    stages = [int(st) for _, st in filtration]
    if any(stages[i] > stages[i + 1] for i in range(len(stages) - 1)):
        raise HomologyError("stage labels must be non-decreasing")
    members = None if sub is None else sub[0]
    n_sub = len(simplices) if sub is None else len(members)
    p = fieldspec.characteristic
    row, order, columns = {}, {}, []
    free = [0, n_sub]
    for i, s in enumerate(simplices):
        col = {}
        for k in range(len(s)):
            f = s[:k] + s[k + 1:]
            if f in row:
                col[row[f]] = ((-1) ** k) % p
            elif f:
                raise HomologyError(f"face {f!r} of {s!r} missing")
        if s in row:
            raise HomologyError(f"duplicate simplex {s!r}")
        other = members is not None and s not in members
        row[s], order[free[other]] = free[other], i
        free[other] += 1
        columns.append(col)
    if free[0] != n_sub:
        raise HomologyError("sub must be part of the filtration")
    dims = [len(s) - 1 for s in simplices]

    pairs = _reference_columns(columns, p)
    if sub is None:
        cycles = Counter((dims[i], stages[i]) for i in order.values()
                         if i not in pairs)
    else:
        cycles = Counter((n, b) for n, bars in sub[1].bars.items()
                         for b, _ in bars)
    bars = {}
    for death, r in pairs.items():
        if r < n_sub:
            birth = order[r]
            bars.setdefault(dims[birth], []).append(
                (stages[birth], stages[death]))
            cycles[dims[birth], stages[birth]] -= 1
    for (n, b), count in cycles.items():
        for _ in range(count):
            bars.setdefault(n, []).append((b, None))
    return Barcode(bars)


def reference_zero_columns(filtration, p):
    """Marks the positions whose column the reference leaves zero."""
    position = {tuple(s): i for i, (s, _) in enumerate(filtration)}
    columns = [{position[s[:k] + s[k + 1:]]: (-1) ** k % p
                for k in range(len(s)) if len(s) > 1}
               for s, _ in filtration]
    pairs = _reference_columns(columns, p)
    return bytes(j not in pairs for j in range(len(filtration)))


def member_rows(filtration, members):
    """The positions of the member simplices in the filtration."""
    return sorted(g for g, (s, _) in enumerate(filtration) if s in members)


def engine_reduce(filtration, fieldspec, sub=None):
    """The engine; an image reduction gets the whole filtration's zero
    record from its plain reduction."""
    entries = index_filtration(filtration)
    whole = range(len(entries))
    if sub is not None:
        members, inner = sub
        sub = (member_rows(filtration, members), inner,
               staged_reduce(whole, entries, fieldspec).zero)
    return staged_reduce(whole, entries, fieldspec, sub=sub)


def assert_same_bars(filtration, members, p):
    """Plain barcodes of the whole and of the members, then the image
    barcode of the members, equal to the reference's bar for bar."""
    fieldspec = FieldSpec(p)
    inner = [(s, st) for s, st in filtration if s in members]
    results = []
    for reduce in (reference_reduce, engine_reduce):
        whole = reduce(filtration, fieldspec)
        sub = reduce(inner, fieldspec)
        image = reduce(filtration, fieldspec, sub=(members, sub))
        results.append([list(bc.bars.items()) for bc in (whole, sub, image)])
    assert results[0] == results[1]


def filtration_of(complex_, weights, increasing):
    """Simplices ordered by the largest weight over their faces, then by
    dimension: faces come first.  Stages are those weights (tied) or the
    positions (strictly increasing)."""
    weight = dict(zip(sorted(complex_), weights))
    level = {s: max(weight[f] for f in downward_closed([s]))
             for s in complex_}
    ordered = sorted(complex_, key=lambda s: (level[s], len(s), s))
    return [(s, i if increasing else level[s])
            for i, s in enumerate(ordered)]


@st.composite
def cases(draw):
    n = draw(st.integers(1, 6))
    simplex = st.lists(st.integers(0, n - 1), min_size=1,
                       max_size=min(n, 4), unique=True)
    complex_ = downward_closed(draw(st.lists(simplex, min_size=1,
                                             max_size=5)))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(complex_),
                            max_size=len(complex_)))
    filtration = filtration_of(complex_, weights, draw(st.booleans()))
    members = downward_closed(draw(st.lists(st.sampled_from(
        sorted(complex_)), max_size=len(complex_))))
    return filtration, members


HOLLOW_TETRAHEDRON = downward_closed(
    [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


@given(cases(), st.sampled_from((2, 3, 5)))
@example((filtration_of(HOLLOW_TETRAHEDRON, [0] * 14, False),
          downward_closed([(0, 1, 2), (0, 3)])), 3)
@example((filtration_of(HOLLOW_TETRAHEDRON, range(14), True),
          downward_closed([(1, 2, 3)])), 5)
def test_engine_matches_reference(case, p):
    assert_same_bars(*case, p)


@given(cases(), st.sampled_from((2, 3, 5)))
@example((filtration_of(HOLLOW_TETRAHEDRON, [0] * 14, False),
          downward_closed([(0, 1, 2), (0, 3)])), 3)
@example((filtration_of(HOLLOW_TETRAHEDRON, range(14), True),
          downward_closed([(1, 2, 3)])), 5)
def test_image_leaves_unpaired_the_outer_zero_columns(case, p):
    """The plain reduction marks exactly the reference's zero columns, and
    an image reduction, from no record or from that one, leaves exactly
    those columns unpaired: reordering the rows moves no zero column."""
    filtration, members = case
    fieldspec = FieldSpec(p)
    inner = engine_reduce([(s, st) for s, st in filtration if s in members],
                          fieldspec)
    entries = index_filtration(filtration)
    rows, nothing = member_rows(filtration, members), bytes(len(entries))
    whole = range(len(entries))
    outer = staged_reduce(whole, entries, fieldspec)
    assert outer.zero == reference_zero_columns(filtration, p)
    left = []
    reduce_columns = homology._reduce_columns

    def recording(filtration, index, row, zero, fieldspec):
        pairs = reduce_columns(filtration, index, row, zero, fieldspec)
        left.append(bytes(zero))
        return pairs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_reduce_columns", recording)
        for known in (nothing, outer.zero):
            staged_reduce(whole, entries, fieldspec, sub=(rows, inner, known))
    assert left == [outer.zero, outer.zero]


def test_zero_record_is_no_part_of_equality():
    filtration = filtration_of(HOLLOW_TETRAHEDRON, [0] * 14, False)
    entries = index_filtration(filtration)
    bc = staged_reduce(range(len(entries)), entries, FieldSpec(2))
    assert bc.zero and bc == Barcode(bc.bars)
    assert "zero" not in repr(bc)


def test_hollow_tetrahedron_has_one_void():
    filtration = filtration_of(HOLLOW_TETRAHEDRON, [0] * 14, False)
    bc = engine_reduce(filtration, FieldSpec(2))
    assert [bc.rank_curve(d, [0], [0])[0] for d in range(3)] == [1, 0, 1]


def test_no_clearing_on_a_non_member_pivot():
    # The triangle's column keeps its low on (0, 2), which is no member;
    # (0, 2) still kills vertex 2, so clearing its column would move that
    # death to (1, 2).
    filtration = [((0,), 0), ((1,), 1), ((2,), 2), ((0, 1), 3),
                  ((0, 2), 4), ((1, 2), 5), ((0, 1, 2), 6)]
    members = downward_closed([(0, 1), (1, 2)])
    for p in (2, 3, 5):
        assert_same_bars(filtration, members, p)
        fieldspec = FieldSpec(p)
        inner = engine_reduce(
            [(s, st) for s, st in filtration if s in members], fieldspec)
        image = engine_reduce(filtration, fieldspec, sub=(members, inner))
        assert image.bars == {0: [(1, 3), (2, 4), (0, None)]}


# A cell complex no simplicial index gives: vertices v, w; a loop e with
# empty boundary; a disc f glued twice along e (the projective plane); an
# edge a from v to w with coefficients -2 and 2.
PROJECTIVE_PLANE = [((), 0, 0), ((), 0, 0), ((), 0, 1),
                    (((2, 2),), 1, 2), (((0, -2), (1, 2)), 2, 1)]


@pytest.mark.parametrize("p, bars, zero", [
    (2, {0: [(0, None), (0, None)], 1: [(0, None), (2, None)],
         2: [(1, None)]}, b"\1\1\1\1\1"),
    (3, {1: [(0, 1)], 0: [(0, 2), (0, None)]}, b"\1\1\1\0\0"),
    (5, {1: [(0, 1)], 0: [(0, 2), (0, None)]}, b"\1\1\1\0\0"),
])
def test_coefficients_are_read_mod_p(p, bars, zero):
    """In GF(2) every coefficient 2 vanishes, so f is a 2-cycle and a a
    1-cycle; in GF(3) and GF(5), f kills e and a joins w to v."""
    fieldspec = FieldSpec(p)
    whole = range(len(PROJECTIVE_PLANE))
    bc = staged_reduce(whole, PROJECTIVE_PLANE, fieldspec)
    assert bc.bars == bars and bc.zero == zero
    # The image of the 1-skeleton without a: H_1(sub at 0) -> H_1(whole
    # at 1) is onto in GF(2) only, and H_0 keeps both classes to stage 2
    # in GF(2) only.
    members = [0, 1, 2]
    inner = staged_reduce(members, PROJECTIVE_PLANE, fieldspec)
    image = staged_reduce(whole, PROJECTIVE_PLANE, fieldspec,
                          sub=(members, inner, bc.zero))
    assert image.rank(1, 0, 1) == (p == 2)
    assert image.rank(0, 0, 2) == 1 + (p == 2)
