"""Exact homology of cell filtrations over small prime fields.

One sparse persistence column reduction over GF(p) serves every query:
``staged_reduce`` turns a staged filtration into a barcode, the rank of
an inclusion-induced map counts the essential bars born in the
subcomplex, and a Betti number is the rank of the identity map.  Two
queries count bars: ``Barcode.rank`` those alive from one stage to a later
one (in an image barcode, from a subfiltration's stage to the whole's),
and ``Barcode.rank_curve`` those alive from each stage of one list to
the stage at the same entry of another, in one pass.  Coefficients stay
integers mod p throughout, so results are exact.

The reduction reads integers only.  A face index lists cells in
filtration order, each as its boundary, a tuple of (position in the
index, integer coefficient) pairs, its stage and its dimension; a
reduction takes the positions of one filtration's cells in that index,
and its rows are those positions.  ``index_filtration`` builds the index
of a simplicial filtration from vertex tuples, with coefficients +-1, and
rejects a face that is missing or listed after its coface, which is how
``betti`` and ``induced_rank`` check that their input is downward closed,
and ``lower_star`` builds the index of a lower-star filtration, each
simplex at its vertices' largest stage.  ``morse_complex`` turns a face
index and a grade per cell into the index of its critical cells under an
acyclic matching that pairs cells of one grade only, with integer Morse
boundaries: every filtration whose cells are a downset of grades keeps
its barcode, and every image barcode of two such filtrations its bars'
ranks (Mischaikow and Nanda 2013).  Columns are reduced from the top
dimension down, and the column of a cell that already is the pivot of a
higher column is cleared, not reduced, when that pivot row belongs to the
subfiltration (any row, without one): it would reduce to zero.  A plain
barcode records which of its columns ended zero; an image reduction of a
subfiltration clears those columns from the start, since whether a column
reduces to zero does not depend on the order of the rows.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence


class HomologyError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field GF(p)."""

    characteristic: int = 2

    def __post_init__(self):
        p = self.characteristic
        if not (_is_prime(p) and p < 2**16):
            raise HomologyError(f"characteristic must be a prime < 2^16, got {p}")

    def inv(self, a: int) -> int:
        return pow(a % self.characteristic, self.characteristic - 2, self.characteristic)


@dataclass
class Barcode:
    """Bars of a staged filtration: (birth stage, death stage or None) per
    degree, counted by ``rank`` and ``rank_curve``."""

    bars: dict = field(default_factory=dict)  # degree -> list of (birth, death|None)
    # Never serialized, set on plain barcodes only: zero[g] is 1 when the
    # column of the cell at position g of the face index ended zero (an
    # empty boundary, a cleared column or one that reduced to zero).
    zero: bytes = field(default=b"", compare=False, repr=False)

    def add(self, degree: int, birth: int, death):
        self.bars.setdefault(degree, []).append((birth, death))

    def rank(self, degree: int, s: int, t: int) -> int:
        """Rank of the map from stage s into stage t >= s: the bars born
        by stage s that are still alive at stage t."""
        return sum(1 for b, d in self.bars.get(degree, ())
                   if b <= s and (d is None or d > t))

    def rank_curve(self, degree: int, src: Sequence, dst: Sequence) -> list:
        """[rank(degree, s, t) for s, t in zip(src, dst)] from one pass, for
        two stage lists of one length that do not decrease: a bar (b, d)
        counts from entry bisect_left(src, b) up to entry bisect_left(dst,
        d), or to the end when d is None.  A stage below every birth, such
        as -1, counts no bar."""
        change = [0] * (len(src) + 1)
        for b, d in self.bars.get(degree, ()):
            start = bisect_left(src, b)
            end = len(dst) if d is None else bisect_left(dst, d)
            if start < end:
                change[start] += 1
                change[end] -= 1
        return list(accumulate(change[:-1]))


def _reduce_columns(filtration, index, row, zero: bytearray,
                    fieldspec: FieldSpec) -> dict:
    """Persistence column reduction; returns {death column -> low row}.

    ``filtration`` holds positions in ``index``, whose entry g is the
    (boundary, stage, dim) of a cell, the boundary as (face position,
    integer coefficient) pairs read mod p, and ``row`` maps a face
    position to its row (None: the position itself).  Rows below
    ``len(index)`` are member rows and equal their positions.  Columns are
    reduced by dimension from the top down, each dimension in filtration
    order, with the same pairs as one left-to-right pass.  A column marked
    in ``zero`` is skipped, and every column that ends zero gets marked,
    an empty boundary at once.  Once a column owns a pivot on a member
    row, the reduced column is a cycle of members that all come before the
    pivot's cell and include it, so that cell's boundary is a combination
    of earlier columns and reduces to zero: its column is cleared, never
    reduced (Chen and Kerber 2011).  A pivot on a row past the members
    clears nothing, since such a cycle may hold later cells.
    """
    p = fieldspec.characteristic
    n = len(index)
    by_dim = {}
    for j in filtration:
        boundary, _, d = index[j]
        if boundary:
            by_dim.setdefault(d, []).append(j)
        else:
            zero[j] = 1
    pairs = {}
    pivots = {}  # low row -> (reduced column owning it, 1 / its coeff)
    for d in sorted(by_dim, reverse=True):
        for j in by_dim[d]:
            if zero[j]:
                continue
            if row is None:
                col = {g: c % p for g, c in index[j][0] if c % p}
            else:
                col = {row[g]: c % p for g, c in index[j][0] if c % p}
            while col:
                low = max(col)
                pivot = pivots.get(low)
                if pivot is None:
                    pivots[low] = (col, fieldspec.inv(col[low]))
                    pairs[j] = low
                    if low < n:
                        zero[low] = 1
                    break
                other, inv = pivot
                factor = col[low] * inv % p
                for r, v in other.items():
                    nv = (col.get(r, 0) - factor * v) % p
                    if nv:
                        col[r] = nv
                    else:
                        del col[r]
            else:
                zero[j] = 1
    return pairs


def staged_reduce(filtration: Sequence, index: Sequence,
                  fieldspec: FieldSpec = FieldSpec(), sub=None) -> Barcode:
    """Barcode of a staged filtration of integer-indexed cells.

    ``index`` is a face index: entry g is the (boundary, stage, dim) of a
    cell, ``boundary`` a tuple of (position in ``index``, integer
    coefficient) pairs, empty for a cycle such as a vertex.  The cells may
    be simplices, from ``index_filtration`` or ``lower_star``, or the
    critical cells of ``morse_complex``.  ``filtration`` lists the
    increasing positions of this filtration's cells in ``index``, closed
    under faces.  Faces come before cofaces and stages are non-decreasing;
    this is not checked here, and ``index_filtration`` builds such an
    index from simplices, checking both.  Stage-wise Betti counts of the
    result match ``betti`` on every prefix subcomplex.  Zero-length bars
    are kept, so the bars born by stage s count the cycles at stage s.
    Without ``sub``, the result's ``zero`` marks the positions whose
    columns ended zero.

    ``sub = (members, barcode, zero)`` names a subfiltration by the
    positions of its cells, closed under faces, and gives its own
    barcode and a record of columns known to end zero in this filtration,
    such as the ``zero`` of this filtration's plain barcode.  The result
    is then the image barcode, whose ``rank(n, s, t)`` is the rank of
    H_n(sub at s) -> H_n(whole at t) (Cohen-Steiner, Edelsbrunner, Harer
    and Morozov 2009).  With the rows of ``members`` first, a column whose
    pivot is one of them bounds a cycle of ``sub`` at its stage; the other
    cycles of ``barcode`` live on.  The recorded columns are cleared from
    the start: a column reduces to zero exactly when its boundary lies in
    the span of the earlier columns, whatever the order of the rows.  A
    record of zeros clears nothing.
    """
    n = len(index)
    if sub is None:
        row, zero = None, bytearray(n)
    else:
        members, inner, known = sub
        # Rows: the members at their positions, then the other cells.
        row = {g: g + n for g in filtration}
        row.update(zip(members, members))
        zero = bytearray(known)

    pairs = _reduce_columns(filtration, index, row, zero, fieldspec)
    if sub is None:
        cycles = Counter((index[g][2], index[g][1])
                         for g in filtration if g not in pairs)
    else:
        cycles = Counter((d, b) for d, bars in inner.bars.items()
                         for b, _ in bars)
    bc = Barcode(zero=bytes(zero) if sub is None else b"")
    for death in sorted(pairs):
        low = pairs[death]
        if low < n:
            _, birth, d = index[low]
            bc.add(d, birth, index[death][1])
            cycles[d, birth] -= 1
    for (d, b), count in cycles.items():
        for _ in range(count):
            bc.add(d, b, None)
    return bc


def index_filtration(filtration: Sequence) -> list:
    """``staged_reduce`` input for a filtration of simplices.

    ``filtration`` is an ordered list of (simplex, stage) with simplices as
    vertex tuples.  Returns the face index, a (boundary, stage, dim) list
    whose whole is the filtration ``range(len(index))``, each boundary
    listing the faces in vertex-removal order with coefficient (-1)^k for
    face k.  Raises HomologyError for a face that is missing or listed
    after its coface, a duplicate or empty simplex, or falling stages.
    """
    position, entries = {}, []
    for s, st in filtration:
        s, st = tuple(s), int(st)
        if not s:
            raise HomologyError("the empty simplex is not a simplex")
        if entries and st < entries[-1][1]:
            raise HomologyError("stage labels must be non-decreasing")
        boundary = ()
        if len(s) > 1:
            try:
                boundary = tuple((position[s[:k] + s[k + 1:]], (-1) ** k)
                                 for k in range(len(s)))
            except KeyError as e:
                raise HomologyError(
                    f"face {e.args[0]!r} of {s!r} missing or out of order"
                ) from None
        if s in position:
            raise HomologyError(f"duplicate simplex {s!r}")
        position[s] = len(entries)
        entries.append((boundary, st, len(s) - 1))
    return entries


def lower_star(simplices, stage):
    """Lower-star filtration of a downward-closed set of vertex tuples:
    each simplex at the largest ``stage[v]`` of its vertices v.  Returns
    the simplices sorted by (stage, dimension, simplex) and their face
    index from ``index_filtration``."""
    staged = sorted((max(stage[v] for v in s), len(s), s) for s in simplices)
    index = index_filtration([(s, st) for st, _, s in staged])
    return [s for _, _, s in staged], index


def _acyclic_matching(index, grade):
    """The matching of ``morse_complex``: returns ``order``, every
    position once, in the order the matching removes it, and ``partner``,
    the position each cell is paired with (None: critical).

    Grade classes are taken by the sum of the grade, then the grade.  In a
    class, a cell with one facet of its grade left is paired with that
    facet if its coefficient is +-1; when no cell is, the first cell of
    lowest dimension left becomes critical.  Every facet of a pair's coface
    but the pair's own has a lower grade sum or left earlier, so each
    V-path runs backward in ``order`` and the matching is acyclic.
    """
    classes, cofaces, left = {}, [[] for _ in index], [0] * len(index)
    for g, (boundary, _, _) in enumerate(index):
        classes.setdefault(grade[g], []).append(g)
        for f, _ in boundary:
            if grade[f] == grade[g]:
                cofaces[f].append(g)
                left[g] += 1
    order, partner, gone = [], [None] * len(index), bytearray(len(index))

    def remove(g):
        order.append(g)
        gone[g] = 1
        for h in cofaces[g]:
            left[h] -= 1
            if left[h] == 1:
                ready.append(h)

    for key in sorted(classes, key=lambda k: (sum(k), k)):
        ready = [g for g in classes[key] if left[g] == 1]
        for g in sorted(classes[key], key=lambda g: index[g][2]):
            while ready:
                h = ready.pop()
                if gone[h] or left[h] != 1:
                    continue
                f, c = next((f, c) for f, c in index[h][0]
                            if grade[f] == key and not gone[f])
                if c in (1, -1):
                    partner[f], partner[h] = h, f
                    remove(f)
                    remove(h)
            if not gone[g]:
                remove(g)
    return order, partner


def morse_complex(index, grade):
    """The critical cells of a face index, as a face index of their own.

    ``grade[g]`` is a tuple of integers for the cell at position g, at
    most its cofaces' grades componentwise.  One acyclic matching pairs a
    cell only with a facet of its own grade at coefficient +-1, so that
    both lie in every downset of grades or neither does, and every V-path
    from a cell stays below its grade.  The Morse boundary of a critical
    cell is its boundary with each paired facet eliminated against its
    pair's coface, in the topological order of the V-paths, as integers:
    its faces are critical cells of lower grade.  So the critical cells of
    any downset of grades form a filtered chain complex equivalent to the
    downset's cells, with the same barcode and the same image barcodes
    (Mischaikow and Nanda 2013; Scaramuccia, Iuricich, De Floriani and
    Landi 2020).

    Returns ``critical``, the positions of the critical cells in index
    order, and their face index, each entry the (Morse boundary, stage,
    dim) of a critical cell with boundary positions in ``critical``.
    When the stage is a coordinate of the grade and the index is sorted by
    stage, then dimension, as ``lower_star``'s is, this order is again a
    filtration order.
    """
    order, partner = _acyclic_matching(index, grade)
    flow = {}  # position -> {critical position: coefficient} it flows to
    for g in order:
        h = partner[g]
        if h is None:
            flow[g] = {g: 1}
        elif index[h][2] < index[g][2]:
            flow[g] = {}
        else:
            # g is the facet h's boundary meets at c = +-1, so g flows to
            # minus c times the rest of that boundary.
            boundary = index[h][0]
            c = next(c for f, c in boundary if f == g)
            flow[g] = _combine((t, -c * e * v) for f, e in boundary
                               if f != g for t, v in flow[f].items())
    critical = [g for g in range(len(index)) if partner[g] is None]
    new = {g: k for k, g in enumerate(critical)}
    morse = []
    for g in critical:
        boundary, stage, dim = index[g]
        chain = _combine((t, v * c) for f, c in boundary
                         for t, v in flow[f].items())
        morse.append((tuple(sorted((new[t], v) for t, v in chain.items())),
                      stage, dim))
    return critical, morse


def _combine(terms) -> dict:
    """The sum of (position, coefficient) terms, without zero terms."""
    chain = {}
    for t, v in terms:
        chain[t] = chain.get(t, 0) + v
    return {t: v for t, v in chain.items() if v}


def _staged_filtration(sub: frozenset, sup: frozenset):
    first = sorted(sub, key=lambda s: (len(s), s))
    second = sorted(sup - sub, key=lambda s: (len(s), s))
    return [(s, 0) for s in first] + [(s, 1) for s in second]


def induced_rank(sub: frozenset, sup: frozenset, j: int,
                 fieldspec: FieldSpec = FieldSpec()) -> int:
    """Rank of H_j(sub) -> H_j(sup) induced by inclusion.

    Two-stage filtration (sub, then sup minus sub): the rank equals the
    number of degree-j classes born in stage 0 that never die.  Raises
    HomologyError unless both sets are downward closed.
    """
    if not sub <= sup:
        raise HomologyError("sub must be contained in sup")
    entries = index_filtration(_staged_filtration(sub, sup))
    bc = staged_reduce(range(len(entries)), entries, fieldspec)
    return bc.rank(j, 0, 1)


def betti(simplices: frozenset, j: int, fieldspec: FieldSpec = FieldSpec()) -> int:
    """dim_GF(p) H_j of a downward-closed simplex set (unreduced homology):
    the rank of the identity map, every simplex at stage 0."""
    return induced_rank(simplices, simplices, j, fieldspec)
