"""Exact simplicial homology over small prime fields.

One sparse persistence column reduction over GF(p) serves every query:
``staged_reduce`` turns a staged filtration into a barcode, the rank of
an inclusion-induced map counts the essential bars born in the
subcomplex, and a Betti number is the rank of the identity map.  Within
one filtration, ``Barcode.rank`` counts the bars alive from one stage to
a later one, and in an image barcode from a stage of a subfiltration to a
stage of the whole.  Coefficients stay integers mod p throughout, so
results are exact.

The reduction reads integers only: each simplex is the list of positions
of its faces in the filtration.  ``index_filtration`` builds that input
from vertex tuples and rejects a face that is missing or listed after its
coface, which is how ``betti`` and ``induced_rank`` check that their input
is downward closed.  Columns are reduced from the top dimension down, and
the column of a simplex that already is the pivot of a higher column is
cleared, not reduced, when that pivot row belongs to the subfiltration
(any row, without one): it would reduce to zero.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
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
    """Bars of a staged filtration: (birth stage, death stage or None) per degree."""

    bars: dict = field(default_factory=dict)  # degree -> list of (birth, death|None)

    def add(self, degree: int, birth: int, death):
        self.bars.setdefault(degree, []).append((birth, death))

    def rank(self, degree: int, s: int, t: int) -> int:
        """Rank of the map from stage s into stage t >= s: the bars born
        by stage s that are still alive at stage t."""
        return sum(1 for b, d in self.bars.get(degree, ())
                   if b <= s and (d is None or d > t))

    def betti_at_stage(self, degree: int, stage: int) -> int:
        return self.rank(degree, stage, stage)

    def essential(self, degree: int):
        return [(b, d) for b, d in self.bars.get(degree, ()) if d is None]


def _reduce_columns(boundaries: list, row, order, n_sub: int,
                    fieldspec: FieldSpec) -> dict:
    """Persistence column reduction; returns {death column -> low row}.

    ``boundaries[j]`` holds the positions of the faces of the simplex at
    filtration position j, ``row`` maps a position to its row and ``order``
    a row to its position.  Columns are reduced by dimension from the top
    down, each dimension in filtration order, with the same pairs as one
    left-to-right pass.  Once a column owns a pivot on a member row (below
    ``n_sub``), the reduced column is a cycle of members that all come
    before the pivot's simplex and include it, so that simplex's boundary
    is a combination of earlier columns and reduces to zero: its column is
    cleared, never reduced (Chen and Kerber 2011).  A pivot on a row past
    ``n_sub`` clears nothing, since such a cycle may hold later simplices.
    """
    p = fieldspec.characteristic
    sign = (1, p - 1)  # (-1)^k mod p
    by_dim = {}
    for j, faces in enumerate(boundaries):
        if faces:
            by_dim.setdefault(len(faces), []).append(j)
    pairs, cleared = {}, set()
    pivots = {}  # low row -> (reduced column owning it, 1 / its coeff)
    for d in sorted(by_dim, reverse=True):
        for j in by_dim[d]:
            if j in cleared:
                continue
            col = {row[f]: sign[k & 1] for k, f in enumerate(boundaries[j])}
            while col:
                low = max(col)
                pivot = pivots.get(low)
                if pivot is None:
                    pivots[low] = (col, fieldspec.inv(col[low]))
                    pairs[j] = low
                    if low < n_sub:
                        cleared.add(order[low])
                    break
                other, inv = pivot
                factor = col[low] * inv % p
                for r, v in other.items():
                    nv = (col.get(r, 0) - factor * v) % p
                    if nv:
                        col[r] = nv
                    else:
                        del col[r]
    return pairs


def staged_reduce(filtration: Sequence,
                  fieldspec: FieldSpec = FieldSpec(), sub=None) -> Barcode:
    """Barcode of a staged filtration of integer-indexed simplices.

    ``filtration`` is an ordered list of (faces, stage): ``faces`` holds
    the positions in this list of a simplex's codimension-1 faces in
    vertex-removal order, so face k has sign (-1)^k, and is empty for a
    vertex.  Faces come before cofaces and stages are non-decreasing; this
    is not checked here, and ``index_filtration`` builds such a list from
    simplices, checking both.  Stage-wise Betti counts of the result match
    ``betti`` on every prefix subcomplex.  Zero-length bars are kept, so
    the bars born by stage s count the cycles at stage s.

    ``sub = (members, barcode)`` names a subfiltration by the positions of
    its simplices, closed under faces, and its own barcode; the result is
    then the image barcode, whose ``rank(n, s, t)`` is the rank of
    H_n(sub at s) -> H_n(whole at t) (Cohen-Steiner, Edelsbrunner, Harer
    and Morozov 2009).  With the rows of ``members`` first, a column whose
    pivot is one of them bounds a cycle of ``sub`` at its stage; the other
    cycles of ``barcode`` live on.
    """
    n = len(filtration)
    if sub is None:
        n_sub, order = n, range(n)
        row = order
    else:
        members = sorted(sub[0])
        n_sub = len(members)
        is_member = bytearray(n)
        for i in members:
            is_member[i] = 1
        # Rows: the members in filtration order, then the other simplices.
        order = members + [i for i in range(n) if not is_member[i]]
        row = [0] * n
        for r, i in enumerate(order):
            row[i] = r
    boundaries = [faces for faces, _ in filtration]
    stages = [st for _, st in filtration]
    dims = [len(faces) - 1 if faces else 0 for faces in boundaries]

    pairs = _reduce_columns(boundaries, row, order, n_sub, fieldspec)
    if sub is None:
        cycles = Counter((dims[i], stages[i]) for i in range(n)
                         if i not in pairs)
    else:
        cycles = Counter((d, b) for d, bars in sub[1].bars.items()
                         for b, _ in bars)
    bc = Barcode()
    for death in sorted(pairs):
        r = pairs[death]
        if r < n_sub:
            birth = order[r]
            bc.add(dims[birth], stages[birth], stages[death])
            cycles[dims[birth], stages[birth]] -= 1
    for (d, b), count in cycles.items():
        for _ in range(count):
            bc.add(d, b, None)
    return bc


def index_filtration(filtration: Sequence, sub=None):
    """``staged_reduce`` input for a filtration of simplices.

    ``filtration`` is an ordered list of (simplex, stage) with simplices as
    vertex tuples, and ``sub``, if given, is (set of member simplices,
    their barcode).  Returns the (faces, stage) list and ``sub`` with its
    members as positions.  Raises HomologyError for a face that is missing
    or listed after its coface, a duplicate or empty simplex, falling
    stages, or a member outside the filtration.
    """
    position, entries = {}, []
    for s, st in filtration:
        s, st = tuple(s), int(st)
        if not s:
            raise HomologyError("the empty simplex is not a simplex")
        if entries and st < entries[-1][1]:
            raise HomologyError("stage labels must be non-decreasing")
        faces = ()
        if len(s) > 1:
            try:
                faces = tuple(position[s[:k] + s[k + 1:]]
                              for k in range(len(s)))
            except KeyError as e:
                raise HomologyError(
                    f"face {e.args[0]!r} of {s!r} missing or out of order"
                ) from None
        if s in position:
            raise HomologyError(f"duplicate simplex {s!r}")
        position[s] = len(entries)
        entries.append((faces, st))
    if sub is None:
        return entries, None
    members, barcode = sub
    try:
        rows = sorted({position[tuple(s)] for s in members})
    except KeyError:
        raise HomologyError("sub must be part of the filtration") from None
    return entries, (rows, barcode)


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
    entries, _ = index_filtration(_staged_filtration(sub, sup))
    bc = staged_reduce(entries, fieldspec)
    return sum(1 for b, d in bc.essential(j) if b == 0)


def betti(simplices: frozenset, j: int, fieldspec: FieldSpec = FieldSpec()) -> int:
    """dim_GF(p) H_j of a downward-closed simplex set (unreduced homology):
    the rank of the identity map, every simplex at stage 0."""
    return induced_rank(simplices, simplices, j, fieldspec)
