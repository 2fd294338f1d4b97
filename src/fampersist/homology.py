"""Exact simplicial homology over small prime fields.

One sparse persistence column reduction over GF(p) serves every query:
``staged_reduce`` turns a staged filtration into a barcode, the rank of
an inclusion-induced map counts the essential bars born in the
subcomplex, and a Betti number is the rank of the identity map.  Within
one filtration, ``Barcode.rank`` counts the bars alive from one stage to
a later one, and in an image barcode from a stage of a subfiltration to a
stage of the whole.  Coefficients stay integers mod p throughout, so
results are exact.  The reduction rejects a face that is missing or listed
after its coface, which is how ``betti`` and ``induced_rank`` check that
their input is downward closed.
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


def _reduce_columns(columns: list, p: int) -> dict:
    """Persistence column reduction; returns {death column -> birth column}.

    ``columns`` are boundary columns as {row index: coeff}, reduced in list
    order, which is the filtration order.
    """
    pairs = {}
    pivot_of = {}  # low row -> column index owning it
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


def staged_reduce(filtration: Sequence,
                  fieldspec: FieldSpec = FieldSpec(), sub=None) -> Barcode:
    """Barcode of a staged filtration.

    ``filtration`` is an ordered list of (simplex, stage) with faces before
    cofaces and stages non-decreasing.  Stage-wise Betti counts of the
    result match ``betti`` on every prefix subcomplex.  Zero-length bars are
    kept, so the bars born by stage s count the cycles at stage s.

    ``sub = (members, barcode)`` names a subfiltration, closed under faces,
    and its own barcode; the result is then the image barcode, whose
    ``rank(n, s, t)`` is the rank of H_n(sub at s) -> H_n(whole at t)
    (Cohen-Steiner, Edelsbrunner, Harer and Morozov 2009).  With the rows
    of ``members`` first, a column whose pivot is one of them bounds a
    cycle of ``sub`` at its stage; the other cycles of ``barcode`` live on.
    """
    simplices = [tuple(s) for s, _ in filtration]
    stages = [int(st) for _, st in filtration]
    if any(stages[i] > stages[i + 1] for i in range(len(stages) - 1)):
        raise HomologyError("stage labels must be non-decreasing")
    members = None if sub is None else sub[0]
    n_sub = len(simplices) if sub is None else len(members)
    p = fieldspec.characteristic
    # Rows: the members in filtration order, then the other simplices.
    row, order, columns = {}, {}, []  # simplex -> row, row -> position
    free = [0, n_sub]  # the next row of a member, of any other simplex
    for i, s in enumerate(simplices):
        col = {}
        for k in range(len(s)):
            f = s[:k] + s[k + 1:]
            if f in row:
                col[row[f]] = ((-1) ** k) % p
            elif f:
                raise HomologyError(f"face {f!r} of {s!r} missing or out of order")
        if s in row:
            raise HomologyError(f"duplicate simplex {s!r}")
        other = members is not None and s not in members
        row[s], order[free[other]] = free[other], i
        free[other] += 1
        columns.append(col)
    if free[0] != n_sub:
        raise HomologyError("sub must be part of the filtration")
    dims = [len(s) - 1 for s in simplices]

    pairs = _reduce_columns(columns, p)
    if sub is None:
        cycles = Counter((dims[i], stages[i]) for i in order.values()
                         if i not in pairs)
    else:
        cycles = Counter((n, b) for n, bars in sub[1].bars.items()
                         for b, _ in bars)
    bc = Barcode()
    for death, r in pairs.items():
        if r < n_sub:
            birth = order[r]
            bc.add(dims[birth], stages[birth], stages[death])
            cycles[dims[birth], stages[birth]] -= 1
    for (n, b), count in cycles.items():
        for _ in range(count):
            bc.add(n, b, None)
    return bc


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
    bc = staged_reduce(_staged_filtration(sub, sup), fieldspec)
    return sum(1 for b, d in bc.essential(j) if b == 0)


def betti(simplices: frozenset, j: int, fieldspec: FieldSpec = FieldSpec()) -> int:
    """dim_GF(p) H_j of a downward-closed simplex set (unreduced homology):
    the rank of the identity map, every simplex at stage 0."""
    return induced_rank(simplices, simplices, j, fieldspec)
