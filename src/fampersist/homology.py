"""Exact simplicial homology over small prime fields.

One sparse persistence column reduction over GF(p) serves every query:
``staged_reduce`` turns a staged filtration into a barcode, the rank of
an inclusion-induced map counts the essential bars born in the
subcomplex, and a Betti number is the rank of the identity map.  Within
one filtration, ``Barcode.rank`` counts the bars alive from one stage to
a later one.  Coefficients stay integers mod p throughout, so results are
exact.  The reduction rejects a face that is missing or listed after its
coface, which is how ``betti`` and ``induced_rank`` check that their input
is downward closed.
"""

from __future__ import annotations

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


def _low(col: dict) -> int:
    return max(col) if col else -1


def _reduce_columns(columns: list, p: int) -> dict:
    """Persistence column reduction; returns {death column -> birth column}.

    ``columns`` are boundary columns as {row index: coeff}, reduced in list
    order, which is the filtration order.
    """
    pairs = {}
    pivot_of = {}  # low row -> column index owning it
    for j, col in enumerate(columns):
        while col:
            low = _low(col)
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
            low = _low(col)
            pivot_of[low] = j
            pairs[j] = low
    return pairs


def staged_reduce(filtration: Sequence,
                  fieldspec: FieldSpec = FieldSpec()) -> Barcode:
    """Barcode of a staged filtration.

    ``filtration`` is an ordered list of (simplex, stage) with faces before
    cofaces and stages non-decreasing.  Stage-wise Betti counts of the
    result match ``betti`` on every prefix subcomplex.
    """
    simplices = [tuple(s) for s, _ in filtration]
    stages = [int(st) for _, st in filtration]
    if any(stages[i] > stages[i + 1] for i in range(len(stages) - 1)):
        raise HomologyError("stage labels must be non-decreasing")
    index = {}
    for i, s in enumerate(simplices):
        for f in (s[:k] + s[k + 1:] for k in range(len(s))):
            if len(f) >= 1 and f not in index:
                raise HomologyError(f"face {f!r} of {s!r} missing or out of order")
        if s in index:
            raise HomologyError(f"duplicate simplex {s!r}")
        index[s] = i

    p = fieldspec.characteristic
    columns = []
    for s in simplices:
        col = {}
        for k in range(len(s)):
            f = s[:k] + s[k + 1:]
            if f:
                col[index[f]] = ((-1) ** k) % p
        columns.append(col)
    dims = [len(s) - 1 for s in simplices]

    pairs = _reduce_columns(columns, p)
    bc = Barcode()
    dead_births = set()
    for death, birth in pairs.items():
        dead_births.add(birth)
        if stages[birth] < stages[death]:  # zero-length bars are invisible
            bc.add(dims[birth], stages[birth], stages[death])
    for i, s in enumerate(simplices):
        if i not in pairs and i not in dead_births:
            bc.add(dims[i], stages[i], None)
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
    if j < 0:
        return 0
    return sum(1 for b, d in bc.essential(j) if b == 0)


def betti(simplices: frozenset, j: int, fieldspec: FieldSpec = FieldSpec()) -> int:
    """dim_GF(p) H_j of a downward-closed simplex set (unreduced homology):
    the rank of the identity map, every simplex at stage 0."""
    return induced_rank(simplices, simplices, j, fieldspec)
