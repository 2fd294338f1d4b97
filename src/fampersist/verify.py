"""Built-in verification suite over the bundled example families.

Every check compares computed module data against independently stated
closed-form expectations (piecewise formulas in (a, b, c)), so the suite
doubles as a regression harness for the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

from .cerf import CobordismClass, classify_cobordism, trace_cerf
from .family import (cylinder_family, hat_family, wrinkled_cylinder_family,
                     zigzag_family)
from .homology import FieldSpec
from .module3 import (ThinRefusal, betti_report, build_module,
                      check_indecomposable_sufficient, finite_subdiagram,
                      thin_decompose)
from .simplicial import slab_sublevel
from .stability import check_interleaving_necessary, sup_distance

F = Fraction


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        return f"{'ok  ' if self.passed else 'FAIL'} {self.name}" + (
            f": {self.detail}" if self.detail and not self.passed else "")


def _hat_expected(a: Fraction, b: Fraction, c: Fraction, degree: int) -> int:
    if degree != 0:
        return 0
    if c >= 1:
        return 1
    lo = 2 * min(a, 1 - b)
    hi = 2 * max(a, 1 - b)
    if hi <= c:
        return 2
    if lo <= c:
        return 1
    return 0


def _compare_dims(mod, expected: Callable) -> List[str]:
    bad = []
    for i, j, k in mod.points():
        want = expected(mod.time_values[i], mod.time_values[j],
                        mod.level_values[k], mod.degree)
        got = mod.dim((i, j, k))
        if got != want:
            bad.append(f"degree {mod.degree} at (a={mod.time_values[i]}, "
                       f"b={mod.time_values[j]}, c={mod.level_values[k]}): "
                       f"got {got}, want {want}")
    return bad


def check_hat_grid(fieldspec: FieldSpec, tamper: bool = False) -> CheckResult:
    """The two-peak piecewise formula for the hat family sampled at 1/8."""
    mods = betti_report(hat_family(steps=8).to_prism(), 1, fieldspec).modules
    bad = []
    for mod in mods.values():
        expected = _hat_expected
        if tamper and mod.degree == 0:
            expected = lambda a, b, c, d: _hat_expected(a, b, c, d) + (
                1 if (a, b, c) == (F(0), F(0), F(0)) else 0)
        bad += _compare_dims(mod, expected)
    return CheckResult("hat-grid", not bad, "; ".join(bad[:3]))


def check_zigzag_subdiagram(fieldspec: FieldSpec) -> CheckResult:
    """Component counts j-i+1 on half-level windows, with a connected top."""
    bad = []
    for n in range(1, 5):
        fam = zigzag_family(n)
        prism = fam.to_prism()
        mod = build_module(prism, 0, fieldspec)
        half = mod.level_values.index(F(1, 2))
        one = mod.level_values.index(F(1))
        pts = [(2 * i, 2 * j, half) for i in range(n + 1)
               for j in range(i, n + 1)]
        sub = finite_subdiagram(mod, pts + [(0, 2 * n, one)])
        for pos, (i2, j2, _) in enumerate(pts):
            want = (j2 - i2) // 2 + 1
            if sub.dims[pos] != want:
                bad.append(f"n={n} window [{i2}/{2*n},{j2}/{2*n}]: "
                           f"dim {sub.dims[pos]}, want {want}")
        terminal = len(pts)
        if sub.dims[terminal] != 1:
            bad.append(f"n={n}: terminal dim {sub.dims[terminal]}")
        if not check_indecomposable_sufficient(mod):
            bad.append(f"n={n}: indecomposability certificate not granted")
    return CheckResult("zigzag-subdiagram", not bad, "; ".join(bad[:3]))


def check_cylinder(fieldspec: FieldSpec) -> CheckResult:
    """Constant circle family: one component above -1, one loop above +1."""
    mods = betti_report(cylinder_family(8).to_prism(), 2, fieldspec).modules
    bad = []
    for degree, threshold in ((0, F(-1)), (1, F(1))):
        mod = mods[degree]
        bad += _compare_dims(
            mod, lambda a, b, c, d, th=threshold: 1 if c >= th else 0)
        try:
            summands = thin_decompose(mod)
        except ThinRefusal as exc:
            bad.append(f"degree {degree}: thin decomposition refused: {exc}")
            continue
        if len(summands) != 1:
            bad.append(f"degree {degree}: {len(summands)} summands, want 1")
    bad += _compare_dims(mods[2], lambda a, b, c, d: 0)
    return CheckResult("cylinder-dims", not bad, "; ".join(bad[:3]))


# Wrinkled cylinder constants (the bundled defaults).
_WC = {"p": F(1, 4), "q": F(3, 4), "ell": F(1), "m": F(2), "n": F(3),
       "u": F(0), "v": F(4)}


def _wc_pocket0(a, b, c) -> bool:
    ell, m, n = _WC["ell"], _WC["m"], _WC["n"]
    if ell <= c < m:
        half_width = F(1, 4) * (c - ell) / (m - ell)
        return a <= F(1, 2) + half_width and b >= F(1, 2) - half_width
    if m <= c < n:
        half_width = F(1, 4) * (n - c) / (n - m)
        return F(1, 2) - half_width < a and b < F(1, 2) + half_width
    return False


def _wc_lens1(a, b, c) -> bool:
    m, n = _WC["m"], _WC["n"]
    if not m <= c < n:
        return False
    half_width = F(1, 4) * (n - c) / (n - m)
    return a <= F(1, 2) - half_width and b >= F(1, 2) + half_width


def _wc_expected(a, b, c, degree) -> int:
    if degree == 0:
        return (1 if c >= _WC["u"] else 0) + (1 if _wc_pocket0(a, b, c) else 0)
    if degree == 1:
        return (1 if c >= _WC["v"] else 0) + (1 if _wc_lens1(a, b, c) else 0)
    return 0


def check_wrinkled(fieldspec: FieldSpec) -> CheckResult:
    """Exact supports of the bounded pocket and lens summands."""
    mods = betti_report(wrinkled_cylinder_family().to_prism(), 2,
                        fieldspec).modules
    bad = []
    for degree, mod in mods.items():
        bad += _compare_dims(mod, _wc_expected)
        if degree == 2:
            continue
        try:
            summands = thin_decompose(mod)
        except ThinRefusal as exc:
            bad.append(f"degree {degree}: thin decomposition refused: {exc}")
            continue
        if len(summands) != 2:
            bad.append(f"degree {degree}: {len(summands)} summands, want 2")
            continue
        top = (0, len(mod.time_values) - 1, len(mod.level_values) - 1)
        bounded = [s for s in summands if top not in s.support]
        if len(bounded) != 1:
            bad.append(f"degree {degree}: expected one bounded summand")
            continue
        member = _wc_pocket0 if degree == 0 else _wc_lens1
        want = {pt for pt in mod.points()
                if member(mod.time_values[pt[0]], mod.time_values[pt[1]],
                          mod.level_values[pt[2]])}
        if bounded[0].support != want:
            extra = sorted(bounded[0].support - want)[:2]
            missing = sorted(want - bounded[0].support)[:2]
            bad.append(f"degree {degree}: bounded support mismatch "
                       f"(extra {extra}, missing {missing})")
    return CheckResult("wrinkled-supports", not bad, "; ".join(bad[:3]))


def check_stability_shift(fieldspec: FieldSpec) -> CheckResult:
    """A uniform offset interleaves at its own size but not at half of it."""
    delta = F(1, 4)
    fam = hat_family(4)
    shifted = fam.shifted(delta)
    bad = []
    if sup_distance(fam, shifted) != delta:
        bad.append("sup distance of a uniform shift is off")
    mf = build_module(fam.to_prism(), 0, fieldspec)
    mg = build_module(shifted.to_prism(), 0, fieldspec)
    if not check_interleaving_necessary(mf, mg, delta).overall:
        bad.append(f"rank conditions fail at epsilon={delta}")
    if check_interleaving_necessary(mf, mg, delta / 2).overall:
        bad.append(f"rank conditions hold at epsilon={delta / 2}, "
                   "should be violated")
    return CheckResult("stability-shift", not bad, "; ".join(bad))


def _hat_value(t: Fraction) -> Fraction:
    return 2 * min(t, 1 - t)


def check_hat_cobordism(fieldspec: FieldSpec) -> CheckResult:
    """Slab classes over the single-peak family on a 1/8-step grid."""
    fam = hat_family(8)
    diagram = trace_cerf(fam.to_prism(), fieldspec)
    grid = [F(k, 8) for k in range(9)]
    bad = []
    for a in grid:
        for b in grid:
            if a > b:
                continue
            for c in grid:
                want = None
                if a < F(1, 2) and 2 * a < c < _hat_value(b):
                    want = CobordismClass.LEFT_PRODUCT
                if b > F(1, 2) and 2 * (1 - b) < c < _hat_value(a):
                    want = CobordismClass.RIGHT_PRODUCT
                if (a < F(1, 2) < b
                        and max(2 * a, 2 * (1 - b)) < c < 1):
                    want = CobordismClass.MIXED
                if want is None:
                    continue
                got = classify_cobordism(diagram, a, b, c)
                if got != want:
                    bad.append(f"({a},{b},{c}): got {got.value}, "
                               f"want {want.value}")
    return CheckResult("hat-cobordism", not bad, "; ".join(bad[:3]))


def check_euler(fieldspec: FieldSpec) -> CheckResult:
    """Alternating Betti sums equal alternating simplex counts on slabs.

    Each slab is rebuilt by ``slab_sublevel``, not read from the face index
    that the modules were reduced on, so the count is independent of it.
    """
    bad = []
    for label, fam in (("hat", hat_family(4)), ("zigzag", zigzag_family(2)),
                       ("cylinder", cylinder_family(4))):
        prism = fam.to_prism()
        mods = betti_report(prism, 2, fieldspec).modules
        m0 = mods[0]
        for pt in m0.points():
            chi = sum((-1) ** j * mods[j].dim(pt) for j in mods)
            a, b, k = pt
            slab = slab_sublevel(prism, a, b, m0.level_values[k]).simplices
            count = sum((-1) ** (len(s) - 1) for s in slab)
            if chi != count:
                bad.append(f"{label} at {pt}: chi {chi} vs cells {count}")
    return CheckResult("euler", not bad, "; ".join(bad[:3]))


def run_suite(fieldspec: FieldSpec = FieldSpec(),
              tamper: bool = False) -> List[CheckResult]:
    return [
        check_hat_grid(fieldspec, tamper=tamper),
        check_zigzag_subdiagram(fieldspec),
        check_cylinder(fieldspec),
        check_wrinkled(fieldspec),
        check_stability_shift(fieldspec),
        check_hat_cobordism(fieldspec),
        check_euler(fieldspec),
    ]
