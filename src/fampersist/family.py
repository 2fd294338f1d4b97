"""Constructors for PL families of functions, analytic and data-driven.

A PLFamily is a base complex, time breakpoints, and a matrix of rational
vertex values: row i gives the family's values at breakpoint t_i.  All
constructors produce inputs valid for simplicial.build_prism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rational import SAMPLE_PRECISION, parse_rational, snap
from .simplicial import PrismComplex, SimplicialComplex, build_prism

NW_DENOMINATOR_GUARD = Fraction(1, 10**12)
# The height range of wrinkled_cylinder_family away from its wrinkle.
WRINKLED_HEIGHTS = (Fraction(0), Fraction(4))
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Each kernel as a function of u, by name, in the order of --kernel's
# choices.
_EVALUATORS = {
    "gaussian": lambda u: math.exp(-u * u / 2.0) / _SQRT_2PI,
    "epanechnikov": lambda u: 0.75 * (1.0 - u * u) if abs(u) <= 1.0 else 0.0,
    "triangular": lambda u: max(1.0 - abs(u), 0.0),
}
KERNELS = tuple(_EVALUATORS)


class FamilyError(ValueError):
    pass


def _float(value, what: str) -> float:
    """float(value), or FamilyError when value lies outside float range."""
    try:
        return float(value)
    except OverflowError:
        raise FamilyError(f"{what} is outside float range") from None


def _snap(value: float, what: str) -> Fraction:
    """snap(value), or FamilyError when the value scaled to
    SAMPLE_PRECISION digits is no finite float."""
    if not math.isfinite(value * 10**SAMPLE_PRECISION):
        raise FamilyError(f"{what} is outside float range")
    return snap(value)


@dataclass(frozen=True)
class PLFamily:
    base: SimplicialComplex
    time_breakpoints: tuple  # Fractions
    vertex_values: tuple  # tuple of rows (tuples of Fractions)

    def to_prism(self) -> PrismComplex:
        return build_prism(self.base, self.time_breakpoints, self.vertex_values)

    def shifted(self, offsets) -> "PLFamily":
        """Add per-vertex offsets: offsets[i][v] or a single constant."""
        if isinstance(offsets, (int, Fraction)):
            offsets = [[Fraction(offsets)] * self.base.n_vertices
                       for _ in self.time_breakpoints]
        rows = tuple(
            tuple(v + Fraction(o) for v, o in zip(row, orow))
            for row, orow in zip(self.vertex_values, offsets))
        return PLFamily(self.base, self.time_breakpoints, rows)


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "gaussian"

    def __post_init__(self):
        if self.kind not in KERNELS:
            raise FamilyError(f"unknown kernel {self.kind!r}")

    def evaluate(self, u: float) -> float:
        return _EVALUATORS[self.kind](u)


def point_family(g: Sequence) -> PLFamily:
    """Family on a one-point space from breakpoint/value pairs of g: I -> R."""
    pairs = [(parse_rational(t), parse_rational(v)) for t, v in g]
    pairs.sort()
    bps = tuple(t for t, _ in pairs)
    if not bps or bps[0] != 0 or bps[-1] != 1:
        raise FamilyError("g must be given on breakpoints covering [0, 1]")
    if len(set(bps)) != len(bps):
        raise FamilyError("duplicate breakpoints")
    rows = tuple((v,) for _, v in pairs)
    return PLFamily(SimplicialComplex.point(), bps, rows)


def hat_family(steps: int = 2) -> PLFamily:
    """The tent function 2*min(t, 1-t) sampled at step 1/steps (steps even)."""
    if steps < 2 or steps % 2:
        raise FamilyError("steps must be a positive even integer")
    pts = []
    for i in range(steps + 1):
        t = Fraction(i, steps)
        pts.append((t, 2 * min(t, 1 - t)))
    return point_family(pts)


def zigzag_family(n: int) -> PLFamily:
    """The n-tooth zigzag: 0 at i/n, 1 at (2i-1)/(2n), linearly interpolated."""
    if n < 1:
        raise FamilyError("n must be >= 1")
    pts = []
    for i in range(2 * n + 1):
        t = Fraction(i, 2 * n)
        pts.append((t, Fraction(i % 2)))
    return point_family(pts)


def _circle_angles(subdiv: int):
    """Angles starting at pi/2; for odd subdiv the vertex nearest 3*pi/2 is
    moved onto it so the exact minimum is always sampled."""
    angles = [math.pi / 2 + 2 * math.pi * k / subdiv for k in range(subdiv)]
    if subdiv % 2:
        target = 3 * math.pi / 2
        k = min(range(subdiv), key=lambda i: abs(angles[i] - target))
        angles[k] = target
    return angles


def _sine_samples(subdiv: int):
    values = []
    for theta in _circle_angles(subdiv):
        s = math.sin(theta)
        if abs(s) < 1e-12:
            values.append(Fraction(0))
        elif abs(s - 1) < 1e-12:
            values.append(Fraction(1))
        elif abs(s + 1) < 1e-12:
            values.append(Fraction(-1))
        else:
            values.append(snap(s))
    return values


def cylinder_family(subdiv: int) -> PLFamily:
    """Constant family of circle height functions f_t(theta) = sin(theta).

    Vertices are placed so that theta = pi/2 and 3*pi/2 are always sampled,
    making the extreme values exactly +1 and -1.
    """
    if subdiv < 3:
        raise FamilyError("subdiv must be >= 3")
    row = tuple(_sine_samples(subdiv))
    base = SimplicialComplex.circle(subdiv)
    return PLFamily(base, (Fraction(0), Fraction(1)), (row, row))


def _wrinkle_slot(heights, m: Fraction):
    """Pick circle positions (x_a, w1, w2, x_b), consecutive with strictly
    ascending heights, such that height(x_a) < m < height(x_b).

    The pair must have w1's id below w2's: plateau ties at the birth/death
    times are broken by vertex id, and the id order keeps the tied pair
    non-critical there (see cerf.fiber_critical_vertices).
    """
    n = len(heights)
    for k in range(n):
        quad = [(k + r) % n for r in range(4)]
        h = [heights[q] for q in quad]
        if h[0] < h[1] < h[2] < h[3] and h[0] < m < h[3] and quad[1] < quad[2]:
            return quad
    raise FamilyError("subdiv too small to host the two wrinkle vertices")


def wrinkled_cylinder_family(p="1/4", q="3/4", ell="1", m="2", n="3",
                             subdiv: int = 8) -> PLFamily:
    """Cylinder family with a wrinkle: a lens of two extra critical curves.

    Away from (p, q) the family equals the cylinder heights rescaled to
    WRINKLED_HEIGHTS, [0, 4].  At t = p the wrinkle opens at value m; its
    critical values reach ell (local min) and n (local max) at
    t = (p+q)/2 and close back to m at t = q.  Time breakpoints: 0, p,
    (p+q)/2, q, 1.
    """
    p, q = parse_rational(p), parse_rational(q)
    ell, m, n = parse_rational(ell), parse_rational(m), parse_rational(n)
    u, v = WRINKLED_HEIGHTS
    if not (u < ell < m < n < v):
        raise FamilyError(f"need {u} < ell < m < n < {v}")
    if not (0 < p < q < 1):
        raise FamilyError("need 0 < p < q < 1 (no room for the wrinkle)")
    if subdiv < 6:
        raise FamilyError("subdiv too small to host the two wrinkle vertices")

    sines = _sine_samples(subdiv)
    heights = [u + (v - u) * (s + 1) / 2 for s in sines]
    _, w1, w2, _ = _wrinkle_slot(heights, m)

    def row(w1_val, w2_val):
        r = list(heights)
        r[w1] = w1_val
        r[w2] = w2_val
        return tuple(r)

    plain = tuple(heights)
    mid = (p + q) / 2
    rows = (plain, row(m, m), row(n, ell), row(m, m), plain)
    bps = (Fraction(0), p, mid, q, Fraction(1))
    base = SimplicialComplex.circle(subdiv)
    return PLFamily(base, bps, rows)


def _bandwidths(bandwidth_range, t_res: int):
    a_min = parse_rational(bandwidth_range[0])
    a_max = parse_rational(bandwidth_range[1])
    if a_min <= 0:
        raise FamilyError("minimum bandwidth must be positive")
    if a_max < a_min:
        raise FamilyError("bandwidth range reversed")
    if t_res < 2:
        raise FamilyError("t_res must be >= 2")
    # Every bandwidth lies between the two, and so does its float.
    if not _float(a_min, "minimum bandwidth"):
        raise FamilyError("minimum bandwidth is outside float range")
    _float(a_max, "maximum bandwidth")
    return [(Fraction(i, t_res - 1), a_min + (a_max - a_min) * Fraction(i, t_res - 1))
            for i in range(t_res)]


def _x_grid(samples, domain_box, a_max: Fraction, x_res: int):
    if x_res < 2:
        raise FamilyError("x_res must be >= 2")
    if domain_box is None:
        lo = _snap(min(samples), "a sample") - 3 * a_max
        hi = _snap(max(samples), "a sample") + 3 * a_max
    else:
        lo, hi = parse_rational(domain_box[0]), parse_rational(domain_box[1])
        if hi <= lo:
            raise FamilyError("empty domain box")
    return [_float(lo + (hi - lo) * Fraction(j, x_res - 1), "the x grid")
            for j in range(x_res)]


def kde_family(samples: Sequence[float], kernel: KernelSpec,
               bandwidth_range, domain_box=None,
               t_res: int = 8, x_res: int = 32) -> PLFamily:
    """Family t -> -f_hat_alpha(t) of sign-flipped kernel density estimates.

    The sign flip turns superlevel components of the density into sublevel
    components of the family; values are snapped to 12-digit rationals.
    """
    samples = [_float(x, "a sample") for x in samples]
    if not samples:
        raise FamilyError("no samples")
    bws = _bandwidths(bandwidth_range, t_res)
    xs = _x_grid(samples, domain_box, bws[-1][1], x_res)
    n = len(samples)
    evaluate = _EVALUATORS[kernel.kind]
    rows = []
    for _, alpha in bws:
        a = float(alpha)
        row = []
        for xf in xs:
            val = sum([evaluate((xf - s) / a) for s in samples]) / (n * a)
            row.append(-_snap(val, "a density value"))
        rows.append(tuple(row))
    base = SimplicialComplex.path(x_res)
    bps = tuple(t for t, _ in bws)
    return PLFamily(base, bps, tuple(rows))


def nw_regression_family(pairs, kernel: KernelSpec, bandwidth_range,
                         domain_box=None, t_res: int = 8,
                         x_res: int = 32) -> PLFamily:
    """Nadaraya-Watson estimate family (no sign flip).

    Where the kernel-weight denominator falls below the guard, the value is
    copied from the nearest guarded grid vertex (constant extension).
    """
    pts = [(_float(x, "a sample"), _float(y, "a sample")) for x, y in pairs]
    if not pts:
        raise FamilyError("no sample pairs")
    bws = _bandwidths(bandwidth_range, t_res)
    xs = _x_grid([x for x, _ in pts], domain_box, bws[-1][1], x_res)
    guard = float(NW_DENOMINATOR_GUARD)
    evaluate = _EVALUATORS[kernel.kind]
    rows = []
    for _, alpha in bws:
        a = float(alpha)
        raw = []
        for xf in xs:
            weights = [evaluate((xf - sx) / a) for sx, _ in pts]
            den = sum(weights)
            if den < guard:
                raw.append(None)
            else:
                raw.append(sum(w * sy for w, (_, sy) in zip(weights, pts)) / den)
        guarded = [j for j, val in enumerate(raw) if val is not None]
        if not guarded:
            raise FamilyError("kernel support misses the whole domain box")
        row = []
        for j, val in enumerate(raw):
            if val is None:
                nearest = min(guarded, key=lambda g: abs(g - j))
                val = raw[nearest]
            row.append(_snap(val, "a regression value"))
        rows.append(tuple(row))
    base = SimplicialComplex.path(x_res)
    bps = tuple(t for t, _ in bws)
    return PLFamily(base, bps, tuple(rows))
