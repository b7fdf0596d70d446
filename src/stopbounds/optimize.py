"""Convex-optimization kernels behind the slab and vertex bounds.

Three operations: maximize the time coordinate over a slab-constrained
region slice, maximize a concave function over a box, and maximize the
fractional vertex form over the corners of the unit cube.  All of them are
deterministic: the box search draws its random starts from a fixed seed.
The slab maximum is the region's own ``slab_max``: a closed form on a
built-in region, for a plain or a primed slab alike.  The box maximum is a
function kernel (golden section for d = 1, multi-start ascent above); a
built-in region's ``exit_box_max`` is a closed form and needs none.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .geometry import Hyperplane, Region, SlabMaxResult


class ProvisoViolatedError(RuntimeError):
    """The positivity proviso of the vertex bound fails; the bound is inapplicable."""


@dataclass(frozen=True)
class Slab:
    """Constraint t*lower_slope + lower_icept <= s <= t*upper_slope + upper_icept.

    An optional primed quadruple intersects a second slab of the same form.
    ``is_empty`` flags a lower slope or intercept above its upper one: the box may still be
    non-empty on an interval of t, which the slab maximum finds, as for a primed slab.
    """

    lower_slope: np.ndarray
    upper_slope: np.ndarray
    lower_icept: np.ndarray
    upper_icept: np.ndarray
    primed: Optional["Slab"] = None

    def __post_init__(self):
        for name in ("lower_slope", "upper_slope", "lower_icept", "upper_icept"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))

    @property
    def dim(self) -> int:
        return self.lower_slope.shape[0]

    @cached_property
    def is_empty(self) -> bool:
        bad = np.any(self.lower_slope > self.upper_slope) or np.any(self.lower_icept > self.upper_icept)
        if self.primed is not None:
            bad = bad or self.primed.is_empty
        return bool(bad)

    @cached_property
    def _edges(self):
        """Per coordinate, the lower and the upper edges of the slab and its primed ones, as (S, I, slope, icept).

        A float is an integer over a power of two, so the largest denominator
        of the slab's floats is a common one, and S and I are the integers
        that slope and icept are over it: two edges cross at t = (I2 - I1) /
        (S1 - S2), and compare at t = n/d through S*n + I*d.
        """
        slabs = [self]
        while slabs[-1].primed is not None:
            slabs.append(slabs[-1].primed)
        den = max(v.as_integer_ratio()[1] for x in slabs
                  for row in (x.lower_slope, x.upper_slope, x.lower_icept, x.upper_icept)
                  for v in row.tolist())

        def edges(side: str, i: int) -> list:
            pairs = [(float(getattr(x, side + "_slope")[i]), float(getattr(x, side + "_icept")[i]))
                     for x in slabs]
            return [(*(n * (den // d) for n, d in map(float.as_integer_ratio, pair)), *pair)
                    for pair in pairs]

        return [(edges("lower", i), edges("upper", i)) for i in range(self.dim)]

    def breakpoints(self, t_cap: float) -> list:
        """The t in (0, t_cap) where two edges of one coordinate cross, as sorted fractions.

        Between two of them, and between the last and t_cap, each coordinate
        keeps the same largest lower edge and smallest upper edge, so a primed
        slab is a plain one there (``piece``) or empty; a plain slab not ``is_empty`` has none.
        """
        if self.primed is None and not self.is_empty:
            return []
        cap, d_cap = t_cap.as_integer_ratio()
        cuts = set()
        for lower, upper in self._edges:
            for a, b in itertools.combinations(lower + upper, 2):
                num, den = b[1] - a[1], a[0] - b[0]
                if den < 0:
                    num, den = -num, -den
                if den and 0 < num and num * d_cap < cap * den:
                    cuts.add(Fraction(num, den))
        return sorted(cuts)

    @cached_property
    def _own_edges(self):  # a plain slab's piece
        return tuple(tuple(x.tolist()) for x in (self.lower_slope, self.upper_slope,
                                                 self.lower_icept, self.upper_icept))

    def piece(self, t: Fraction):
        """The plain slab whose box is the box at an exact t >= 0, or None when that box is empty.

        Given as its (lower_slope, upper_slope, lower_icept, upper_icept)
        tuples, so that it can key a cache.  A plain slab that is not
        ``is_empty`` is its own piece at every t.
        """
        if self.primed is None and not self.is_empty:
            return self._own_edges
        n, d = t.numerator, t.denominator
        rows = []
        for lower, upper in self._edges:
            lo = max(lower, key=lambda e: e[0] * n + e[1] * d)
            hi = min(upper, key=lambda e: e[0] * n + e[1] * d)
            if lo[0] * n + lo[1] * d > hi[0] * n + hi[1] * d:
                return None
            rows.append((lo[2], hi[2], lo[3], hi[3]))
        return tuple(zip(*rows))


def max_time_in_region(region: Region, slab: Slab) -> SlabMaxResult:
    """Largest t whose slab box intersects the region slice: the region's ``slab_max``.

    Feasibility at t = 2**30 is reported as an unbounded domain; feasibility
    nowhere as an empty one.  A built-in region answers in closed form.
    """
    if not region.convex_closure:
        raise ValueError("max_time_in_region requires the asserted convex closure")
    return region.slab_max(slab)


def golden_section_max(fun: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Largest value of fun found by golden-section search on [a, b], down to b - a <= tol.

    fun is taken to be unimodal on [a, b].  A probe that reads +inf is
    returned at once.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, e = b - invphi * (b - a), a + invphi * (b - a)
    fc, fe = fun(c), fun(e)
    while math.inf not in (fc, fe) and b - a > tol:
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = fun(e)
    return max(fc, fe)


def max_concave_over_box(fun: Callable[[np.ndarray], float], lo, hi,
                         tol: float = 1e-10) -> float:
    """Maximum of a caller-asserted concave function over the box [lo, hi].

    The corners (for d <= 12) and the centre first, then golden-section
    search for d=1 and projected multi-start ascent for d >= 2.  An infinite
    probe value propagates as the maximum.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if np.any(lo > hi):
        raise ValueError("box is empty")
    d = lo.shape[0]

    def probe(x: np.ndarray) -> float:
        v = float(fun(x))
        if math.isnan(v):
            raise ValueError("objective returned NaN inside the box")
        return v

    corners = [np.where(np.array(mask), hi, lo)
               for mask in itertools.product((0, 1), repeat=d)] if d <= 12 else []
    base_points = corners + [0.5 * (lo + hi)]
    best = -math.inf
    for p in base_points:
        v = probe(p)
        if v == math.inf:
            return math.inf
        best = max(best, v)

    if d == 1:
        a, b = float(lo[0]), float(hi[0])
        if b - a <= tol:
            return best
        return max(best, golden_section_max(lambda x: probe(np.array([x])), a, b, tol))

    rng = np.random.default_rng(3)
    width = hi - lo
    for r in range(6):  # the box centre, then five random starts
        x = lo + rng.random(d) * width if r else 0.5 * (lo + hi)
        fx = probe(x)
        if fx == math.inf:
            return math.inf
        step_scale = 1.0
        for _ in range(400):
            h = 1e-6 * np.maximum(1.0, np.abs(x))
            grad = np.empty(d)
            for k in range(d):
                xp, xm = x.copy(), x.copy()
                xp[k] = min(hi[k], x[k] + h[k])
                xm[k] = max(lo[k], x[k] - h[k])
                denom = xp[k] - xm[k]
                fp, fm = probe(xp), probe(xm)
                if math.inf in (fp, fm):
                    return math.inf
                grad[k] = (fp - fm) / denom if denom > 0 else 0.0
            gnorm = float(np.linalg.norm(grad))
            if gnorm * step_scale * float(np.max(width)) < tol:
                break
            cand = np.clip(x + step_scale * grad / max(gnorm, 1e-300) * np.max(width), lo, hi)
            if np.array_equal(cand, x):  # pinned to the box: smaller steps stay put too
                break
            fc = probe(cand)
            if fc == math.inf:
                return math.inf
            if fc > fx:
                x, fx = cand, fc
            else:
                step_scale *= 0.5
                if step_scale < 1e-12:
                    break
        best = max(best, fx)
    return best


class VertexMaxResult(NamedTuple):  # a tuple: cheaper than a dataclass to define at import
    value: float
    vertex: tuple
    min_denominator: float


def vertex_fraction_max(hyp: Hyperplane, slab: Slab) -> VertexMaxResult:
    """Maximum of (level - <a, icept(q)>) / (t_coef + <a, slope(q)>) over cube vertices.

    q ranges over {0,1}^d; slope(q) interpolates the upper and lower slab
    slopes elementwise and icept(q) the intercepts.  The positivity of every
    denominator is the applicability proviso and is checked first: a
    negative minimum raises, and a minimum of exactly 0 leaves the maximum
    unbounded, so the value is +inf at the first vertex with that
    denominator.  Ties resolve to the lexicographically smallest maximizing
    vertex.
    """
    d = slab.dim
    if d > 20:
        raise ValueError("vertex enumeration is limited to dim <= 20")
    if hyp.dim != d:
        raise ValueError("hyperplane and slab dimensions disagree")
    a = hyp.s_coef
    best_val, best_vertex = -math.inf, None
    min_den = math.inf
    rows = []
    for bits in itertools.product((0, 1), repeat=d):
        q = np.array(bits, dtype=float)
        slope = slab.upper_slope + q * (slab.lower_slope - slab.upper_slope)
        icept = slab.upper_icept + q * (slab.lower_icept - slab.upper_icept)
        den = hyp.t_coef + float(a @ slope)
        num = hyp.level - float(a @ icept)
        min_den = min(min_den, den)
        rows.append((bits, num, den))
    if min_den < 0.0:
        raise ProvisoViolatedError(
            f"vertex denominator minimum {min_den:.6g} is not positive")
    if min_den == 0.0:
        return VertexMaxResult(math.inf, next(bits for bits, _, den in rows if den == 0.0), 0.0)
    for bits, num, den in rows:
        val = num / den
        if val > best_val + 0.0 or (val == best_val and bits < best_vertex):
            if val > best_val:
                best_val, best_vertex = val, bits
            elif bits < best_vertex:
                best_vertex = bits
    return VertexMaxResult(best_val, best_vertex, min_den)
