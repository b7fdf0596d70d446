"""Regions in the (time, sum) hyperspace and the geometry every bound needs.

A region is a set of points (t, s) with t >= 0 and s a d-vector, plus
asserted convexity/origin flags.  The quantities computed here: the crossing
time m where the mean ray (t, t*mean) leaves the region, the ray function
g(v) = sup{t : (t, t v) in region}, the gradient of ln g, the supporting
hyperplane at (m, m*mean), and distances from the mean to region slices at
fixed sample size.

The free functions here check the flags an answer needs, then ask the
region's own method.  A built-in family (``FamilyRegion``) is one signed
slack (positive inside, zero on the boundary) that broadcasts over points,
and, for d = 1 boundaries s = f(t), the exact slope f'.  Along a ray
(t, t v) the slack has the sign of alpha - rate*t**k (``ray_form``), with
the rate affine in v, so ray exits, entries and the maximum of g over a box
are closed forms, as are the side and distance of a slice, where the slack
is affine in s, and the largest t at which a slab's box meets a slice.  The
slope gives the exact log-gradient 1/(f'(m) - mean), and a halfspace gives
-a/(<a, mean> + b), so the supporting hyperplane is exact.  Every region the
library builds is such a family (``region_from_family``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

_RAY_CAP = 2.0**61  # a ray crossing there or beyond reads inf
_T_CAP = 2.0**30  # a slab box meeting the slice there reads an unbounded domain


class RegionError(ValueError):
    """Region flags or parameters inconsistent with the requested operation."""


class NoRayExitError(RuntimeError):
    """The ray never leaves the region below 2**61 (no unique crossing)."""


class NonConvexityError(RuntimeError):
    """The region contradicts its asserted convexity."""


class GradientDomainError(RuntimeError):
    """g is infinite or non-finite-differentiable where a gradient was requested."""


class EmptySliceError(RuntimeError):
    """The fixed-size slice of the region is empty."""


# The boundary s = f(t) of each d = 1 family as (f, f'), from its parameters.
# A scalar halfspace <a, s> + b t = c with a != 0 is the line s = (c - b t)/a.
_CURVES = {
    "constant": lambda level, **_: (lambda t: level, lambda t: 0.0),
    "affine": lambda slope, intercept, **_: (lambda t: slope * t + intercept, lambda t: slope),
    "power": lambda coef, exponent, **_: (lambda t: coef * t**exponent,
                                          lambda t: coef * exponent * t ** (exponent - 1.0)),
    "halfspace": lambda s_coef, t_coef, level, **_: (lambda t: (level - t_coef * t) / s_coef[0],
                                                     lambda t: -t_coef / s_coef[0]),
}


@dataclass(frozen=True)
class Region:
    """Continuity or stopping region with asserted flags: what every region type provides.

    Each type has the methods ``inside``, ``contains_sums``, ``ray_exit``,
    ``entry_and_exit``, ``exit_box_max``, ``log_gradient``, ``slice_side``,
    ``slice_distance``, ``slab_max`` and ``complement_closure``, and the
    capabilities ``scalar_boundary``, ``boundary_slope``, ``orientation``,
    ``linear_slack``, ``power_exponent`` (each None where it does not
    apply) and ``time_slab``, as ``FamilyRegion`` defines them.
    """

    kind: str  # "continuity" | "stopping"
    dim: int
    convex_closure: bool
    contains_origin: bool

    def __post_init__(self):
        if self.kind not in ("continuity", "stopping"):
            raise RegionError(f"unknown region kind {self.kind!r}")

    def contains(self, t: float, s, strict: bool = False) -> bool:
        if t < 0.0:
            return False
        return bool(self.inside(t, np.atleast_1d(np.asarray(s, dtype=float)), strict))


def _curve_part(index: int, doc: str) -> property:
    return property(lambda self: None if self._curve is None else self._curve[index], doc=doc)


@dataclass(frozen=True)
class FamilyRegion(Region):
    """A built-in region family, answered in closed form with no membership call.

    ``family`` holds the parameters, read-only, since the slack and every
    closed form are built from them.  ``slack_batch`` is the signed margin,
    nonnegative exactly on the closed region, over the shapes ``inside`` takes.
    """

    family: Mapping = field(repr=False)
    slack_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def inside(self, ts, ss, strict: bool = False):
        """Membership of points with times ts >= 0, in the closed or open region.

        Takes sums s of shape (..., d) with times that broadcast against
        s[..., 0]: a scalar t with a (d,) vector, (n,) times with (n, d)
        sums, or (steps,) times with a (runs, steps, d) block.
        """
        margin = self.slack_batch(ts, ss)
        return margin > 0.0 if strict else margin >= 0.0

    @cached_property
    def _curve(self):
        """(f, f', side) when the region lies on one side of a d = 1 curve s = f(t), else None.

        A negative s_coef flips the side of a scalar halfspace.  Cached: ``family`` is read-only.
        """
        p = self.family
        side = p["orientation"]
        if p["family"] == "halfspace":
            if len(p["s_coef"]) != 1 or p["s_coef"][0] == 0.0:
                return None
            side = side if p["s_coef"][0] > 0.0 else _FLIP[side]
        return (*_CURVES[p["family"]](**p), side)

    scalar_boundary = _curve_part(0, "The boundary f of a d = 1 region {s <= f(t)} or {s >= f(t)}.")
    boundary_slope = _curve_part(1, "The exact slope f' of that boundary.")
    orientation = _curve_part(2, 'The side of that boundary the region lies on: "le" or "ge".')

    @property
    def time_slab(self) -> bool:
        """Whether this is a halfspace in t alone, whose slices are all or nothing."""
        p = self.family
        return p["family"] == "halfspace" and not any(p["s_coef"])

    @property
    def power_exponent(self) -> Optional[float]:
        """The exponent e of a power boundary c*t**e."""
        p = self.family
        return p["exponent"] if p["family"] == "power" else None

    @property
    def linear_slack(self):
        """(alpha, beta, kappa) with slack alpha - <beta, s> - kappa*t.

        Defined for the families with a flat boundary: constant, affine and
        halfspace, of either orientation and any dimension.
        """
        p = self.family
        if p["family"] not in ("constant", "affine", "halfspace"):
            return None
        sgn = _sign(p["orientation"])
        if p["family"] == "halfspace":
            return sgn * p["level"], sgn * np.asarray(p["s_coef"]), sgn * p["t_coef"]
        f, slope = _CURVES[p["family"]](**p)
        return sgn * f(0.0), np.array([sgn]), -sgn * slope(0.0)

    @property
    def ray_coefficients(self):
        """(alpha, beta, kappa, k).

        For t > 0 the point (t, t v) is in the closed region exactly when
        alpha - rate * t**k >= 0, with the rate <beta, v> + kappa affine in
        v.  A flat family has slack alpha - t*(<beta, v> + kappa), so k = 1;
        a power boundary c t^e has slack sgn*t^e*(c - v t^(1-e)), so
        alpha = sgn*c, beta = sgn, kappa = 0 and k = 1 - e.
        """
        p = self.family
        if p["family"] == "power":
            sgn = _sign(p["orientation"])
            return sgn * p["coef"], np.array([sgn]), 0.0, 1.0 - p["exponent"]
        return (*self.linear_slack, 1.0)

    def ray_form(self, v: np.ndarray):
        """(alpha, rate, k) along the ray (t, t v)."""
        alpha, beta, kappa, k = self.ray_coefficients
        return alpha, float(beta @ v) + kappa, k

    def complement_closure(self) -> "FamilyRegion":
        """Closure of the complement: the opposite kind, with the orientation flipped."""
        spec = dict(self.family)
        spec["orientation"] = _FLIP[spec["orientation"]]
        spec["kind"] = "stopping" if self.kind == "continuity" else "continuity"
        return region_from_family(spec)

    def ray_exit(self, v: np.ndarray) -> float:
        """(alpha/rate)^(1/k), with no membership call, refusing flags that misstate the region.

        The slack at the origin is alpha on a flat boundary, so alpha < 0 puts
        the origin outside; a power boundary passes through the origin, and
        alpha < 0 puts its region on the non-convex side.
        """
        alpha, beta, kappa, k = self.ray_coefficients
        if alpha < 0.0:
            if self.family["family"] != "power":
                raise RegionError("asserted origin containment fails at (0, 0)")
            raise NonConvexityError("the region lies on the non-convex side of its boundary")
        return _ray_crossing(alpha, float(beta @ v) + kappa, k)

    def exit_box_max(self, lo, hi) -> float:
        """``ray_exit_time`` at the box corner taking lo_i where beta_i > 0 and hi_i elsewhere.

        There the rate <beta, v> + kappa, affine in v, is smallest, and
        g = (alpha/rate)^(1/k) largest: +inf when that rate is <= 0.
        """
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if np.any(lo > hi):
            raise ValueError("box is empty")
        return ray_exit_time(self, np.where(self.ray_coefficients[1] > 0.0, lo, hi))

    def contains_sums(self, n: int, lo, hi) -> bool:
        """Whether the closed region holds (n, s) for every sum s of n increments in [lo, hi].

        Those sums fill the box n*[lo, hi].  The slack, alpha - <beta, s> -
        kappa*t or on a power boundary alpha*t**e - <beta, s> (t**e a float),
        is least at the corner taking hi_i where beta_i > 0 and lo_i where
        beta_i < 0, and is summed there exactly, as in ``slab_max``.
        """
        alpha, beta, kappa, _ = self.ray_coefficients
        corner = np.where(beta > 0.0, hi, lo).tolist()
        terms = [(-b, n, c) for b, c in zip(beta.tolist(), corner) if b != 0.0 and n]
        if any(math.isinf(c) for *_, c in terms):
            return False
        e = self.power_exponent
        terms += [(alpha, n ** e)] if e is not None else [(alpha,), (-kappa, n)]
        return exact_sum(terms)[0] >= 0

    def entry_and_exit(self, v: np.ndarray):
        """Exact (inf A, sup A), or (None, None)."""
        alpha, rate, k = self.ray_form(v)
        cross = _ray_crossing(alpha, rate, k)
        if alpha >= 0.0:
            return 0.0, cross
        if self.family["family"] == "power":  # the origin, on the boundary, then [cross, inf)
            return 0.0, 0.0 if math.isinf(cross) else math.inf
        return (None, None) if math.isinf(cross) else (cross, math.inf)

    def log_gradient(self, mean: np.ndarray, g0: float) -> np.ndarray:
        """-a / (<a, mean> + b) for a halfspace <a, s> + b t = c; 1 / (f'(g0) - mean) for f."""
        p = self.family
        if p["family"] == "halfspace":
            a = np.asarray(p["s_coef"])
            return -a / (a @ mean + p["t_coef"])
        return np.array([1.0 / (self.boundary_slope(g0) - mean[0])])

    def slice_side(self, n: float, mu: np.ndarray) -> str:
        """The side of the curve the slice lies on, when it misses mu."""
        if self.time_slab:
            raise EmptySliceError(f"the slice at n={n} is empty")
        return "above" if self.orientation == "ge" else "below"

    def slice_distance(self, n: float, mu: np.ndarray) -> float:
        """max(0, -slack(n, n mu)) / (n |beta|), beta = s_coef for a halfspace and 1 for a curve."""
        slack = float(self.slack_batch(n, n * mu))
        if slack >= 0.0:
            return 0.0
        if self.time_slab:
            raise EmptySliceError(f"the slice at n={n} is empty")
        p = self.family
        norm = float(np.linalg.norm(p["s_coef"])) if p["family"] == "halfspace" else 1.0
        return -slack / (n * norm)

    def slab_max(self, slab) -> "SlabMaxResult":
        """The largest t in [0, 2**30] whose box meets the slice.

        On each coordinate a primed slab's box runs from the larger of two
        lower edges to the smaller of two upper ones, so its breakpoints, where
        two of them cross, cut [0, 2**30] into pieces on which it is a plain
        slab or empty (``slab.piece``), as is a plain slab whose own edges
        cross; any other plain slab is one piece.  The pieces are read
        from the right: each cut is tested exactly, since the box may meet the
        slice at that t alone, then the piece left of it, where the slack along
        one box edge decides (``_edge_slack``).  Every value is rounded up.
        """
        if self.power_exponent is not None and self.ray_coefficients[0] < 0.0:
            raise NonConvexityError("the region lies on the non-convex side of its boundary")
        slack = functools.cache(self._edge_slack)

        def meets(t: Fraction) -> bool:
            piece = slab.piece(t)
            return piece is not None and slack(piece)[0](t)

        cuts = [Fraction(0), *slab.breakpoints(_T_CAP), Fraction(_T_CAP)]
        if meets(cuts[-1]):
            return SlabMaxResult(math.inf, unbounded=True)
        for lo, hi in zip(cuts[-2::-1], cuts[:0:-1]):
            mid = Fraction(lo.numerator * hi.denominator + hi.numerator * lo.denominator,
                           2 * lo.denominator * hi.denominator)  # (lo + hi) / 2, in fewer steps
            piece = slab.piece(mid)
            found = piece is not None and slack(piece)[1](lo, hi)
            if found:
                return found
            if meets(lo):
                return SlabMaxResult(float_at_least(lo.numerator, lo.denominator))
        return SlabMaxResult(0.0, empty_domain=True)

    def _edge_slack(self, piece):
        """(meets, last_root) of the slack along the box edge of a plain slab where it is largest.

        That edge takes lo_i where beta_i > 0 and hi_i elsewhere: cs*t + ci,
        affine in t.  ``meets(t)``: the slack is >= 0 at an exact t.
        ``last_root(lo, hi)``: for a slack < 0 at hi, the largest t in (lo, hi)
        where it is >= 0, rounded up, as a ``SlabMaxResult``; None when there is
        none.  A flat family's slack is rise - rate*t in exact rationals; a
        power boundary's is concave (``_power_last_root``).
        """
        alpha, beta, kappa, _ = self.ray_coefficients
        lower_slope, upper_slope, lower_icept, upper_icept = piece
        beta = beta.tolist()
        cs = [ls if b > 0.0 else us for b, ls, us in zip(beta, lower_slope, upper_slope)]
        ci = [li if b > 0.0 else ui for b, li, ui in zip(beta, lower_icept, upper_icept)]
        if self.power_exponent is not None:  # beta = [sgn]
            terms = (alpha, self.power_exponent, beta[0] * cs[0], beta[0] * ci[0])
            return (lambda t: _power_sign(*terms, t) != -1,
                    lambda lo, hi: _power_last_root(*terms, lo, hi))
        # the slack is rise/d_rise - (rate/d_rate)*t
        rise, d_rise = exact_sum([(alpha,), *((-b, c) for b, c in zip(beta, ci))])
        rate, d_rate = exact_sum([(kappa,), *zip(beta, cs)])

        def meets(t: Fraction) -> bool:
            return rise * d_rate * t.denominator >= rate * d_rise * t.numerator

        def last_root(lo: Fraction, hi: Fraction):
            if rate > 0 and rise * d_rate * lo.denominator > lo.numerator * rate * d_rise:
                return SlabMaxResult(float_at_least(rise * d_rate, rate * d_rise))
            return None

        return meets, last_root


_FLIP = {"le": "ge", "ge": "le"}


def _sign(orientation) -> float:
    """Slack sign: +1 for "le" (slack f - s), -1 for "ge" (slack s - f)."""
    if orientation not in _FLIP:
        raise RegionError(f"orientation must be 'le' or 'ge', not {orientation!r}")
    return 1.0 if orientation == "le" else -1.0


class SlabMaxResult(NamedTuple):  # a tuple: cheaper than a dataclass to define at import
    """The largest t whose slab box meets the region's slice.

    ``unbounded``: the box meets it at t = 2**30 (value inf); ``empty_domain``:
    at no t in [0, 2**30] (value 0).  ``uncertainty`` is how far the value
    may lie above the exact maximum.  On a built-in region, plain or primed
    slab alike, it is 0 where the value is an exact root or cut rounded up
    to a float, and the last bracket, an ulp or a few or the band of
    undecided sign, at the root of a power boundary's slack.
    """

    value: float
    empty_domain: bool = False
    unbounded: bool = False
    uncertainty: float = 0.0


def exact_sum(terms):
    """The sum of the products of tuples of floats, exactly: (numerator, denominator > 0).

    A float is an integer over a power of two, so the largest denominator is
    a common one, and nothing is reduced.
    """
    parts = []
    for term in terms:
        num = den = 1
        for x in term:
            n, d = x.as_integer_ratio()
            num, den = num * n, den * d
        parts.append((num, den))
    den = max(d for _, d in parts)
    return sum(n * (den // d) for n, d in parts), den


def float_at_least(num: int, den: int) -> float:
    """The smallest float at or above num/den, for den > 0 (int division rounds to nearest)."""
    t = num / den
    n, d = t.as_integer_ratio()
    return math.nextafter(t, math.inf) if n * den < num * d else t


_ROUNDING = 2.0**-50  # eight unit roundoffs: the float error of each term of a power slack


def _power_sign(a: float, e: float, p: float, q: float, t):
    """The sign of h(t) = a t^e - p t - q for a >= 0: 1, -1, 0 (exactly zero), or None.

    t is a float or a fraction.  Floats decide unless |h| lies within 2**-50
    of the magnitudes of its terms (pow is within an ulp), or 2**-1000 when
    the terms are subnormal.  Then an exponent with denominator 4 compares
    a^4 t^(4e) with (p t + q)^4 in integers, and any other stays undecided
    (None).
    """
    x = float(t)
    rise, pt = a * x**e, p * x
    h = rise - (pt + q)
    if abs(h) > _ROUNDING * (abs(rise) + abs(pt) + abs(q)) + 2.0**-1000:
        return 1 if h > 0.0 else -1
    m = 4.0 * e
    if m != int(m):
        return None
    (na, da), (nt, dt), m = a.as_integer_ratio(), t.as_integer_ratio(), int(m)
    (n_p, d_p), (n_q, d_q) = p.as_integer_ratio(), q.as_integer_ratio()
    line, d_line = n_p * nt * d_q + n_q * d_p * dt, d_p * dt * d_q  # p t + q
    if line <= 0:  # a t^e >= 0 >= line, equal only when both vanish
        return 0 if line == 0 and (a == 0.0 or t == 0) else 1
    d = na**4 * nt**m * d_line**4 - line**4 * da**4 * dt**m
    return (d > 0) - (d < 0)


def _power_last_root(a: float, e: float, p: float, q: float, lo: Fraction, hi: Fraction):
    """The largest t in (lo, hi) with h(t) = a t^e - p t - q >= 0, where 0 < e < 1 and h(hi) < 0.

    h is concave for a >= 0 (the region on the convex side of its
    boundary) and peaks at (a e / p)^(1/(1 - e)) when p > 0, so its feasible
    set is an interval.  Newton from hi rounded up, on the infeasible side,
    approaches the right root from above until the floats stall; the value
    is then the first float past the root by the exact sign of h
    (``_power_sign``), or past the band where floats cannot tell, and its
    uncertainty reaches down to the last float where h > 0 surely: the
    step to the float below, or across that band.  None when h < 0 on (lo, hi).
    """
    def past(t: float) -> bool:  # surely at or beyond the right root
        return _power_sign(a, e, p, q, t) in (-1, 0)

    try:
        peak = (a * e / p) ** (1.0 / (1.0 - e)) if p > 0.0 else math.inf
    except OverflowError:
        peak = math.inf
    if peak >= hi or _power_sign(a, e, p, q, peak) == -1:  # h < 0 up to hi, or at its top
        return None
    t = top = float_at_least(hi.numerator, hi.denominator)
    for _ in range(200):  # quadratic convergence takes a handful; a double root about 60
        slope = a * e * t ** (e - 1.0) - p
        nxt = t - (a * t**e - p * t - q) / slope if slope < 0.0 else t
        if not peak < nxt < t:
            break
        t = nxt
    below, value = _first_past(past, t, peak, top)
    if _power_sign(a, e, p, q, below) is None:  # the root lies somewhere in the band
        below = _first_past(lambda x: _power_sign(a, e, p, q, x) != 1, below, peak, value)[0]
    return SlabMaxResult(value, uncertainty=value - below) if value > lo else None


def _first_past(past, x: float, lo: float, hi: float):
    """(the last float below, the first float in (lo, hi] where ``past`` holds).

    ``past`` holds at hi and, once it holds, at every larger t.  The search
    gallops from x toward the change in steps that double from an ulp, then
    bisects to adjacent floats.
    """
    step = math.ulp(x)
    if past(x):
        hi = x
        while hi - step > lo and past(hi - step):
            hi, step = hi - step, 2.0 * step
        lo = max(lo, hi - step)
    else:
        lo = x
        while lo + step < hi and not past(lo + step):
            lo, step = lo + step, 2.0 * step
        hi = min(hi, lo + step)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if past(mid) else (mid, hi)
    return lo, hi


def _mk_region(family: dict, dim: int, slack_batch, convex: bool) -> FamilyRegion:
    return FamilyRegion(
        kind=family["kind"],
        dim=dim,
        convex_closure=convex,
        contains_origin=bool(slack_batch(0.0, np.zeros(dim)) >= 0.0),
        family=MappingProxyType(family),
        slack_batch=slack_batch,
    )


def _curve_region(family: dict, convex: bool) -> FamilyRegion:
    """The d = 1 region on one side of s = f(t), with slack f(t) - s ("le") or s - f(t) ("ge").

    IEEE subtraction is antisymmetric, so s - f(t) is -(f(t) - s) but for
    the sign of a zero slack, in one pass over the sums.
    """
    f = _CURVES[family["family"]](**family)[0]
    if _sign(family["orientation"]) > 0.0:
        def slack_batch(ts, ss):
            return f(ts) - ss[..., 0]
    else:
        def slack_batch(ts, ss):
            return ss[..., 0] - f(ts)

    return _mk_region(family, 1, slack_batch, convex)


def constant_region(level: float, orientation: str = "le", kind: str = "continuity") -> Region:
    """Region {s <= level} ("le") or {s >= level} ("ge") for scalar s."""
    return _curve_region({"family": "constant", "level": float(level),
                          "orientation": orientation, "kind": kind}, True)


def affine_region(slope: float, intercept: float, orientation: str = "le",
                  kind: str = "continuity") -> Region:
    """Region bounded by the line f(t) = slope*t + intercept."""
    return _curve_region({"family": "affine", "slope": float(slope),
                          "intercept": float(intercept), "orientation": orientation,
                          "kind": kind}, True)


def power_region(coef: float, exponent: float, orientation: str = "le",
                 kind: str = "continuity") -> Region:
    """Region bounded by f(t) = coef * t**exponent with 0 < exponent < 1.

    {s <= f} is convex when coef > 0 (region below a concave curve);
    {s >= f} is convex when coef < 0.  Other combinations get the convexity
    flag cleared.
    """
    coef, exponent = float(coef), float(exponent)
    if not 0.0 < exponent < 1.0:
        raise RegionError("exponent must lie in (0, 1)")
    convex = coef > 0 if orientation == "le" else coef < 0
    return _curve_region({"family": "power", "coef": coef, "exponent": exponent,
                          "orientation": orientation, "kind": kind}, convex)


def halfspace_region(s_coef, t_coef: float, level: float, orientation: str = "le",
                     kind: str = "continuity") -> Region:
    """Region {<s_coef, s> + t_coef*t <= level} ("le") or ">=" ("ge"), any dim.

    A scalar halfspace with s_coef != 0 is the affine region on one side of
    s = (level - t_coef*t)/s_coef; a negative s_coef flips that side.
    """
    a = np.atleast_1d(np.asarray(s_coef, dtype=float))
    b, c = float(t_coef), float(level)
    family = {"family": "halfspace", "s_coef": tuple(float(x) for x in a), "t_coef": b,
              "level": c, "orientation": orientation, "kind": kind}
    if _sign(orientation) > 0.0:  # no sign pass, as for a curve
        def slack_batch(ts, ss):
            return c - (ss @ a + b * ts)
    else:
        def slack_batch(ts, ss):
            return (ss @ a + b * ts) - c

    return _mk_region(family, a.shape[0], slack_batch, True)


_FAMILY_BUILDERS = {  # family -> (constructor, the parameters it takes before orientation, kind)
    "constant": (constant_region, ("level",)),
    "affine": (affine_region, ("slope", "intercept")),
    "power": (power_region, ("coef", "exponent")),
    "halfspace": (halfspace_region, ("s_coef", "t_coef", "level")),
}


def region_from_family(spec: dict) -> Region:
    """The built-in region of a family dict: its parameters, orientation and kind, no other key."""
    entry = _FAMILY_BUILDERS.get(spec.get("family"))
    if entry is None:
        raise RegionError(f"unknown region family {spec.get('family')!r}")
    build, params = entry
    keys = ("family", *params, "orientation", "kind")
    if set(spec) != set(keys):
        raise RegionError(f"a {spec['family']} region takes the keys {', '.join(keys)}; "
                          f"got {', '.join(map(str, spec))}")
    return build(*(spec[key] for key in params), spec["orientation"], spec["kind"])


# ---------------------------------------------------------------------------
# Rays
# ---------------------------------------------------------------------------


def _require_convex_origin(region: Region):
    if not (region.convex_closure and region.contains_origin):
        raise RegionError("operation requires asserted convex_closure and contains_origin")


def _ray_crossing(alpha: float, rate: float, k: float) -> float:
    """The t > 0 where alpha - rate * t**k changes sign; inf when none lies below _RAY_CAP."""
    if not (rate > 0.0 if alpha >= 0.0 else rate < 0.0):
        return math.inf
    ratio = alpha / rate
    return ratio ** (1.0 / k) if ratio < _RAY_CAP**k else math.inf


def ray_exit_time(region: Region, v) -> float:
    """sup{t >= 0 : (t, t v) in the closed region}; inf when the ray never leaves.

    Requires the convexity and origin flags.  A built-in family answers in
    closed form; an exit at or beyond 2**61 reads inf.
    """
    _require_convex_origin(region)
    return region.ray_exit(np.atleast_1d(np.asarray(v, dtype=float)))


def mean_ray_crossing(region: Region, mean) -> float:
    """The unique positive m with (m, m*mean) on the region boundary.

    Raises NoRayExitError when the mean ray never leaves the region below
    2**61 (the caller may interpret the associated bound as infinite).
    """
    m = ray_exit_time(region, mean)
    if math.isinf(m):
        raise NoRayExitError("mean ray stays inside the region below 2**61")
    return m


def ray_entry_and_exit(region: Region, v):
    """(inf A, sup A) for A = {t >= 0 : (t, t v) in the closed region}.

    Returns (None, None) when A holds no point below 2**61.  sup A is
    math.inf when the ray stays inside past that cap.
    """
    return region.entry_and_exit(np.atleast_1d(np.asarray(v, dtype=float)))


# ---------------------------------------------------------------------------
# Gradient and supporting hyperplane
# ---------------------------------------------------------------------------


def _log_gradient_at(region: Region, mean: np.ndarray, g0: float) -> np.ndarray:
    """The region's gradient of ln g at the mean, where g = g0 must be finite and positive."""
    if not (np.isfinite(g0) and g0 > 0.0):
        raise GradientDomainError("g is not finite and positive at the mean")
    grad = region.log_gradient(mean, g0)
    if not np.all(np.isfinite(grad)):
        raise GradientDomainError("non-finite log-gradient")
    return grad


def log_exit_gradient(region: Region, mean) -> np.ndarray:
    """Gradient of ln g(v) at v=mean, exact for a built-in family."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return _log_gradient_at(region, mean, ray_exit_time(region, mean))


@dataclass(frozen=True)
class Hyperplane:
    """Supporting hyperplane <s_coef, s> + t_coef * t = level, anchored at time ``anchor``.

    The whole region lies on the side <= level, and level is positive.
    """

    s_coef: np.ndarray
    t_coef: float
    level: float
    anchor: float

    def __post_init__(self):
        object.__setattr__(self, "s_coef", np.atleast_1d(np.asarray(self.s_coef, dtype=float)))
        if not self.level > 0.0:
            raise RegionError("hyperplane level must be positive")
        if not self.anchor > 0.0:
            raise RegionError("hyperplane anchor time must be positive")

    @property
    def dim(self) -> int:
        return self.s_coef.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.s_coef))

    def mean_gap(self, mean) -> float:
        """<s_coef, mean> + t_coef, which equals level/anchor for a valid plane."""
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        return float(self.s_coef @ mean + self.t_coef)

    def value(self, t: float, s) -> float:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return float(self.s_coef @ s + self.t_coef * t)


def supporting_hyperplane(region: Region, mean) -> Hyperplane:
    """Supporting hyperplane of the region at the mean-ray crossing point.

    Coefficients come from the log-gradient of the ray function at the
    crossing time m: the normal on the sum coordinate is minus that
    gradient, the time coefficient is chosen so the mean gap equals one,
    and the level equals m.  With the exact gradient of a built-in family
    the plane is exact: the boundary itself for a flat family, the tangent
    on the convex side of a power boundary (``ray_exit_time`` refuses the
    other side).
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    m = mean_ray_crossing(region, mean)
    a = -_log_gradient_at(region, mean, m)
    return Hyperplane(s_coef=a, t_coef=1.0 - float(a @ mean), level=m, anchor=m)


# ---------------------------------------------------------------------------
# Slice distances
# ---------------------------------------------------------------------------


def hyperplane_slice_distance(hyp: Hyperplane, n: float, mean) -> float:
    """Distance from the mean to the slice of the plane's halfspace at size n.

    Closed form (1 - anchor/n) * |mean gap| / norm, valid for n > anchor.
    """
    if not n > hyp.anchor:
        raise ValueError("slice size must exceed the anchor time")
    return (1.0 - hyp.anchor / n) * abs(hyp.mean_gap(mean)) / hyp.norm


def slice_distance(region: Region, n: float, mean) -> float:
    """Euclidean distance from the mean to {z : (n, n z) in the closed region}.

    Exact for the built-in families.  Returns 0 when the mean lies in the slice.
    """
    if not region.convex_closure:
        raise RegionError("slice distance requires the asserted convex closure")
    return region.slice_distance(n, np.atleast_1d(np.asarray(mean, dtype=float)))


def slice_side(region: Region, n: float, mean) -> str:
    """For scalar regions: whether the slice lies above or below the mean.

    Returns "inside" when the mean belongs to the slice.  The concentration
    bound sums one-sided scalar tails when the slice lies above or below.
    """
    mu = np.atleast_1d(np.asarray(mean, dtype=float))
    if mu.shape[0] != 1:
        raise RegionError("slice_side is defined for scalar regions only")
    if region.contains(n, n * mu):
        return "inside"
    return region.slice_side(n, mu)
