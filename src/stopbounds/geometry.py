"""Regions in the (time, sum) hyperspace and the geometry every bound needs.

A region is a set of points (t, s) with t >= 0 and s a d-vector, plus
asserted convexity/origin flags.  The quantities computed here: the crossing
time m where the mean ray (t, t*mean) leaves the region, the ray function
g(v) = sup{t : (t, t v) in region}, the gradient of ln g, the supporting
hyperplane at (m, m*mean), and distances from the mean to region slices at
fixed sample size.

The free functions here check the flags an answer needs, then ask the
region's own method.  A built-in region (``FamilyRegion``) is its kind and
its slack form: the slack alpha*t**e - <beta, s> - kappa*t, positive inside
and zero on the boundary, with no t**e factor on a flat boundary, is
computed once by its constructor beside a kernel that evaluates it over
batches of points.  Along a ray (t, t v) the slack has the sign of
alpha - rate*t**k (``ray_form``), with the rate affine in v, so ray exits,
entries and the maximum of g over a box are closed forms, as are the side
and distance of a slice, where the slack is affine in s, and the largest t
at which a slab's box meets a slice.  A flat boundary gives the exact
log-gradient -beta/(<beta, mean> + kappa), and a d = 1 power boundary
s = f(t) gives 1/(f'(m) - mean) from its exact slope, so the supporting
hyperplane is exact.  Only the four constructors and ``region_from_family``
know the family names.

The plane holds its normal as a tuple of Python floats, and what the
calculators read back, the plane's products and the log-gradient, are
Python floats summed left to right from 0.0 (``as_floats``, ``dot``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

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


@dataclass(frozen=True)
class Region:
    """Continuity or stopping region with asserted flags: what every region type provides.

    Each type has the methods ``inside``, ``contains_sums``, ``ray_exit``,
    ``entry_and_exit``, ``exit_box_max``, ``log_gradient``, ``slice_side``,
    ``slice_distance``, ``slab_max`` and ``complement_closure``, and the
    read-outs ``scalar_boundary``, ``boundary_slope``, ``orientation``,
    ``linear_slack``, ``power_exponent`` (each None where it does not
    apply), ``ray_coefficients``, ``ray_form`` and ``time_slab``, as
    ``FamilyRegion`` reads them off its slack form.
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


@dataclass(frozen=True)
class FamilyRegion(Region):
    """A built-in region, answered in closed form with no membership call.

    ``form`` is its slack alpha*t**e - <beta, s> - kappa*t, nonnegative
    exactly on the closed region, as the tuple (alpha, beta, kappa, e) with
    ``beta`` a read-only array: e is None on a flat boundary (constant,
    affine, halfspace), whose slack has no t**e factor, and a power boundary
    c*t**e has kappa = 0 and d = 1.  Every closed form reads it.
    ``slack_batch`` evaluates a slack of that sign over the shapes ``inside``
    takes, as its constructor writes it, so walks stop on it bit for bit.
    """

    slack_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]
    form: tuple = field(repr=False, compare=False)

    def inside(self, ts, ss, strict: bool = False):
        """Membership of points with times ts >= 0, in the closed or open region.

        Takes sums s of shape (..., d) with times that broadcast against
        s[..., 0]: a scalar t with a (d,) vector, (n,) times with (n, d)
        sums, or (steps,) times with a (runs, steps, d) block.
        """
        margin = self.slack_batch(ts, ss)
        return margin > 0.0 if strict else margin >= 0.0

    @property
    def orientation(self) -> Optional[str]:
        """The side of a d = 1 boundary s = f(t) the region lies on: "le" (beta > 0) or "ge"."""
        beta = self.form[1]
        if beta.shape[0] != 1 or beta[0] == 0.0:
            return None
        return "le" if beta[0] > 0.0 else "ge"

    @property
    def scalar_boundary(self):
        """The boundary f = (alpha*t**e, or alpha - kappa*t)/beta of {s <= f(t)} or {s >= f(t)}."""
        if self.orientation is None:
            return None
        alpha, beta, kappa, e = self.form
        b = float(beta[0])
        if e is None:
            return lambda t: (alpha - kappa * t) / b
        return lambda t: alpha * t**e / b

    @property
    def boundary_slope(self):
        """The exact slope f' of that boundary."""
        if self.orientation is None:
            return None
        alpha, beta, kappa, e = self.form
        b = float(beta[0])
        if e is None:
            slope = -kappa / b
            return lambda t: slope
        return lambda t: alpha * e * t ** (e - 1.0) / b

    @property
    def time_slab(self) -> bool:
        """Whether this is a halfspace in t alone (beta = 0), whose slices are all or nothing."""
        return not self.form[1].any()

    @property
    def power_exponent(self) -> Optional[float]:
        """The exponent e of a power boundary c*t**e."""
        return self.form[3]

    @property
    def linear_slack(self):
        """(alpha, beta, kappa) of a flat boundary, with slack alpha - <beta, s> - kappa*t."""
        alpha, beta, kappa, e = self.form
        return None if e is not None else (alpha, beta, kappa)

    @property
    def ray_coefficients(self):
        """(alpha, beta, kappa, k).

        For t > 0 the point (t, t v) is in the closed region exactly when
        alpha - rate * t**k >= 0, with the rate <beta, v> + kappa affine in
        v: the slack over t**e is alpha - t**(1 - e)*rate, so k = 1 - e, and
        k = 1 on a flat boundary.
        """
        alpha, beta, kappa, e = self.form
        return alpha, beta, kappa, 1.0 if e is None else 1.0 - e

    def ray_form(self, v: np.ndarray):
        """(alpha, rate, k) along the ray (t, t v)."""
        alpha, beta, kappa, k = self.ray_coefficients
        return alpha, float(beta @ v) + kappa, k

    def complement_closure(self) -> "FamilyRegion":
        """Closure of the complement: the opposite kind, with the form and the slack negated."""
        alpha, beta, kappa, e = self.form
        slack = self.slack_batch
        return _mk_region("stopping" if self.kind == "continuity" else "continuity",
                          (-alpha, -beta, -kappa, e), lambda ts, ss: -slack(ts, ss))

    def ray_exit(self, v: np.ndarray) -> float:
        """(alpha/rate)^(1/k), with no membership call, refusing flags that misstate the region.

        The slack at the origin is alpha on a flat boundary, so alpha < 0 puts
        the origin outside; a power boundary passes through the origin, and
        alpha < 0 puts its region on the non-convex side.
        """
        alpha, beta, kappa, k = self.ray_coefficients
        if alpha < 0.0:
            if self.power_exponent is None:
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
        return ray_exit_time(self, np.where(self.form[1] > 0.0, lo, hi))

    def contains_sums(self, n: int, lo, hi) -> bool:
        """Whether the closed region holds (n, s) for every sum s of n increments in [lo, hi].

        Those sums fill the box n*[lo, hi].  The slack, alpha - <beta, s> -
        kappa*t or on a power boundary alpha*t**e - <beta, s> (t**e a float),
        is least at the corner taking hi_i where beta_i > 0 and lo_i where
        beta_i < 0, and is summed there exactly, as in ``slab_max``.
        """
        alpha, beta, kappa, e = self.form
        corner = np.where(beta > 0.0, hi, lo).tolist()
        terms = [(-b, n, c) for b, c in zip(beta.tolist(), corner) if b != 0.0 and n]
        if any(math.isinf(c) for *_, c in terms):
            return False
        terms += [(alpha, n ** e)] if e is not None else [(alpha,), (-kappa, n)]
        return exact_sum(terms)[0] >= 0

    def entry_and_exit(self, v: np.ndarray):
        """Exact (inf A, sup A), or (None, None)."""
        alpha, rate, k = self.ray_form(v)
        cross = _ray_crossing(alpha, rate, k)
        if alpha >= 0.0:
            return 0.0, cross
        if self.power_exponent is not None:  # the origin, on the boundary, then [cross, inf)
            return 0.0, 0.0 if math.isinf(cross) else math.inf
        return (None, None) if math.isinf(cross) else (cross, math.inf)

    def log_gradient(self, mean: np.ndarray, g0: float) -> np.ndarray:
        """-beta / (<beta, mean> + kappa) on a flat boundary; 1 / (f'(g0) - mean) on a power one."""
        _, beta, kappa, e = self.form
        if e is None:
            return -beta / (beta @ mean + kappa)
        return np.array([1.0 / (self.boundary_slope(g0) - mean[0])])

    def slice_side(self, n: float, mu: np.ndarray) -> str:
        """The side of the curve the slice lies on, when it misses mu."""
        if self.time_slab:
            raise EmptySliceError(f"the slice at n={n} is empty")
        return "above" if self.orientation == "ge" else "below"

    def slice_distance(self, n: float, mu: np.ndarray) -> float:
        """max(0, -slack(n, n mu)) / (n |beta|)."""
        slack = float(self.slack_batch(n, n * mu))
        if slack >= 0.0:
            return 0.0
        if self.time_slab:
            raise EmptySliceError(f"the slice at n={n} is empty")
        return -slack / (n * float(np.linalg.norm(self.form[1])))

    def slab_max(self, slab) -> "SlabMaxResult":
        """The largest t in [0, 2**30] whose box meets the slice: the right end of one interval.

        The box at t meets the closed slice exactly when two kinds of
        condition hold, and each holds on an interval of t, so the feasible t
        form one interval.  Box edges: on each coordinate every lower edge of
        the slab and its primed slab lies at or below every upper one, affine
        in t; a layer that is not ``is_empty`` holds its own at every t >= 0.
        Slack: the slack, affine in s, is largest at the box corner taking
        the largest lower edge where beta_i > 0 and the smallest upper edge
        elsewhere, so it is >= 0 there exactly when alpha t^e - kappa t -
        sum beta_i (s_i t + c_i) >= 0 for every choice of one edge per
        coordinate on that side: affine in t on a flat family, concave on a
        power boundary (alpha >= 0).  The box edges cut [0, 2**30] to [lo, hi]
        in exact rationals.  A flat family's least slack over the choices is
        concave and piecewise affine, and the choice taking each coordinate's
        worst edge at hi reaches it there, so hi is cut to that choice's root
        until the slack holds at hi: each cut leaves a piece, and there are at
        most d (layers - 1) + 1, so no choice but those is ever formed.  A
        power boundary has d = 1: the smallest right root
        (``_power_last_root``) of the layers' curves negative at hi binds,
        where every other curve must hold; a curve with no root in (lo, hi)
        leaves lo alone, tested exactly.  Every value is rounded up.
        """
        alpha, beta, kappa, e = self.form
        if e is not None and alpha < 0.0:
            raise NonConvexityError("the region lies on the non-convex side of its boundary")
        layers = [slab]
        while layers[-1].primed is not None:
            layers.append(layers[-1].primed)
        rows = [(x.lower_slope, x.upper_slope, x.lower_icept, x.upper_icept) for x in layers]
        cuts = [_affine_cut([(ui,), (-li,)], [(ls,), (-us,)])  # lower edge <= upper edge
                for j, (lower_slope, _, lower_icept, _) in enumerate(rows)
                for k, (_, upper_slope, _, upper_icept) in enumerate(rows)
                if j != k or layers[j].is_empty
                for ls, us, li, ui in zip(lower_slope, upper_slope, lower_icept, upper_icept)]
        beta = beta.tolist()
        read = [i for i, b in enumerate(beta) if b != 0.0]  # the coordinates the slack reads
        weights = [beta[i] for i in read]
        sides = [[(r[0][i], r[2][i]) if beta[i] > 0.0 else (r[1][i], r[3][i]) for r in rows]
                 for i in read]
        lo, lo_d, hi, hi_d = 0, 1, int(_T_CAP), 1  # the feasible t lie in [lo/lo_d, hi/hi_d]
        for rise, rate in cuts:
            if rate > 0 and rise * hi_d < hi * rate:
                hi, hi_d = rise, rate
            elif rate < 0 and rise * lo_d < lo * rate:
                lo, lo_d = -rise, -rate
            elif rate == 0 and rise < 0:
                return SlabMaxResult(0.0, empty_domain=True)
        if lo * hi_d > hi * lo_d:
            return SlabMaxResult(0.0, empty_domain=True)
        curves = []  # a power boundary's (d = 1) concave slack along each layer's edge
        if e is None:  # each edge's slack term -beta_i (s t + c) as (rise, rate), over one denominator
            (rise0, rate0, *nums), _ = _numerators(
                [(alpha,), (kappa,), *(x for b, side in zip(weights, sides)
                                       for s, c in side for x in ((-b, c), (b, s)))])
            pairs = list(zip(nums[::2], nums[1::2]))
            edges = [pairs[k:k + len(rows)] for k in range(0, len(pairs), len(rows))]
            while True:  # the slack along each coordinate's worst edge at hi, cut to its root
                rise, rate = rise0, rate0
                for r, q in (min(es, key=lambda p: p[0] * hi_d - p[1] * hi) for es in edges):
                    rise, rate = rise + r, rate + q
                if rise * hi_d >= rate * hi:
                    break
                if rate <= 0 or rise * lo_d < lo * rate:
                    return SlabMaxResult(0.0, empty_domain=True)
                hi, hi_d = rise, rate
        else:
            curves = [(alpha, e, weights[0] * s, weights[0] * c) for s, c in sides[0]]
        t_hi = Fraction(hi, hi_d)
        falling = [_power_sign(*c, t_hi) == -1 for c in curves]
        if not any(falling):
            if t_hi == _T_CAP:
                return SlabMaxResult(math.inf, unbounded=True)
            return SlabMaxResult(float_at_least(hi, hi_d))
        t_lo = Fraction(lo, lo_d)
        roots = [_power_last_root(*c, t_lo, t_hi) if down else None
                 for c, down in zip(curves, falling)]
        if any(down and r is None for down, r in zip(falling, roots)):  # no root in (lo, hi)
            if all(_power_sign(*c, t_lo) != -1 for c in curves):
                return SlabMaxResult(float_at_least(lo, lo_d))
            return SlabMaxResult(0.0, empty_domain=True)
        best = min(r for r in roots if r is not None)
        if any(_power_sign(*c, best.value) == -1
               for c, r in zip(curves, roots) if r is None or r.value > best.value):
            return SlabMaxResult(0.0, empty_domain=True)
        return best


def _sign(orientation) -> float:
    """Slack sign: +1 for "le" (slack f - s), -1 for "ge" (slack s - f)."""
    if orientation not in ("le", "ge"):
        raise RegionError(f"orientation must be 'le' or 'ge', not {orientation!r}")
    return 1.0 if orientation == "le" else -1.0


class SlabMaxResult(NamedTuple):  # a tuple: cheaper than a dataclass to define at import
    """The largest t whose slab box meets the region's slice.

    ``unbounded``: the box meets it at t = 2**30 (value inf); ``empty_domain``:
    at no t in [0, 2**30] (value 0).  ``uncertainty`` is how far the value
    may lie above the exact maximum.  On a built-in region, plain or primed
    slab alike, it is 0 where the value is an exact end of the feasible
    interval rounded up to a float, and the last bracket, an ulp or a few or the band of
    undecided sign, at the root of a power boundary's slack.
    """

    value: float
    empty_domain: bool = False
    unbounded: bool = False
    uncertainty: float = 0.0


def as_floats(v) -> tuple:
    """A vector as a tuple of Python floats: a sequence or 1-D array by entry, a number as one."""
    try:
        return tuple(map(float, v))
    except TypeError:
        return (float(v),)


def dot(a, b) -> float:
    """<a, b> of two float sequences, summed left to right from 0.0."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def exact_sum(terms):
    """The sum of the products of tuples of floats, exactly: (numerator, denominator > 0).

    A float is an integer over a power of two, so the largest denominator is
    a common one, and nothing is reduced.
    """
    nums, den = _numerators(terms)
    return sum(nums), den


def _numerators(terms):
    """The products of tuples of floats as integers over one common denominator: (nums, den)."""
    parts = []
    for term in terms:
        num = den = 1
        for x in term:
            n, d = x.as_integer_ratio()
            num, den = num * n, den * d
        parts.append((num, den))
    den = max(d for _, d in parts)
    return [n * (den // d) for n, d in parts], den


def _affine_cut(rise_terms, rate_terms):
    """The condition rise - rate*t >= 0 on t as two integers (rise, rate).

    rise and rate are sums of products of floats, each summed exactly over its
    own denominator (``exact_sum``); cross-multiplying puts both over one.
    """
    (rise, d_rise), (rate, d_rate) = exact_sum(rise_terms), exact_sum(rate_terms)
    return rise * d_rate, rate * d_rise


def float_at_least(num: int, den: int) -> float:
    """The smallest float at or above num/den, for den > 0 (int division rounds to nearest).

    Past the float range that is +inf above it and the most negative float below it.
    """
    try:
        t = num / den
    except OverflowError:
        return math.inf if num > 0 else -sys.float_info.max
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


def _mk_region(kind: str, form: tuple, slack_batch) -> FamilyRegion:
    """The region of a slack form: convex when flat or on a power boundary's concave side."""
    alpha, beta, _, e = form
    beta.flags.writeable = False
    return FamilyRegion(
        kind=kind,
        dim=beta.shape[0],
        convex_closure=e is None or alpha > 0.0,
        contains_origin=bool(slack_batch(0.0, np.zeros(beta.shape[0])) >= 0.0),
        slack_batch=slack_batch,
        form=form,
    )


def _curve_region(f, alpha: float, kappa: float, e, sgn: float, kind: str) -> FamilyRegion:
    """The d = 1 region on one side of s = f(t), with slack f(t) - s ("le") or s - f(t) ("ge").

    The form is (alpha, [sgn], kappa, e).  IEEE subtraction is
    antisymmetric, so s - f(t) is -(f(t) - s) but for the sign of a zero
    slack, in one pass over the sums.
    """
    if sgn > 0.0:
        def slack_batch(ts, ss):
            return f(ts) - ss[..., 0]
    else:
        def slack_batch(ts, ss):
            return ss[..., 0] - f(ts)

    return _mk_region(kind, (alpha, np.array([sgn]), kappa, e), slack_batch)


def constant_region(level: float, orientation: str = "le", kind: str = "continuity") -> Region:
    """Region {s <= level} ("le") or {s >= level} ("ge") for scalar s."""
    level, sgn = float(level), _sign(orientation)
    return _curve_region(lambda t: level, sgn * level, -sgn * 0.0, None, sgn, kind)


def affine_region(slope: float, intercept: float, orientation: str = "le",
                  kind: str = "continuity") -> Region:
    """Region bounded by the line f(t) = slope*t + intercept."""
    slope, intercept, sgn = float(slope), float(intercept), _sign(orientation)

    def f(t):
        return slope * t + intercept

    return _curve_region(f, sgn * f(0.0), -sgn * slope, None, sgn, kind)


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
    sgn = _sign(orientation)
    return _curve_region(lambda t: coef * t**exponent, sgn * coef, 0.0, exponent, sgn, kind)


def halfspace_region(s_coef, t_coef: float, level: float, orientation: str = "le",
                     kind: str = "continuity") -> Region:
    """Region {<s_coef, s> + t_coef*t <= level} ("le") or ">=" ("ge"), any dim.

    The form is sgn*(level, s_coef, t_coef).  A scalar halfspace with
    s_coef != 0 is the affine region on one side of s = (level -
    t_coef*t)/s_coef; a negative s_coef flips that side.
    """
    a = np.array(s_coef, dtype=float, ndmin=1)  # a copy: the slack must not change
    b, c, sgn = float(t_coef), float(level), _sign(orientation)
    if sgn > 0.0:  # no sign pass, as for a curve
        def slack_batch(ts, ss):
            return c - (ss @ a + b * ts)
    else:
        def slack_batch(ts, ss):
            return (ss @ a + b * ts) - c

    return _mk_region(kind, (sgn * c, sgn * a, sgn * b, None), slack_batch)


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

    Requires the convexity and origin flags.  A built-in region answers in
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


def log_exit_gradient(region: Region, mean) -> tuple:
    """Gradient of ln g(v) at v=mean as a tuple of floats, exact for a built-in region."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return as_floats(_log_gradient_at(region, mean, ray_exit_time(region, mean)))


@dataclass(frozen=True)
class Hyperplane:
    """Supporting hyperplane <s_coef, s> + t_coef * t = level, anchored at time ``anchor``.

    The whole region lies on the side <= level, and level is positive.
    ``s_coef`` is held as a tuple of Python floats, whatever sequence it is
    given as, and every product with it is summed left to right (``dot``).
    """

    s_coef: tuple
    t_coef: float
    level: float
    anchor: float

    def __post_init__(self):
        object.__setattr__(self, "s_coef", as_floats(self.s_coef))
        if not self.level > 0.0:
            raise RegionError("hyperplane level must be positive")
        if not self.anchor > 0.0:
            raise RegionError("hyperplane anchor time must be positive")

    @property
    def dim(self) -> int:
        return len(self.s_coef)

    @property
    def norm(self) -> float:
        return math.sqrt(dot(self.s_coef, self.s_coef))

    def mean_gap(self, mean) -> float:
        """<s_coef, mean> + t_coef, which equals level/anchor for a valid plane."""
        return dot(self.s_coef, as_floats(mean)) + self.t_coef

    def value(self, t: float, s) -> float:
        return dot(self.s_coef, as_floats(s)) + self.t_coef * t


def supporting_hyperplane(region: Region, mean) -> Hyperplane:
    """Supporting hyperplane of the region at the mean-ray crossing point.

    Coefficients come from the log-gradient of the ray function at the
    crossing time m: the normal on the sum coordinate is minus that
    gradient, the time coefficient is chosen so the mean gap equals one,
    and the level equals m.  With the exact gradient of a built-in region
    the plane is exact: the boundary itself for a flat boundary, the tangent
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

    Exact for the built-in regions.  Returns 0 when the mean lies in the slice.
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
