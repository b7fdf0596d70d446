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
is affine in s.  The slope gives the exact log-gradient 1/(f'(m) - mean),
and a halfspace gives -a/(<a, mean> + b), so the supporting hyperplane is
exact.  A membership predicate makes an ``oracle.OracleRegion``, whose
methods are searches and whose plane is audited on sampled members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

DOUBLING_CAP = 2.0**60
_RAY_CAP = 2.0 * DOUBLING_CAP  # the last doubling probe: a crossing there or beyond reads inf


class RegionError(ValueError):
    """Region flags or parameters inconsistent with the requested operation."""


class NoRayExitError(RuntimeError):
    """The ray never leaves the region below the doubling cap (no unique crossing)."""


class NonConvexityError(RuntimeError):
    """Observed membership pattern contradicts the asserted convexity."""


class GradientDomainError(RuntimeError):
    """g is infinite or non-finite-differentiable where a gradient was requested."""


class EmptySliceError(RuntimeError):
    """The fixed-size slice of the region contains no point reachable by search."""


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

    Each type has the methods ``inside``, ``ray_exit``, ``entry_and_exit``,
    ``exit_box_max``, ``log_gradient``, ``slice_side``, ``slice_distance``,
    ``slab_feasibility`` and ``complement_closure``.  ``closed_form`` says
    whether the answers are exact, so that the supporting plane needs no
    ``support_audit``.  The capabilities below belong to some built-in
    families; a region without one answers None, or False for ``time_slab``.
    """

    kind: str  # "continuity" | "stopping"
    dim: int
    convex_closure: bool
    contains_origin: bool

    closed_form = False
    scalar_boundary = boundary_slope = orientation = linear_slack = power_exponent = None
    time_slab = False

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

    closed_form = True

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

    def ray_exit(self, v: np.ndarray, tol: Optional[float] = None) -> float:
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

    def entry_and_exit(self, v: np.ndarray, tol: Optional[float] = None):
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

    def slice_side(self, n: float, mu: np.ndarray, tol: float) -> str:
        """The side of the curve the slice lies on, when it misses mu."""
        if self.time_slab:
            raise EmptySliceError(f"the slice at n={n} is empty")
        return "above" if self.orientation == "ge" else "below"

    def slice_distance(self, n: float, mu: np.ndarray, tol: float) -> float:
        """max(0, -slack(n, n mu)) / (n |beta|), beta = s_coef for a halfspace and 1 for a curve."""
        slack = float(self.slack_batch(n, n * mu))
        if slack >= 0.0:
            return 0.0
        if self.time_slab:
            raise EmptySliceError(f"the slice at n={n} is empty")
        p = self.family
        norm = float(np.linalg.norm(p["s_coef"])) if p["family"] == "halfspace" else 1.0
        return -slack / (n * norm)

    def slab_feasibility(self, slab, tol: float):
        """t -> whether the box ``slab.box(t)`` meets the slice at t.

        A curve s = f(t) compares f(t) with the box edge on its side; a
        halfspace (time slabs included) takes its slack at the box corner
        that maximizes it, lo_i where beta_i > 0 and hi_i elsewhere.
        """
        curve = self._curve
        if curve is not None:
            f, le = curve[0], curve[2] == "le"

            def feasible(t: float) -> bool:
                lo, hi = slab.box(t)
                lo, hi = float(lo[0]), float(hi[0])
                return lo <= hi and (lo <= f(t) if le else hi >= f(t))
        else:
            take_lo = self.linear_slack[1] > 0.0

            def feasible(t: float) -> bool:
                lo, hi = slab.box(t)
                return not np.any(lo > hi) and self.slack_batch(t, np.where(take_lo, lo, hi)) >= 0.0
        return feasible


_FLIP = {"le": "ge", "ge": "le"}


def _sign(orientation) -> float:
    """Slack sign: +1 for "le" (slack f - s), -1 for "ge" (slack s - f)."""
    if orientation not in _FLIP:
        raise RegionError(f"orientation must be 'le' or 'ge', not {orientation!r}")
    return 1.0 if orientation == "le" else -1.0


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


def region_from_oracle(membership, dim: int, kind: str = "continuity",
                       convex_closure: bool = False, contains_origin: bool = False) -> Region:
    """Wrap a plain membership predicate as an ``oracle.OracleRegion``, which searches."""
    from .oracle import OracleRegion

    return OracleRegion(kind, dim, convex_closure, contains_origin, membership)


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


def ray_exit_time(region: Region, v, tol: Optional[float] = None) -> float:
    """sup{t >= 0 : (t, t v) in the closed region}; inf when the ray never leaves.

    Requires the convexity and origin flags.  A built-in family answers in
    closed form; an oracle region searches to ``tol`` and audits convexity
    around the exit.  Either way an exit at or beyond 2**61 reads inf.
    """
    _require_convex_origin(region)
    return region.ray_exit(np.atleast_1d(np.asarray(v, dtype=float)), tol)


def ray_exit_box_max(region: Region, lo, hi) -> float:
    """max of ray_exit_time(region, v) over the box lo <= v <= hi, for a built-in family only."""
    if not region.closed_form:
        raise RegionError("the closed-form box maximum requires a built-in region family")
    return region.exit_box_max(lo, hi)


def mean_ray_crossing(region: Region, mean, tol: Optional[float] = None) -> float:
    """The unique positive m with (m, m*mean) on the region boundary.

    Raises NoRayExitError when the mean ray never leaves the region below
    the doubling cap (the caller may interpret the associated bound as
    infinite).
    """
    m = ray_exit_time(region, mean, tol=tol)
    if math.isinf(m):
        raise NoRayExitError("mean ray stays inside the region up to the doubling cap")
    return m


def ray_entry_and_exit(region: Region, v, tol: Optional[float] = None):
    """(inf A, sup A) for A = {t >= 0 : (t, t v) in the closed region}.

    Returns (None, None) when A holds no point below the doubling cap
    (2**61).  sup A is math.inf when the ray stays inside past the cap.
    """
    return region.entry_and_exit(np.atleast_1d(np.asarray(v, dtype=float)), tol)


# ---------------------------------------------------------------------------
# Gradient and supporting hyperplane
# ---------------------------------------------------------------------------


def log_exit_gradient(region: Region, mean) -> np.ndarray:
    """Gradient of ln g(v) at v=mean: exact for a built-in family, extrapolated differences else."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    g0 = ray_exit_time(region, mean)
    if not (np.isfinite(g0) and g0 > 0.0):
        raise GradientDomainError("g is not finite and positive at the mean")
    grad = region.log_gradient(mean, g0)
    if not np.all(np.isfinite(grad)):
        raise GradientDomainError("non-finite log-gradient")
    return grad


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


def sample_member_points(region: Region, n_points: int, seed: int, t_max: float, s_span):
    """Rejection-sample up to n_points members of the region inside a box.

    Candidate k is row k of one uniform stream: t = t_max*u[k, 0] and
    s = -s_span + 2*s_span*u[k, 1:], the values that per-candidate calls
    rng.uniform(0, t_max), rng.uniform(-s_span, s_span) would return.
    Candidates are drawn and tested 4*n_points rows at a time, up to
    200*n_points rows; consecutive ``rng.random`` calls continue one
    stream, so the slices are the rows a single draw would give.
    """
    rng = np.random.default_rng(seed)
    s_span = np.atleast_1d(np.asarray(s_span, dtype=float))
    width = 4 * n_points  # candidates drawn and tested at a time
    t_parts, s_parts, found = [], [], 0
    for _ in range(50):  # 200 * n_points candidates at most
        u = rng.random((width, 1 + region.dim))
        ts = t_max * u[:, 0]
        ss = -s_span + (s_span - -s_span) * u[:, 1:]
        keep = np.flatnonzero(region.inside(ts, ss))[:n_points - found]
        t_parts.append(ts[keep])
        s_parts.append(ss[keep])
        found += keep.size
        if found == n_points:
            break
    return np.concatenate(t_parts), np.concatenate(s_parts)


def supporting_hyperplane(region: Region, mean, grad=None) -> Hyperplane:
    """Supporting hyperplane of the region at the mean-ray crossing point.

    Coefficients come from the log-gradient of the ray function: the normal
    on the sum coordinate is minus that gradient, the time coefficient is
    chosen so the mean gap equals one, and the level equals the crossing
    time.  With the exact gradient of a built-in family the plane is exact:
    the boundary itself for a flat family, the tangent on the convex side of
    a power boundary (``ray_exit_time`` refuses the other side).  A region
    without closed forms, or a supplied gradient, gets ``support_audit``,
    which guards against bad gradients or a non-convex region.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    m = mean_ray_crossing(region, mean)
    numeric = log_exit_gradient(region, mean)
    if grad is not None:
        grad = np.atleast_1d(np.asarray(grad, dtype=float))
        if not np.allclose(grad, numeric, rtol=1e-4, atol=1e-4):
            raise GradientDomainError("supplied gradient disagrees with the numeric one")
        use = grad
    else:
        use = numeric
    a = -use
    b = 1.0 - float(a @ mean)
    hyp = Hyperplane(s_coef=a, t_coef=b, level=m, anchor=m)
    if not region.closed_form or grad is not None:
        support_audit(region, hyp, mean)
    return hyp


def support_audit(region: Region, hyp: Hyperplane, mean):
    """Raise NonConvexityError unless 200 members sampled from seed 7 lie below the plane.

    Members come from [0, 2m] x [-span, span] with span = 2m(|mean| + 1) and
    m the plane's anchor; each must satisfy value <= level + 1e-6 max(1, m).
    """
    m = hyp.anchor
    span = 2.0 * m * (np.abs(mean) + 1.0)
    ts, ss = sample_member_points(region, 200, 7, 2.0 * m, span)
    if ts.size:
        vals = ss @ hyp.s_coef + hyp.t_coef * ts
        slackness = 1e-6 * max(1.0, abs(m))
        if np.any(vals > hyp.level + slackness):
            raise NonConvexityError("support check failed: a member lies above the plane")


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


def slice_distance(region: Region, n: float, mean, tol: float = 1e-9) -> float:
    """Euclidean distance from the mean to {z : (n, n z) in the closed region}.

    Exact for the built-in families; an oracle region's search is
    approximate for d >= 3.  Returns 0 when the mean lies in the slice.
    """
    if not region.convex_closure:
        raise RegionError("slice distance requires the asserted convex closure")
    return region.slice_distance(n, np.atleast_1d(np.asarray(mean, dtype=float)), tol)


def convexity_audit(region: Region, t_max: float, s_span, n_pairs: int = 200,
                    seed: int = 19) -> bool:
    """Probabilistic audit of the asserted convexity inside a sampling box.

    Samples member pairs and checks membership of random mixtures.  Passing
    does not certify convexity; a failure refutes the asserted flag.
    """
    rng = np.random.default_rng(seed)
    ts, ss = sample_member_points(region, 2 * n_pairs, seed + 1, t_max, s_span)
    if ts.size < 2:
        return True
    for _ in range(n_pairs):
        i, j = rng.integers(0, ts.size, 2)
        rho = rng.uniform(0.0, 1.0)
        t_mix = rho * ts[i] + (1.0 - rho) * ts[j]
        s_mix = rho * ss[i] + (1.0 - rho) * ss[j]
        if not region.contains(t_mix, s_mix):
            return False
    return True


def slice_side(region: Region, n: float, mean, tol: float = 1e-9) -> str:
    """For scalar regions: whether the slice lies above or below the mean.

    Returns "inside" when the mean belongs to the slice.  The concentration
    bound sums one-sided scalar tails when the slice lies above or below.
    """
    mu = np.atleast_1d(np.asarray(mean, dtype=float))
    if mu.shape[0] != 1:
        raise RegionError("slice_side is defined for scalar regions only")
    if region.contains(n, n * mu):
        return "inside"
    return region.slice_side(n, mu, tol)
