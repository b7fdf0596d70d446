"""Regions in the (time, sum) hyperspace and the geometry every bound needs.

A region is a set of points (t, s) with t >= 0 and s a d-vector, plus
asserted convexity/origin flags.  The quantities computed here: the crossing
time m where the mean ray (t, t*mean) leaves the region, the ray function
g(v) = sup{t : (t, t v) in region}, the gradient of ln g, the supporting
hyperplane at (m, m*mean), and distances from the mean to region slices at
fixed sample size.

Each built-in family is one definition: a signed slack (positive inside,
zero on the boundary) that broadcasts over points, and, for the d = 1
families bounded by s = f(t), the exact boundary slope f'.  Along a ray
(t, t v) the slack has the sign of alpha - rate*t**k (``Region.ray_form``),
with the rate affine in v, so ray exits, crossings, entries and the
maximum of g over a box are closed forms, as are the side and distance of
a slice, where the slack is affine in s.  The slope gives the exact
log-gradient 1/(f'(m) - mean), and a halfspace gives -a/(<a, mean> + b),
so the supporting hyperplane is exact.  Regions built from a plain
membership oracle are searched: each entry point hands them to the
``oracle`` module, imported on that first call, and ``supporting_hyperplane``
audits their plane on sampled members.  There is no root finder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """Continuity or stopping region with asserted flags.

    ``slack_batch`` is the built-in family's signed margin, nonnegative
    exactly on the closed region.  It broadcasts: a scalar t with a (d,)
    vector s gives one margin, (n,) times with (n, d) sums give n margins,
    and (steps,) times with a (runs, steps, d) block give (runs, steps).
    Oracle regions have no slack and answer through ``membership``.  For
    d = 1 regions of the form {s <= f(t)} or {s >= f(t)}, ``scalar_boundary``
    holds f and ``orientation`` is "le" or "ge"; ``boundary_slope`` gives
    the exact f' for the built-in families.  ``family`` holds a built-in
    region's parameters, read-only, since the slack and the closed forms
    were built from them.
    """

    kind: str  # "continuity" | "stopping"
    dim: int
    membership: Callable[[float, np.ndarray], bool]
    convex_closure: bool = False
    contains_origin: bool = False
    slack_batch: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    scalar_boundary: Optional[Callable[[float], float]] = None
    orientation: Optional[str] = None
    family: Optional[Mapping] = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("continuity", "stopping"):
            raise RegionError(f"unknown region kind {self.kind!r}")

    def inside(self, ts, ss, strict: bool = False):
        """Membership of points with times ts >= 0, in the closed or open region.

        Takes sums s of shape (..., d) with times that broadcast against
        s[..., 0]: a scalar t with a (d,) vector, (n,) times with (n, d)
        sums, or (steps,) times with a (runs, steps, d) block.  Oracle
        regions are asked point by point, and have no open variant: they
        ignore ``strict``.
        """
        if self.slack_batch is not None:
            margin = self.slack_batch(ts, ss)
            return margin > 0.0 if strict else margin >= 0.0
        if np.ndim(ss) == 1:
            return bool(self.membership(ts, ss))
        ss = np.asarray(ss)
        ts = np.broadcast_to(ts, ss.shape[:-1])
        hits = [self.membership(t, s) for t, s in zip(ts.ravel(), ss.reshape(-1, ss.shape[-1]))]
        return np.array(hits, dtype=bool).reshape(ts.shape)

    def contains(self, t: float, s, strict: bool = False) -> bool:
        if t < 0.0:
            return False
        return bool(self.inside(t, np.atleast_1d(np.asarray(s, dtype=float)), strict))

    @property
    def boundary_slope(self) -> Optional[Callable[[float], float]]:
        """Exact f' of the boundary s = f(t) of a built-in d = 1 region, else None."""
        if self.scalar_boundary is None or self.family is None:
            return None
        return _CURVES[self.family["family"]](**self.family)[1]

    @property
    def time_slab(self) -> bool:
        """Whether this is a built-in halfspace in t alone, whose slices are all or nothing."""
        p = self.family
        return p is not None and p["family"] == "halfspace" and not any(p["s_coef"])

    @property
    def linear_slack(self):
        """(alpha, beta, kappa) with slack alpha - <beta, s> - kappa*t, or None.

        Defined for the families with a flat boundary: constant, affine and
        halfspace, of either orientation and any dimension.
        """
        p = self.family
        if p is None or p["family"] not in ("constant", "affine", "halfspace"):
            return None
        sgn = _sign(p["orientation"])
        if p["family"] == "halfspace":
            return sgn * p["level"], sgn * np.asarray(p["s_coef"]), sgn * p["t_coef"]
        f, slope = _CURVES[p["family"]](**p)
        return sgn * f(0.0), np.array([sgn]), -sgn * slope(0.0)

    @property
    def ray_coefficients(self):
        """(alpha, beta, kappa, k) of a built-in family, or None.

        For t > 0 the point (t, t v) is in the closed region exactly when
        alpha - rate * t**k >= 0, with the rate <beta, v> + kappa affine in
        v.  A flat family has slack alpha - t*(<beta, v> + kappa), so k = 1;
        a power boundary c t^e has slack sgn*t^e*(c - v t^(1-e)), so
        alpha = sgn*c, beta = sgn, kappa = 0 and k = 1 - e.
        """
        p = self.family
        if p is None:
            return None
        if p["family"] == "power":
            sgn = _sign(p["orientation"])
            return sgn * p["coef"], np.array([sgn]), 0.0, 1.0 - p["exponent"]
        return (*self.linear_slack, 1.0)

    def ray_form(self, v: np.ndarray):
        """(alpha, rate, k) of a built-in family along the ray (t, t v), or None."""
        coefs = self.ray_coefficients
        if coefs is None:
            return None
        alpha, beta, kappa, k = coefs
        return alpha, float(beta @ v) + kappa, k

    def complement_closure(self) -> "Region":
        """Closure of the complement, as a region of the opposite kind.

        Only available for the built-in families, where flipping the
        boundary orientation gives the complement exactly.
        """
        if self.family is None:
            raise RegionError("complement_closure requires a built-in region family")
        spec = dict(self.family)
        spec["orientation"] = _FLIP[spec["orientation"]]
        spec["kind"] = "stopping" if self.kind == "continuity" else "continuity"
        return region_from_family(spec)


_FLIP = {"le": "ge", "ge": "le"}


def _sign(orientation) -> float:
    """Slack sign: +1 for "le" (slack f - s), -1 for "ge" (slack s - f)."""
    if orientation not in _FLIP:
        raise RegionError(f"orientation must be 'le' or 'ge', not {orientation!r}")
    return 1.0 if orientation == "le" else -1.0


def _mk_region(family: dict, dim: int, slack_batch, convex: bool,
               boundary=None, orientation=None) -> Region:
    def membership(t, s):
        return slack_batch(t, np.atleast_1d(np.asarray(s, dtype=float))) >= 0.0

    return Region(
        kind=family["kind"],
        dim=dim,
        membership=membership,
        convex_closure=convex,
        contains_origin=bool(slack_batch(0.0, np.zeros(dim)) >= 0.0),
        slack_batch=slack_batch,
        scalar_boundary=boundary,
        orientation=orientation,
        family=MappingProxyType(family),
    )


def _curve_region(family: dict, convex: bool) -> Region:
    """The d = 1 region on one side of s = f(t), with slack sgn*(f(t) - s)."""
    sgn = _sign(family["orientation"])
    f = _CURVES[family["family"]](**family)[0]

    def slack_batch(ts, ss):
        return sgn * (f(ts) - ss[..., 0])

    return _mk_region(family, 1, slack_batch, convex, f, family["orientation"])


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
    sgn = _sign(orientation)
    family = {"family": "halfspace", "s_coef": tuple(float(x) for x in a), "t_coef": b,
              "level": c, "orientation": orientation, "kind": kind}

    def slack_batch(ts, ss):
        return sgn * (c - (ss @ a + b * ts))

    if a.shape[0] == 1 and a[0] != 0.0:
        side = orientation if a[0] > 0.0 else _FLIP[orientation]
        return _mk_region(family, 1, slack_batch, True, _CURVES["halfspace"](**family)[0], side)
    return _mk_region(family, a.shape[0], slack_batch, True)


def region_from_oracle(membership, dim: int, kind: str = "continuity",
                       convex_closure: bool = False, contains_origin: bool = False) -> Region:
    """Wrap a plain membership predicate; no slack, so the ``oracle`` searches answer for it."""
    def member(t, s):
        return bool(membership(t, np.atleast_1d(np.asarray(s, dtype=float))))

    return Region(kind=kind, dim=dim, membership=member, convex_closure=convex_closure,
                  contains_origin=contains_origin)


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
# Rays: closed forms for built-in families, searches for oracle regions
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


def _exit_coefficients(region: Region):
    """``Region.ray_coefficients`` of a flagged region; None for an oracle region.

    Refuses a built-in region whose flags misstate it.  The slack at the
    origin is alpha on a flat boundary and 0 on a power boundary, which
    passes through the origin.  So alpha < 0 means that the origin lies
    outside a flat region, or that a power region lies on the non-convex
    side of its boundary.
    """
    _require_convex_origin(region)
    coefs = region.ray_coefficients
    if coefs is not None and coefs[0] < 0.0:
        if region.family["family"] != "power":
            raise RegionError("asserted origin containment fails at (0, 0)")
        raise NonConvexityError("the region lies on the non-convex side of its boundary")
    return coefs


def ray_exit_time(region: Region, v, tol: Optional[float] = None) -> float:
    """sup{t >= 0 : (t, t v) in the closed region}; inf when the ray never leaves.

    Requires the convexity and origin flags.  A built-in family answers with
    the closed form (alpha/rate)^(1/k) and no membership call.  An oracle
    region is searched by doubling and bisection to ``tol``, with a
    convexity audit of membership around the exit (``oracle.ray_exit``).
    Either way an exit at or beyond 2**61 reads inf.
    """
    coefs = _exit_coefficients(region)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if coefs is None:
        from .oracle import ray_exit
        return ray_exit(region, v, tol)
    alpha, beta, kappa, k = coefs
    return _ray_crossing(alpha, float(beta @ v) + kappa, k)


def ray_exit_box_max(region: Region, lo, hi) -> float:
    """max of ray_exit_time(region, v) over the box lo <= v <= hi, for a built-in family.

    The rate <beta, v> + kappa of ``Region.ray_coefficients`` is affine in
    v, so on a box it is smallest at the corner taking lo_i where beta_i > 0
    and hi_i elsewhere, and g = (alpha/rate)^(1/k) is largest there: +inf
    when that rate is <= 0.  Refuses what ``ray_exit_time`` refuses.
    """
    coefs = _exit_coefficients(region)
    if coefs is None:
        raise RegionError("the closed-form box maximum requires a built-in region family")
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if np.any(lo > hi):
        raise ValueError("box is empty")
    alpha, beta, kappa, k = coefs
    return _ray_crossing(alpha, float(beta @ np.where(beta > 0.0, lo, hi)) + kappa, k)


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
    Exact for the built-in families; an oracle region is searched
    (``oracle.ray_entry_and_exit``).
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    form = region.ray_form(v)
    if form is None:
        from .oracle import ray_entry_and_exit as search
        return search(region, v, tol)
    alpha, rate, k = form
    cross = _ray_crossing(alpha, rate, k)
    if alpha >= 0.0:
        return 0.0, cross
    if region.family["family"] == "power":  # the origin, on the boundary, then [cross, inf)
        return 0.0, 0.0 if math.isinf(cross) else math.inf
    return (None, None) if math.isinf(cross) else (cross, math.inf)


# ---------------------------------------------------------------------------
# Gradient and supporting hyperplane
# ---------------------------------------------------------------------------


def log_exit_gradient(region: Region, mean) -> np.ndarray:
    """Gradient of ln g(v) at v=mean.

    Exact for the built-in families: -a / (<a, mean> + b) for a halfspace
    <a, s> + b t <= c (or >= c), and 1 / (f'(m) - mean) at the crossing time
    m for a d=1 region bounded by s = f(t).  Oracle regions take
    Richardson-extrapolated central differences of ln g with step
    1e-5 * max(1, |mean_k|) (``oracle.log_gradient``).
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    g0 = ray_exit_time(region, mean)
    if not (np.isfinite(g0) and g0 > 0.0):
        raise GradientDomainError("g is not finite and positive at the mean")
    if region.family is not None and region.family["family"] == "halfspace":
        a = np.asarray(region.family["s_coef"])
        grad = -a / (a @ mean + region.family["t_coef"])
    elif region.boundary_slope is not None:
        grad = np.array([1.0 / (region.boundary_slope(g0) - mean[0])])
    else:
        from .oracle import log_gradient
        grad = log_gradient(region, mean, g0)
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
    a power boundary (``ray_exit_time`` refuses the other side).  An oracle
    region or a supplied gradient gets ``support_audit``, which guards
    against bad gradients or a non-convex region.
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
    if region.family is None or grad is not None:
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


def _closed_slice_distance(region: Region, n: float, mu: np.ndarray) -> float:
    """max(0, -slack(n, n mu)) / (n |beta|) for a built-in family.

    At fixed n the slack is affine in s; |beta| is |s_coef| for a halfspace, 1 for a curve.
    """
    slack = float(region.slack_batch(n, n * mu))
    if slack >= 0.0:
        return 0.0
    if region.time_slab:
        raise EmptySliceError(f"the slice at n={n} is empty")
    p = region.family
    norm = float(np.linalg.norm(p["s_coef"])) if p["family"] == "halfspace" else 1.0
    return -slack / (n * norm)


def slice_distance(region: Region, n: float, mean, tol: float = 1e-9) -> float:
    """Euclidean distance from the mean to {z : (n, n z) in the closed region}.

    Exact for the built-in families.  An oracle region is searched
    (``oracle.slice_distance``): bisection for d=1, an angular refinement
    for d=2, and a derivative-free projected search (approximate) for
    d >= 3.  Returns 0 when the mean itself lies in the slice.
    """
    if not region.convex_closure:
        raise RegionError("slice distance requires the asserted convex closure")
    mu = np.atleast_1d(np.asarray(mean, dtype=float))
    if region.family is None:
        from .oracle import slice_distance as search
        return search(region, n, mu, tol)
    return _closed_slice_distance(region, n, mu)


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
    if region.family is None:
        from .oracle import slice_side as search
        return search(region, n, mu, tol)[0]
    if region.time_slab:
        raise EmptySliceError(f"the slice at n={n} is empty")
    return "above" if region.orientation == "ge" else "below"
