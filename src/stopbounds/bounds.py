"""Bound calculators: each returns a report with a checked assumption list.

A report whose assumption list contains a failure is inapplicable and its
value must not be consumed by the certification harness.  When a proviso
fails the calculators return such a report rather than a silently wrong
number; when the geometry shows an unbounded domain the value is +inf with
the relevant check marked "unchecked", so the report stays applicable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import overshoot as ovs
from .geometry import (
    GradientDomainError,
    Hyperplane,
    NoRayExitError,
    Region,
    hyperplane_slice_distance,  # noqa: F401  (kept as a bounds name: the benchmark tracer wraps it)
    log_exit_gradient,
    mean_ray_crossing,
    ray_entry_and_exit,
    ray_exit_box_max,
    ray_exit_time,
    slice_distance,
    slice_side,
    supporting_hyperplane,  # noqa: F401  (kept as a bounds name: the benchmark tracer wraps it)
)
from .moments import DistributionSpec, MomentProfile, analytic_moments, scalar_family
from .optimize import ProvisoViolatedError, Slab, max_concave_over_box, max_time_in_region, vertex_fraction_max
from .schedules import SampleSchedule, audit_assumptions, gap_supremum, tau_index

UPPER_TAGS = (
    "T10-upper", "T11-upper-bounded", "T12-samplemean", "T13-samplemean-naturals",
    "T-try88-bounded", "T14-hyperplane", "T15-hyperplane-bounded",
    "T16-chenlorden-I", "T16-chenlorden-II", "T16-chenlorden-III",
    "T17-gradient", "vipformula", "T18-concentration", "T19-concentration-hyperplane",
    "Lorden-T6", "Lorden-T7", "Brown1", "Brown2-upper", "Brown3",
)
LOWER_TAGS = ("T8-lower", "T-UseWald-lower", "Brown2-lower", "Brown4")
ALL_TAGS = UPPER_TAGS + LOWER_TAGS


class CapExceededError(RuntimeError):
    """A series bound failed to converge within the iteration cap."""


@dataclass(frozen=True)
class AssumptionCheck:
    ident: str
    status: str  # "pass" | "fail" | "unchecked" | "declared"
    note: str = ""


@dataclass
class BoundReport:
    theorem: str
    direction: str  # "upper" | "lower"
    value: float
    assumptions: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def applicable(self) -> bool:
        return all(c.status != "fail" for c in self.assumptions)

    def failed_assumptions(self):
        return [c.ident for c in self.assumptions if c.status == "fail"]


def _chk(ident: str, ok: bool, note: str = "") -> AssumptionCheck:
    return AssumptionCheck(ident, "pass" if ok else "fail", note)


def _known(tag: str, *tags: str) -> str:
    """``tag`` if it names one of the theorems a calculator computes."""
    if tag not in tags:
        raise ValueError(f"tag must be one of {', '.join(tags)}; got {tag!r}")
    return tag


def _standard_audit(region: Region, profile: MomentProfile, schedule: SampleSchedule,
                    need_third_moment: bool, start_containment_declared: bool):
    """Assumptions (I)-(IV), plus (VI) when asked.

    (I) and (II) come from the schedule's kind and parameters, never from a
    prefix of its elements; (III) from the region's asserted flags.
    """
    aud = audit_assumptions(schedule)
    checks = [
        _chk("I", aud.growth_pass, f"lam={schedule.lam:.6g}, K={schedule.K:.6g}"),
        _chk("II", aud.gap_or_ratio_pass, aud.gap_or_ratio_mode),
        _chk("III", region.convex_closure and region.contains_origin, "asserted flags"),
        AssumptionCheck("IV", "declared" if start_containment_declared else "fail",
                        "start containment is a modeling hypothesis"),
    ]
    if need_third_moment:
        checks.append(_chk("VI", profile.abs_third_finite))
    return checks


# the mean ray never leaving the region leaves the domain unbounded: +inf is the bound
_NEVER_EXITS = AssumptionCheck("V", "unchecked", "mean ray never exits: unbounded, value +inf")


def _crossing_check(region: Region, mean):
    """Assumption (V): the unique mean-ray crossing.  Returns (checks, m or inf)."""
    try:
        m = mean_ray_crossing(region, mean)
        return [_chk("V", True, f"m={m:.12g}")], m
    except NoRayExitError:
        return [_NEVER_EXITS], math.inf


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------


def stopping_region_lower_bound(region: Region, mean) -> BoundReport:
    """E[N] >= first mean-ray entry time of a convex stopping region.

    When the mean ray never meets the region the expected stopping time is
    infinite and the report carries value +inf.  Otherwise the diagnostics
    also hold the ray's exit time, the Brownian upper bound.
    """
    checks = [
        _chk("stopping-kind", region.kind == "stopping"),
        _chk("convex", region.convex_closure, "asserted flag"),
    ]
    if any(c.status == "fail" for c in checks):
        return BoundReport("T8-lower", "lower", math.nan, checks, {})
    entry, sup = ray_entry_and_exit(region, mean)
    if entry is None:
        return BoundReport("T8-lower", "lower", math.inf, checks, {"mean_ray_entry": None})
    return BoundReport("T8-lower", "lower", entry, checks,
                       {"mean_ray_entry": entry, "mean_ray_exit": sup})


def wald_lower_bound(gfun: Callable[[np.ndarray], float], mean,
                     concave_declared: bool = True) -> BoundReport:
    """E[N] >= 1/gfun(mean) for rules that stop once n >= 1/gfun(sample mean).

    gfun(mean) = 0 leaves the rule at the mean never stopping: the value is
    +inf with the positivity check marked "unchecked".
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    g0 = float(gfun(mean))
    checks = [AssumptionCheck("g-concave", "declared" if concave_declared else "fail")]
    if g0 == 0.0:
        checks.append(AssumptionCheck("g-positive-at-mean", "unchecked",
                                      "g(mean)=0: never stops, value +inf"))
        return BoundReport("T-UseWald-lower", "lower", math.inf, checks, {"g_at_mean": g0})
    checks.append(_chk("g-positive-at-mean", g0 > 0.0, f"g(mean)={g0:.6g}"))
    value = 1.0 / g0 if g0 > 0 else math.nan
    return BoundReport("T-UseWald-lower", "lower", value, checks, {"g_at_mean": g0})


# ---------------------------------------------------------------------------
# Slab-optimization upper bounds
# ---------------------------------------------------------------------------


def deviation_slab(profile: MomentProfile, lam: float, K: float, n0: float) -> Slab:
    """Slab from the one-sided deviations of the increment law."""
    return Slab(
        lower_slope=profile.mean - lam * profile.pos_dev,
        upper_slope=profile.mean + lam * profile.neg_dev,
        lower_icept=(n0 - K) * profile.pos_dev,
        upper_icept=(K - n0) * profile.neg_dev,
    )


def bounded_support_slab(profile: MomentProfile, lam: float, K: float, n0: float) -> Slab:
    """Envelope slab for bounded increments, with the primed support quadruple."""
    if not profile.bounded:
        raise ValueError("bounded_support_slab requires support bounds")
    v = profile.bound_v
    a, b, mu = profile.support_lo, profile.support_hi, profile.mean
    primed = Slab(
        lower_slope=b + lam * (mu - b),
        upper_slope=a + lam * (mu - a),
        lower_icept=K * (mu - b),
        upper_icept=K * (mu - a),
    )
    return Slab(
        lower_slope=mu - lam * v,
        upper_slope=mu + lam * v,
        lower_icept=(n0 - K) * v,
        upper_icept=-(n0 - K) * v,
        primed=primed,
    )


def slab_optimization_upper_bound(region: Region, profile: MomentProfile,
                                  schedule: SampleSchedule, tag: str,
                                  start_containment_declared: bool = True) -> BoundReport:
    """E[N] <= lam * max{t over the slab-constrained region} + K.

    "T10-upper" uses the one-sided-deviation slab; "T11-upper-bounded" needs
    support bounds and intersects the envelope slab with the primed support slab.
    """
    bounded = _known(tag, "T10-upper", "T11-upper-bounded") == "T11-upper-bounded"
    lam, K, n0 = schedule.lam, schedule.K, schedule.n0
    checks = _standard_audit(region, profile, schedule, need_third_moment=not bounded,
                             start_containment_declared=start_containment_declared)
    vchecks, m = _crossing_check(region, profile.mean)
    checks += vchecks
    diag = {"m": m, "lam": lam, "K": K, "n0": n0}
    if bounded:
        checks.append(_chk("support-bounds", profile.bounded))
    if any(c.status == "fail" for c in checks):
        return BoundReport(tag, "upper", math.nan, checks, diag)
    if not math.isfinite(m):
        return BoundReport(tag, "upper", math.inf, checks, diag)
    slab = (bounded_support_slab if bounded else deviation_slab)(profile, lam, K, n0)
    checks.append(_chk("slab-nonempty", not slab.is_empty))
    if slab.is_empty:
        return BoundReport(tag, "upper", math.nan, checks, diag)
    res = max_time_in_region(region, slab)
    diag["sample_count_before_exit_max"] = res.value
    diag["optimizer_uncertainty"] = res.uncertainty
    if res.empty_domain:
        checks.append(AssumptionCheck("feasible-domain", "fail", "slab misses the region"))
        return BoundReport(tag, "upper", math.nan, checks, diag)
    value = lam * res.value + K if math.isfinite(res.value) else math.inf
    return BoundReport(tag, "upper", value, checks, diag)


def sample_mean_upper_bound(region: Region, profile: MomentProfile,
                            schedule: SampleSchedule, tag: str,
                            concave_declared: bool = True,
                            sure_start_declared: bool = True,
                            audit_concavity: bool = False) -> BoundReport:
    """E[N] <= K + max of g over a moment box, for rules n >= g(sample mean).

    g(v) = ray_exit_time(region, v) is the rule of the continuity region.
    "T12-samplemean" uses the one-sided-deviation box with the schedule's max
    gap K; "T13-samplemean-naturals" is the all-naturals form with constant 2
    instead of K; "T-try88-bounded" uses the support envelope box and needs
    bounded increments.  The box maximum is closed-form for a built-in
    family and searched for an oracle region.
    """
    _known(tag, "T12-samplemean", "T13-samplemean-naturals", "T-try88-bounded")

    def gfun(v):
        return ray_exit_time(region, v)

    mu = profile.mean
    checks = []
    diag = {}
    K = gap_supremum(schedule)
    n0 = schedule.n0
    diag["K"] = K
    checks.append(AssumptionCheck("g-concave", "declared" if concave_declared else "fail"))
    if audit_concavity:
        ok = _concavity_probe(gfun, *_box_for(profile, tag))
        checks.append(_chk("g-concavity-audit", ok))
    if tag == "T13-samplemean-naturals":
        checks.append(_chk("all-naturals", schedule.is_all_naturals))
        gmu = float(gfun(mu))
        checks.append(_chk("g-nonnegative", gmu >= 0.0, f"g(mean)={gmu:.6g}"))
        constant = 2.0
    else:
        checks.append(_chk("gap-at-most-start", K <= n0,
                           f"max gap {K} vs start anchor {n0}"))
        checks.append(AssumptionCheck(
            "sure-start", "declared" if sure_start_declared else "fail",
            "rule must surely continue at the start anchor"))
        checks.append(_chk("VI", profile.abs_third_finite))
        constant = float(K)
    if tag == "T-try88-bounded":
        checks.append(_chk("support-bounds", profile.bounded))
        if not profile.bounded:
            return BoundReport(tag, "upper", math.nan, checks, diag)
    lo, hi = _box_for(profile, tag)
    diag["box"] = (lo.tolist(), hi.tolist())
    if any(c.status == "fail" for c in checks):
        return BoundReport(tag, "upper", math.nan, checks, diag)
    if region.family is None:
        peak = max_concave_over_box(gfun, lo, hi)
    else:
        peak = ray_exit_box_max(region, lo, hi)
    diag["box_max"] = peak
    value = constant + peak if math.isfinite(peak) else math.inf
    return BoundReport(tag, "upper", value, checks, diag)


def _box_for(profile: MomentProfile, tag: str):
    if tag == "T-try88-bounded":
        return profile.mean - profile.bound_v, profile.mean + profile.bound_v
    return profile.mean - profile.pos_dev, profile.mean + profile.neg_dev


def _concavity_probe(gfun, lo, hi, trials: int = 400, seed: int = 5) -> bool:
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        x = lo + rng.random(lo.shape[0]) * (hi - lo)
        y = lo + rng.random(lo.shape[0]) * (hi - lo)
        rho = rng.random()
        mid = rho * x + (1.0 - rho) * y
        gm, gx, gy = float(gfun(mid)), float(gfun(x)), float(gfun(y))
        if not (math.isfinite(gm) and math.isfinite(gx) and math.isfinite(gy)):
            continue
        if gm < rho * gx + (1.0 - rho) * gy - 1e-9 * (1.0 + abs(gm)):
            return False
    return True


# ---------------------------------------------------------------------------
# Hyperplane vertex bounds
# ---------------------------------------------------------------------------


def hyperplane_vertex_upper_bound(region: Region, hyp: Hyperplane, profile: MomentProfile,
                                  schedule: SampleSchedule, tag: str,
                                  start_containment_declared: bool = True) -> BoundReport:
    """E[N] <= lam * (vertex fractional max) + K using the region's supporting hyperplane.

    "T14-hyperplane" evaluates the deviation slab; "T15-hyperplane-bounded"
    evaluates both the envelope and primed support slabs and keeps the
    smaller vertex maximum among those whose positivity proviso holds.
    """
    bounded = _known(tag, "T14-hyperplane", "T15-hyperplane-bounded") == "T15-hyperplane-bounded"
    lam, K, n0 = schedule.lam, schedule.K, schedule.n0
    checks = _standard_audit(region, profile, schedule, need_third_moment=not bounded,
                             start_containment_declared=start_containment_declared)
    diag = {"m": hyp.anchor, "C": hyp.level, "lam": lam, "K": K, "n0": n0}
    if bounded:
        checks.append(_chk("support-bounds", profile.bounded))
    if any(c.status == "fail" for c in checks):
        return BoundReport(tag, "upper", math.nan, checks, diag)
    if not bounded:
        slabs = {"deviation": deviation_slab(profile, lam, K, n0)}
    else:
        both = bounded_support_slab(profile, lam, K, n0)
        slabs = {
            "envelope": Slab(both.lower_slope, both.upper_slope,
                             both.lower_icept, both.upper_icept),
            "support": both.primed,
        }
    results = {}
    for name, slab in slabs.items():
        try:
            results[name] = vertex_fraction_max(hyp, slab)
        except ProvisoViolatedError as exc:
            diag[f"{name}_proviso"] = str(exc)
    winner = min(results, key=lambda k: results[k].value, default=None)
    if winner is not None and results[winner].min_denominator == 0.0:
        # a zero denominator leaves the vertex maximum unbounded: +inf is the bound
        checks.append(AssumptionCheck("denominator-positive", "unchecked",
                                      "minimum vertex denominator is 0: unbounded, value +inf"))
    else:
        checks.append(_chk("denominator-positive", bool(results),
                           "proviso failed on every available slab" if not results else ""))
    if any(c.status == "fail" for c in checks):
        return BoundReport(tag, "upper", math.nan, checks, diag)
    res = results[winner]
    diag["winning_slab"] = winner
    diag["vertex"] = res.vertex
    diag["min_denominator"] = res.min_denominator
    diag["sample_count_before_exit_max"] = res.value
    return BoundReport(tag, "upper", lam * res.value + K, checks, diag)


# ---------------------------------------------------------------------------
# Overshoot-based hyperplane bound
# ---------------------------------------------------------------------------


def lorden_hyperplane_upper_bound(hyp: Hyperplane, profile: MomentProfile, K: int,
                                  tag: str) -> BoundReport:
    """Renewal-overshoot bound for rules checked every K samples.

    "T16-chenlorden-I" is the Euclidean-norm chain member, "-II" the
    elementwise variance form (independent components), "-III" the
    bounded-support form.  The elementwise reading of II is
    sum_k s_coef_k^2 * var_k, recorded in diagnostics.
    """
    _known(tag, "T16-chenlorden-I", "T16-chenlorden-II", "T16-chenlorden-III")
    m, c = hyp.anchor, hyp.level
    a = hyp.s_coef
    checks = [
        _chk("K-positive-integer", K >= 1 and int(K) == K),
        _chk("second-moment-finite", bool(np.all(np.isfinite(profile.variance)))),
    ]
    diag = {"m": m, "C": c, "K": K}
    if tag == "T16-chenlorden-I":
        quad = float(np.dot(a, a)) * float(np.sum(profile.variance))
        value = m + K + (m / c) ** 2 * quad
        diag["norm_chain_member"] = value
    elif tag == "T16-chenlorden-II":
        checks.append(_chk("independent-components", profile.dim == 1))
        quad = float(np.sum(a * a * profile.variance))
        value = m + K + (m / c) ** 2 * quad
        diag["elementwise_quadratic"] = quad
        diag["elementwise_reading"] = "sum_k s_coef_k^2 var_k"
    else:
        checks.append(_chk("support-bounds", profile.bounded))
        if not profile.bounded:
            return BoundReport(tag, "upper", math.nan, checks, diag)
        lo, hi = profile.support_lo, profile.support_hi
        u = 0.5 * (float(a @ (lo + hi)) + float(np.abs(a) @ (lo - hi))) + hyp.t_coef
        vbar = 0.5 * (float(a @ (lo + hi)) + float(np.abs(a) @ (hi - lo))) + hyp.t_coef
        diag["batch_min_mean_gap"] = u
        diag["batch_max_mean_gap"] = vbar
        value = m + K * m * (u + vbar) / c - K * m * m * u * vbar / (c * c)
        if u < 0.0:
            diag["negative_min_form"] = (
                m + (K * vbar**2 / (vbar - u)) * (m / c) ** 2 * (c / m - u))
    if any(ch.status == "fail" for ch in checks):
        return BoundReport(tag, "upper", math.nan, checks, diag)
    return BoundReport(tag, "upper", value, checks, diag)


# ---------------------------------------------------------------------------
# Gradient bound
# ---------------------------------------------------------------------------


def gradient_upper_bound(region: Region, profile: MomentProfile, schedule: SampleSchedule,
                         tag: str) -> BoundReport:
    """E[N] <= g(mean) + 1 + quadratic form of the log-gradient against the noise.

    "T17-gradient" is the general form; "vipformula" is the closed scalar
    form m + 1 + var/(f'(m)-mean)^2 for d=1 regions with a differentiable
    boundary curve.
    """
    _known(tag, "T17-gradient", "vipformula")
    mu = profile.mean
    checks = [
        _chk("III", region.convex_closure and region.contains_origin, "asserted flags"),
        _chk("second-moment-finite", bool(np.all(np.isfinite(profile.variance)))),
        _chk("all-naturals", schedule.is_all_naturals),
    ]
    diag = {}
    if any(c.status == "fail" for c in checks):
        return BoundReport(tag, "upper", math.nan, checks, diag)
    g0 = ray_exit_time(region, mu)
    diag["g_at_mean"] = g0
    if not math.isfinite(g0):
        checks.append(_NEVER_EXITS)
        return BoundReport(tag, "upper", math.inf, checks, diag)
    checks.append(_chk("V", True, f"m={g0:.12g}"))
    if tag == "vipformula":
        slope = region.boundary_slope
        checks.append(_chk("scalar-boundary", slope is not None and profile.dim == 1))
        if slope is None or profile.dim != 1:
            return BoundReport(tag, "upper", math.nan, checks, diag)
        fprime = slope(g0)
        diag["boundary_slope_at_m"] = fprime
        value = g0 + 1.0 + float(profile.variance[0]) / (fprime - float(mu[0])) ** 2
        return BoundReport(tag, "upper", value, checks, diag)
    try:
        grad = log_exit_gradient(region, mu)
    except GradientDomainError as exc:
        checks.append(AssumptionCheck("g-differentiable", "fail", str(exc)))
        return BoundReport(tag, "upper", math.nan, checks, diag)
    checks.append(_chk("g-differentiable", True))
    diag["log_gradient"] = grad.tolist()
    if profile.dim == 1:
        quad = float(np.sum(grad * grad * profile.variance))
    else:
        # cross moments unknown: fall back to the norm chain member
        quad = float(np.dot(grad, grad)) * float(np.sum(profile.variance))
    diag["norm_chain_member"] = (
        g0 + 1.0 + float(np.dot(grad, grad)) * float(np.sum(profile.variance)))
    if region.boundary_slope is not None and profile.dim == 1:
        fprime = region.boundary_slope(g0)
        diag["closed_scalar_form"] = (
            g0 + 1.0 + float(profile.variance[0]) / (fprime - float(mu[0])) ** 2)
    return BoundReport(tag, "upper", g0 + 1.0 + quad, checks, diag)


# ---------------------------------------------------------------------------
# Concentration bounds
# ---------------------------------------------------------------------------


def _hoeffding_one_sided(n: float, dev: float, width: float) -> float:
    if dev <= 0.0:
        return 1.0
    if width == 0.0:
        return 0.0  # degenerate increments never deviate
    return math.exp(-2.0 * n * dev * dev / (width * width))


# the series stops after three terms in a row below _TERM_TOL, or fails at _MAX_TERMS
_TERM_TOL = 1e-12
_MAX_TERMS = 1_000_000
# N_tau is the first schedule element above the crossing raised by this
# relative margin.  A computed m can fall below the true one by rounding (an
# oracle region's bisection: up to 5e-10 relative).  When the walk reaches
# the boundary at an element just above the computed m, the series would
# weight that element by the tail of a small positive deviation, which is 0
# for zero-width increments, and so drop it.  Taking the next element as
# N_tau replaces that term gap * tail by gap, which never lowers the bound.
_CROSSING_ROUND = 1e-9


def concentration_upper_bound(region: Region, profile: MomentProfile,
                              schedule: SampleSchedule, hyp: Optional[Hyperplane] = None,
                              user_tail: Optional[Callable] = None,
                              start_containment_declared: bool = True) -> BoundReport:
    """Tail-sum bound N_tau + sum of schedule gaps weighted by deviation tails.

    Deviations come from the distance between the mean and the region slice
    at each schedule size ("T18-concentration") or, when ``hyp`` is given,
    from that supporting hyperplane's closed-form distance
    ("T19-concentration-hyperplane").  When the d = 1 slice at the first
    post-crossing size lies above or below the mean, the one-sided scalar
    tail is used, which is never looser than the two-sided vector form.
    Tails are Hoeffding's, which need support bounds, unless ``user_tail``
    (n, deviation) -> one-sided tail probability is given.  The support
    restriction on contributing indices is over-approximated by all
    indices, which can only loosen the bound.
    """
    tag = "T18-concentration" if hyp is None else "T19-concentration-hyperplane"
    d = profile.dim
    mu = profile.mean
    checks = _standard_audit(region, profile, schedule, need_third_moment=True,
                             start_containment_declared=start_containment_declared)
    vchecks, m = _crossing_check(region, mu)
    checks += vchecks
    diag = {"m": m}
    if user_tail is None:
        checks.append(_chk("support-bounds", profile.bounded, "tail=hoeffding"))
    else:
        checks.append(_chk("user-tail-supplied", True))
    if any(c.status == "fail" for c in checks) or not math.isfinite(m):
        value = math.inf if not math.isfinite(m) else math.nan
        return BoundReport(tag, "upper", value, checks, diag)
    tau, n_tau = tau_index(schedule, m + _CROSSING_ROUND * max(1.0, m))
    diag["tau"] = tau
    diag["N_tau"] = n_tau
    one_sided = False
    if d == 1:
        side = slice_side(region, n_tau, mu)
        diag["slice_side_at_N_tau"] = side
        one_sided = side in ("above", "below")
    diag["one_sided"] = one_sided

    # the series constants are computed once, outside the loop; the T19 term
    # keeps the operation order of geometry.hyperplane_slice_distance, so the
    # two agree bit for bit
    if hyp is not None:
        anchor, abs_gap, norm = hyp.anchor, abs(hyp.mean_gap(mu)), hyp.norm

        def deviation(n: float) -> float:
            if not n > anchor:
                raise ValueError("slice size must exceed the anchor time")
            return (1.0 - anchor / n) * abs_gap / norm
    elif region.scalar_boundary is not None and d == 1:
        f, mu0 = region.scalar_boundary, float(mu[0])

        def deviation(n: float) -> float:
            return abs(mu0 - f(n) / n)
    else:
        def deviation(n: float) -> float:
            return slice_distance(region, n, mu)

    widths = [float(w) for w in profile.support_hi - profile.support_lo] if profile.bounded else None
    root_d = math.sqrt(d)

    def tail_probability(n: float, dev: float) -> float:
        if one_sided:
            if user_tail is None:
                return min(1.0, _hoeffding_one_sided(n, dev, widths[0]))
            return min(1.0, float(user_tail(n, dev)))
        total = 0.0
        comp_dev = dev / root_d
        for k in range(d):
            if user_tail is None:
                total += 2.0 * _hoeffding_one_sided(n, comp_dev, widths[k])
            else:
                total += 2.0 * float(user_tail(n, comp_dev))
        return min(1.0, total)  # a continuation probability never exceeds one

    total = 0.0
    tiny_streak = 0
    terms = 0
    index = tau
    n_cur = n_tau
    while True:
        n_next = schedule.element(index + 1)
        gap = n_next - n_cur
        term = gap * tail_probability(n_cur, deviation(n_cur))
        total += term
        terms += 1
        if term < _TERM_TOL:
            tiny_streak += 1
            if tiny_streak >= 3:
                break
        else:
            tiny_streak = 0
        index += 1
        n_cur = n_next
        if terms >= _MAX_TERMS:
            raise CapExceededError("concentration series did not fall below the cutoff")
    diag["series_terms"] = terms
    diag["last_term"] = term
    diag["truncation_tol"] = _TERM_TOL
    return BoundReport(tag, "upper", n_tau + total, checks, diag)


# ---------------------------------------------------------------------------
# Overshoot bounds
# ---------------------------------------------------------------------------


def overshoot_upper_bound(z_spec: DistributionSpec, lam, schedule: SampleSchedule,
                          tag: str) -> BoundReport:
    """Expected-overshoot bound for renewal sums crossing a threshold.

    "Lorden-T6" bounds E[overshoot] for a crossing checked at every sample,
    so it needs the all-naturals schedule; "Lorden-T7" handles thresholds
    checked only on a schedule with finite maximum gap K, via the law of the
    first-batch sum.
    """
    every_sample = _known(tag, "Lorden-T6", "Lorden-T7") == "Lorden-T6"
    if z_spec.dim != 1:
        raise ValueError("overshoot bounds are for scalar increments")
    z_spec = z_spec.components[0]  # a one-component product is its component
    prof = analytic_moments(z_spec)
    ez = float(prof.mean[0])
    ez2 = float(prof.variance[0] + prof.mean[0] ** 2)
    checks = [
        _chk("positive-mean", ez > 0.0, f"E[Z]={ez:.6g}"),
        _chk("second-moment-finite", math.isfinite(ez2)),
    ]
    diag = {"mean": ez, "second_moment": ez2}
    if every_sample:
        pos2 = scalar_family(z_spec).positive_part_square(z_spec.params)
        diag["positive_part_second_moment"] = pos2
        batch = 1
        checks.append(_chk("all-naturals", schedule.is_all_naturals,
                           "every-sample crossing rule"))
    else:  # T7: positive increments, schedule with finite max gap
        strictly_positive = (scalar_family(z_spec).strictly_positive or (
            prof.bounded and float(prof.support_lo[0]) > 0.0))
        checks.append(_chk("positive-increments", strictly_positive))
        K = gap_supremum(schedule)
        checks.append(_chk("finite-max-gap", math.isfinite(K)))
        if not math.isfinite(K):
            return BoundReport(tag, "upper", math.nan, checks, diag)
        batch = schedule.element(1)
        diag["K"] = K
        diag["first_element"] = batch
    if any(c.status == "fail" for c in checks):
        return BoundReport(tag, "upper", math.nan, checks, diag)
    law = ovs.sum_law(z_spec, batch)
    pr, pe = ovs.threshold_functionals(z_spec, lam, law.cdf_strict, law.partial_above)
    diag["prob_below_threshold"] = pr
    diag["partial_expectation"] = pe
    coef = pos2 / ez if every_sample else (K - 1.0) * ez + ez2 / ez
    return BoundReport(tag, "upper", coef * pr + pe, checks, diag)
