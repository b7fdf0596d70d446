"""Bound calculators, and ``THEOREMS``: each theorem tag's direction, target, kind and calculator.

A report whose assumption list contains a failure is inapplicable and its
value must not be consumed by the certification harness.  When a proviso
fails the calculators return such a report rather than a silently wrong
number; when the geometry shows an unbounded domain the value is +inf with
the relevant check marked "unchecked", so the report stays applicable.
Every calculator computes on tuples of Python floats with ``math`` and sums
left to right from 0.0 (``geometry.dot``), so that a vector of one to a few
entries costs no numpy call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from . import overshoot as ovs
from .geometry import (
    GradientDomainError,
    Hyperplane,
    Region,
    as_floats,
    dot,
    exact_sum,
    float_at_least,
    hyperplane_slice_distance,  # noqa: F401  (kept as a bounds name: the benchmark tracer wraps it)
    log_exit_gradient,
    mean_ray_crossing,  # noqa: F401  (as above; the crossing is read off ray_exit_time at the mean)
    ray_entry_and_exit,
    ray_exit_time,
    slice_distance,
    slice_side,
    supporting_hyperplane,
)
from .moments import DistributionSpec, MomentProfile, analytic_moments, scalar_family
from .optimize import ProvisoViolatedError, Slab, max_time_in_region, vertex_fraction_max
from .optimize import max_concave_over_box  # noqa: F401  (a bounds name the tracer wraps)
from .schedules import SampleSchedule, audit_assumptions, gap_supremum, tau_index


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


@dataclass(frozen=True)
class Theorem:
    """A theorem tag's record: ``calculator(premises, tag)`` computes its report."""

    direction: str  # "upper" | "lower"
    calculator: Callable[..., BoundReport]
    form: str = ""  # the closed form the calculator computes; "" is the general one
    brownian: bool = False  # a Brownian tag, answered at the drift
    overshoot: bool = False  # bounds E[overshoot] past a threshold rather than E[N]


def _chk(ident: str, ok: bool, note: str = "") -> AssumptionCheck:
    return AssumptionCheck(ident, "pass" if ok else "fail", note)


def inapplicable(tag: str, ident: str, note: str) -> BoundReport:
    """The report of ``tag`` that failed the one check ``ident``: value NaN, no diagnostics."""
    return BoundReport(tag, THEOREMS[tag].direction, math.nan,
                       [AssumptionCheck(ident, "fail", note)], {})


def _sum(values) -> float:
    """A sum of floats left to right from 0.0, the order ``geometry.dot`` sums in."""
    total = 0.0
    for x in values:
        total += x
    return total


def _square(x: float) -> float:
    """x ** 2 as libm's pow rounds it, and +inf past the float range, where Python raises."""
    try:
        return x**2
    except OverflowError:
        return math.inf


# the mean ray never leaving the region leaves the domain unbounded: +inf is the bound
_NEVER_EXITS = AssumptionCheck("V", "unchecked", "mean ray never exits: unbounded, value +inf")


class Premises:
    """What is derived from one scenario's inputs, each fact once, on first use.

    ``region`` is the scenario's region, of either kind, and ``mean`` the
    slope of its mean ray, kept as a tuple of floats: the increment mean, or
    a Brownian drift, which comes with no ``profile``, ``schedule`` or
    increment law ``spec`` and reads only the region views, (III) and the
    mean ray.  A premise whose derivation raises is not kept, so every
    calculator that reads it raises the same error.
    """

    def __init__(self, region: Region, mean, profile: Optional[MomentProfile] = None,
                 schedule: Optional[SampleSchedule] = None, spec: DistributionSpec = None):
        self.region, self.profile, self.schedule, self.spec = region, profile, schedule, spec
        self.mean = as_floats(mean)
        if len(self.mean) != region.dim:
            raise ValueError(f"region and mean dimensions disagree: {region.dim}, {len(self.mean)}")
        if profile is not None and as_floats(profile.mean) != self.mean:
            raise ValueError(f"mean and profile mean disagree: {self.mean}, {profile.mean}")

    @cached_property
    def continuity_view(self) -> Region:
        """The closure of the continuity region, which every other premise reads."""
        if self.region.kind == "continuity":
            return self.region
        return self.region.complement_closure()

    @cached_property
    def stopping_view(self) -> Region:
        """The closure of the stopping region, which T8 and the overshoot level read."""
        if self.region.kind == "stopping":
            return self.region
        return self.region.complement_closure()

    @cached_property
    def hyperplane(self) -> Hyperplane:
        """The supporting hyperplane at the mean-ray crossing."""
        return supporting_hyperplane(self.continuity_view, self.mean)

    @cached_property
    def stopping_ray(self) -> tuple:
        """The mean ray's (entry, exit) of the stopping view, which T8 and Brown2 read."""
        return ray_entry_and_exit(self.stopping_view, self.mean)

    @cached_property
    def reciprocal_rule_concave(self) -> bool:
        """Whether 1/g is concave, as T-UseWald-lower and Brown4 need.

        Along a ray a built-in region has g = (alpha/rate)^(1/k) with the
        rate affine in v, so 1/g = (rate/alpha)^(1/k) is affine for a flat
        family (k = 1) and strictly convex for a power boundary (k < 1).
        """
        return self.continuity_view.power_exponent is None

    @cached_property
    def threshold_level(self) -> Optional[float]:
        """Level c of a flat stopping threshold {s >= c}, in whatever family it is written.

        The boundary s = f(t) is flat when its exact slope is 0; t = 1
        avoids the power family's infinite slope at t = 0.  Only a d = 1
        region has a boundary curve, and with it an orientation.
        """
        view = self.stopping_view
        if view.orientation == "ge" and view.boundary_slope(1.0) == 0.0:
            return float(view.scalar_boundary(1.0))
        return None

    @cached_property
    def convex_origin(self) -> AssumptionCheck:
        """(III), from the region's asserted flags."""
        region = self.continuity_view
        return _chk("III", region.convex_closure and region.contains_origin, "asserted flags")

    @cached_property
    def hypotheses(self) -> tuple:
        """(I)-(IV).

        (I) and (II) come from the schedule's kind and parameters, never from
        a prefix of its elements; (III) from the region's asserted flags.
        """
        schedule = self.schedule
        aud = audit_assumptions(schedule)
        return (
            _chk("I", aud.growth_pass, f"lam={schedule.lam:.6g}, K={schedule.K:.6g}"),
            _chk("II", aud.gap_or_ratio_pass, aud.gap_or_ratio_mode),
            self.convex_origin,
            self.start_check("IV"),
        )

    @cached_property
    def third_moment(self) -> AssumptionCheck:
        """(VI)."""
        return _chk("VI", self.profile.abs_third_finite)

    def audit(self, need_third_moment: bool) -> list:
        """A fresh list of (I)-(IV), plus (VI) when asked."""
        checks = list(self.hypotheses)
        if need_third_moment:
            checks.append(self.third_moment)
        return checks

    @cached_property
    def _start_held(self) -> bool:
        """Whether (n0, S_{n0}) surely lies in the closed region; at n0 = 0, (III)'s origin flag."""
        n0, profile, region = self.schedule.n0, self.profile, self.continuity_view
        if n0 == 0:
            return region.contains_origin
        return region.contains_sums(n0, profile.support_lo, profile.support_hi)

    def start_check(self, ident: str) -> AssumptionCheck:
        """The sure start as check ``ident``: (IV), and T12's "sure-start"."""
        n0 = self.schedule.n0
        return _chk(ident, self._start_held, f"support of S_{n0} in the closed region at t={n0}")

    @cached_property
    def g_at_mean(self) -> float:
        """g(mean): how long the mean ray stays in the closed region, +inf if it never leaves."""
        return ray_exit_time(self.continuity_view, self.mean)

    @cached_property
    def crossing(self) -> tuple:
        """(V) and the unique mean-ray crossing m = g(mean), +inf when the ray never exits."""
        m = self.g_at_mean
        if math.isinf(m):
            return _NEVER_EXITS, math.inf
        return _chk("V", True, f"m={m:.12g}"), m

    @cached_property
    def max_gap(self) -> float:
        """The schedule's gap supremum, N_1 - N_0 included."""
        return gap_supremum(self.schedule)

    @cached_property
    def dev_slab(self) -> Slab:
        """T10's and T14's slab, from the one-sided deviations."""
        s = self.schedule
        return deviation_slab(self.profile, s.lam, s.K, s.n0)

    @cached_property
    def support_slab(self) -> Slab:
        """T11's envelope slab with the primed support slab; needs support bounds."""
        s = self.schedule
        return bounded_support_slab(self.profile, s.lam, s.K, s.n0)

    @cached_property
    def envelope_slab(self) -> Slab:
        """The envelope slab alone, which T15 evaluates beside the primed one."""
        both = self.support_slab
        return Slab(both.lower_slope, both.upper_slope, both.lower_icept, both.upper_icept)

    @cached_property
    def series_start(self) -> tuple:
        """T18's and T19's (tau, N_tau): the first element past the crossing, raised by _CROSSING_ROUND."""
        m = self.crossing[1]
        return tau_index(self.schedule, m + _CROSSING_ROUND * max(1.0, m))

    @cached_property
    def side_at_n_tau(self) -> str:
        """For d = 1: whether the slice at N_tau lies "above" or "below" the mean, or holds it."""
        return slice_side(self.continuity_view, self.series_start[1], self.mean)


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------


def _ray_report(region: Region, tag: str, ray: Callable[[], tuple]) -> BoundReport:
    """T8's checks on a stopping region, then ``ray()``, the mean ray's (entry, exit) of it."""
    direction = THEOREMS[tag].direction
    checks = [_chk("stopping-kind", region.kind == "stopping"),
              _chk("convex", region.convex_closure, "asserted flag")]
    if any(c.status == "fail" for c in checks):
        return BoundReport(tag, direction, math.nan, checks, {})
    entry, sup = ray()
    if entry is None:
        return BoundReport(tag, direction, math.inf, checks, {"mean_ray_entry": None})
    return BoundReport(tag, direction, entry if direction == "lower" else sup, checks,
                       {"mean_ray_entry": entry, "mean_ray_exit": sup})


def stopping_region_lower_bound(region: Region, mean, tag: str) -> BoundReport:
    """E[N] >= first mean-ray entry time of a convex stopping region (T8).

    When the mean ray never meets the region the expected stopping time is
    infinite and the report carries value +inf.  Otherwise the diagnostics
    also hold the ray's exit time, the Brownian upper bound (Brown2's).
    """
    return _ray_report(region, tag, lambda: ray_entry_and_exit(region, mean))


def _stopping_ray_bound(p: Premises, tag: str) -> BoundReport:
    """T8 and Brown2 at the mean, from the premises' stopping ray."""
    return _ray_report(p.stopping_view, tag, lambda: p.stopping_ray)


def wald_lower_bound(rule_at_mean: float, tag: str, concave: Optional[bool] = None) -> BoundReport:
    """E[N] >= 1/g(mean) for rules that stop once n >= 1/g(sample mean).

    ``rule_at_mean`` is g(mean), and ``concave`` whether g is known concave;
    None, unknown, reads "declared".  g(mean) = 0 leaves the rule at the
    mean never stopping: the value is +inf with the positivity check marked
    "unchecked".
    """
    g0 = float(rule_at_mean)
    checks = [AssumptionCheck("g-concave", {True: "pass", False: "fail"}.get(concave, "declared"))]
    if g0 == 0.0:
        checks.append(AssumptionCheck("g-positive-at-mean", "unchecked",
                                      "g(mean)=0: never stops, value +inf"))
        return BoundReport(tag, "lower", math.inf, checks, {"g_at_mean": g0})
    checks.append(_chk("g-positive-at-mean", g0 > 0.0, f"g(mean)={g0:.6g}"))
    value = 1.0 / g0 if g0 > 0 else math.nan
    return BoundReport(tag, "lower", value, checks, {"g_at_mean": g0})


def _reciprocal_rule_bound(p: Premises, tag: str) -> BoundReport:
    """Wald's bound for the rule 1/g, at 1/g(mean): +inf at g(mean) = 0, and 0 at +inf."""
    g0 = p.g_at_mean
    return wald_lower_bound(1.0 / g0 if g0 > 0 else math.inf, tag, p.reciprocal_rule_concave)


def _crossing_bound(p: Premises, tag: str) -> BoundReport:
    """Brown1: E[N] <= m, the mean ray's crossing, under (III)."""
    iii = p.convex_origin
    if iii.status == "fail":
        return BoundReport(tag, "upper", math.nan, [iii], {})
    crossing, m = p.crossing
    return BoundReport(tag, "upper", m, [iii, crossing], {"m": m})


def _rule_bound(p: Premises, tag: str) -> BoundReport:
    """Brown3: g(mean) bounds E[N] above; at g = 0, where Wald's bound is +inf, nothing."""
    g0 = float(p.g_at_mean)
    checks = [AssumptionCheck("g-concave", "declared"),
              _chk("g-positive-at-mean", g0 > 0.0, f"g(mean)={g0:.6g}")]
    return BoundReport(tag, "upper", g0 if g0 > 0.0 else math.nan, checks, {"g_at_mean": g0})


# ---------------------------------------------------------------------------
# Slab-optimization upper bounds
# ---------------------------------------------------------------------------


def deviation_slab(profile: MomentProfile, lam: float, K: float, n0: float) -> Slab:
    """Slab from the one-sided deviations of the increment law."""
    mu, pos, neg = profile.mean, profile.pos_dev, profile.neg_dev
    return Slab(
        lower_slope=[m - lam * x for m, x in zip(mu, pos)],
        upper_slope=[m + lam * x for m, x in zip(mu, neg)],
        lower_icept=[(n0 - K) * x for x in pos],
        upper_icept=[(K - n0) * x for x in neg],
    )


def bounded_support_slab(profile: MomentProfile, lam: float, K: float, n0: float) -> Slab:
    """Envelope slab for bounded increments, with the primed support quadruple."""
    if not profile.bounded:
        raise ValueError("bounded_support_slab requires support bounds")
    v = profile.bound_v
    a, b, mu = profile.support_lo, profile.support_hi, profile.mean
    primed = Slab(
        lower_slope=[y + lam * (m - y) for m, y in zip(mu, b)],
        upper_slope=[x + lam * (m - x) for m, x in zip(mu, a)],
        lower_icept=[K * (m - y) for m, y in zip(mu, b)],
        upper_icept=[K * (m - x) for m, x in zip(mu, a)],
    )
    return Slab(
        lower_slope=[m - lam * w for m, w in zip(mu, v)],
        upper_slope=[m + lam * w for m, w in zip(mu, v)],
        lower_icept=[(n0 - K) * w for w in v],
        upper_icept=[-(n0 - K) * w for w in v],
        primed=primed,
    )


def slab_optimization_upper_bound(p: Premises, tag: str) -> BoundReport:
    """E[N] <= lam * max{t over the slab-constrained region} + K.

    T10 uses the one-sided-deviation slab; T11, the support form, needs
    support bounds and intersects the envelope slab with the primed support slab.
    """
    bounded = THEOREMS[tag].form == "support"
    lam, K, n0 = p.schedule.lam, p.schedule.K, p.schedule.n0
    checks = p.audit(need_third_moment=not bounded)
    vcheck, m = p.crossing
    checks.append(vcheck)
    diag = {"m": m, "lam": lam, "K": K, "n0": n0}
    if bounded:
        checks.append(_chk("support-bounds", p.profile.bounded))
    if any(c.status == "fail" for c in checks):
        return BoundReport(tag, "upper", math.nan, checks, diag)
    if not math.isfinite(m):
        return BoundReport(tag, "upper", math.inf, checks, diag)
    slab = p.support_slab if bounded else p.dev_slab
    checks.append(_chk("slab-nonempty", not slab.is_empty))
    if slab.is_empty:
        return BoundReport(tag, "upper", math.nan, checks, diag)
    res = max_time_in_region(p.continuity_view, slab)
    diag["sample_count_before_exit_max"] = res.value
    diag["optimizer_uncertainty"] = res.uncertainty
    if res.empty_domain:
        checks.append(AssumptionCheck("feasible-domain", "fail", "slab misses the region"))
        return BoundReport(tag, "upper", math.nan, checks, diag)
    value = math.inf
    if math.isfinite(res.value):  # lam * t + K, rounded up
        value = float_at_least(*exact_sum([(lam, res.value), (K,)]))
    return BoundReport(tag, "upper", value, checks, diag)


def sample_mean_upper_bound(p: Premises, tag: str) -> BoundReport:
    """E[N] <= K + max of g over a moment box, for rules n >= g(sample mean).

    g(v) = ray_exit_time(region, v) is the rule of the continuity region.
    T12 uses the one-sided-deviation box with the schedule's max gap K;
    T13 is the all-naturals form with constant 2 instead of K; try88, the
    support form, uses the support envelope box and needs bounded
    increments.  The box maximum is the region's ``exit_box_max``, a closed
    form.
    """
    form = THEOREMS[tag].form
    profile, schedule = p.profile, p.schedule
    K, n0 = p.max_gap, schedule.n0
    diag = {"K": K}
    # which concavity of g each theorem needs is not settled: no region answers it
    checks = [AssumptionCheck("g-concave", "declared")]
    if form == "naturals":
        checks.append(_chk("all-naturals", schedule.is_all_naturals))
        gmu = float(p.g_at_mean)
        checks.append(_chk("g-nonnegative", gmu >= 0.0, f"g(mean)={gmu:.6g}"))
        constant = 2.0
    else:
        checks.append(_chk("gap-at-most-start", K <= n0,
                           f"max gap {K} vs start anchor {n0}"))
        checks.append(p.start_check("sure-start"))
        checks.append(p.third_moment)
        constant = float(K)
    if form == "support":
        checks.append(_chk("support-bounds", profile.bounded))
        if not profile.bounded:
            return BoundReport(tag, "upper", math.nan, checks, diag)
    below, above = ((profile.bound_v, profile.bound_v) if form == "support"
                    else (profile.pos_dev, profile.neg_dev))
    lo = [m - x for m, x in zip(profile.mean, below)]
    hi = [m + x for m, x in zip(profile.mean, above)]
    diag["box"] = (list(lo), list(hi))
    if any(c.status == "fail" for c in checks):
        return BoundReport(tag, "upper", math.nan, checks, diag)
    peak = p.continuity_view.exit_box_max(lo, hi)
    diag["box_max"] = peak
    value = constant + peak if math.isfinite(peak) else math.inf
    return BoundReport(tag, "upper", value, checks, diag)


# ---------------------------------------------------------------------------
# Hyperplane vertex bounds
# ---------------------------------------------------------------------------


def hyperplane_vertex_upper_bound(p: Premises, tag: str,
                                  hyp: Optional[Hyperplane] = None) -> BoundReport:
    """E[N] <= lam * (vertex fractional max) + K from a plane ``hyp`` supporting the region.

    T14 evaluates the deviation slab; T15, the support form, evaluates both
    the envelope and primed support slabs and keeps the smaller vertex
    maximum among those whose positivity proviso holds.  That maximum is the
    exact ratio rounded up, and lam * value + K is summed exactly and
    rounded up, as T10 and T11 round theirs.  ``hyp`` defaults to the premises' plane.
    """
    hyp = p.hyperplane if hyp is None else hyp
    bounded = THEOREMS[tag].form == "support"
    lam, K, n0 = p.schedule.lam, p.schedule.K, p.schedule.n0
    checks = p.audit(need_third_moment=not bounded)
    diag = {"m": hyp.anchor, "C": hyp.level, "lam": lam, "K": K, "n0": n0}
    if bounded:
        checks.append(_chk("support-bounds", p.profile.bounded))
    if any(c.status == "fail" for c in checks):
        return BoundReport(tag, "upper", math.nan, checks, diag)
    slabs = ({"envelope": p.envelope_slab, "support": p.support_slab.primed} if bounded
             else {"deviation": p.dev_slab})
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
    value = math.inf
    if math.isfinite(res.value):  # lam * value + K, rounded up
        value = float_at_least(*exact_sum([(lam, res.value), (K,)]))
    return BoundReport(tag, "upper", value, checks, diag)


# ---------------------------------------------------------------------------
# Overshoot-based hyperplane bound
# ---------------------------------------------------------------------------


def lorden_hyperplane_upper_bound(hyp: Hyperplane, profile: MomentProfile, K: int,
                                  tag: str) -> BoundReport:
    """Renewal-overshoot bound for rules checked every K samples.

    T16-I, the general form, is the Euclidean-norm chain member, T16-II the
    elementwise variance form (independent components: a scalar law, or a
    profile marked ``independent``), T16-III the bounded-support form.  The
    elementwise reading of II is sum_k s_coef_k^2 * var_k, recorded in
    diagnostics.
    """
    form = THEOREMS[tag].form
    m, c = hyp.anchor, hyp.level
    a, var = hyp.s_coef, profile.variance
    checks = [
        _chk("K-positive-integer", K >= 1 and int(K) == K),
        _chk("second-moment-finite", all(map(math.isfinite, var))),
    ]
    diag = {"m": m, "C": c, "K": K}
    if form == "":
        quad = dot(a, a) * _sum(var)
        value = m + K + _square(m / c) * quad
        diag["norm_chain_member"] = value
    elif form == "elementwise":
        checks.append(_chk("independent-components", profile.dim == 1 or profile.independent))
        quad = _sum([x * x * v for x, v in zip(a, var)])
        value = m + K + _square(m / c) * quad
        diag["elementwise_quadratic"] = quad
        diag["elementwise_reading"] = "sum_k s_coef_k^2 var_k"
    else:
        checks.append(_chk("support-bounds", profile.bounded))
        if not profile.bounded:
            return BoundReport(tag, "upper", math.nan, checks, diag)
        lo, hi = profile.support_lo, profile.support_hi
        centre = dot(a, [x + y for x, y in zip(lo, hi)])
        u = 0.5 * (centre + dot(map(abs, a), [x - y for x, y in zip(lo, hi)])) + hyp.t_coef
        vbar = 0.5 * (centre + dot(map(abs, a), [y - x for x, y in zip(lo, hi)])) + hyp.t_coef
        diag["batch_min_mean_gap"] = u
        diag["batch_max_mean_gap"] = vbar
        value = m + K * m * (u + vbar) / c - K * m * m * u * vbar / (c * c)
        if u < 0.0:
            diag["negative_min_form"] = (
                m + (K * _square(vbar) / (vbar - u)) * _square(m / c) * (c / m - u))
    if any(ch.status == "fail" for ch in checks):
        return BoundReport(tag, "upper", math.nan, checks, diag)
    return BoundReport(tag, "upper", value, checks, diag)


def _batched_lorden_bound(p: Premises, tag: str) -> BoundReport:
    """T16 at the supporting hyperplane, for a rule checked at the multiples of a batch size."""
    k = p.schedule.step  # None unless arithmetic
    if not p.schedule.is_multiples_of(k):
        return inapplicable(tag, "schedule-multiples",
                            "rule must be checked at multiples of a fixed batch size")
    return lorden_hyperplane_upper_bound(p.hyperplane, p.profile, k, tag)


# ---------------------------------------------------------------------------
# Gradient bound
# ---------------------------------------------------------------------------


def gradient_upper_bound(p: Premises, tag: str) -> BoundReport:
    """E[N] <= g(mean) + 1 + quadratic form of the log-gradient against the noise.

    T17 is the general form; vipformula is the closed scalar form
    m + 1 + var/(f'(m)-mean)^2 for d=1 regions with a differentiable
    boundary curve.
    """
    region, profile = p.continuity_view, p.profile
    mu, var = profile.mean, profile.variance
    checks = [
        p.convex_origin,
        _chk("second-moment-finite", all(map(math.isfinite, var))),
        _chk("all-naturals", p.schedule.is_all_naturals),
    ]
    diag = {}
    if any(c.status == "fail" for c in checks):
        return BoundReport(tag, "upper", math.nan, checks, diag)
    g0 = p.g_at_mean
    diag["g_at_mean"] = g0
    vcheck, m = p.crossing
    checks.append(vcheck)
    if math.isinf(m):
        return BoundReport(tag, "upper", math.inf, checks, diag)
    if THEOREMS[tag].form == "scalar":
        slope = region.boundary_slope
        checks.append(_chk("scalar-boundary", slope is not None and profile.dim == 1))
        if slope is None or profile.dim != 1:
            return BoundReport(tag, "upper", math.nan, checks, diag)
        fprime = slope(g0)
        diag["boundary_slope_at_m"] = fprime
        value = g0 + 1.0 + var[0] / _square(fprime - mu[0])
        return BoundReport(tag, "upper", value, checks, diag)
    try:
        grad = log_exit_gradient(region, mu)
    except GradientDomainError as exc:
        checks.append(AssumptionCheck("g-differentiable", "fail", str(exc)))
        return BoundReport(tag, "upper", math.nan, checks, diag)
    checks.append(_chk("g-differentiable", True))
    diag["log_gradient"] = list(grad)
    chain = dot(grad, grad) * _sum(var)
    if profile.dim == 1:
        quad = _sum([g * g * v for g, v in zip(grad, var)])
    else:
        quad = chain  # cross moments unknown: fall back to the norm chain member
    diag["norm_chain_member"] = g0 + 1.0 + chain
    if region.boundary_slope is not None and profile.dim == 1:
        fprime = region.boundary_slope(g0)
        diag["closed_scalar_form"] = g0 + 1.0 + var[0] / _square(fprime - mu[0])
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
# relative margin.  A computed m can fall below the true one by rounding (the
# float quotient and power of the closed form: a few ulps).  When the walk
# reaches the boundary at an element just above the computed m, the series would
# weight that element by the tail of a small positive deviation, which is 0
# for zero-width increments, and so drop it.  Taking the next element as
# N_tau replaces that term gap * tail by gap, which never lowers the bound.
_CROSSING_ROUND = 1e-9


def concentration_upper_bound(p: Premises, tag: str, hyp: Optional[Hyperplane] = None,
                              user_tail: Optional[Callable] = None) -> BoundReport:
    """Tail-sum bound N_tau + sum of schedule gaps weighted by deviation tails.

    Deviations come from the distance between the mean and the region slice
    at each schedule size (T18) or, in T19's plane form, from the closed-form
    distance to a supporting hyperplane: ``hyp``, by default the premises'
    plane at the mean-ray crossing.  When the d = 1 slice at the first
    post-crossing size lies above or below the mean, the one-sided scalar
    tail is used, which is never looser than the two-sided vector form.
    Tails are Hoeffding's, which need support bounds, unless ``user_tail``
    (n, deviation) -> one-sided tail probability is given.  The support
    restriction on contributing indices is over-approximated by all
    indices, which can only loosen the bound.  A plane with s_coef = 0, or
    a built-in time slab, reads N_tau: its slices past the crossing are
    empty.
    """
    hyp = (p.hyperplane if hyp is None else hyp) if THEOREMS[tag].form == "plane" else None
    region, profile, schedule = p.continuity_view, p.profile, p.schedule
    d = profile.dim
    checks = p.audit(need_third_moment=True)
    vcheck, m = p.crossing
    checks.append(vcheck)
    diag = {"m": m}
    if user_tail is None:
        checks.append(_chk("support-bounds", profile.bounded, "tail=hoeffding"))
    else:
        checks.append(_chk("user-tail-supplied", True))
    if any(c.status == "fail" for c in checks) or not math.isfinite(m):
        value = math.inf if not math.isfinite(m) else math.nan
        return BoundReport(tag, "upper", value, checks, diag)
    tau, n_tau = p.series_start
    diag["tau"] = tau
    diag["N_tau"] = n_tau
    if region.time_slab if hyp is None else hyp.norm == 0.0:
        # a plane, or a built-in halfspace, in t alone has empty slices past
        # the crossing: a continuation probability of 0, so every walk has
        # stopped by N_tau
        return BoundReport(tag, "upper", float(n_tau), checks, diag)
    one_sided = False
    if d == 1:
        side = p.side_at_n_tau
        diag["slice_side_at_N_tau"] = side
        one_sided = side in ("above", "below")
    diag["one_sided"] = one_sided
    weight = _series_weight(region, profile, hyp, user_tail, one_sided)

    total = 0.0
    tiny_streak = 0
    terms = 0
    index = tau
    n_cur = n_tau
    while True:
        n_next = schedule.element(index + 1)
        gap = n_next - n_cur
        term = gap * weight(n_cur)
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


def _series_weight(region: Region, profile: MomentProfile, hyp: Optional[Hyperplane],
                   user_tail: Optional[Callable], one_sided: bool) -> Callable[[float], float]:
    """The concentration series' continuation weight at size n: one call per term.

    The deviation at n is T19's plane distance, in the operation order of
    geometry.hyperplane_slice_distance so that the two agree bit for bit,
    or, on a d = 1 region with a boundary curve s = f(t), |mean - f(n)/n|,
    or else ``slice_distance``.  The constants are computed once, here.
    """
    d, mu = profile.dim, profile.mean
    f = region.scalar_boundary if d == 1 else None
    widths = ([b - a for a, b in zip(profile.support_lo, profile.support_hi)]
              if profile.bounded else None)
    if hyp is not None:
        anchor, abs_gap, norm = hyp.anchor, abs(hyp.mean_gap(mu)), hyp.norm
    elif f is not None:
        mu0 = mu[0]
    root_d = math.sqrt(d)

    def weight(n: float) -> float:
        if hyp is not None:
            if not n > anchor:
                raise ValueError("slice size must exceed the anchor time")
            dev = (1.0 - anchor / n) * abs_gap / norm
        elif f is not None:
            dev = abs(mu0 - f(n) / n)
        else:
            dev = slice_distance(region, n, mu)
        if not one_sided:
            total = 0.0
            comp_dev = dev / root_d
            for k in range(d):
                if user_tail is None:
                    total += 2.0 * _hoeffding_one_sided(n, comp_dev, widths[k])
                else:
                    total += 2.0 * float(user_tail(n, comp_dev))
            return min(1.0, total)  # a continuation probability never exceeds one
        if user_tail is not None:
            return min(1.0, float(user_tail(n, dev)))
        # _hoeffding_one_sided(n, dev, widths[0]), written out: the shipped case
        if dev <= 0.0:
            return 1.0
        if widths[0] == 0.0:
            return 0.0
        return min(1.0, math.exp(-2.0 * n * dev * dev / (widths[0] * widths[0])))

    return weight


# ---------------------------------------------------------------------------
# Overshoot bounds
# ---------------------------------------------------------------------------


def overshoot_upper_bound(z_spec: DistributionSpec, lam, schedule: SampleSchedule,
                          tag: str) -> BoundReport:
    """Expected-overshoot bound for renewal sums crossing a threshold.

    Lorden's T6, the all-naturals form, bounds E[overshoot] for a crossing
    checked at every sample, so it needs the all-naturals schedule; T7
    handles thresholds checked only on a schedule with finite maximum gap
    K, via the law of the first-batch sum.
    """
    every_sample = THEOREMS[tag].form == "naturals"
    if z_spec.dim != 1:
        raise ValueError("overshoot bounds are for scalar increments")
    z_spec = z_spec.components[0]  # a one-component product is its component
    prof = analytic_moments(z_spec)
    ez = prof.mean[0]
    ez2 = prof.variance[0] + _square(ez)
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
            prof.bounded and prof.support_lo[0] > 0.0))
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


def _threshold_overshoot_bound(p: Premises, tag: str) -> BoundReport:
    """T6 and T7 at the level of a flat stopping threshold."""
    if p.threshold_level is None:
        return inapplicable(tag, "constant-threshold",
                            "overshoot bounds need a constant stopping threshold")
    return overshoot_upper_bound(p.spec, p.threshold_level, p.schedule, tag)


# each theorem tag's record; ALL_TAGS keeps this order, the upper tags first
THEOREMS = {
    "T10-upper": Theorem("upper", slab_optimization_upper_bound),
    "T11-upper-bounded": Theorem("upper", slab_optimization_upper_bound, "support"),
    "T12-samplemean": Theorem("upper", sample_mean_upper_bound),
    "T13-samplemean-naturals": Theorem("upper", sample_mean_upper_bound, "naturals"),
    "T-try88-bounded": Theorem("upper", sample_mean_upper_bound, "support"),
    "T14-hyperplane": Theorem("upper", hyperplane_vertex_upper_bound),
    "T15-hyperplane-bounded": Theorem("upper", hyperplane_vertex_upper_bound, "support"),
    "T16-chenlorden-I": Theorem("upper", _batched_lorden_bound),
    "T16-chenlorden-II": Theorem("upper", _batched_lorden_bound, "elementwise"),
    "T16-chenlorden-III": Theorem("upper", _batched_lorden_bound, "support"),
    "T17-gradient": Theorem("upper", gradient_upper_bound),
    "vipformula": Theorem("upper", gradient_upper_bound, "scalar"),
    "T18-concentration": Theorem("upper", concentration_upper_bound),
    "T19-concentration-hyperplane": Theorem("upper", concentration_upper_bound, "plane"),
    "Lorden-T6": Theorem("upper", _threshold_overshoot_bound, "naturals", overshoot=True),
    "Lorden-T7": Theorem("upper", _threshold_overshoot_bound, overshoot=True),
    "Brown1": Theorem("upper", _crossing_bound, brownian=True),
    "Brown2-upper": Theorem("upper", _stopping_ray_bound, brownian=True),
    "Brown3": Theorem("upper", _rule_bound, brownian=True),
    "T8-lower": Theorem("lower", _stopping_ray_bound),
    "T-UseWald-lower": Theorem("lower", _reciprocal_rule_bound),
    "Brown2-lower": Theorem("lower", _stopping_ray_bound, brownian=True),
    "Brown4": Theorem("lower", _reciprocal_rule_bound, brownian=True),
}
ALL_TAGS = tuple(THEOREMS)
UPPER_TAGS = tuple(tag for tag, theorem in THEOREMS.items() if theorem.direction == "upper")
LOWER_TAGS = tuple(tag for tag, theorem in THEOREMS.items() if theorem.direction == "lower")
