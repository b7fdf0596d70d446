"""Scenario bundles, theorem-tag dispatch, and the certification comparison.

A bundle ties one increment law, one region, and one schedule together and
derives the views the calculators need: the continuity-side closure, the
stopping-side closure, the supporting hyperplane, and the premises that
several calculators share (``bounds.Premises``: the hypotheses, the mean-ray
crossing, the slabs, the start of the concentration series), each once per
bundle.  A Brownian bundle shares the region views and derives its premises,
and T8's ray for Brown2, at the drift.  ``bound_report`` turns a theorem tag
into a report, and ``brownian_report`` answers a Brownian tag with the same
calculators at the drift; ``certify`` compares reports against a Monte Carlo
estimate with the four-sigma slack, respecting truncation bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, wraps
from typing import Optional

from . import bounds as bd
from .geometry import (
    EmptySliceError,
    GradientDomainError,
    NonConvexityError,
    NoRayExitError,
    Region,
    RegionError,
    ray_exit_time,
    supporting_hyperplane,
)
from .moments import DistributionSpec, MomentProfile, analytic_moments
from .schedules import SampleSchedule
from .simulate import SimulationEstimate


def _reciprocal(g: float) -> float:
    """1/g, with 1/0 = +inf and 1/+inf = 0."""
    return 1.0 / g if g > 0 else math.inf


def _evaluated(value: float):
    """A rule function for ``wald_lower_bound``, which reads its rule only at the mean.

    ``value`` is the rule there, as the bundle's premises already hold it.
    """
    return lambda v: value


class _RegionViews:
    """Region views and the reciprocal rule function of a bundle with ``region``."""

    @cached_property
    def continuity_view(self) -> Region:
        if self.region.kind == "continuity":
            return self.region
        return self.region.complement_closure()

    @cached_property
    def stopping_view(self) -> Region:
        if self.region.kind == "stopping":
            return self.region
        return self.region.complement_closure()

    def reciprocal_rule_function(self):
        """1/g(v), with 1/0 = +inf and 1/+inf = 0; g(v) is how long the slope-v ray stays."""
        view = self.continuity_view

        def g(v):
            return _reciprocal(ray_exit_time(view, v))

        return g

    def reciprocal_rule_concave(self) -> bool:
        """Whether 1/g is concave, as T-UseWald-lower and Brown4 need.

        Along a ray a built-in region has g = (alpha/rate)^(1/k) with the
        rate affine in v, so 1/g = (rate/alpha)^(1/k) is affine for a flat
        family (k = 1) and strictly convex for a power boundary (k < 1).
        """
        return self.continuity_view.power_exponent is None


@dataclass
class ScenarioBundle(_RegionViews):
    """One experiment: distribution + region + schedule."""

    name: str
    spec: DistributionSpec
    region: Region
    schedule: SampleSchedule
    n_runs: int = 100_000
    horizon: int = 1_000_000
    boundary: str = "closed"

    @cached_property
    def profile(self) -> MomentProfile:
        return analytic_moments(self.spec)

    @cached_property
    def hyperplane(self):
        return supporting_hyperplane(self.continuity_view, self.profile.mean)

    @cached_property
    def premises(self) -> bd.Premises:
        """What the calculators share, derived once for this bundle."""
        return bd.Premises(self.continuity_view, self.profile.mean, self.profile, self.schedule)

    def threshold_level(self) -> Optional[float]:
        """Level c of a flat stopping threshold {s >= c}, in whatever family it is written.

        The boundary s = f(t) is flat when its exact slope is 0; t = 1
        avoids the power family's infinite slope at t = 0.  Only a region
        with a boundary curve has an orientation.
        """
        view = self.stopping_view
        if view.orientation == "ge" and view.boundary_slope(1.0) == 0.0:
            return float(view.scalar_boundary(1.0))
        return None


@dataclass(frozen=True)
class BrownianBundle(_RegionViews):
    """Continuous-time experiment: drift/diffusion path in a region."""

    name: str
    region: Region
    drift: float
    diffusion: float
    dt: float
    n_runs: int = 50_000
    horizon: float = 10_000.0

    @cached_property
    def premises(self) -> bd.Premises:
        """(III) and the mean ray at the drift, derived once for this bundle."""
        return bd.Premises(self.continuity_view, self.drift)

    @cached_property
    def stopping_ray(self) -> bd.BoundReport:
        """T8 at the drift, derived once: Brown2-lower reads its entry, Brown2-upper its exit."""
        return bd.stopping_region_lower_bound(self.stopping_view, self.drift)


# a region outside a calculator's geometric hypotheses makes its report inapplicable,
# as does an empty slice
_GEOMETRY_ERRORS = (RegionError, NoRayExitError, NonConvexityError, GradientDomainError,
                    EmptySliceError)


def _failed(tag: str, direction: str, ident: str, note: str) -> bd.BoundReport:
    return bd.BoundReport(tag, direction, math.nan,
                          [bd.AssumptionCheck(ident, "fail", note)], {})


def _geometry_guard(report_fn):
    """Turn a geometry error raised for ``tag`` into an inapplicable report."""
    @wraps(report_fn)
    def guarded(tag: str, bundle) -> bd.BoundReport:
        try:
            return report_fn(tag, bundle)
        except _GEOMETRY_ERRORS as exc:
            return _failed(tag, "upper" if tag in bd.UPPER_TAGS else "lower",
                           "geometry", str(exc))

    return guarded


@_geometry_guard
def bound_report(tag: str, bundle: ScenarioBundle) -> bd.BoundReport:
    """Compute the report for one theorem tag against the bundle's scenario."""
    prof = bundle.profile
    sched = bundle.schedule
    mean = prof.mean
    if tag == "T8-lower":
        return bd.stopping_region_lower_bound(bundle.stopping_view, mean)
    if tag == "T-UseWald-lower":
        rule = _evaluated(_reciprocal(bundle.premises.g_at_mean))
        return bd.wald_lower_bound(rule, mean, concave=bundle.reciprocal_rule_concave())
    if tag in ("T10-upper", "T11-upper-bounded"):
        return bd.slab_optimization_upper_bound(bundle.continuity_view, prof, sched, tag,
                                                premises=bundle.premises)
    if tag in ("T12-samplemean", "T13-samplemean-naturals", "T-try88-bounded"):
        return bd.sample_mean_upper_bound(bundle.continuity_view, prof, sched, tag,
                                          premises=bundle.premises)
    if tag in ("T14-hyperplane", "T15-hyperplane-bounded"):
        return bd.hyperplane_vertex_upper_bound(bundle.continuity_view, bundle.hyperplane,
                                                prof, sched, tag, premises=bundle.premises)
    if tag.startswith("T16-chenlorden-"):
        k = 1 if sched.is_all_naturals else (sched.step or 0)
        if not k or not sched.is_multiples_of(k):
            return _failed(tag, "upper", "schedule-multiples",
                           "rule must be checked at multiples of a fixed batch size")
        return bd.lorden_hyperplane_upper_bound(bundle.hyperplane, prof, k, tag)
    if tag in ("T17-gradient", "vipformula"):
        return bd.gradient_upper_bound(bundle.continuity_view, prof, sched, tag,
                                       premises=bundle.premises)
    if tag in ("T18-concentration", "T19-concentration-hyperplane"):
        hyp = bundle.hyperplane if tag.startswith("T19") else None
        return bd.concentration_upper_bound(bundle.continuity_view, prof, sched, hyp=hyp,
                                            premises=bundle.premises)
    if tag in ("Lorden-T6", "Lorden-T7"):
        level = bundle.threshold_level()
        if level is None:
            return _failed(tag, "upper", "constant-threshold",
                           "overshoot bounds need a constant stopping threshold")
        if prof.dim != 1:
            return _failed(tag, "upper", "scalar-increments", "dim must be 1")
        return bd.overshoot_upper_bound(bundle.spec, level, sched, tag)
    raise ValueError(f"unknown theorem tag {tag!r}")


@_geometry_guard
def brownian_report(tag: str, bundle: BrownianBundle) -> bd.BoundReport:
    """The discrete calculators at the drift, renamed to the Brownian tag.

    Brown2 reads the entry and exit of T8's ray; Brown3 and Brown4 are the
    Wald checks on the rule function g and on its reciprocal, which read g
    at the drift from the bundle's premises, as Brown1 reads the crossing.
    """
    drift = bundle.drift
    if tag == "Brown1":
        iii = bundle.premises.convex_origin
        if iii.status == "fail":
            return bd.BoundReport(tag, "upper", math.nan, [iii], {})
        crossing, m = bundle.premises.crossing
        return bd.BoundReport(tag, "upper", m, [iii, crossing], {"m": m})
    if tag in ("Brown2-lower", "Brown2-upper"):
        report = bundle.stopping_ray
        own = {"theorem": tag, "assumptions": list(report.assumptions),
               "diagnostics": dict(report.diagnostics)}  # not shared with the other Brown2
        if tag == "Brown2-lower":
            return replace(report, **own)
        # a ray that never enters keeps the +inf, failed checks the nan
        return replace(report, direction="upper",
                       value=report.diagnostics.get("mean_ray_exit", report.value), **own)
    if tag == "Brown3":
        report = bd.wald_lower_bound(_evaluated(bundle.premises.g_at_mean), drift)
        g0 = report.diagnostics["g_at_mean"]
        if g0 == 0.0:  # Wald's +inf lower bound at g = 0 bounds nothing from above
            report.assumptions[-1] = bd._chk("g-positive-at-mean", False, "g(mean)=0")
        return replace(report, theorem=tag, direction="upper", value=g0 if g0 > 0.0 else math.nan)
    if tag == "Brown4":
        rule = _evaluated(_reciprocal(bundle.premises.g_at_mean))
        report = bd.wald_lower_bound(rule, drift, concave=bundle.reciprocal_rule_concave())
        return replace(report, theorem=tag)
    raise ValueError(f"unknown Brownian tag {tag!r}")


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertRow:
    theorem: str
    direction: str
    value: float
    applicable: bool
    mc_mean: float
    mc_stderr: float
    verdict: str  # "pass" | "fail" | "inapplicable" | "skipped-biased"


def _target_stat(report: bd.BoundReport, estimate: SimulationEstimate):
    if report.theorem.startswith("Lorden-"):
        stat = estimate.extras.get("overshoot")
        if stat is None:
            return None
        return stat
    return estimate.mean, estimate.stderr


_SLACK_SIGMAS = 4.0  # the certification slack, in standard errors of the estimate


def certify(reports, estimate: SimulationEstimate):
    """Compare each applicable report against the Monte Carlo estimate.

    Upper bounds must exceed mean - slack, lower bounds must not exceed
    mean + slack.  A truncated (downward-biased) estimate cannot refute a
    lower bound, so those comparisons are skipped.  The slack also absorbs
    twice the discretization diagnostic, which is nonzero only for Brownian
    estimates of curved regions, walked on two Euler grids; exact
    passage estimates report 0 and get no grid slack.  An estimate of one run
    has no stderr, so it raises ValueError.
    """
    if estimate.n_runs < 2:
        raise ValueError("a 4-sigma verdict needs an estimate of at least 2 runs")
    grid_bias = 2.0 * estimate.diagnostics.get("discretization_diagnostic", 0.0)
    rows = []
    for report in reports:
        target = _target_stat(report, estimate)
        if not report.applicable or target is None or math.isnan(report.value):
            rows.append(CertRow(report.theorem, report.direction, report.value,
                                False, estimate.mean, estimate.stderr, "inapplicable"))
            continue
        mean, stderr = target
        slack = max(_SLACK_SIGMAS * stderr, grid_bias)
        if report.direction == "upper":
            verdict = "pass" if report.value >= mean - slack else "fail"
        else:
            if estimate.downward_biased:
                verdict = "skipped-biased"
            else:
                verdict = "pass" if report.value <= mean + slack else "fail"
        rows.append(CertRow(report.theorem, report.direction, report.value,
                            True, mean, stderr, verdict))
    return rows
