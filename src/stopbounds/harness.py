"""Scenario bundles, theorem-tag dispatch, and the certification comparison.

A bundle holds one scenario's inputs (an increment law, a region and a
schedule, or a Brownian drift and diffusion) and its ``bounds.Premises``:
all that is derived from them, each fact once per bundle, at the drift for
a Brownian bundle.  ``bound_report`` turns a theorem tag into a report, and
``brownian_report`` answers a Brownian tag with the same calculators at the
drift; ``certify`` compares reports against a Monte Carlo estimate with the
four-sigma slack, respecting truncation bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, wraps

from . import bounds as bd
from .geometry import (
    EmptySliceError,
    GradientDomainError,
    NonConvexityError,
    NoRayExitError,
    Region,
    RegionError,
    ray_exit_time,  # noqa: F401  (kept as a harness name: the benchmark tracer wraps it)
    supporting_hyperplane,  # noqa: F401  (as above; the plane is built through bounds)
)
from .moments import DistributionSpec, analytic_moments
from .schedules import SampleSchedule
from .simulate import SimulationEstimate


def _reciprocal(g: float) -> float:
    """1/g, with 1/0 = +inf and 1/+inf = 0."""
    return 1.0 / g if g > 0 else math.inf


@dataclass
class ScenarioBundle:
    """One experiment: distribution + region + schedule."""

    name: str
    spec: DistributionSpec
    region: Region
    schedule: SampleSchedule
    n_runs: int = 100_000
    horizon: int = 1_000_000
    boundary: str = "closed"

    @cached_property
    def premises(self) -> bd.Premises:
        """What is derived from the scenario, once for this bundle."""
        profile = analytic_moments(self.spec)
        return bd.Premises(self.region, profile.mean, profile, self.schedule)


@dataclass(frozen=True)
class BrownianBundle:
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
        """The region views, (III) and the rays at the drift, once for this bundle."""
        return bd.Premises(self.region, self.drift)


# a region outside a calculator's geometric hypotheses makes its report inapplicable,
# as does an empty slice
_GEOMETRY_ERRORS = (RegionError, NoRayExitError, NonConvexityError, GradientDomainError,
                    EmptySliceError)


def _failed(tag: str, direction: str, ident: str, note: str) -> bd.BoundReport:
    return bd.BoundReport(tag, direction, math.nan,
                          [bd.AssumptionCheck(ident, "fail", note)], {})


def _geometry_guard(report_fn):
    """Turn a geometry error, or a float overflow or division by 0, into an inapplicable report."""
    @wraps(report_fn)
    def guarded(tag: str, bundle) -> bd.BoundReport:
        direction = "upper" if tag in bd.UPPER_TAGS else "lower"
        try:
            return report_fn(tag, bundle)
        except _GEOMETRY_ERRORS as exc:
            return _failed(tag, direction, "geometry", str(exc))
        except ArithmeticError as exc:
            return _failed(tag, direction, "finite-arithmetic", f"{type(exc).__name__}: {exc}")

    return guarded


@_geometry_guard
def bound_report(tag: str, bundle: ScenarioBundle) -> bd.BoundReport:
    """Compute the report for one theorem tag against the bundle's scenario."""
    p = bundle.premises
    prof, sched = p.profile, p.schedule
    if tag == "T8-lower":
        return _copy(p.stopping_ray)
    if tag == "T-UseWald-lower":
        return bd.wald_lower_bound(_reciprocal(p.g_at_mean), concave=p.reciprocal_rule_concave)
    if tag in ("T10-upper", "T11-upper-bounded"):
        return bd.slab_optimization_upper_bound(p, tag)
    if tag in ("T12-samplemean", "T13-samplemean-naturals", "T-try88-bounded"):
        return bd.sample_mean_upper_bound(p, tag)
    if tag in ("T14-hyperplane", "T15-hyperplane-bounded"):
        return bd.hyperplane_vertex_upper_bound(p, p.hyperplane, tag)
    if tag.startswith("T16-chenlorden-"):
        k = 1 if sched.is_all_naturals else (sched.step or 0)
        if not k or not sched.is_multiples_of(k):
            return _failed(tag, "upper", "schedule-multiples",
                           "rule must be checked at multiples of a fixed batch size")
        return bd.lorden_hyperplane_upper_bound(p.hyperplane, prof, k, tag)
    if tag in ("T17-gradient", "vipformula"):
        return bd.gradient_upper_bound(p, tag)
    if tag in ("T18-concentration", "T19-concentration-hyperplane"):
        return bd.concentration_upper_bound(p, hyp=p.hyperplane if tag.startswith("T19") else None)
    if tag in ("Lorden-T6", "Lorden-T7"):
        level = p.threshold_level
        if level is None:
            return _failed(tag, "upper", "constant-threshold",
                           "overshoot bounds need a constant stopping threshold")
        if prof.dim != 1:
            return _failed(tag, "upper", "scalar-increments", "dim must be 1")
        return bd.overshoot_upper_bound(bundle.spec, level, sched, tag)
    raise ValueError(f"unknown theorem tag {tag!r}")


def _copy(report: bd.BoundReport, **changes) -> bd.BoundReport:
    """``report`` with ``changes``, holding lists of its own: a shared premise stays unchanged."""
    return replace(report, assumptions=list(report.assumptions),
                   diagnostics=dict(report.diagnostics), **changes)


@_geometry_guard
def brownian_report(tag: str, bundle: BrownianBundle) -> bd.BoundReport:
    """The discrete calculators at the drift, renamed to the Brownian tag.

    Brown2 reads the entry and exit of T8's ray; Brown3 and Brown4 are the
    Wald checks on the rule function g and on its reciprocal, which read g
    at the drift from the bundle's premises, as Brown1 reads the crossing.
    """
    p = bundle.premises
    if tag == "Brown1":
        iii = p.convex_origin
        if iii.status == "fail":
            return bd.BoundReport(tag, "upper", math.nan, [iii], {})
        crossing, m = p.crossing
        return bd.BoundReport(tag, "upper", m, [iii, crossing], {"m": m})
    if tag == "Brown2-lower":
        return _copy(p.stopping_ray, theorem=tag)
    if tag == "Brown2-upper":
        # a ray that never enters keeps the +inf, failed checks the nan
        ray = p.stopping_ray
        return _copy(ray, theorem=tag, direction="upper",
                     value=ray.diagnostics.get("mean_ray_exit", ray.value))
    if tag == "Brown3":  # g(mean) bounds E[N] above; g = 0, where Wald's bound is +inf, nothing
        g0 = float(p.g_at_mean)
        checks = [bd.AssumptionCheck("g-concave", "declared"),
                  bd._chk("g-positive-at-mean", g0 > 0.0, f"g(mean)={g0:.6g}")]
        return bd.BoundReport(tag, "upper", g0 if g0 > 0.0 else math.nan, checks,
                              {"g_at_mean": g0})
    if tag == "Brown4":
        report = bd.wald_lower_bound(_reciprocal(p.g_at_mean), concave=p.reciprocal_rule_concave)
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
    passage estimates report 0 and get no grid slack.  Its floor is four
    ulps of the estimate's mean, the rounding of a mean with no spread: a
    walk that stops at one N for every run, or an exact passage time at a
    huge drift.  The ulp is the mean's, never the bound's, which may be
    infinite.  An estimate of one run has no stderr, so it raises ValueError.
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
        slack = max(_SLACK_SIGMAS * stderr, grid_bias, 4.0 * math.ulp(mean))
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
