"""Scenario bundles, theorem-tag dispatch, and the certification comparison.

A bundle holds one scenario's inputs (an increment law, a region and a
schedule, or a Brownian drift and diffusion) and its ``bounds.Premises``:
all that is derived from them, each fact once per bundle, at the drift for
a Brownian bundle.  ``bound_report`` and ``brownian_report`` look a walk
tag or a Brownian tag up in ``bounds.THEOREMS`` and hand the bundle's
premises to the record's calculator; ``certify`` compares reports against a
Monte Carlo estimate with the four-sigma slack, respecting truncation bias,
and reads from the record whether a report bounds E[N] or E[overshoot].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
        return bd.Premises(self.region, profile.mean, profile, self.schedule, self.spec)


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


def _geometry_guard(tag: str, bundle, brownian: bool) -> bd.BoundReport:
    """The tag's calculator on the bundle's premises; a tag of the other kind is unknown here.

    A geometry error, or a float overflow or division by 0, makes an inapplicable report.
    """
    theorem = bd.THEOREMS.get(tag)
    if theorem is None or theorem.brownian != brownian:
        raise ValueError(f"unknown {'Brownian' if brownian else 'theorem'} tag {tag!r}")
    try:
        return theorem.calculator(bundle.premises, tag)
    except _GEOMETRY_ERRORS as exc:
        return bd.inapplicable(tag, "geometry", str(exc))
    except ArithmeticError as exc:
        return bd.inapplicable(tag, "finite-arithmetic", f"{type(exc).__name__}: {exc}")


def bound_report(tag: str, bundle: ScenarioBundle) -> bd.BoundReport:
    """Compute the report for one theorem tag against the bundle's scenario."""
    return _geometry_guard(tag, bundle, brownian=False)


def brownian_report(tag: str, bundle: BrownianBundle) -> bd.BoundReport:
    """The report for one Brownian tag, from the calculators at the drift."""
    return _geometry_guard(tag, bundle, brownian=True)


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
    """E[overshoot] for an overshoot theorem (None if not estimated); E[N] for any other row."""
    theorem = bd.THEOREMS.get(report.theorem)
    if theorem is not None and theorem.overshoot:
        return estimate.extras.get("overshoot")
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
