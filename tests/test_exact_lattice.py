"""Every applicable discrete bound against the exact E[N] of a lattice walk.

A ``bernoulli_affine(x0, x1, p)`` walk after n steps sits at
n*x0 + k*(x1 - x0), where k counts the steps of x1, so the law of the
running walk is a vector over k.  One step mixes it with its shift by one;
at each look the mass outside the closed continuity region stops.  That
gives E[N] to float rounding when the mass dies out.  When mass is still
running at the step cap it gives only a lower bound on E[N], which checks
the upper bounds and no lower one.
"""

import math

import numpy as np
import pytest

import stopbounds as sb
from stopbounds.bounds import ALL_TAGS
from stopbounds.harness import ScenarioBundle, bound_report

# the Lorden tags bound the overshoot, not E[N]
TAGS = [t for t in ALL_TAGS if not t.startswith(("Brown", "Lorden"))]
LAWS = [(x0, x1, p) for x0, x1 in ((0, 1), (0, 2), (-1, 2)) for p in (0.3, 0.5, 0.8)]
REGIONS = {
    f"{name}-{side}": build(side) for side in ("le", "ge") for name, build in (
        ("const2", lambda side: sb.constant_region(2.0, side)),
        ("const5", lambda side: sb.constant_region(5.0, side)),
        ("affine", lambda side: sb.affine_region(0.5, 2.0, side)),
        ("sqrt", lambda side: sb.power_region(2.0, 0.5, side)))}
SCHEDULES = {f"{kind}-n0={n0}": build(n0) for n0 in (0, 1, 2) for kind, build in (
    ("naturals", sb.naturals), ("arithmetic-2", lambda n0: sb.arithmetic(n0, 2)))}
REL = 1e-9


def exact_stopping_mean(x0, x1, p, region, schedule, max_steps=400):
    """(lo, hi) around E[N]: equal when the walk has surely stopped, else hi = inf."""
    mass, n, total = np.ones(1), 0, 0.0

    def step(m):
        out = np.append((1.0 - p) * m, 0.0)
        out[1:] += p * m
        return out

    for look in schedule.iter_elements(max_steps):
        while n < look:
            mass, n = step(mass), n + 1
        sums = n * x0 + (x1 - x0) * np.arange(mass.size)
        out = ~region.inside(float(n), sums[:, None])
        total += n * mass[out].sum()
        mass[out] = 0.0
        if mass.sum() < 1e-18:
            return total, total
    return total + (n + 1) * mass.sum(), math.inf


def _false_reports(bundle, lo, hi):
    """(tag, value, assumptions) of each applicable report on the wrong side of [lo, hi]."""
    false, checked = [], 0
    for tag in TAGS:
        report = bound_report(tag, bundle)
        if not report.applicable:
            continue
        checked += 1
        if (report.value < lo * (1.0 - REL) if report.direction == "upper"
                else report.value > hi * (1.0 + REL)):
            false.append((tag, report.value, [(c.ident, c.status) for c in report.assumptions]))
    return false, checked


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("region", REGIONS)
def test_applicable_bounds_hold_on_exact_lattice_walks(region, schedule):
    region, sched = REGIONS[region], SCHEDULES[schedule]
    checked = 0
    for x0, x1, p in LAWS:
        lo, hi = exact_stopping_mean(x0, x1, p, region, sched)
        bundle = ScenarioBundle("lattice", sb.bernoulli_affine(x0, x1, p), region, sched)
        false, count = _false_reports(bundle, lo, hi)
        assert not false, ((x0, x1, p), (lo, hi), false)
        checked += count
    assert checked > 0


def test_a_walk_that_can_start_outside_gets_no_start_anchor_bound():
    # S_2 = 4 with probability 1/4, outside {s <= 2}: the bounds that hold the
    # start anchor inside the region read 4.0 there when it was not checked
    region, sched = sb.constant_region(2.0, "le"), sb.arithmetic(2, 1)
    lo, hi = exact_stopping_mean(0, 2, 0.5, region, sched)
    assert lo == hi == pytest.approx(4.25, rel=1e-12)
    bundle = ScenarioBundle("start-outside", sb.bernoulli_affine(0, 2, 0.5), region, sched)
    failed = {tag: bound_report(tag, bundle).failed_assumptions() for tag in TAGS}
    for tag in ("T10-upper", "T11-upper-bounded", "T14-hyperplane", "T15-hyperplane-bounded",
                "T18-concentration", "T19-concentration-hyperplane"):
        assert failed[tag] == ["IV"], tag
    for tag in ("T12-samplemean", "T-try88-bounded"):
        assert failed[tag] == ["sure-start"], tag
    assert _false_reports(bundle, 4.25, 4.25)[0] == []


@pytest.mark.xfail(strict=True, reason="T13's g-concave reads declared; g is not concave here")
def test_t13_holds_when_the_boundary_passes_through_the_origin():
    # {s <= 0} continues until the first unit step: E[N] = 1/p = 5, while the
    # moment box around the mean 0.2 sees only g = 0, and T13 reads 2
    region, sched = sb.constant_region(0.0, "le"), sb.naturals()
    lo, hi = exact_stopping_mean(0, 1, 0.2, region, sched)
    assert lo == hi == pytest.approx(5.0, rel=1e-12)
    bundle = ScenarioBundle("origin-boundary", sb.bernoulli_affine(0, 1, 0.2), region, sched)
    assert _false_reports(bundle, lo, hi)[0] == []
