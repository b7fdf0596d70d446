import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import stopbounds as sb
from stopbounds import geometry
from stopbounds.geometry import (
    EmptySliceError,
    NonConvexityError,
    NoRayExitError,
    RegionError,
    region_from_family,
    slice_side,
)

from search_twin import DOUBLING_CAP, region_from_oracle, sample_member_points, support_audit


def test_mean_ray_crossing_examples():
    assert sb.mean_ray_crossing(sb.constant_region(5.0), 1.0) == pytest.approx(5.0, abs=1e-9)
    assert sb.mean_ray_crossing(sb.power_region(2.0, 0.5), 1.0) == pytest.approx(4.0, abs=1e-9)
    region = sb.affine_region(0.5, -1.0, "ge")
    assert sb.mean_ray_crossing(region, 0.25) == pytest.approx(4.0, abs=1e-9)


def test_mean_ray_crossing_brackets_the_flip():
    # the closed form lands on the boundary itself: the next float out is outside
    region = sb.power_region(2.0, 0.5)
    m = sb.mean_ray_crossing(region, 1.0)
    assert region.contains(m, m * 1.0)
    t = math.nextafter(m, math.inf)
    assert not region.contains(t, np.array([t * 1.0]))


def test_ray_exit_time_examples():
    assert sb.ray_exit_time(sb.constant_region(6.0), 2.0) == pytest.approx(3.0, abs=1e-9)
    assert sb.ray_exit_time(sb.power_region(2.0, 0.5), 0.5) == pytest.approx(16.0, abs=1e-9)
    # boundary s = t - 1 from above: the slope-1/2 ray leaves at t = 2
    region = sb.affine_region(1.0, -1.0, "ge")
    assert sb.ray_exit_time(region, 0.5) == pytest.approx(2.0, abs=1e-9)


def test_conic_region_never_exits():
    # {s <= slope*t}: rays at or below the slope stay inside forever
    region = sb.affine_region(0.7, 0.0, "le")
    assert sb.ray_exit_time(region, 0.7) == math.inf
    assert sb.ray_exit_time(region, 0.3) == math.inf
    assert math.isfinite(sb.ray_exit_time(region, 0.9))
    with pytest.raises(NoRayExitError):
        sb.mean_ray_crossing(region, 0.5)


def test_ray_monotone_membership_along_mean_ray():
    region = sb.power_region(2.0, 0.5)
    m = sb.mean_ray_crossing(region, 1.0)
    for t in np.linspace(0.01, m * 0.999, 57):
        assert region.contains(t, t * 1.0)
    for t in np.linspace(m * 1.001, 8 * m, 57):
        assert not region.contains(t, np.array([t * 1.0]))


def test_log_exit_gradient_examples():
    assert sb.log_exit_gradient(sb.constant_region(5.0), 1.0)[0] == pytest.approx(-1.0, abs=1e-12)
    assert sb.log_exit_gradient(sb.power_region(2.0, 0.5), 1.0)[0] == pytest.approx(-2.0, abs=1e-12)
    region = sb.affine_region(1.0, -1.0, "ge")
    assert sb.log_exit_gradient(region, 0.5)[0] == pytest.approx(2.0, abs=1e-12)
    # -2 s + t >= -6 is s <= 3 + t/2: m = 7.5 at mean 0.9, f' = 1/2
    region = sb.halfspace_region([-2.0], 1.0, -6.0, "ge")
    assert region.boundary_slope(7.5) == 0.5
    assert sb.log_exit_gradient(region, 0.9)[0] == pytest.approx(-2.5, abs=1e-12)
    # halfspace <a, s> + b t <= c: ln g = ln c - ln(<a, v> + b)
    region = sb.halfspace_region([1.0, 2.0], 0.5, 3.0, "le")
    np.testing.assert_allclose(sb.log_exit_gradient(region, [0.3, 0.4]),
                               [-1.0 / 1.6, -2.0 / 1.6], rtol=0, atol=1e-12)


@pytest.mark.parametrize("region,mu", [
    (sb.constant_region(5.0), 0.7),
    (sb.power_region(2.0, 0.5), 1.3),
    (sb.affine_region(0.5, -1.0, "ge"), 0.25),
    (sb.affine_region(0.25, 2.0, "le"), 0.75),
])
def test_gradient_matches_boundary_slope_form(region, mu):
    # analytic cross-check: d(ln g)/dv = 1 / (f'(m) - v) at the crossing, with
    # f' written out by hand for each boundary above (keyed by its mean)
    fprime = {0.7: lambda t: 0.0, 1.3: lambda t: t ** -0.5,
              0.25: lambda t: 0.5, 0.75: lambda t: 0.25}[mu]
    m = sb.mean_ray_crossing(region, mu)
    assert region.boundary_slope(m) == pytest.approx(fprime(m), abs=1e-15)
    expected = 1.0 / (fprime(m) - mu)
    assert sb.log_exit_gradient(region, mu)[0] == pytest.approx(expected, abs=1e-12)


def _oracle(region):
    return region_from_oracle(region.contains, region.dim, region.kind,
                              region.convex_closure, region.contains_origin)


@pytest.mark.parametrize("region,mu", [
    (sb.constant_region(5.0), 0.7),
    (sb.affine_region(0.25, 2.0, "le"), 0.75),
    (sb.affine_region(0.5, -1.0, "ge"), 0.25),
    (sb.power_region(2.0, 0.5), 1.3),
    (sb.halfspace_region([1.0, 2.0], 0.5, 3.0, "le"), [0.3, 0.4]),
], ids=["constant", "affine-le", "affine-ge", "power", "halfspace-2d"])
def test_numeric_oracle_path_matches_exact(region, mu):
    # bisection and Richardson differences on the bare predicate against the
    # slack roots and the closed-form gradient of the built-in family
    oracle = _oracle(region)
    m = sb.mean_ray_crossing(region, mu)
    assert sb.mean_ray_crossing(oracle, mu) == pytest.approx(m, rel=1e-8)
    np.testing.assert_allclose(sb.log_exit_gradient(oracle, mu),
                               sb.log_exit_gradient(region, mu), rtol=0, atol=1e-5)
    for n in (1.5 * m, 4.0 * m):
        assert sb.slice_distance(oracle, n, mu) == pytest.approx(
            sb.slice_distance(region, n, mu), abs=1e-8)


def test_supporting_hyperplane_examples():
    hyp = sb.supporting_hyperplane(sb.constant_region(5.0), 1.0)
    assert hyp.s_coef[0] == pytest.approx(1.0, abs=1e-12)
    assert hyp.t_coef == pytest.approx(0.0, abs=1e-12)
    assert hyp.level == pytest.approx(5.0, abs=1e-12)

    hyp = sb.supporting_hyperplane(sb.power_region(2.0, 0.5), 1.0)
    assert hyp.s_coef[0] == pytest.approx(2.0, abs=1e-12)
    assert hyp.t_coef == pytest.approx(-1.0, abs=1e-12)
    assert hyp.level == pytest.approx(4.0, abs=1e-12)

    hyp = sb.supporting_hyperplane(sb.affine_region(1.0, -1.0, "ge"), 0.5)
    assert hyp.s_coef[0] == pytest.approx(-2.0, abs=1e-12)
    assert hyp.t_coef == pytest.approx(2.0, abs=1e-12)
    assert hyp.level == pytest.approx(2.0, abs=1e-12)


def test_hyperplane_invariants_and_support():
    region = sb.power_region(2.0, 0.5)
    mu = np.array([1.0])
    hyp = sb.supporting_hyperplane(region, mu)
    # anchored on the plane, positive level, unit mean gap
    assert hyp.value(hyp.anchor, hyp.anchor * mu) == pytest.approx(hyp.level, abs=1e-9)
    assert hyp.level > 0
    assert hyp.mean_gap(mu) == pytest.approx(hyp.level / hyp.anchor, abs=1e-9)
    # support property over >= 1e3 sampled members
    ts, ss = sample_member_points(region, 1000, seed=3, t_max=2 * hyp.anchor,
                                  s_span=[4 * hyp.anchor])
    assert ts.size >= 1000
    values = ss[:, 0] * hyp.s_coef[0] + hyp.t_coef * ts
    assert np.all(values <= hyp.level + 1e-6)


def _reference_member_points(region, n_points, seed, t_max, s_span, factor=200):
    # one rng.uniform pair and one membership test per candidate
    rng = np.random.default_rng(seed)
    s_span = np.atleast_1d(np.asarray(s_span, dtype=float))
    found_t, found_s = [], []
    for _ in range(factor * n_points):
        if len(found_t) == n_points:
            break
        t = rng.uniform(0.0, t_max)
        s = rng.uniform(-s_span, s_span)
        if region.contains(t, s):
            found_t.append(t)
            found_s.append(s)
    return np.array(found_t), np.array(found_s).reshape(len(found_t), region.dim)


@pytest.mark.parametrize("region,t_max,s_span,n_points", [
    (sb.power_region(2.0, 0.5), 8.0, [12.0], 200),
    (sb.halfspace_region([1.0, 2.0], 0.5, 3.0, "le"), 4.0, [3.0, 3.0], 200),
    (region_from_oracle(lambda t, s: s[0] ** 2 + s[1] ** 2 <= t, 2), 2.0, [2.0, 2.0], 150),
    (sb.constant_region(-50.0, "le"), 1.0, [1.0], 5),  # no members: the cap ends the search
], ids=["power-1d", "halfspace-2d", "oracle-2d", "empty"])
def test_sample_member_points_matches_per_candidate_reference(region, t_max, s_span, n_points):
    ts, ss = sample_member_points(region, n_points, 7, t_max, s_span)
    ref_t, ref_s = _reference_member_points(region, n_points, 7, t_max, s_span)
    assert ts.shape == ref_t.shape and ss.shape == ref_s.shape == (ts.size, region.dim)
    assert np.array_equal(ts, ref_t) and np.array_equal(ss, ref_s)


class _RowCounter:
    """Generator proxy that counts the rows ``random`` hands out."""

    def __init__(self, gen, rows):
        self._gen, self._rows = gen, rows

    def random(self, size):
        out = self._gen.random(size)
        self._rows.append(out.shape[0])
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def test_support_audit_draws_candidates_slice_by_slice(monkeypatch):
    # the audit of an oracle twin's plane
    rows, make = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _RowCounter(make(seed), rows))
    twin = _oracle(sb.constant_region(5.0))
    hyp = sb.supporting_hyperplane(twin, 0.5)
    assert hyp.level == pytest.approx(10.0, abs=1e-8)
    support_audit(twin, hyp, 0.5)
    # 200 members are found in the first slice of 4 * 200 rows
    assert 0 < sum(rows) <= 800
    # a region with no members in the box stops at the cap of 200 * n_points rows
    rows.clear()
    ts, ss = sample_member_points(sb.constant_region(-50.0, "le"), 5, 7, 1.0, [1.0])
    assert ts.shape == (0,) and ss.shape == (0, 1)
    assert sum(rows) == 200 * 5 and set(rows) == {4 * 5}


def test_supporting_hyperplane_rejects_bad_gradient():
    # the plane and log_exit_gradient read g(mean) once each and share one check
    # of it and of the region's gradient
    region = sb.power_region(2.0, 0.5)
    exits = []
    ray_exit = geometry.FamilyRegion.ray_exit

    def counted(self, *args, **kwargs):
        exits.append(args[0])
        return ray_exit(self, *args, **kwargs)

    with mock.patch.object(geometry.FamilyRegion, "ray_exit", counted):
        plane = sb.supporting_hyperplane(region, 1.0)
        assert len(exits) == 1
        assert plane.s_coef == tuple(-x for x in sb.log_exit_gradient(region, 1.0))
        assert len(exits) == 2
    with mock.patch.object(geometry.FamilyRegion, "log_gradient",
                           lambda self, mean, g0: np.array([math.nan])):
        with pytest.raises(sb.GradientDomainError, match="non-finite log-gradient"):
            sb.supporting_hyperplane(region, 1.0)
        with pytest.raises(sb.GradientDomainError, match="non-finite log-gradient"):
            sb.log_exit_gradient(region, 1.0)
    # g(0) = 0 on a power boundary: ln g has no gradient there
    with pytest.raises(sb.GradientDomainError, match="finite and positive"):
        sb.log_exit_gradient(region, 0.0)


def test_slice_distance_examples():
    region = sb.constant_region(5.0)
    assert sb.slice_distance(region, 10, 1.0) == pytest.approx(0.5, abs=1e-9)
    assert sb.slice_distance(region, 4, 1.0) == 0.0
    region = sb.affine_region(0.5, -1.0, "ge")
    assert sb.slice_distance(region, 8, 0.25) == pytest.approx(0.125, abs=1e-9)


def test_slice_side_detection():
    region = sb.affine_region(0.5, -1.0, "ge")
    assert slice_side(region, 8, 0.25) == "above"
    region = sb.constant_region(5.0)
    assert slice_side(region, 10, 1.0) == "below"
    assert slice_side(region, 4, 1.0) == "inside"


def test_hyperplane_slice_distance_examples():
    hyp = sb.Hyperplane([1.0], 0.0, 5.0, 5.0)
    assert sb.hyperplane_slice_distance(hyp, 10, 1.0) == pytest.approx(0.5)
    hyp2 = sb.Hyperplane([2.0], -1.0, 4.0, 4.0)
    assert sb.hyperplane_slice_distance(hyp2, 8, 1.0) == pytest.approx(0.25)
    limit = abs(hyp2.mean_gap(1.0)) / hyp2.norm
    assert sb.hyperplane_slice_distance(hyp2, 8.0, 1.0) == pytest.approx(0.5 * limit)
    with pytest.raises(ValueError):
        sb.hyperplane_slice_distance(hyp, 5.0, 1.0)


@pytest.mark.parametrize("n_over_m", [1.25, 2.0, 3.5, 8.0])
def test_slice_distance_agrees_with_hyperplane_form_1d(n_over_m):
    mu = 0.5
    region = sb.constant_region(5.0)
    hyp = sb.supporting_hyperplane(region, mu)
    n = n_over_m * hyp.anchor
    assert sb.slice_distance(region, n, mu) == pytest.approx(
        sb.hyperplane_slice_distance(hyp, n, mu), abs=1e-6)


@pytest.mark.parametrize("n_over_m", [1.5, 2.0, 4.0, 8.0])
def test_slice_distance_agrees_with_hyperplane_form_2d(n_over_m):
    mu = np.array([0.6, 0.6])
    region = sb.halfspace_region([1.0, 1.0], 0.0, 2.0, "le")
    m = sb.mean_ray_crossing(region, mu)
    hyp = sb.Hyperplane([1.0, 1.0], 0.0, 2.0, m)
    n = n_over_m * m
    assert sb.slice_distance(region, n, mu) == pytest.approx(
        sb.hyperplane_slice_distance(hyp, n, mu), abs=1e-6)


def test_slice_distance_3d_halfspace_approximate():
    mu = np.array([0.5, 0.5, 0.5])
    region = sb.halfspace_region([1.0, 1.0, 1.0], 0.0, 3.0, "le")
    m = sb.mean_ray_crossing(region, mu)
    hyp = sb.Hyperplane([1.0, 1.0, 1.0], 0.0, 3.0, m)
    n = 3.0 * m
    exact = sb.hyperplane_slice_distance(hyp, n, mu)
    approx = sb.slice_distance(region, n, mu)
    assert approx == pytest.approx(exact, rel=2e-3)


def test_empty_slice_error():
    # the time-slab {t <= 3} has an empty slice at any larger sample size
    region = sb.halfspace_region([0.0], 1.0, 3.0, "le")
    with pytest.raises(EmptySliceError):
        sb.slice_distance(region, 5, 0.0)


def test_region_complement_closure_roundtrip():
    region = sb.constant_region(5.0, "le", "continuity")
    comp = region.complement_closure()
    assert comp.kind == "stopping"
    assert comp.orientation == "ge"
    assert comp.contains(3.0, 7.0) and not comp.contains(3.0, np.array([4.0]))
    again = comp.complement_closure()
    assert again.orientation == "le" and again.kind == "continuity"


def test_region_family_is_read_only():
    # the slack and the closed forms were built from these parameters: an
    # edit would make the ray answers disagree with membership
    region = sb.constant_region(5.0)
    with pytest.raises(TypeError):
        region.family["level"] = 7.0
    assert region.family["family"] == "constant"
    assert sb.ray_exit_time(region, 1.0) == 5.0
    plane = sb.halfspace_region([1.0, 2.0], 0.5, 3.0, "le")
    with pytest.raises(TypeError):
        plane.family["s_coef"][0] = 9.0
    with pytest.raises(TypeError):
        plane.family["s_coef"] = (9.0, 2.0)
    assert plane.complement_closure().family["s_coef"] == (1.0, 2.0)


@pytest.mark.parametrize("orientation", [None, "xyz", "LE"])
@pytest.mark.parametrize("build", [
    lambda o: sb.constant_region(1.0, o),
    lambda o: sb.affine_region(0.5, 1.0, o),
    lambda o: sb.power_region(2.0, 0.5, o),
    lambda o: sb.halfspace_region([1.0, 1.0], 0.0, 2.0, o),
    lambda o: region_from_family({"family": "constant", "level": 1.0,
                                  "orientation": o, "kind": "continuity"}),
], ids=["constant", "affine", "power", "halfspace", "from-family"])
def test_unknown_orientation_rejected(build, orientation):
    with pytest.raises(RegionError, match="orientation"):
        build(orientation)


def test_scalar_halfspace_reports_the_side_of_its_boundary():
    # -s >= -5 is s <= 5: the boundary s = 5 with the region below it
    region = sb.halfspace_region([-1.0], 0.0, -5.0, "ge")
    assert region.orientation == "le" and region.scalar_boundary(3.0) == 5.0
    assert region.contains(1.0, 4.0) and not region.contains(1.0, 6.0)
    comp = region.complement_closure()
    assert comp.orientation == "ge" and comp.contains(1.0, 6.0)
    assert sb.halfspace_region([2.0], 0.0, 10.0, "ge").orientation == "ge"
    assert sb.halfspace_region([0.0], 1.0, 3.0, "le").orientation is None


def test_power_region_convexity_flags():
    assert sb.power_region(2.0, 0.5, "le").convex_closure
    assert not sb.power_region(2.0, 0.5, "ge").convex_closure
    assert sb.power_region(-2.0, 0.5, "ge").convex_closure


def test_convexity_audit_flags_nonconvex_oracle():
    # the twin audits convexity around every ray exit it searches for; two
    # disjoint strips: membership recurs along the ray beyond the first exit
    bad = region_from_oracle(lambda t, s: s[0] <= 1.0 or 3.0 <= s[0] <= 4.0, dim=1,
                             convex_closure=True, contains_origin=True)
    for v in (1.0, 0.5, 0.25):
        with pytest.raises(NonConvexityError, match="recurs along the ray"):
            sb.ray_exit_time(bad, v)
    good = region_from_oracle(lambda t, s: s[0] <= 5.0, dim=1, convex_closure=True,
                              contains_origin=True)
    assert sb.ray_exit_time(good, 1.0) == pytest.approx(5.0, abs=1e-8)


def test_oracle_region_bisection_fallback():
    region = region_from_oracle(lambda t, s: s[0] <= 5.0, dim=1,
                                convex_closure=True, contains_origin=True)
    tight = dataclasses.replace(region, tol=1e-10)
    assert sb.mean_ray_crossing(tight, 1.0) == pytest.approx(5.0, abs=1e-9)
    assert sb.slice_distance(tight, 10, 1.0) == pytest.approx(0.5, abs=1e-8)
    # 1e8 from the mean the float spacing exceeds tol: bisection ends at adjacent floats
    assert sb.slice_distance(region, 1, 1e8 + 5.0) == pytest.approx(1e8, rel=1e-15)


def test_flag_requirements():
    region = region_from_oracle(lambda t, s: s[0] <= 5.0, dim=1, kind="continuity")
    with pytest.raises(RegionError):
        sb.ray_exit_time(region, 1.0)
    with pytest.raises(RegionError):
        sb.slice_distance(region, 10, 1.0)


def test_ray_entry_and_exit():
    region = sb.affine_region(1.0, 10.0, "ge", "stopping")
    entry, sup = sb.ray_entry_and_exit(region, 2.0)
    assert entry == pytest.approx(10.0, abs=1e-9)
    assert sup == math.inf
    assert sb.ray_entry_and_exit(region, 1.0) == (None, None)
    entry, sup = sb.ray_entry_and_exit(sb.constant_region(0.0, "ge", "stopping"), 1.0)
    assert entry == 0.0


# Closed forms of the built-in families against the doubling and bisection
# search on the same regions wrapped as bare oracles.  Parameters are small
# dyadic rationals, so slacks and ray rates are exact and a mismatch is not
# rounding; a level of 1e20 puts the crossing beyond the 2**61 cap.
_DYADIC = st.integers(-24, 24).map(lambda k: k / 8.0)
_LEVEL = st.one_of(_DYADIC, st.sampled_from([1e20, -1e20]))
_GEOMETRY_ERRORS = (RegionError, NonConvexityError, NoRayExitError, EmptySliceError)


@st.composite
def _region_and_ray(draw):
    family = draw(st.sampled_from(["constant", "affine", "power", "halfspace"]))
    orientation = draw(st.sampled_from(["le", "ge"]))
    kind = draw(st.sampled_from(["continuity", "stopping"]))
    dim = draw(st.integers(1, 3)) if family == "halfspace" else 1
    v = np.array([draw(_DYADIC) for _ in range(dim)])
    parallel = draw(st.booleans())  # a ray parallel to a flat boundary
    if family == "constant":
        if parallel:
            v[:] = 0.0
        return sb.constant_region(draw(_LEVEL), orientation, kind), v
    if family == "affine":
        slope = draw(_DYADIC)
        if parallel:
            v[:] = slope
        return sb.affine_region(slope, draw(_LEVEL), orientation, kind), v
    if family == "power":
        coef = draw(_LEVEL.filter(lambda c: c != 0.0))
        exponent = draw(st.sampled_from([0.25, 0.5, 0.75]))
        return sb.power_region(coef, exponent, orientation, kind), v
    s_coef = [draw(_DYADIC) for _ in range(dim)]
    t_coef = -float(np.dot(s_coef, v)) if parallel else draw(_DYADIC)
    return sb.halfspace_region(s_coef, t_coef, draw(_LEVEL), orientation, kind), v


def _exact_oracle(region):
    """The region as a bare predicate; a flat family's slack is summed in exact rationals.

    Float slacks of a ray parallel to a flat boundary round to 0 at large t,
    which a bare predicate would read as membership far outside the region.
    """
    if region.linear_slack is None:
        return _oracle(region)
    alpha, beta, kappa = region.linear_slack
    alpha, kappa, beta = Fraction(alpha), Fraction(kappa), [Fraction(b) for b in beta]

    def member(t, s):
        return alpha - sum(b * Fraction(x) for b, x in zip(beta, s)) - kappa * Fraction(t) >= 0

    return region_from_oracle(member, region.dim, region.kind, region.convex_closure,
                              region.contains_origin)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except _GEOMETRY_ERRORS as exc:
        return type(exc)


def _agree(closed, searched) -> bool:
    if isinstance(closed, tuple):
        return (isinstance(searched, tuple) and len(closed) == len(searched)
                and all(map(_agree, closed, searched)))
    if isinstance(closed, float) and isinstance(searched, float):
        return closed == searched or abs(closed - searched) <= 1e-9 * max(
            1.0, abs(closed), abs(searched))
    return closed == searched


def _tight(oracle, *values):
    """The oracle searching to 1e-12 of the largest finite float among values, at least 1e-12."""
    finite = [abs(x) for x in values if isinstance(x, float) and math.isfinite(x)]
    return dataclasses.replace(oracle, tol=1e-12 * max([1.0] + finite))


@settings(max_examples=300, deadline=None)
@given(case=_region_and_ray(), n=st.integers(1, 64))
def test_closed_forms_match_the_search_on_oracles(case, n):
    region, v = case
    assert region.ray_form(v) is not None
    oracle = _exact_oracle(region)
    for fn in (sb.ray_exit_time, sb.mean_ray_crossing):
        closed = _outcome(fn, region, v)
        assert _agree(closed, _outcome(fn, _tight(oracle, closed), v)), fn.__name__
    if region.convex_closure:  # the search reads a non-convex ray set only in part
        closed = _outcome(sb.ray_entry_and_exit, region, v)
        searched = _outcome(sb.ray_entry_and_exit,
                            _tight(oracle, *(closed if isinstance(closed, tuple) else ())), v)
        assert _agree(closed, searched), "ray_entry_and_exit"
    # slices within the radial search's reach (about 5e8 from the mean)
    if region.dim == 1 and abs(float(region.slack_batch(n, n * v))) / n < 1e6:
        closed = _outcome(slice_side, region, n, v)
        assert closed == _outcome(slice_side, _tight(oracle), n, v), "slice_side"
        closed = _outcome(sb.slice_distance, region, n, v)
        searched = _outcome(sb.slice_distance, _tight(oracle, closed), n, v)
        assert _agree(closed, searched), "slice_distance"


_POSITIVE = st.integers(1, 24).map(lambda k: k / 8.0)


@st.composite
def _flagged_region_and_ray(draw):
    """A built-in region holding the origin on the convex side of its boundary, and a ray."""
    family = draw(st.sampled_from(["constant", "affine", "power", "halfspace"]))
    orientation = draw(st.sampled_from(["le", "ge"]))
    kind = draw(st.sampled_from(["continuity", "stopping"]))
    dim = draw(st.integers(1, 3)) if family == "halfspace" else 1
    v = np.array([draw(_DYADIC) for _ in range(dim)])
    level = draw(_POSITIVE) * (1.0 if orientation == "le" else -1.0)  # slack at the origin > 0
    if family == "constant":
        region = sb.constant_region(level, orientation, kind)
    elif family == "affine":
        region = sb.affine_region(draw(_DYADIC), level, orientation, kind)
    elif family == "power":
        region = sb.power_region(level, draw(st.sampled_from([0.25, 0.5, 0.75])), orientation, kind)
    else:
        s_coef = [draw(_DYADIC) for _ in range(dim)]
        region = sb.halfspace_region(s_coef, draw(_DYADIC), level, orientation, kind)
    assert region.convex_closure and region.contains_origin
    return region, v


@st.composite
def _region_and_box(draw):
    """A region and ray from either strategy, the box from the ray's slope up by dyadic widths."""
    region, lo = draw(st.one_of(_region_and_ray(), _flagged_region_and_ray()))
    widths = [draw(st.integers(0, 24)) / 8.0 for _ in lo]
    return region, lo, lo + np.array(widths)


@settings(max_examples=200, deadline=None)
@given(case=_region_and_box())
def test_closed_box_maximum_matches_the_search_on_oracles(case):
    # boxes reach rate <= 0 (+inf) and rate = 0 exactly on dyadic corners;
    # regions without the convexity and origin flags raise on both paths
    region, lo, hi = case
    oracle = _exact_oracle(region)
    closed = _outcome(region.exit_box_max, lo, hi)
    tight = _tight(oracle, closed)

    def g(v):
        return sb.ray_exit_time(tight, v)

    searched = _outcome(sb.max_concave_over_box, g, lo, hi)
    assert _agree(closed, searched)


@st.composite
def _region_and_slab(draw):
    """A convex built-in region, some halfspaces made time slabs, and a slab, primed or not."""
    region, v = draw(st.one_of(_region_and_ray(), _flagged_region_and_ray()))
    assume(region.convex_closure)
    if region.family["family"] == "halfspace" and draw(st.booleans()):
        region = region_from_family(dict(region.family, s_coef=(0.0,) * region.dim))

    def edges(centre):
        lo = centre + np.array([draw(_DYADIC) for _ in v]) / 4.0
        return lo, lo + np.array([draw(st.integers(0, 8)) / 8.0 for _ in v])

    slopes, icepts = edges(v), edges(np.zeros_like(v))
    primed = sb.Slab(*edges(v), *edges(np.zeros_like(v))) if draw(st.booleans()) else None
    return region, sb.Slab(slopes[0], slopes[1], icepts[0], icepts[1], primed)


def _widened(slab, by):
    """The slab with its intercepts moved apart by ``by`` each way: every box grows by ``by``."""
    primed = None if slab.primed is None else _widened(slab.primed, by)
    return sb.Slab(slab.lower_slope, slab.upper_slope, [x - by for x in slab.lower_icept],
                   [x + by for x in slab.upper_icept], primed)


def _exactly_meets(region, slab, t: float) -> bool:
    """Whether the box at t meets the slice of a power region, in exact rationals.

    The exponents 1/4, 1/2 and 3/4 compare a^4 t^(4e) with the fourth power
    of the box edge on the slack's side, as ``_power_sign`` does.
    """
    t = Fraction(t)
    slabs = [slab] if slab.primed is None else [slab, slab.primed]
    lo = max(Fraction(x.lower_slope[0]) * t + Fraction(x.lower_icept[0]) for x in slabs)
    hi = min(Fraction(x.upper_slope[0]) * t + Fraction(x.upper_icept[0]) for x in slabs)
    alpha, beta, _, _ = region.ray_coefficients
    line = Fraction(beta[0]) * (lo if beta[0] > 0.0 else hi)
    return lo <= hi and (line <= 0 or Fraction(alpha) ** 4 * t ** int(4 * region.power_exponent)
                         >= line**4)


@settings(max_examples=60, deadline=None)
@given(case=_region_and_slab())
@example(case=(sb.power_region(2.0, 0.5),
               sb.Slab([1 / 3], [1 / 3], [2.999], [2.999],
                       primed=sb.Slab([-10.0], [10.0], [-100.0], [100.0]))))
@example(case=(sb.power_region(0.625, 0.75), sb.Slab([1 / 32], [5 / 32], [0.0], [0.0])))
@example(case=(sb.power_region(0.875, 0.75), sb.Slab([1 / 32], [1 / 32], [0.0], [0.0])))
def test_built_in_slab_feasibility_matches_the_search_on_oracles(case):
    # the closed form of a slab, plain or primed, against the membership
    # search through a bisection in t to tol = 1e-9; the built-in side makes
    # no membership call.  The search reads a box within tol of the slice as
    # meeting it, so its answer lies between the exact answers for the slab
    # and for the slab widened by tol.  Its scan probes every breakpoint of
    # the slab, so on a flat boundary it misses no feasible t; on a power
    # boundary they may all lie between two probes, as in the example, and
    # then the closed value is checked in exact arithmetic: the float below
    # it meets the slice, the float above does not
    region, slab = case
    calls = []
    contains = geometry.Region.contains

    def counted(self, *args, **kwargs):
        calls.append(args)
        return contains(self, *args, **kwargs)

    with mock.patch.object(geometry.Region, "contains", counted):
        closed = sb.max_time_in_region(region, slab)
    assert calls == []
    searched = sb.max_time_in_region(_exact_oracle(region), slab)
    if searched.empty_domain and region.power_exponent is not None and not closed.empty_domain:
        assert _exactly_meets(region, slab, closed.value - closed.uncertainty)
        assert not _exactly_meets(region, slab, math.nextafter(closed.value, math.inf))
        return
    # the search's value may also lie its last bisection step above the
    # maximum (``SlabMaxResult``), as in the two plain-slab examples
    widened = sb.max_time_in_region(region, _widened(slab, 1e-9))
    assert closed.value - 1e-9 <= searched.value <= widened.value + 1e-9 + searched.uncertainty


@pytest.mark.parametrize("region,error", [
    (dataclasses.replace(sb.power_region(2.0, 0.5, "ge"), convex_closure=True),
     NonConvexityError),
    (dataclasses.replace(sb.affine_region(1.0, -2.0, "le"), contains_origin=True), RegionError),
], ids=["power-non-convex-side", "flat-origin-outside"])
def test_closed_box_maximum_refuses_what_ray_exit_time_refuses(region, error):
    with pytest.raises(error):
        sb.ray_exit_time(region, 0.5)
    with pytest.raises(error):
        region.exit_box_max([0.25], [0.75])


def _probed_ray_exit_time(region, v):
    """ray_exit_time of a built-in family checked by membership probes: the reference.

    The origin probe, the closed form, then the convexity audit around the
    exit that oracle regions get: inside at a quarter of the exit, outside
    at 1.5 and 4 times it.
    """
    if not (region.convex_closure and region.contains_origin):
        raise RegionError("operation requires asserted convex_closure and contains_origin")
    v = np.atleast_1d(np.asarray(v, dtype=float))

    def member(t):
        return region.contains(t, t * v)

    if not member(0.0):
        raise RegionError("asserted origin containment fails at (0, 0)")
    alpha, rate, k = region.ray_form(v)
    if alpha < 0.0:
        raise NonConvexityError("the region lies on the non-convex side of its boundary")
    g = geometry._ray_crossing(alpha, rate, k)
    if 0.0 < g < math.inf and not member(0.25 * g):
        raise NonConvexityError("membership not monotone along the ray below the exit")
    for factor in (1.5, 4.0):
        if 0.0 < g * factor <= DOUBLING_CAP and member(g * factor):
            raise NonConvexityError("membership recurs along the ray beyond the exit")
    return g


@st.composite
def _region_with_any_flags(draw):
    """A built-in region and ray, its convexity and origin flags possibly forced to lie."""
    region, v = draw(st.one_of(_region_and_ray(), _flagged_region_and_ray()))
    flags = {"convex_closure": draw(st.booleans()), "contains_origin": draw(st.booleans())}
    if draw(st.booleans()):
        region = dataclasses.replace(region, **flags)
    return region, v


@settings(max_examples=400, deadline=None)
@given(case=_region_with_any_flags())
def test_probe_free_ray_exit_agrees_with_the_probed_path(case):
    # the same value, or the same refusal: a forced origin flag on a flat region
    # whose origin lies outside, a forced convexity flag on the non-convex side
    # of a power boundary, or flags that read false
    region, v = case
    assert _outcome(sb.ray_exit_time, region, v) == _outcome(_probed_ray_exit_time, region, v)


@settings(max_examples=200, deadline=None)
@given(case=_flagged_region_and_ray())
def test_closed_form_planes_pass_the_sampled_support_audit(case):
    # the sampled audit of the search twin on every built-in family's exact
    # plane: the boundary itself or a tangent
    region, v = case
    try:
        plane = sb.supporting_hyperplane(region, v)
    except _GEOMETRY_ERRORS + (sb.GradientDomainError,):
        assume(False)
    support_audit(region, plane, v)


@pytest.mark.parametrize("s_coef,t_coef,level,orientation,mu,n", [
    ([1.0, 2.0], 0.5, 3.0, "le", [0.75, 0.5], 8),
    ([1.0, -1.0], 0.0, -2.0, "ge", [0.25, 1.0], 5),
    ([1.0, 1.0, 1.0], 0.0, 3.0, "le", [0.5, 0.5, 0.5], 12),
    ([0.0, 0.0], 1.0, 3.0, "le", [0.5, 0.5], 5),  # a time slab: the slice is empty
], ids=["2d-le", "2d-ge", "3d", "2d-slab"])
def test_closed_slice_distance_within_the_search_accuracy(s_coef, t_coef, level, orientation,
                                                          mu, n):
    # the d >= 2 searches are approximate: the angular refinement to about 1e-6
    # and the random descent to 2e-3; a found member bounds the distance above
    region = sb.halfspace_region(s_coef, t_coef, level, orientation)
    closed = _outcome(sb.slice_distance, region, n, mu)
    searched = _outcome(sb.slice_distance, _exact_oracle(region), n, mu)
    if isinstance(closed, type):
        assert closed is searched is EmptySliceError
        return
    a, sgn = np.asarray(s_coef), 1.0 if orientation == "le" else -1.0
    exact = max(0.0, sgn * (float(a @ mu) + t_coef - level / n)) / np.linalg.norm(a)
    assert exact > 0.0
    assert closed == pytest.approx(exact, rel=1e-15, abs=0.0)
    assert closed - 1e-9 <= searched <= closed * (1.0 + 2e-3) + 1e-9


def test_power_region_on_its_non_convex_side_is_refuted():
    # {s >= 2 sqrt(t)} holds the origin, leaves the ray at once and meets it
    # again from t = 4: with the convexity flag forced, exits raise
    region = dataclasses.replace(sb.power_region(2.0, 0.5, "ge"), convex_closure=True)
    assert region.contains_origin
    with pytest.raises(NonConvexityError):
        sb.ray_exit_time(region, 1.0)
    assert sb.ray_entry_and_exit(region, 1.0) == (0.0, math.inf)
    assert sb.ray_entry_and_exit(region, -1.0) == (0.0, 0.0)


@pytest.mark.parametrize("region,n,lo,hi", [
    (sb.constant_region(2.0), 2, [0.0], [0.5]),
    (sb.constant_region(2.0), 2, [0.0], [1.5]),
    (sb.constant_region(-1.0, "ge"), 2, [-0.5], [0.5]),
    (sb.power_region(2.0, 0.5), 4, [-1.0], [1.0]),  # 2 sqrt(4) = 4: a tie
    (sb.power_region(2.0, 0.5), 4, [0.0], [1.01]),
    (sb.affine_region(0.5, -1.0, "ge"), 8, [-1.0], [0.0]),
    (sb.halfspace_region([1.0, -1.0], 0.5, 4.0, "le"), 2, [-1.0, 0.0], [1.0, 2.0]),
    (sb.halfspace_region([1.0, -1.0], 0.5, 4.0, "le"), 2, [-1.0, -0.5], [1.0, 2.0]),
    (sb.halfspace_region([1.0, -1.0], 0.5, 4.0, "le"), 2, [-1.0, -1.0], [1.0, 2.0]),
    # unbounded increments on a coordinate with a zero coefficient
    (sb.halfspace_region([1.0, 0.0, -1.0], 0.5, 4.0, "le"), 2, [-1.0, -math.inf, 0.0],
     [1.0, math.inf, 2.0]),
])
def test_an_oracle_region_answers_contains_sums_from_the_box_corners(region, n, lo, hi):
    # the twin's corner check reads what the exact worst-corner sum of the
    # built-in region reads, ties and infinite corners included
    twin = region_from_oracle(region.contains, region.dim, region.kind, region.convex_closure,
                              region.contains_origin)
    assert twin.contains_sums(n, lo, hi) == region.contains_sums(n, lo, hi)


def test_contains_sums_takes_the_worst_corner_exactly():
    le2 = sb.constant_region(2.0, "le")
    assert le2.contains_sums(2, [0.0], [1.0])  # S_2 in [0, 2], on the boundary at worst
    assert not le2.contains_sums(2, [0.0], [1.5])
    assert not le2.contains_sums(1, [0.0], [math.inf])
    assert le2.contains_sums(3, [-math.inf], [0.5])  # only the upper end meets the boundary
    assert sb.constant_region(-1.0, "ge").contains_sums(2, [-0.5], [math.inf])
    # at n = 0 the sum is 0 whatever the increments: the origin check
    assert le2.contains_sums(0, [-math.inf], [math.inf])
    assert not sb.constant_region(2.0, "ge").contains_sums(0, [0.0], [0.0])
    # summed exactly: three steps of the float 0.1 land on the line s = 0.1 t, of 2 ulps more not
    line = sb.affine_region(0.1, 0.0, "le")
    assert line.contains_sums(3, [0.1], [0.1])
    assert not line.contains_sums(3, [0.1], [0.1 + 2**-55])
    # 2*sqrt(4) = 4: a tie on the power boundary is inside the closed region
    root = sb.power_region(2.0, 0.5, "le")
    assert root.contains_sums(4, [0.0], [1.0]) and not root.contains_sums(4, [0.0], [1.01])
    # a coordinate with no coefficient does not enter, even unbounded
    plane = sb.halfspace_region([1.0, 0.0, -1.0], 0.5, 4.0, "le")
    assert plane.contains_sums(2, [-1.0, -math.inf, 0.0], [1.0, math.inf, 2.0])
    assert plane.contains_sums(2, [-1.0, -math.inf, -0.5], [1.0, math.inf, 2.0])  # a tie
    assert not plane.contains_sums(2, [-1.0, -math.inf, -1.0], [1.0, math.inf, 2.0])
    assert sb.halfspace_region([0.0], 1.0, 4.0).contains_sums(4, [-math.inf], [math.inf])
    assert not sb.halfspace_region([0.0], 1.0, 4.0).contains_sums(5, [0.0], [0.0])
