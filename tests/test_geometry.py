import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import stopbounds as sb
from stopbounds.geometry import (
    _boundary_root,
    _brent,
    EmptySliceError,
    NonConvexityError,
    NoRayExitError,
    RegionError,
    convexity_audit,
    region_from_family,
    sample_member_points,
    slice_side,
)


def test_mean_ray_crossing_examples():
    assert sb.mean_ray_crossing(sb.constant_region(5.0), 1.0) == pytest.approx(5.0, abs=1e-9)
    assert sb.mean_ray_crossing(sb.power_region(2.0, 0.5), 1.0) == pytest.approx(4.0, abs=1e-9)
    region = sb.affine_region(0.5, -1.0, "ge")
    assert sb.mean_ray_crossing(region, 0.25) == pytest.approx(4.0, abs=1e-9)


def test_mean_ray_crossing_brackets_the_flip():
    region = sb.power_region(2.0, 0.5)
    tol = 1e-9
    m = sb.mean_ray_crossing(region, 1.0, tol=tol)
    assert region.contains(m - tol, (m - tol) * 1.0)
    assert not region.contains(m + tol, np.array([(m + tol) * 1.0]))


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
    return sb.region_from_oracle(region.contains, region.dim, region.kind,
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
    (sb.region_from_oracle(lambda t, s: s[0] ** 2 + s[1] ** 2 <= t, 2), 2.0, [2.0, 2.0], 150),
    (sb.constant_region(-50.0, "le"), 1.0, [1.0], 5),  # no members: the cap ends the search
], ids=["power-1d", "halfspace-2d", "oracle-2d", "empty"])
def test_sample_member_points_matches_per_candidate_reference(region, t_max, s_span, n_points):
    ts, ss = sample_member_points(region, n_points, 7, t_max, s_span)
    ref_t, ref_s = _reference_member_points(region, n_points, 7, t_max, s_span)
    assert ts.shape == ref_t.shape and ss.shape == ref_s.shape == (ts.size, region.dim)
    assert np.array_equal(ts, ref_t) and np.array_equal(ss, ref_s)


def test_supporting_hyperplane_rejects_bad_gradient():
    region = sb.power_region(2.0, 0.5)
    with pytest.raises((sb.GradientDomainError, NonConvexityError)):
        sb.supporting_hyperplane(region, 1.0, grad=[+2.0])


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
    # two disjoint strips: mixtures fall between them
    def membership(t, s):
        return s[0] <= 1.0 or 3.0 <= s[0] <= 4.0

    bad = sb.region_from_oracle(membership, dim=1, convex_closure=True,
                                contains_origin=True)
    assert not convexity_audit(bad, t_max=5.0, s_span=[5.0], n_pairs=400)
    good = sb.constant_region(5.0)
    assert convexity_audit(good, t_max=5.0, s_span=[8.0], n_pairs=200)


def test_oracle_region_bisection_fallback():
    region = sb.region_from_oracle(lambda t, s: s[0] <= 5.0, dim=1,
                                   convex_closure=True, contains_origin=True)
    assert sb.mean_ray_crossing(region, 1.0, tol=1e-10) == pytest.approx(5.0, abs=1e-9)
    assert sb.slice_distance(region, 10, 1.0, tol=1e-10) == pytest.approx(0.5, abs=1e-8)


def test_flag_requirements():
    region = sb.Region(kind="continuity", dim=1, membership=lambda t, s: s[0] <= 5.0)
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


# Bracketed functions with their root at r and a shape parameter k > 0.
_BRENT_SHAPES = {
    "smooth": lambda r, k: lambda x: (x - r) * (1.0 + k * (x - r) ** 2),
    "steep": lambda r, k: lambda x: math.expm1(k * (x - r)),
    "flat-ended": lambda r, k: lambda x: max(-1.0, min(1.0, k * (x - r))),
    "sqrt-kinked": lambda r, k: lambda x: math.copysign(math.sqrt(k * abs(x - r)), x - r),
    # slopes near 1e-200, whose products underflow to a zero extrapolation denominator
    "tiny": lambda r, k: lambda x: 1e-200 * k * (x - r) ** 3,
}


def _root_or_error(solve, f, a, b, **kwargs):
    try:
        return solve(f, a, b, xtol=1e-15, rtol=8.9e-16, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@pytest.mark.parametrize("shape", sorted(_BRENT_SHAPES))
@settings(max_examples=300, deadline=None)
@given(r=st.floats(-1e3, 1e3), k=st.floats(1e-2, 7.0),
       below=st.floats(1e-9, 100.0), above=st.floats(1e-9, 100.0), flip=st.booleans())
def test_brent_matches_scipy_brentq_bit_for_bit(shape, r, k, below, above, flip):
    f = _BRENT_SHAPES[shape](r, k)
    a, b = (r + above, r - below) if flip else (r - below, r + above)
    assert _root_or_error(_brent, f, a, b) == _root_or_error(brentq, f, a, b)


def test_brent_edge_cases():
    line = lambda x: x - 1.0
    assert _brent(line, 1.0, 3.0, 1e-15, 8.9e-16) == 1.0  # exact zero at either end
    assert _brent(line, -2.0, 1.0, 1e-15, 8.9e-16) == 1.0
    with pytest.raises(ValueError):
        _brent(line, 2.0, 3.0, 1e-15, 8.9e-16)
    holed = lambda x: math.nan if 0.25 < x < 0.75 else x - 0.5
    for solve in (_brent, brentq):
        with pytest.raises(ValueError):
            solve(holed, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
    kinked = _BRENT_SHAPES["sqrt-kinked"](0.3, 1.0)
    for solve in (_brent, brentq):
        with pytest.raises(RuntimeError):
            solve(kinked, 0.0, 10.0, xtol=1e-15, rtol=8.9e-16, maxiter=1)


@pytest.mark.parametrize("region,inside,outside", [
    (sb.power_region(2.0, 0.5), 1.0, 8.0),
    (sb.power_region(2.0, 0.5, "ge", "stopping"), 8.0, 1.0),
    (sb.affine_region(0.25, 2.0, "le"), 0.5, 4.0),
], ids=["inside-below", "inside-above", "affine"])
def test_boundary_root_evaluates_the_slack_once_per_point(region, inside, outside):
    point = lambda t: (t, np.array([t]))
    phi = lambda x: float(region.slack_batch(*point(x)))
    seen = []

    def counting(ts, ss):
        seen.append(float(ts))
        return region.slack_batch(ts, ss)

    root = _boundary_root(dataclasses.replace(region, slack_batch=counting), point,
                          inside, outside, 1e-9)
    lo, hi = sorted((inside, outside))
    steps = []
    assert root == _brent(lambda x: steps.append(x) or phi(x), lo, hi, 1e-15, 8.9e-16)
    # the two bracket ends and then one evaluation per Brent step, none repeated
    assert len(seen) == len(set(seen)) == len(steps)
    assert sorted(seen[:2]) == [lo, hi]
