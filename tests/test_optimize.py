import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stopbounds as sb
from stopbounds.optimize import ProvisoViolatedError


def ray_slab(mu):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    zero = np.zeros_like(mu)
    return sb.Slab(mu, mu, zero, zero)


def test_max_time_collapsed_slab_examples():
    region = sb.constant_region(5.0)
    res = sb.max_time_in_region(region, ray_slab(1.0), tol=1e-9)
    assert res.value == pytest.approx(5.0, abs=1e-6)
    res = sb.max_time_in_region(sb.power_region(2.0, 0.5), ray_slab(1.0), tol=1e-9)
    assert res.value == pytest.approx(4.0, abs=1e-6)


def test_max_time_wide_slab_against_grid_oracle():
    region = sb.constant_region(5.0)
    slab = sb.Slab([0.9], [1.1], [-0.5], [0.5])
    res = sb.max_time_in_region(region, slab, tol=1e-9)
    assert res.value == pytest.approx(55.0 / 9.0, abs=1e-6)
    # oracle: dense 2-d feasibility grid over (t, s)
    best = 0.0
    for t in np.linspace(0.0, 10.0, 4001):
        lo, hi = slab.box(t)
        if lo[0] <= min(hi[0], 5.0):
            best = t
    assert res.value == pytest.approx(best, abs=5e-3)


def test_max_time_feasibility_interval_property():
    cases = [
        (sb.constant_region(5.0), sb.Slab([0.9], [1.1], [-0.5], [0.5])),
        (sb.power_region(2.0, 0.5), sb.Slab([0.8], [1.2], [-0.3], [0.3])),
        (sb.affine_region(0.5, -1.0, "ge"), sb.Slab([0.05], [0.45], [-0.2], [0.2])),
    ]
    for region, slab in cases:
        res = sb.max_time_in_region(region, slab, tol=1e-10)
        t_star = res.value

        def feasible(t):
            lo, hi = slab.box(t)
            if lo[0] > hi[0]:
                return False
            f = region.scalar_boundary(t)
            return lo[0] <= f if region.orientation == "le" else hi[0] >= f

        assert feasible(0.99 * t_star)
        assert not feasible(1.01 * t_star)


def test_max_time_unbounded_and_empty_flags():
    conic = sb.affine_region(1.0, 5.0, "le")
    res = sb.max_time_in_region(conic, ray_slab(0.5), t_cap=2.0**20)
    assert res.unbounded and res.value == math.inf
    # slab floats above the region for every t
    region = sb.constant_region(5.0)
    slab = sb.Slab([1.0], [1.0], [10.0], [10.0])
    res = sb.max_time_in_region(region, slab)
    assert res.empty_domain and res.value == 0.0


def test_max_time_vector_dimension():
    region = sb.halfspace_region([1.0, 1.0], 0.0, 2.0, "le")
    mu = np.array([0.6, 0.6])
    res = sb.max_time_in_region(region, ray_slab(mu), tol=1e-7)
    assert res.value == pytest.approx(2.0 / 1.2, abs=1e-4)
    slab = sb.Slab(mu - 0.1, mu + 0.1, [-0.2, -0.2], [0.2, 0.2])
    res = sb.max_time_in_region(region, slab, tol=1e-6)
    # slice feasible while the lowest box corner satisfies the halfspace
    assert res.value == pytest.approx(2.4 / 1.0, abs=1e-3)


def test_max_time_finds_a_d1_oracle_slice_inside_the_box_away_from_its_centre():
    # the convex band {2t - 1 <= s <= 2t + 1, t <= 10} leaves the box centre
    # s = 0 at t = 0.5, and its slice misses both ends of the box, but stays
    # inside the box up to t = 10
    band = sb.region_from_oracle(lambda t, s: 2.0 * t - 1.0 <= s[0] <= 2.0 * t + 1.0 and t <= 10.0,
                                 1, convex_closure=True, contains_origin=True)
    for slab in (sb.Slab([0.0], [0.0], [-50.0], [50.0]), sb.Slab([0.0], [0.0], [-5.0], [30.0])):
        res = sb.max_time_in_region(band, slab)
        assert not res.empty_domain
        assert res.value == pytest.approx(10.0, abs=1e-8)


@pytest.mark.parametrize("d,axis", [(2, 0), (2, 1), (3, 2)])
def test_max_time_finds_an_oracle_slice_inside_the_box_along_an_axis_segment(d, axis):
    # the convex band {|s_axis - 2t| <= 1, |s_j| <= 1 otherwise, t <= 10} leaves
    # the box centre at t = 0.5 and misses every corner of [-50, 50]^d, but its
    # slice crosses the axis segment through the centre up to t = 10
    def member(t, s):
        others = np.delete(s, axis)
        return abs(s[axis] - 2.0 * t) <= 1.0 and bool(np.all(np.abs(others) <= 1.0)) and t <= 10.0

    band = sb.region_from_oracle(member, d, convex_closure=True, contains_origin=True)
    zero = np.zeros(d)
    res = sb.max_time_in_region(band, sb.Slab(zero, zero, np.full(d, -50.0), np.full(d, 50.0)))
    assert not res.empty_domain
    assert res.value == pytest.approx(10.0, abs=1e-8)


def test_max_concave_over_box_examples():
    val = sb.max_concave_over_box(lambda x: 5.0 / x[0], [0.4], [0.6], tol=1e-12)
    assert val == pytest.approx(12.5, abs=1e-9)
    val = sb.max_concave_over_box(lambda x: (2.0 / x[0]) ** 2, [0.9], [1.1], tol=1e-12)
    assert val == pytest.approx((2.0 / 0.9) ** 2, abs=1e-9)
    assert sb.max_concave_over_box(lambda x: 7.0, [0.0], [3.0]) == 7.0


def test_max_concave_dominates_center_and_corners():
    rng = np.random.default_rng(0)
    for _ in range(10):
        lo = rng.uniform(-2, 0, 2)
        hi = lo + rng.uniform(0.5, 2, 2)
        peak = rng.uniform(lo, hi)

        def fun(x, peak=peak):
            return -float(np.sum((x - peak) ** 2))

        val = sb.max_concave_over_box(fun, lo, hi, tol=1e-10)
        probes = [0.5 * (lo + hi)] + [np.where(mask, hi, lo)
                                      for mask in itertools.product((0, 1), repeat=2)]
        for p in probes:
            assert val >= fun(np.asarray(p, dtype=float)) - 1e-9
        assert val == pytest.approx(0.0, abs=1e-6)


def test_max_concave_over_box_beyond_twelve_coordinates():
    # corners are enumerated up to d = 12; past that the ascent alone finds the peak
    peak = np.linspace(0.2, 0.8, 13)

    def fun(x):
        return -float(np.sum((x - peak) ** 2))

    assert sb.max_concave_over_box(fun, np.zeros(13), np.ones(13)) == pytest.approx(0.0, abs=1e-6)


def test_max_concave_propagates_infinity():
    def fun(x):
        return math.inf if x[0] < 0.1 else 1.0 / x[0]

    assert sb.max_concave_over_box(fun, [0.05], [0.5]) == math.inf


def test_vertex_fraction_point_mass_collapse():
    hyp = sb.Hyperplane([2.0], 0.0, 10.0, 10.0)
    res = sb.vertex_fraction_max(hyp, ray_slab(0.5))
    assert res.value == pytest.approx(10.0, abs=1e-12)


def test_vertex_fraction_two_point_example():
    hyp = sb.Hyperplane([1.0], 0.0, 5.0, 5.0)
    slab = sb.Slab([0.9], [1.1], [-0.5], [0.5])
    res = sb.vertex_fraction_max(hyp, slab)
    assert res.value == pytest.approx(55.0 / 9.0, abs=1e-12)
    assert res.vertex == (1,)
    assert res.min_denominator == pytest.approx(0.9)


def _cube_grid_max(hyp, slab, points=50):
    d = slab.dim
    axes = [np.linspace(0.0, 1.0, points)] * d
    best = -math.inf
    a = hyp.s_coef
    for combo in itertools.product(*axes):
        q = np.array(combo)
        slope = slab.upper_slope + q * (slab.lower_slope - slab.upper_slope)
        icept = slab.upper_icept + q * (slab.lower_icept - slab.upper_icept)
        den = hyp.t_coef + float(a @ slope)
        num = hyp.level - float(a @ icept)
        best = max(best, num / den)
    return best


def test_vertex_fraction_matches_grid_d2():
    hyp = sb.Hyperplane([2.0, 1.0], 0.5, 7.0, 3.0)
    slab = sb.Slab([0.4, 0.8], [0.6, 1.2], [-0.3, -0.2], [0.3, 0.2])
    res = sb.vertex_fraction_max(hyp, slab)
    assert res.value == pytest.approx(_cube_grid_max(hyp, slab), abs=1e-9)


def test_vertex_fraction_matches_grid_d3():
    hyp = sb.Hyperplane([1.0, -0.5, 2.0], 1.5, 9.0, 2.0)
    slab = sb.Slab([0.2, 0.1, 0.5], [0.4, 0.3, 0.9],
                   [-0.1, -0.2, -0.3], [0.1, 0.2, 0.3])
    res = sb.vertex_fraction_max(hyp, slab)
    assert res.value == pytest.approx(_cube_grid_max(hyp, slab, points=21), abs=1e-9)


def test_vertex_fraction_proviso_error():
    hyp = sb.Hyperplane([1.0], -2.0, 5.0, 5.0)
    slab = sb.Slab([0.9], [1.1], [-0.5], [0.5])
    with pytest.raises(ProvisoViolatedError):
        sb.vertex_fraction_max(hyp, slab)
    # a smallest denominator of exactly 0 leaves the maximum unbounded
    res = sb.vertex_fraction_max(sb.Hyperplane([1.0], -0.9, 5.0, 5.0), slab)
    assert (res.value, res.vertex, res.min_denominator) == (math.inf, (1,), 0.0)


@settings(max_examples=30, deadline=None)
@given(
    a=st.lists(st.floats(-2, 2), min_size=2, max_size=2).filter(lambda v: any(abs(x) > 0.1 for x in v)),
    b=st.floats(0.5, 3.0),
    mu=st.lists(st.floats(0.2, 1.0), min_size=2, max_size=2),
    spread=st.floats(0.01, 0.15),
)
def test_vertex_reduction_property(a, b, mu, spread):
    mu = np.array(mu)
    hyp = sb.Hyperplane(a, b, 4.0, 2.0)
    slab = sb.Slab(mu - spread, mu + spread,
                   -spread * np.ones(2), spread * np.ones(2))
    try:
        res = sb.vertex_fraction_max(hyp, slab)
    except ProvisoViolatedError:
        return
    grid = _cube_grid_max(hyp, slab, points=33)
    assert res.value == pytest.approx(grid, abs=1e-9)


def test_empty_slab_flag():
    slab = sb.Slab([1.0], [0.5], [0.0], [0.0])
    assert slab.is_empty
    res = sb.max_time_in_region(sb.constant_region(5.0), slab)
    assert res.empty_domain
