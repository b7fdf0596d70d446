import dataclasses
import itertools
import math
import re
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import stopbounds as sb
from stopbounds.geometry import NonConvexityError, float_at_least
from stopbounds.optimize import ProvisoViolatedError

from search_twin import bisect, box, region_from_oracle


def ray_slab(mu):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    zero = np.zeros_like(mu)
    return sb.Slab(mu, mu, zero, zero)


def _rounded_up(res, root) -> bool:
    """Whether res is the smallest float at or above the exact root, with nothing uncertain."""
    below = Fraction(math.nextafter(res.value, -math.inf))
    return res.uncertainty == 0.0 and Fraction(res.value) >= root > below


def test_max_time_collapsed_slab_examples():
    # the closed form lands on the exact crossing of the ray; on a power
    # boundary its uncertainty reaches down to it
    assert _rounded_up(sb.max_time_in_region(sb.constant_region(5.0), ray_slab(1.0)), 5)
    res = sb.max_time_in_region(sb.power_region(2.0, 0.5), ray_slab(1.0))
    assert res.value - res.uncertainty <= 4.0 <= res.value < 4.0 + 4 * math.ulp(4.0)


def test_max_time_wide_slab_against_grid_oracle():
    region = sb.constant_region(5.0)
    slab = sb.Slab([0.9], [1.1], [-0.5], [0.5])
    res = sb.max_time_in_region(region, slab)
    # the lower edge 0.9 t - 0.5 reaches 5 at the root, in the floats' exact values
    assert _rounded_up(res, (5 + Fraction(0.5)) / Fraction(0.9))
    # oracle: dense 2-d feasibility grid over (t, s)
    best = 0.0
    for t in np.linspace(0.0, 10.0, 4001):
        lo, hi = box(slab, t)
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
        res = sb.max_time_in_region(region, slab)
        _check_against_exact(region, slab, res)  # the exact maximum, rounded up
        t_star = res.value

        def feasible(t):
            lo, hi = box(slab, t)
            if lo[0] > hi[0]:
                return False
            f = region.scalar_boundary(t)
            return lo[0] <= f if region.orientation == "le" else hi[0] >= f

        assert feasible(0.99 * t_star)
        assert not feasible(1.01 * t_star)


def test_max_time_unbounded_and_empty_flags():
    conic = sb.affine_region(1.0, 5.0, "le")
    res = sb.max_time_in_region(conic, ray_slab(0.5))
    assert res.unbounded and res.value == math.inf
    # slab floats above the region for every t
    region = sb.constant_region(5.0)
    slab = sb.Slab([1.0], [1.0], [10.0], [10.0])
    res = sb.max_time_in_region(region, slab)
    assert res.empty_domain and res.value == 0.0


def test_max_time_vector_dimension():
    region = sb.halfspace_region([1.0, 1.0], 0.0, 2.0, "le")
    mu = np.array([0.6, 0.6])
    assert _rounded_up(sb.max_time_in_region(region, ray_slab(mu)), 1 / Fraction(0.6))
    slab = sb.Slab(mu - 0.1, mu + 0.1, [-0.2, -0.2], [0.2, 0.2])
    res = sb.max_time_in_region(region, slab)
    # slice feasible while the lowest box corner satisfies the halfspace:
    # 2 (0.5 t - 0.2) <= 2, with 0.6 - 0.1 = 0.5 in floats
    assert _rounded_up(res, (1 + Fraction(0.2)) / Fraction(0.5))


def test_max_time_finds_a_d1_oracle_slice_inside_the_box_away_from_its_centre():
    # the convex band {2t - 1 <= s <= 2t + 1, t <= 10} leaves the box centre
    # s = 0 at t = 0.5, and its slice misses both ends of the box, but stays
    # inside the box up to t = 10
    band = region_from_oracle(lambda t, s: 2.0 * t - 1.0 <= s[0] <= 2.0 * t + 1.0 and t <= 10.0,
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

    band = region_from_oracle(member, d, convex_closure=True, contains_origin=True)
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
    a, ls, us, li, ui = map(np.array, (hyp.s_coef, slab.lower_slope, slab.upper_slope,
                                       slab.lower_icept, slab.upper_icept))
    for combo in itertools.product(*axes):
        q = np.array(combo)
        slope = us + q * (ls - us)
        icept = ui + q * (li - ui)
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
    # the proviso is decided exactly: the float form 1 + (2**-60 - 1) cancels to 0
    # at q = (1,), but that denominator is 2**-60 > 0, and the ratio 1/2**-60 is finite
    res = sb.vertex_fraction_max(sb.Hyperplane([1.0], 0.0, 1.0, 1.0),
                                 sb.Slab([2.0**-60], [1.0], [0.0], [0.0]))
    assert tuple(res) == (2.0**60, (1,), 2.0**-60)


def test_vertex_fraction_rounds_the_exact_ratio_up():
    # 1/3 rounds to nearest below itself: the value is the float above
    res = sb.vertex_fraction_max(sb.Hyperplane([1.0], 3.0, 1.0, 1.0),
                                 sb.Slab([0.0], [0.0], [0.0], [0.0]))
    assert Fraction(res.value) > Fraction(1, 3) > Fraction(math.nextafter(res.value, 0.0))
    # a ratio past the float range reads inf, as the float quotient 1e308 / 1e-308 does
    res = sb.vertex_fraction_max(sb.Hyperplane([1.0], 1e-308, 1e308, 1.0),
                                 sb.Slab([0.0], [0.0], [0.0], [0.0]))
    assert tuple(res) == (math.inf, (0,), 1e-308)
    assert float_at_least(-(10**400), 1) == -sys.float_info.max


def _enumerated_vertex_max(hyp, slab):
    """The maximum over all 2^d vertices, the lexicographically first on ties.

    Numerators and denominators are exact in floats on quarters; the ratios
    are compared as fractions and the largest is rounded up to a float.
    """
    a, ls, us, li, ui = map(np.array, (hyp.s_coef, slab.lower_slope, slab.upper_slope,
                                       slab.lower_icept, slab.upper_icept))
    rows = []
    for bits in itertools.product((0, 1), repeat=slab.dim):
        q = np.array(bits, dtype=float)
        slope = us + q * (ls - us)
        icept = ui + q * (li - ui)
        rows.append((bits, hyp.level - float(a @ icept), hyp.t_coef + float(a @ slope)))
    min_den = min(den for _, _, den in rows)
    if min_den < 0.0:
        raise ProvisoViolatedError(f"vertex denominator minimum {min_den:.6g} is not positive")
    if min_den == 0.0:
        return (math.inf, next(bits for bits, _, den in rows if den == 0.0), 0.0)
    ratio, bits = max(((Fraction(num) / Fraction(den), bits) for bits, num, den in rows),
                      key=lambda row: (row[0], tuple(-b for b in row[1])))
    value = float(ratio)  # to nearest, then up
    return (value if Fraction(value) >= ratio else math.nextafter(value, math.inf), bits, min_den)


# quarters in [-2, 2]: the float form is exact, and equal breakpoints, zero gains
# and zero or negative minimum denominators all occur
_QUARTER = st.integers(-8, 8).map(lambda k: k / 4)


@st.composite
def _vertex_case(draw):
    d = draw(st.integers(1, 8))
    row = st.lists(_QUARTER, min_size=d, max_size=d)
    hyp = sb.Hyperplane(draw(row), draw(_QUARTER), draw(st.integers(1, 8)) / 4, 1.0)
    return hyp, sb.Slab(draw(row), draw(row), draw(row), draw(row))


@settings(max_examples=400, deadline=None)
@given(case=_vertex_case())
@example(case=(sb.Hyperplane([1.0, 1.0], 1.0, 2.0, 1.0),  # two equal breakpoints
               sb.Slab([0.5, 0.5], [1.0, 1.0], [0.0, 0.0], [0.5, 0.5])))
@example(case=(sb.Hyperplane([1.0, -1.0], 1.0, 1.0, 1.0),  # a minimum denominator of 0
               sb.Slab([0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0])))
def test_vertex_sweep_matches_the_enumeration(case):
    hyp, slab = case
    try:
        expected = _enumerated_vertex_max(hyp, slab)
    except ProvisoViolatedError as exc:
        with pytest.raises(ProvisoViolatedError, match=re.escape(str(exc))):
            sb.vertex_fraction_max(hyp, slab)
        return
    assert tuple(sb.vertex_fraction_max(hyp, slab)) == expected


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
    # the lower edge t lies above the upper edge t/2 for t > 0, so the slab
    # is flagged; its box is still the point 0 at t = 0, inside {s <= 5}
    slab = sb.Slab([1.0], [0.5], [0.0], [0.0])
    assert slab.is_empty
    res = sb.max_time_in_region(sb.constant_region(5.0), slab)
    assert (res.value, res.empty_domain, res.unbounded) == (0.0, False, False)


@pytest.mark.parametrize("slab,expected", [
    (sb.Slab([1.0], [0.0], [-1.0], [1.0]), 2.0),  # box [t - 1, 1]: non-empty up to t = 2
    (sb.Slab([1.0], [1.0], [1.0], [0.0]), None),  # box [t + 1, t]: empty at every t
    (sb.Slab([0.0], [1.0], [1.0], [-1.0]), math.inf),  # box [1, t - 1]: non-empty from t = 2 on
], ids=["empties-at-2", "never", "fills-at-2"])
def test_slab_max_of_a_slab_whose_own_edges_cross(slab, expected):
    # the crossing of a slab's own edges bounds t, as a primed slab's edges
    # do: the answer is where its box meets the slice, not an empty domain
    assert slab.is_empty
    region = sb.constant_region(5.0)
    twin = region_from_oracle(lambda t, s: s[0] <= 5.0, 1, convex_closure=True,
                              contains_origin=True)
    for res in (sb.max_time_in_region(region, slab), sb.max_time_in_region(twin, slab)):
        assert res.empty_domain == (expected is None)
        assert res.unbounded == (expected == math.inf)
        if expected is None:
            assert res.value == 0.0
        else:
            assert expected <= res.value <= expected + 1e-9 + res.uncertainty
    assert sb.max_time_in_region(region, slab).value == (expected or 0.0)
    best = _exact_slab_max(region, slab)
    assert best == (None if expected is None else Fraction(min(expected, T_CAP)))


# ---------------------------------------------------------------------------
# The closed-form maximum of a plain slab on a built-in region
# ---------------------------------------------------------------------------

T_CAP = 2.0**30
_EIGHTHS = st.integers(-24, 24).map(lambda k: k / 8.0)
_REALS = st.one_of(_EIGHTHS, st.floats(-3.0, 3.0, allow_nan=False))
_WIDTHS = st.one_of(st.integers(0, 8).map(lambda k: k / 8.0), st.floats(0.0, 1.0))
_SIGNED_WIDTHS = st.one_of(st.integers(-8, 8).map(lambda k: k / 8.0), st.floats(-1.0, 1.0))


@st.composite
def _slab_case(draw, families=("constant", "affine", "power", "halfspace"),
               exponents=st.sampled_from([0.25, 0.5, 0.75]), general=False):
    """A convex built-in region (1-3-d halfspaces, time slabs among them) and a slab.

    The slab's edges do not cross.  With ``general`` it is one of three: a
    slab with a random primed slab, whose edges may cross; a line with a
    primed line that crosses it, so that the box is at most one point; or
    a plain slab whose edges may cross.
    """
    family = draw(st.sampled_from(families))
    orientation = draw(st.sampled_from(["le", "ge"]))
    kind = draw(st.sampled_from(["continuity", "stopping"]))
    if family == "constant":
        region = sb.constant_region(draw(_REALS), orientation, kind)
    elif family == "affine":
        region = sb.affine_region(draw(_REALS), draw(_REALS), orientation, kind)
    elif family == "power":  # the coefficient's sign puts the region on the convex side
        coef = draw(st.integers(1, 32).map(lambda k: k / 8.0) | st.floats(0.01, 4.0))
        region = sb.power_region(coef if orientation == "le" else -coef, draw(exponents),
                                 orientation, kind)
    else:
        dim = draw(st.integers(1, 3))
        s_coef = [0.0] * dim if draw(st.booleans()) else [draw(_REALS) for _ in range(dim)]
        region = sb.halfspace_region(s_coef, draw(_REALS), draw(_REALS), orientation, kind)
    widths = np.array([[draw(_WIDTHS) for _ in range(region.dim)] for _ in range(2)])
    if family == "power" and draw(st.booleans()):
        # an edge p t + q (times the slack's sign) that the concave slack
        # crosses first after t = 0: 0 < q < its value at the peak
        a, e, p = coef, region.power_exponent, draw(st.floats(0.05, 2.0))
        peak = (a * e / p) ** (1.0 / (1.0 - e))
        q = draw(st.floats(0.05, 0.95)) * (a * peak**e - p * peak)
        if orientation == "le":  # the lower edge
            slab = sb.Slab([p], [p] + widths[0], [q], [q] + widths[1])
        else:
            slab = sb.Slab([-p] - widths[0], [-p], [-q] - widths[1], [-q])
    else:
        slab = _random_slab(draw, region.dim, widths)
    if not general:
        return region, slab
    shape = draw(st.sampled_from(["primed", "line", "crossing"]))
    if shape != "line":
        widths = np.array([[draw(_WIDTHS | _SIGNED_WIDTHS) for _ in range(region.dim)]
                           for _ in range(2)])
        other = _random_slab(draw, region.dim, widths)
        return region, (dataclasses.replace(slab, primed=other) if shape == "primed" else other)
    # eighths cross exactly at t0 on every coordinate
    t0 = draw(st.integers(0, 64).map(lambda k: k / 8.0) | st.floats(0.0, 8.0))
    slope = np.array([draw(_REALS) for _ in range(region.dim)])
    icept = np.array(slab.lower_slope) * t0 + slab.lower_icept - slope * t0
    line = sb.Slab(slab.lower_slope, slab.lower_slope, slab.lower_icept, slab.lower_icept)
    return region, dataclasses.replace(line, primed=sb.Slab(slope, slope, icept, icept))


def _random_slab(draw, dim, widths):
    lower_slope = np.array([draw(_REALS) for _ in range(dim)])
    lower_icept = np.array([draw(_REALS) for _ in range(dim)])
    return sb.Slab(lower_slope, lower_slope + widths[0], lower_icept, lower_icept + widths[1])


def _edge(region, slab):
    """(cs, ci): the box edge cs*t + ci where the region's slack is largest."""
    take_lo = region.ray_coefficients[1] > 0.0
    return (np.where(take_lo, slab.lower_slope, slab.upper_slope),
            np.where(take_lo, slab.lower_icept, slab.upper_icept))


def _power_terms(region, slab):
    """(a, e, p, q) with the power slack along the edge a t^e - p t - q, as floats."""
    (alpha, beta, _, e), (cs, ci) = region.form, _edge(region, slab)
    sgn = float(beta[0])
    return alpha, e, sgn * float(cs[0]), sgn * float(ci[0])


def _exact_linear_root(region, slab):
    """(rise, rate) in fractions: the flat slack along the edge is rise - rate*t."""
    alpha, beta, kappa = region.linear_slack
    cs, ci = _edge(region, slab)
    rise = Fraction(alpha) - sum(Fraction(b) * Fraction(c) for b, c in zip(beta, ci))
    rate = Fraction(kappa) + sum(Fraction(b) * Fraction(c) for b, c in zip(beta, cs))
    return rise, rate


def _decimal_slack(terms, t):
    """(a t^e - p t - q, |a t^e| + |p t| + |q|) in the current decimal context."""
    a, e, p, q = (Decimal(x) for x in terms)
    t = Decimal(t)
    rise = a * t**e
    return rise - p * t - q, abs(rise) + abs(p * t) + abs(q)


def _decimal_feasible(terms, t):
    """The power slack at t is >= 0 at 50 digits, within 1e-40 of its terms' size."""
    with localcontext() as ctx:
        ctx.prec = 50
        h, scale = _decimal_slack(terms, t)
        return h >= -scale * Decimal("1e-40")


def _decimal_root(terms):
    """The right root of the power slack at 60 digits, or None when it peaks below 0.

    Bisection on [peak, T_CAP] at the geometric mean, with
    ``_decimal_feasible``, until the bracket is 1e-40 of its upper end: a
    resolution relative to the root, however near 0 it lies.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        a, e, p, _ = (Decimal(x) for x in terms)
        peak = (a * e / p) ** (1 / (1 - e)) if p > 0 else Decimal(T_CAP)
        lo, hi = min(peak, Decimal(T_CAP)), Decimal(T_CAP)
        if not _decimal_feasible(terms, lo):
            return None
        while hi - lo > hi * Decimal("1e-40"):
            mid = (lo * hi).sqrt()
            lo, hi = (mid, hi) if _decimal_feasible(terms, mid) else (lo, mid)
        return lo


def _exact_feasible(region, slab, t):
    """Whether the box at t meets the slice in exact arithmetic (50 digits for a power)."""
    if region.linear_slack is not None:
        rise, rate = _exact_linear_root(region, slab)
        return rise - rate * Fraction(t) >= 0
    return _decimal_feasible(_power_terms(region, slab), t)


def _exact_flag(region, slab):
    """"unbounded", "empty" or "bounded" in exact arithmetic, as ``_bisected`` reads them."""
    if _exact_feasible(region, slab, T_CAP):
        return "unbounded"
    if region.linear_slack is not None:
        nonempty = _exact_linear_root(region, slab)[0] >= 0  # feasible at t = 0
    else:
        nonempty = _decimal_root(_power_terms(region, slab)) is not None
    return "bounded" if nonempty else "empty"


def _float_feasibility(region, slab):
    """t -> whether the box ``box(slab, t)`` meets the slice at t, in floats.

    A curve s = f(t) compares f(t) with the box edge on its side; a
    halfspace (time slabs included) takes its slack at the box corner
    that maximizes it, lo_i where beta_i > 0 and hi_i elsewhere.
    """
    if region.scalar_boundary is not None:
        f, le = region.scalar_boundary, region.orientation == "le"

        def feasible(t: float) -> bool:
            lo, hi = box(slab, t)
            lo, hi = float(lo[0]), float(hi[0])
            return lo <= hi and (lo <= f(t) if le else hi >= f(t))
    else:
        take_lo = region.linear_slack[1] > 0.0

        def feasible(t: float) -> bool:
            lo, hi = box(slab, t)
            return not np.any(lo > hi) and region.slack_batch(t, np.where(take_lo, lo, hi)) >= 0.0
    return feasible


def _bisected(region, slab):
    """The reference: ("unbounded" | "empty" | "bounded", inside, outside, probes).

    ``optimize.bisect`` to adjacent floats on ``_float_feasibility``, from
    the first feasible t among 0, the halvings of T_CAP and, for a power
    boundary, the peak of its slack, where a feasible set that does not
    start at 0 is widest.  ``probes`` are the t whose float test decided
    the flag: T_CAP and the starts tried.
    """
    feasible = _float_feasibility(region, slab)
    if feasible(T_CAP):
        return "unbounded", None, None, [T_CAP]
    starts = [0.0] + [T_CAP * 0.5**k for k in range(1, 90)]
    if region.power_exponent is not None:
        a, e, p, _ = _power_terms(region, slab)
        if p > 0.0:
            starts.insert(0, (a * e / p) ** (1.0 / (1.0 - e)))
    probes = [T_CAP]
    for t in starts:
        if t < T_CAP:
            probes.append(t)
            if feasible(t):
                return ("bounded", *bisect(feasible, t, T_CAP, 0.0), probes)
    return "empty", None, None, probes


def _check_against_exact(region, slab, res):
    """The value is never below the exact maximum; a flat family's is the next float up."""
    if region.linear_slack is not None:
        rise, rate = _exact_linear_root(region, slab)
        root = rise / rate
        assert Fraction(res.value) >= root
        assert Fraction(math.nextafter(res.value, -math.inf)) < root or res.value == 0.0
        assert res.uncertainty == 0.0
        return
    root = _decimal_root(_power_terms(region, slab))
    assert root is not None
    with localcontext() as ctx:
        ctx.prec = 50
        assert Decimal(res.value) >= root * (1 - Decimal("1e-30"))
    assert res.value <= float(root) + 4 * math.ulp(float(root))


@settings(max_examples=300, deadline=None)
@given(case=_slab_case())
def test_closed_slab_maximum_matches_a_bisection_to_adjacent_floats(case):
    # the closed form against exact arithmetic (fractions, or 50 decimal
    # digits for a power boundary) and against the bisection on the region's
    # own float feasibility test: the same flags whenever the float test
    # reads every t that decided them as exact arithmetic does, and a value
    # in the reference's last bracket whenever it reads both ends so
    region, slab = case
    assume(not slab.is_empty)
    res = sb.max_time_in_region(region, slab)
    exact = _exact_flag(region, slab)
    assert (res.unbounded, res.empty_domain) == (exact == "unbounded", exact == "empty")
    flag, inside, outside, probes = _bisected(region, slab)
    feasible = _float_feasibility(region, slab)
    if all(feasible(t) == _exact_feasible(region, slab, t) for t in probes):
        assert flag == exact
    if exact != "bounded":
        assert res.value == (math.inf if res.unbounded else 0.0)
        return
    _check_against_exact(region, slab, res)
    if (flag == "bounded" and _exact_feasible(region, slab, inside)
            and not _exact_feasible(region, slab, outside)):
        assert inside <= res.value <= outside + 4 * math.ulp(outside)


_Q = float.fromhex("0x1.509c54517db80p-140")
_UNDECIDED_BAND = (  # a root near 7.9e-41 inside a band of about 700 floats of unknown sign
    sb.power_region(0.01, 0.95), sb.Slab([1.0], [1.0], [_Q], [_Q]))


@settings(max_examples=60, deadline=None)
@given(case=_slab_case(families=("power",), exponents=st.floats(0.05, 0.95)))
@example(case=_UNDECIDED_BAND)
def test_closed_slab_maximum_on_any_power_exponent_stays_past_the_root(case):
    # an exponent whose denominator is not 4 leaves a band of ulps where
    # floats cannot tell the sign; the value lies past it, and the
    # uncertainty reaches back across it to below the root
    region, slab = case
    assume(not slab.is_empty)
    res = sb.max_time_in_region(region, slab)
    exact = _exact_flag(region, slab)
    assert (res.unbounded, res.empty_domain) == (exact == "unbounded", exact == "empty")
    if exact == "bounded":
        root = _decimal_root(_power_terms(region, slab))
        with localcontext() as ctx:
            ctx.prec = 50
            assert Decimal(res.value) >= root * (1 - Decimal("1e-30"))
            assert Decimal(res.value) - Decimal(res.uncertainty) <= root * (1 + Decimal("1e-30"))
        assert res.value <= float(root) * (1.0 + 1e-12) + 1e-300


@pytest.mark.parametrize("region,slab,expected", [
    # the slab's lower edge t + 1 touches 2 sqrt(t) at t = 1 only: a double
    # root at the peak, which a computed peak may miss by an ulp either way,
    # so the value is the next float up
    (sb.power_region(2.0, 0.5), sb.Slab([1.0], [1.0], [1.0], [1.0]), 1.0 + 2.0**-52),
    # the lower edge t/10 + 1/2 enters {s <= 2 sqrt(t)} after t = 0
    (sb.power_region(2.0, 0.5), sb.Slab([0.125], [0.125], [0.5], [0.5]), None),
    # {s <= 5} from below, 0.9 t - 0.5 <= 5 up to t = 55/9
    (sb.constant_region(5.0), sb.Slab([0.9], [1.1], [-0.5], [0.5]), None),
    # the halfspace's best corner of the box
    (sb.halfspace_region([1.0, -1.0], 0.5, 3.0), sb.Slab([0.1, 0.2], [0.3, 0.4], [0.0, 0.0],
                                                          [1.0, 1.0]), None),
], ids=["double-root", "late-start", "flat", "halfspace-2d"])
def test_closed_slab_maximum_examples(region, slab, expected):
    res = sb.max_time_in_region(region, slab)
    assert not (res.unbounded or res.empty_domain)
    if expected is not None:
        assert res.value == expected
    _check_against_exact(region, slab, res)


@pytest.mark.parametrize("region,slab", [
    (sb.power_region(2.0, 0.5), sb.Slab([1.0], [1.0], [1.5], [1.5])),  # peaks at -1/2
    (sb.affine_region(1.0, 5.0, "le"), sb.Slab([1.0], [1.0], [6.0], [6.0])),
    (sb.halfspace_region([0.0, 0.0], 1.0, -1.0), sb.Slab([0.0, 0.0], [1.0, 1.0], [0.0, 0.0],
                                                          [1.0, 1.0])),  # t <= -1
], ids=["power", "affine", "time-slab"])
def test_closed_slab_maximum_reads_an_empty_domain(region, slab):
    res = sb.max_time_in_region(region, slab)
    assert res.empty_domain and res.value == 0.0
    assert _bisected(region, slab)[0] == "empty"


def test_closed_slab_maximum_reads_an_unbounded_domain_starting_late():
    # s <= t - 2 holds from t = 4 on for the ray s = t/2: the bisection's halvings find it
    region, slab = sb.affine_region(1.0, -2.0, "le"), ray_slab(0.5)
    res = sb.max_time_in_region(region, slab)
    assert res.unbounded and res.value == math.inf
    assert _bisected(region, slab)[0] == "unbounded"


def test_closed_slab_maximum_refuses_the_non_convex_side():
    # a convexity flag that misstates a power region: its slack is convex in t
    region = dataclasses.replace(sb.power_region(2.0, 0.5, "ge"), convex_closure=True)
    with pytest.raises(NonConvexityError):
        sb.max_time_in_region(region, ray_slab(1.0))


# ---------------------------------------------------------------------------
# The closed-form maximum of a primed slab, against exact arithmetic
# ---------------------------------------------------------------------------


def _edges(slab):
    """Per coordinate, the (slope, icept) fractions of its lower and of its upper edges."""
    slabs = [slab] if slab.primed is None else [slab, slab.primed]
    return [tuple([(Fraction(getattr(x, side + "_slope")[i]), Fraction(getattr(x, side + "_icept")[i]))
                   for x in slabs] for side in ("lower", "upper")) for i in range(slab.dim)]


def _exact_meets(region, slab, t):
    """Whether the box at t (a fraction) meets the slice: exactly, or at 50 digits for a power."""
    alpha, beta, kappa, _ = region.ray_coefficients
    corner = []  # the edge (slope, icept) that bounds the box on the slack's side
    for b, (lower, upper) in zip(beta, _edges(slab)):
        lo, hi = max(lower, key=lambda e: e[0] * t + e[1]), min(upper, key=lambda e: e[0] * t + e[1])
        if lo[0] * t + lo[1] > hi[0] * t + hi[1]:
            return False
        corner.append(lo if b > 0.0 else hi)
    if region.power_exponent is None:
        return (Fraction(alpha) - sum(Fraction(b) * (cs * t + ci) for b, (cs, ci) in zip(beta, corner))
                - Fraction(kappa) * t >= 0)
    (cs, ci), = corner
    with localcontext() as ctx:
        ctx.prec = 50
        t = Decimal(t.numerator) / Decimal(t.denominator)
    return _decimal_feasible((alpha, region.power_exponent, beta[0] * float(cs), beta[0] * float(ci)), t)


def _exact_slab_max(region, slab):
    """The largest t in [0, T_CAP] whose box meets the slice, or None when there is none.

    The largest feasible t is T_CAP, a t where two edges of one coordinate
    cross (a lower edge and its own upper one among them), or a root of the slack along some choice of one edge per
    coordinate on the slack's side: 0 or the crossing or root itself when
    the set is one point.  Each candidate is tested with ``_exact_meets``;
    a power boundary's right roots are bisected at 50 digits.
    """
    alpha, beta, kappa, _ = region.ray_coefficients
    edges = _edges(slab)
    candidates = {Fraction(0), Fraction(T_CAP)}
    for lower, upper in edges:
        for (s1, i1), (s2, i2) in itertools.combinations(lower + upper, 2):
            if s1 != s2:
                candidates.add((i2 - i1) / (s1 - s2))
    sides = [lower if b > 0.0 else upper for b, (lower, upper) in zip(beta, edges)]
    for choice in itertools.product(*sides):
        if region.power_exponent is not None:
            (cs, ci), = choice
            terms = (alpha, region.power_exponent, beta[0] * float(cs), beta[0] * float(ci))
            root = _decimal_root(terms)
            if root is not None:
                candidates.add(Fraction(root))
            continue
        rise = Fraction(alpha) - sum(Fraction(b) * ci for b, (_, ci) in zip(beta, choice))
        rate = Fraction(kappa) + sum(Fraction(b) * cs for b, (cs, _) in zip(beta, choice))
        if rate != 0:
            candidates.add(rise / rate)
    feasible = [t for t in candidates if 0 <= t <= T_CAP and _exact_meets(region, slab, t)]
    return max(feasible, default=None)


@settings(max_examples=300, deadline=None)
@given(case=_slab_case(general=True))
def test_closed_slab_maximum_of_a_primed_slab_matches_exact_arithmetic(case):
    # the value is the exact maximum rounded up to the next float, or within
    # a few ulps above it for a power boundary; a box that is one point
    # counts at that t, and one whose edges cross counts where it is not empty
    region, slab = case
    res = sb.max_time_in_region(region, slab)
    best = _exact_slab_max(region, slab)
    assert (res.unbounded, res.empty_domain) == (best == T_CAP, best is None)
    if best is None or best == T_CAP:
        assert res.value == (math.inf if res.unbounded else 0.0)
        return
    assert Fraction(res.value) >= best * (1 - Fraction(1, 10**30))
    if region.power_exponent is None:
        assert Fraction(math.nextafter(res.value, -math.inf)) < best or res.value == 0.0
    else:
        assert res.value <= float(best) + 4 * math.ulp(float(best))


@pytest.mark.parametrize("region,slab,expected", [
    # the support slab leaves the plain slab's line s = t/3 + 2.999 alone,
    # which meets {s <= 2 sqrt(t)} on [8.68, 9.33] only: between the halvings
    # 8 and 16 of 2**30, which read an empty domain
    (sb.power_region(2.0, 0.5), sb.Slab([1 / 3], [1 / 3], [2.999], [2.999],
                                         primed=sb.Slab([-10.0], [10.0], [-100.0], [100.0])),
     9.33163353450311),
    # the lines s = -t/32 and s = -3/32 meet at t = 3 alone, inside {s <= 1/8}
    (sb.constant_region(0.125), sb.Slab([-1 / 32], [-1 / 32], [0.0], [0.0],
                                         primed=sb.Slab([0.0], [0.0], [-3 / 32], [-3 / 32])), 3.0),
    # the lower edges t + 0.95 and t/5 + 2.4 each meet {s <= 2 sqrt(t)} on an
    # interval, but the two intervals are disjoint
    (sb.power_region(2.0, 0.5), sb.Slab([1.0], [1.0], [0.95], [100.0],
                                         primed=sb.Slab([0.2], [0.2], [2.4], [100.0])), None),
    # the primed lower edge t/5 + 2 enters the slice near t = 1.27 and t + 0.9 leaves it at 1.73
    (sb.power_region(2.0, 0.5), sb.Slab([1.0], [1.0], [0.9], [100.0],
                                         primed=sb.Slab([0.2], [0.2], [2.0], [100.0])),
     1.7324555320336759),
    # the upper edge 3 meets the primed lower edge t/2 at t = 6, inside the slice
    (sb.power_region(2.0, 0.5), sb.Slab([0.0], [0.0], [0.0], [3.0],
                                         primed=sb.Slab([0.5], [0.5], [0.0], [100.0])), 6.0),
], ids=["power-between-halvings", "single-point-box", "disjoint-curves", "curves-cross",
        "box-edges-cross"])
def test_closed_slab_maximum_of_a_primed_slab_examples(region, slab, expected):
    res = sb.max_time_in_region(region, slab)
    if expected is None:
        assert res.empty_domain and res.value == 0.0
        assert _exact_slab_max(region, slab) is None
        return
    assert not (res.unbounded or res.empty_domain)
    assert res.value == expected
    assert _exact_slab_max(region, slab) <= Fraction(expected)


@pytest.mark.parametrize("region,slab", [
    (sb.halfspace_region([1.0, 1.0], 0.0, 6.0), sb.Slab([0.5], [0.5], [0.0], [0.0])),
    (sb.halfspace_region([1.0, 1.0], 0.0, 6.0), sb.Slab([0.5] * 3, [0.5] * 3, [0.0] * 3,
                                                         [0.0] * 3)),
], ids=["1-d-slab", "3-d-slab"])
def test_slab_maximum_refuses_a_slab_of_another_dimension(region, slab):
    # zip would truncate either one to the shorter: 12.0 and 6.0 read as answers
    with pytest.raises(ValueError, match="dimensions disagree"):
        sb.max_time_in_region(region, slab)


def test_slab_refuses_rows_or_a_primed_slab_of_another_length():
    with pytest.raises(ValueError, match="one length"):
        sb.Slab([1.0, 2.0], [1.0], [0.0], [0.0])
    with pytest.raises(ValueError, match="one dimension"):
        sb.Slab([1.0], [1.0], [0.0], [0.0], primed=sb.Slab([1.0, 2.0], [1.0, 2.0], [0.0, 0.0],
                                                           [0.0, 0.0]))


@pytest.mark.parametrize("level,expected", [(226.25, 10.0), (158.125, 5.0)])
def test_slab_maximum_of_a_40_dim_primed_slab_takes_no_choice_per_corner(level, expected):
    # on coordinate i the lower edges 0.5 t and 0.25 t + i/8 cross at t = i/2, so the least
    # slack has 41 pieces; one affine cut per choice of lower edges would be 2**40 of them
    d = 40
    region = sb.halfspace_region([1.0] * d, 0.0, level)
    slab = sb.Slab([0.5] * d, [1.0] * d, [0.0] * d, [100.0] * d,
                   primed=sb.Slab([0.25] * d, [1.0] * d, [i / 8 for i in range(1, d + 1)], [100.0] * d))
    start = time.perf_counter()
    res = sb.max_time_in_region(region, slab)
    assert time.perf_counter() - start < 1.0
    assert res == (expected, False, False, 0.0)
    assert _exact_meets(region, slab, Fraction(expected))
    assert not _exact_meets(region, slab, Fraction(math.nextafter(expected, math.inf)))
