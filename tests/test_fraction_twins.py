"""Each float form of the bound path against its formula evaluated in exact fractions.

The calculators sum Python floats left to right.  On hypothesis-drawn
product laws and halfspaces of dimension up to 5, each slab row and each
quadratic form (T16-I, T16-II, T16-III, T17 and, at d = 1, vipformula) is
compared with its formula evaluated in ``Fraction``s on the same float
inputs.  A float result x of an exact value X must satisfy
|x - X| <= k (u S + eta), with u = 2**-53 the unit roundoff, eta = 2**-1075
the absolute error of a rounding into the subnormal range and S the sum of
the magnitudes of the formula's terms: the first-order bound of k roundings
along its longest chain of operations (Higham, "Accuracy and Stability of
Numerical Algorithms", 2002, sections 2.1 and 3.1).  k is stated with each
check and no other tolerance is allowed.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stopbounds as sb
from stopbounds.bounds import bounded_support_slab, deviation_slab
from stopbounds.harness import ScenarioBundle, bound_report

U, ETA = Fraction(1, 2**53), Fraction(1, 2**1075)


def _within(value: float, exact: Fraction, magnitude: Fraction, roundings: int) -> bool:
    return abs(Fraction(value) - exact) <= roundings * (U * magnitude + ETA)


def _component(draw):
    kind = draw(st.sampled_from(["bernoulli", "uniform", "gaussian"]))
    x0 = draw(st.floats(-3.0, 3.0))
    width = draw(st.floats(0.01, 4.0))
    if kind == "bernoulli":
        return sb.bernoulli_affine(x0, x0 + width, draw(st.floats(0.01, 0.99)))
    if kind == "uniform":
        return sb.uniform_interval(x0, x0 + width)
    return sb.gaussian(x0, width)


@st.composite
def _case(draw):
    """A product law of d <= 5 components, a halfspace the mean ray leaves, lam, K and n0."""
    d = draw(st.integers(1, 5))
    spec = sb.product([_component(draw) for _ in range(d)])
    mean = sb.analytic_moments(spec).mean
    s_coef = [draw(st.floats(-2.0, 2.0)) for _ in range(d)]
    t_coef = draw(st.floats(-1.0, 1.0))
    rate = sum(Fraction(a) * Fraction(m) for a, m in zip(s_coef, mean)) + Fraction(t_coef)
    assume(rate > Fraction(1, 100))  # the mean ray leaves the region
    region = sb.halfspace_region(s_coef, t_coef, draw(st.floats(0.5, 20.0)))
    return (ScenarioBundle("twin", spec, region, sb.naturals()), draw(st.floats(1.0, 3.0)),
            draw(st.floats(0.0, 10.0)), draw(st.integers(0, 5)))


def _rows(slab):
    return (slab.lower_slope, slab.upper_slope, slab.lower_icept, slab.upper_icept)


@settings(max_examples=150, deadline=None)
@given(case=_case())
def test_slab_rows_match_their_exact_formulas(case):
    # each entry is a -/+ b c or c (n0 - K) d: two roundings of |a| + |b c|
    bundle, lam, K, n0 = case
    prof = bundle.premises.profile
    F = Fraction
    lam_f, K_f, gap = F(lam), F(K), F(n0 - K)  # both sides read the float n0 - K
    rows = _rows(deviation_slab(prof, lam, K, n0))
    for i, (mu, pos, neg) in enumerate(zip(prof.mean, prof.pos_dev, prof.neg_dev)):
        mu, pos, neg = F(mu), F(pos), F(neg)
        assert _within(rows[0][i], mu - lam_f * pos, abs(mu) + lam_f * pos, 2)
        assert _within(rows[1][i], mu + lam_f * neg, abs(mu) + lam_f * neg, 2)
        assert _within(rows[2][i], gap * pos, abs(gap) * pos, 2)
        assert _within(rows[3][i], -gap * neg, abs(gap) * neg, 2)
    if not prof.bounded:
        return
    both = bounded_support_slab(prof, lam, K, n0)
    envelope, primed = _rows(both), _rows(both.primed)
    for i, (mu, v, a, b) in enumerate(zip(prof.mean, prof.bound_v, prof.support_lo,
                                          prof.support_hi)):
        mu, v, a, b = F(mu), F(v), F(a), F(b)
        assert _within(envelope[0][i], mu - lam_f * v, abs(mu) + lam_f * v, 2)
        assert _within(envelope[1][i], mu + lam_f * v, abs(mu) + lam_f * v, 2)
        assert _within(envelope[2][i], gap * v, abs(gap) * v, 2)
        assert _within(envelope[3][i], -gap * v, abs(gap) * v, 2)
        # y + lam (mu - y) and K (mu - y): three and two roundings of their terms
        for row, edge in ((0, b), (1, a)):
            assert _within(primed[row][i], edge + lam_f * (mu - edge),
                           abs(edge) + lam_f * (abs(mu) + abs(edge)), 3)
            assert _within(primed[row + 2][i], K_f * (mu - edge), K_f * (abs(mu) + abs(edge)), 2)


@settings(max_examples=150, deadline=None)
@given(case=_case(), batch=st.integers(1, 4))
def test_quadratic_forms_match_their_exact_formulas(case, batch):
    bundle, *_ = case
    p = bundle.premises
    prof, hyp = p.profile, p.hyperplane
    d, F = prof.dim, Fraction
    a, var = [F(x) for x in hyp.s_coef], [F(x) for x in prof.variance]
    m, c, K = F(hyp.anchor), F(hyp.level), F(batch)
    # m + K + (m/c)^2 q: the square of m/c (pow, within an ulp) counts as two
    # roundings, the quotient one, and q at most 2d, so 4d + 8 in all
    chain = 4 * d + 8
    norm_q = sum(x * x for x in a) * sum(var)
    elementwise_q = sum(x * x * v for x, v in zip(a, var))
    for tag, q in (("T16-chenlorden-I", norm_q), ("T16-chenlorden-II", elementwise_q)):
        report = sb.lorden_hyperplane_upper_bound(hyp, prof, batch, tag)
        assert report.applicable, (tag, report.failed_assumptions())
        exact = m + K + (m / c) ** 2 * q
        assert _within(report.value, exact, exact, chain), tag
    # T16-III: the batch's least and largest mean gaps, each a sum of 2d products and
    # t_coef, then the value from those two gaps
    report = sb.lorden_hyperplane_upper_bound(hyp, prof, batch, "T16-chenlorden-III")
    if prof.bounded:
        lo, hi = [F(x) for x in prof.support_lo], [F(x) for x in prof.support_hi]
        centre = sum(x * (y + z) for x, y, z in zip(a, lo, hi))
        spread = sum(abs(x) * (z - y) for x, y, z in zip(a, lo, hi))
        size = sum(abs(x) * (abs(y) + abs(z)) for x, y, z in zip(a, lo, hi)) + abs(F(hyp.t_coef))
        u_f, v_f = (report.diagnostics[k] for k in ("batch_min_mean_gap", "batch_max_mean_gap"))
        assert _within(u_f, (centre - spread) / 2 + F(hyp.t_coef), size, 2 * d + 4)
        assert _within(v_f, (centre + spread) / 2 + F(hyp.t_coef), size, 2 * d + 4)
        u, v = F(u_f), F(v_f)
        terms = (m, K * m * (u + v) / c, K * m * m * u * v / (c * c))
        assert _within(report.value, terms[0] + terms[1] - terms[2],
                       sum(abs(t) for t in terms), 8)
    else:
        assert report.failed_assumptions() == ["support-bounds"]


@settings(max_examples=150, deadline=None)
@given(case=_case())
def test_gradient_forms_match_their_exact_formulas(case):
    bundle, *_ = case
    p = bundle.premises
    prof, region = p.profile, p.continuity_view
    d, F = prof.dim, Fraction
    var, mean = [F(x) for x in prof.variance], [F(x) for x in prof.mean]
    report = bound_report("T17-gradient", bundle)
    assert report.applicable, report.failed_assumptions()
    g0, grad = F(report.diagnostics["g_at_mean"]), [F(x) for x in report.diagnostics["log_gradient"]]
    # the log-gradient -a / (<a, mean> + b): d + 1 roundings of the rate, one of the quotient
    a = [F(x) for x in region.family["s_coef"]]
    rate = sum(x * y for x, y in zip(a, mean)) + F(region.family["t_coef"])
    size = sum(abs(x * y) for x, y in zip(a, mean)) + abs(F(region.family["t_coef"]))
    for x, g in zip(a, grad):
        # a relative error e of the rate moves -x/rate by about e |x/rate|
        assert _within(float(g), -x / rate, abs(x / rate) * size / rate, 2 * d + 4)
    # g0 + 1 + q on the float gradient, q = sum g^2 var at d = 1 and |g|^2 sum var above
    q = (sum(g * g * v for g, v in zip(grad, var)) if d == 1
         else sum(g * g for g in grad) * sum(var))
    exact = g0 + 1 + q
    assert _within(report.value, exact, exact, 4 * d + 4)
    vip = bound_report("vipformula", bundle)
    if d > 1 or region.boundary_slope is None:  # a time slab at d = 1 has no boundary curve
        assert vip.failed_assumptions() == ["scalar-boundary"]
        return
    # m + 1 + var / (f'(m) - mean)^2: the difference, its square (pow, two), the quotient
    # and two sums, all of positive terms; a slope that overflowed to inf adds 0
    fprime = vip.diagnostics["boundary_slope_at_m"]
    exact = g0 + 1 + (0 if math.isinf(fprime) else var[0] / (F(fprime) - mean[0]) ** 2)
    assert _within(vip.value, exact, exact, 8)
