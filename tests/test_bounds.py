import collections
import dataclasses
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import stopbounds as sb
from stopbounds.bounds import ALL_TAGS, UPPER_TAGS, overshoot_upper_bound
from stopbounds import geometry, optimize
from stopbounds.harness import BrownianBundle, ScenarioBundle, bound_report, brownian_report, certify
from stopbounds.scenarios import brownian_cases, certification_matrix

import search_twin
from search_twin import region_from_oracle


def bundle(spec, region, schedule):
    return ScenarioBundle("test", spec, region, schedule)


def premises(region, profile, schedule):
    return sb.Premises(region, profile.mean, profile, schedule)


def test_stopping_lower_bound_examples():
    region = sb.affine_region(1.0, 10.0, "ge", "stopping")
    assert sb.stopping_region_lower_bound(region, 2.0).value == pytest.approx(10.0, abs=1e-9)
    assert sb.stopping_region_lower_bound(region, 1.0).value == math.inf
    assert sb.stopping_region_lower_bound(
        sb.constant_region(0.0, "ge", "stopping"), 1.0).value == 0.0


def test_stopping_lower_bound_requires_flags():
    region = region_from_oracle(lambda t, s: s[0] >= 5, dim=1, kind="stopping")
    report = sb.stopping_region_lower_bound(region, 1.0)
    assert not report.applicable


def test_slab_bound_point_mass():
    prof = sb.analytic_moments(sb.point_mass(1.0))
    report = sb.slab_optimization_upper_bound(
        premises(sb.constant_region(5.0), prof, sb.naturals()), "T10-upper")
    assert report.applicable
    assert report.value == pytest.approx(6.0, abs=1e-6)


def test_slab_bound_bounded_variant_against_grid():
    prof = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.5))
    region = sb.constant_region(5.0)
    report = sb.slab_optimization_upper_bound(premises(region, prof, sb.naturals()),
                                              "T11-upper-bounded")
    assert report.applicable
    # grid oracle over (t, s): envelope and support slabs intersected
    from stopbounds.bounds import bounded_support_slab

    slab = bounded_support_slab(prof, 1.0, 1.0, 0)
    best = 0.0
    for t in np.linspace(0.0, 40.0, 16001):
        lo, hi = search_twin.box(slab, t)
        if lo[0] <= min(hi[0], 5.0):
            best = t
    assert report.value == pytest.approx(1.0 * best + 1.0, abs=5e-3)


def test_slab_bound_unbounded_domain_flag():
    prof = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.5))
    conic = sb.affine_region(1.0, 5.0, "le")
    report = sb.slab_optimization_upper_bound(premises(conic, prof, sb.naturals()), "T10-upper")
    assert report.value == math.inf
    assert report.applicable  # no unique crossing: the domain is unbounded
    assert [c.status for c in report.assumptions if c.ident == "V"] == ["unchecked"]


def test_sample_mean_bound_examples():
    pm = sb.analytic_moments(sb.point_mass(1.0))
    five_over_v = sb.constant_region(5.0)  # g(v) = 5/v
    report = sb.sample_mean_upper_bound(premises(five_over_v, pm, sb.naturals()),
                                        "T13-samplemean-naturals")
    assert report.applicable and report.value == pytest.approx(7.0, abs=1e-9)

    bern = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.5))
    sched = sb.naturals(1)  # gap 1 <= start anchor 1
    report = sb.sample_mean_upper_bound(premises(five_over_v, bern, sched), "T-try88-bounded")
    assert report.applicable and report.value == pytest.approx(21.0, abs=1e-9)

    four = sb.halfspace_region([0.0], 1.0, 4.0)  # g(v) = 4: the time slab t <= 4
    report = sb.sample_mean_upper_bound(premises(four, bern, sched), "T12-samplemean")
    assert report.value == pytest.approx(1.0 + 4.0, abs=1e-12)


def test_sample_mean_bound_gate_checks():
    bern = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.5))
    five_over_v = sb.constant_region(5.0)
    report = sb.sample_mean_upper_bound(premises(five_over_v, bern, sb.naturals()),
                                        "T12-samplemean")
    assert not report.applicable  # max gap 1 exceeds start anchor 0
    exp = sb.analytic_moments(sb.exponential(1.0))
    report = sb.sample_mean_upper_bound(premises(five_over_v, exp, sb.naturals(1)),
                                        "T-try88-bounded")
    assert not report.applicable  # no support bounds


def test_sample_mean_bound_infinite_box_value():
    bern = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.5))
    region = sb.affine_region(0.5, -1.0, "ge")  # rays at slope >= 1/2 never leave
    report = sb.sample_mean_upper_bound(premises(region, bern, sb.naturals()),
                                        "T13-samplemean-naturals")
    assert report.value == math.inf
    # an oracle region takes the box search, which finds the same +inf
    oracle = region_from_oracle(region.contains, 1, convex_closure=True, contains_origin=True)
    report = sb.sample_mean_upper_bound(premises(oracle, bern, sb.naturals()),
                                        "T13-samplemean-naturals")
    assert report.value == math.inf


def test_wald_lower_bound_examples():
    # the rule g at the mean: E[N] >= 1/g(mean)
    assert sb.wald_lower_bound(0.25).value == 4.0
    assert sb.wald_lower_bound(0.5, concave=True).value == 2.0
    assert sb.wald_lower_bound(0.5).assumptions[0].status == "declared"
    assert not sb.wald_lower_bound(0.5, concave=False).applicable
    assert not sb.wald_lower_bound(-1.0).applicable
    never = sb.wald_lower_bound(0.0)
    assert never.applicable and never.value == math.inf


def test_hyperplane_vertex_bound_examples():
    pm = sb.analytic_moments(sb.point_mass(1.0))
    hyp = sb.Hyperplane([1.0], 0.0, 5.0, 5.0)
    region = sb.constant_region(5.0)
    report = sb.hyperplane_vertex_upper_bound(premises(region, pm, sb.naturals()), hyp,
                                              "T14-hyperplane")
    assert report.value == pytest.approx(6.0, abs=1e-12)

    # two-vertex arithmetic with a widened manual slab
    from stopbounds.optimize import Slab, vertex_fraction_max

    slab = Slab([0.9], [1.1], [-0.5], [0.5])
    res = vertex_fraction_max(hyp, slab)
    assert 1.0 * res.value + 1.0 == pytest.approx(64.0 / 9.0)


def test_hyperplane_vertex_bounded_variant_takes_minimum():
    prof = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.5))
    region = sb.constant_region(5.0)
    hyp = sb.supporting_hyperplane(region, prof.mean)
    report = sb.hyperplane_vertex_upper_bound(premises(region, prof, sb.naturals()), hyp,
                                              "T15-hyperplane-bounded")
    assert report.applicable
    assert report.diagnostics["winning_slab"] == "support"
    assert report.value == pytest.approx(12.0, abs=1e-6)
    # each slab's vertex maximum matches a dense grid over its cube
    from stopbounds.bounds import bounded_support_slab
    from stopbounds.optimize import Slab, vertex_fraction_max

    both = bounded_support_slab(prof, 1.0, 1.0, 0)
    for quad in (Slab(both.lower_slope, both.upper_slope, both.lower_icept,
                      both.upper_icept), both.primed):
        res = vertex_fraction_max(hyp, quad)
        a, ls, us, li, ui = map(np.array, (hyp.s_coef, quad.lower_slope, quad.upper_slope,
                                           quad.lower_icept, quad.upper_icept))
        grid = max(
            (hyp.level - float(a @ (ui + q * (li - ui)))) / (hyp.t_coef + float(a @ (us + q * (ls - us))))
            for q in np.linspace(0.0, 1.0, 2001)[:, None]
        )
        assert res.value == pytest.approx(grid, abs=1e-9)


def test_hyperplane_vertex_bound_needs_support():
    prof = sb.analytic_moments(sb.exponential(1.0))
    hyp = sb.Hyperplane([1.0], 0.0, 5.0, 5.0)
    region = sb.constant_region(5.0)
    report = sb.hyperplane_vertex_upper_bound(premises(region, prof, sb.naturals()), hyp,
                                              "T15-hyperplane-bounded")
    assert not report.applicable


def test_lorden_hyperplane_examples():
    prof = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.5))
    hyp = sb.Hyperplane([1.0], 0.0, 5.0, 10.0)
    report = sb.lorden_hyperplane_upper_bound(hyp, prof, 1, "T16-chenlorden-II")
    assert report.value == pytest.approx(12.0, abs=1e-12)
    report = sb.lorden_hyperplane_upper_bound(hyp, prof, 1, "T16-chenlorden-III")
    assert report.value == pytest.approx(12.0, abs=1e-12)
    assert report.diagnostics["batch_min_mean_gap"] == pytest.approx(0.0)
    assert report.diagnostics["batch_max_mean_gap"] == pytest.approx(1.0)
    pm = sb.analytic_moments(sb.point_mass(1.0))
    hyp = sb.Hyperplane([1.0], 0.0, 5.0, 5.0)
    report = sb.lorden_hyperplane_upper_bound(hyp, pm, 3, "T16-chenlorden-I")
    assert report.value == pytest.approx(5.0 + 3.0, abs=1e-12)


def _exact_batch_moments(hyp, x0, x1, p, batch):
    """Oracle: exact E[(Z^+)^2] for Z = t_coef*batch + s_coef * batch-sum."""
    a, b = hyp.s_coef[0], hyp.t_coef
    total = 0.0
    from scipy.stats import binom

    for k in range(batch + 1):
        z = b * batch + a * (x0 * (batch - k) + x1 * k)
        total += binom.pmf(k, batch, p) * max(z, 0.0) ** 2
    return total


@pytest.mark.parametrize("batch", [1, 2, 3])
def test_lorden_chain_is_monotone(batch):
    prof = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.25))
    region = sb.affine_region(0.5, -1.0, "ge")
    hyp = sb.supporting_hyperplane(region, prof.mean)
    m, c = hyp.anchor, hyp.level
    first = m + (1.0 / batch) * (m / c) ** 2 * _exact_batch_moments(hyp, 0, 1, 0.25, batch)
    second = m + batch + (m / c) ** 2 * float(hyp.s_coef[0] ** 2 * prof.variance[0])
    third = sb.lorden_hyperplane_upper_bound(hyp, prof, batch, "T16-chenlorden-I").value
    assert first <= second + 1e-9
    assert second <= third + 1e-9
    two = sb.lorden_hyperplane_upper_bound(hyp, prof, batch, "T16-chenlorden-II").value
    assert two == pytest.approx(second)


def test_gradient_bound_examples():
    bern = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.5))
    region = sb.constant_region(5.0)
    report = sb.gradient_upper_bound(premises(region, bern, sb.naturals()), "vipformula")
    assert report.applicable and report.value == pytest.approx(12.0, abs=1e-9)

    pm = sb.analytic_moments(sb.point_mass(1.0))
    sqrt_boundary = sb.power_region(2.0, 0.5)
    report = sb.gradient_upper_bound(premises(sqrt_boundary, pm, sb.naturals()), "T17-gradient")
    assert report.value == pytest.approx(5.0, abs=1e-6)

    report = sb.gradient_upper_bound(premises(sqrt_boundary, bern, sb.naturals()), "vipformula")
    assert report.value == pytest.approx(21.0, abs=1e-6)
    report = sb.gradient_upper_bound(premises(sqrt_boundary, bern, sb.naturals()), "T17-gradient")
    assert report.value == pytest.approx(21.0, abs=1e-4)


@pytest.mark.parametrize("region,spec", [
    (sb.constant_region(5.0), sb.bernoulli_affine(0, 1, 0.5)),
    (sb.power_region(2.0, 0.5), sb.bernoulli_affine(0, 1, 0.5)),
    (sb.power_region(2.0, 0.5), sb.exponential(1.0)),
    (sb.affine_region(0.5, -1.0, "ge"), sb.uniform_interval(-0.5, 0.5)),
    (sb.halfspace_region([-1.0], 0.0, -5.0, "ge"), sb.bernoulli_affine(-1, 1, 0.7)),
])
def test_t17_equals_vipformula_on_scalar_regions(region, spec):
    # d = 1: grad ln g = 1/(f'(m) - mean), so the quadratic form is var/(f'(m) - mean)^2
    prof = sb.analytic_moments(spec)
    t17 = sb.gradient_upper_bound(premises(region, prof, sb.naturals()), "T17-gradient")
    vip = sb.gradient_upper_bound(premises(region, prof, sb.naturals()), "vipformula")
    assert t17.applicable and vip.applicable
    assert t17.value == pytest.approx(vip.value, rel=0, abs=1e-12)
    assert t17.diagnostics["closed_scalar_form"] == pytest.approx(vip.value, rel=0, abs=1e-12)


def test_scalar_halfspace_matches_its_constant_region():
    # {-s >= -5} is {s <= 5}; the slab search reads the reported orientation
    spec = sb.bernoulli_affine(-1, 1, 0.7)
    flipped = bundle(spec, sb.halfspace_region([-1.0], 0.0, -5.0, "ge"), sb.naturals())
    plain = bundle(spec, sb.constant_region(5.0, "le"), sb.naturals())
    for tag in (t for t in ALL_TAGS if not t.startswith("Brown")):
        a, b = bound_report(tag, flipped), bound_report(tag, plain)
        assert a.applicable == b.applicable, tag
        if math.isnan(b.value):
            assert math.isnan(a.value), tag
        else:
            assert a.value == pytest.approx(b.value, rel=1e-9, abs=1e-9), tag
    t11 = bound_report("T11-upper-bounded", flipped)
    assert t11.applicable and math.isfinite(t11.value)


@pytest.mark.parametrize("spec,schedule", [(sb.exponential(1.0), sb.naturals()),
                                           (sb.uniform_interval(0.5, 1.5), sb.arithmetic(0, 3))],
                         ids=["exponential-naturals", "uniform-arith"])
def test_flat_threshold_forms_give_identical_lorden_reports(spec, schedule):
    forms = [sb.constant_region(2.5, "ge", "stopping"),
             sb.affine_region(0.0, 2.5, "ge", "stopping"),
             sb.halfspace_region([1.0], 0.0, 2.5, "ge", "stopping"),
             sb.halfspace_region([-1.0], 0.0, -2.5, "ge")]  # continuity {s <= 2.5}
    for tag in ("Lorden-T6", "Lorden-T7"):
        reports = [bound_report(tag, bundle(spec, region, schedule)) for region in forms]
        assert "constant-threshold" not in reports[0].failed_assumptions(), tag
        # T6 on the arithmetic schedule fails all-naturals and carries no value
        assert math.isfinite(reports[0].value) == reports[0].applicable, tag
        assert all(r == reports[0] for r in reports[1:]), tag
    sloped = bundle(spec, sb.affine_region(0.1, 2.5, "ge", "stopping"), schedule)
    assert bound_report("Lorden-T6", sloped).failed_assumptions() == ["constant-threshold"]


def test_gradient_bound_gates():
    bern = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.5))
    region = sb.constant_region(5.0)
    report = sb.gradient_upper_bound(premises(region, bern, sb.arithmetic(0, 2)), "T17-gradient")
    assert not report.applicable  # needs every sample size


def test_calculators_take_only_the_report_tags():
    # one name per theorem: a calculator computes the tag it is given, and
    # refuses a short name or another calculator's tag
    prof = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.5))
    p = premises(sb.constant_region(5.0), prof, sb.naturals())
    hyp = sb.Hyperplane([1.0], 0.0, 5.0, 10.0)
    calls = {
        "T10-upper": lambda tag: sb.slab_optimization_upper_bound(p, tag),
        "T13-samplemean-naturals": lambda tag: sb.sample_mean_upper_bound(p, tag),
        "T15-hyperplane-bounded": lambda tag: sb.hyperplane_vertex_upper_bound(p, hyp, tag),
        "T16-chenlorden-III": lambda tag: sb.lorden_hyperplane_upper_bound(hyp, prof, 1, tag),
        "vipformula": lambda tag: sb.gradient_upper_bound(p, tag),
        "Lorden-T6": lambda tag: overshoot_upper_bound(sb.exponential(1.0), 1.0,
                                                       sb.naturals(), tag),
    }
    for tag, call in calls.items():
        assert call(tag).theorem == tag
        for wrong in ("T10", "II", "T6", "T17", "T18-concentration"):
            with pytest.raises(ValueError):
                call(wrong)


def _series_oracle_mpmath(n_start, dev_fn, width=1.0):
    mpmath.mp.dps = 40
    total = mpmath.mpf(0)
    n = n_start
    while True:
        dev = dev_fn(n)
        term = mpmath.e ** (-2 * n * mpmath.mpf(dev) ** 2 / width**2)
        total += term
        if term < mpmath.mpf("1e-18"):
            break
        n += 1
    return float(n_start + total)


def test_concentration_bound_affine_example():
    prof = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.25))
    region = sb.affine_region(0.5, -1.0, "ge")
    report = sb.concentration_upper_bound(premises(region, prof, sb.naturals()))
    # the slice lies above the mean, so the one-sided scalar tail is summed
    assert report.diagnostics["slice_side_at_N_tau"] == "above"
    assert report.diagnostics["one_sided"]
    # high-precision re-summation oracle of 5 + sum exp(-2n(1/4 - 1/n)^2)
    oracle = _series_oracle_mpmath(5, lambda n: 0.25 - 1.0 / n)
    assert report.applicable
    assert report.value == pytest.approx(oracle, abs=1e-9)
    assert report.value == pytest.approx(15.0446780973667416, abs=1e-9)


def test_concentration_point_mass_collapses_to_first_check():
    prof = sb.analytic_moments(sb.point_mass(1.0))
    region = sb.constant_region(5.0)
    report = sb.concentration_upper_bound(premises(region, prof, sb.naturals()))
    assert report.value == pytest.approx(6.0, abs=1e-12)


def test_concentration_t19_matches_t18_on_halfspace():
    prof = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.25))
    region = sb.affine_region(0.5, -1.0, "ge")
    hyp = sb.supporting_hyperplane(region, prof.mean)
    t18 = sb.concentration_upper_bound(premises(region, prof, sb.naturals()))
    t19 = sb.concentration_upper_bound(premises(region, prof, sb.naturals()), hyp=hyp)
    assert (t18.theorem, t19.theorem) == ("T18-concentration", "T19-concentration-hyperplane")
    assert t19.value == pytest.approx(t18.value, abs=1e-9)


def test_concentration_needs_support_for_hoeffding():
    prof = sb.analytic_moments(sb.exponential(1.0))
    region = sb.constant_region(5.0)
    report = sb.concentration_upper_bound(premises(region, prof, sb.naturals()))
    assert not report.applicable


def test_concentration_vector_variant_d2():
    spec = sb.product([sb.bernoulli_affine(0, 1, 0.5), sb.bernoulli_affine(0, 1, 0.5)])
    prof = sb.analytic_moments(spec)
    region = sb.halfspace_region([1.0, 1.0], 0.0, 5.0, "le", "continuity")
    report = sb.concentration_upper_bound(premises(region, prof, sb.geometric(1, 2.0)))
    assert report.applicable
    assert not report.diagnostics["one_sided"]
    est = sb.run_discrete(region, spec, sb.geometric(1, 2.0), 10_000, seed=5)
    assert report.value >= est.mean - 4.0 * est.stderr
    # the two-sided vector tail, which no snapshot row (all d = 1) reaches, pinned
    # bit for bit on both series: the plane of a halfspace is the halfspace
    hyp = sb.supporting_hyperplane(region, prof.mean)
    t19 = sb.concentration_upper_bound(premises(region, prof, sb.geometric(1, 2.0)), hyp=hyp)
    assert report.value == t19.value == 17.460274096760507


def test_concentration_user_tail():
    prof = sb.analytic_moments(sb.gaussian(0.5, 0.5))
    region = sb.constant_region(5.0)

    def gauss_tail(n, dev):  # exact one-sided gaussian mean tail
        return math.erfc(dev * math.sqrt(n) / (0.5 * math.sqrt(2.0))) / 2.0

    report = sb.concentration_upper_bound(premises(region, prof, sb.naturals()),
                                          user_tail=gauss_tail)
    assert report.applicable
    assert report.value > report.diagnostics["N_tau"]
    assert report.value == 12.302896357794216  # pinned bit for bit: no snapshot row has a user tail


@pytest.mark.parametrize("coef,exponent", [(-8.0, 0.25), (-4.0, 0.5)])
def test_concentration_at_an_exact_tie_counts_the_touching_look(coef, exponent):
    # -1 per step touches s = coef * n**exponent at n = 16 and leaves at 17,
    # so E[N] = 17.  At exponent 0.25 the crossing computes as
    # 15.999999999999998; with N_tau taken above that value T19 would read
    # 16.0, since the zero-width Hoeffding tail of the slice at 16, just past
    # the anchor, drops its term
    region = sb.power_region(coef, exponent, "ge")
    prof = sb.analytic_moments(sb.point_mass(-1.0))
    hyp = sb.supporting_hyperplane(region, prof.mean)
    for plane in (None, hyp):
        report = sb.concentration_upper_bound(premises(region, prof, sb.naturals()), hyp=plane)
        assert report.applicable and report.value == 17.0
    est = sb.run_discrete(region, sb.point_mass(-1.0), sb.naturals(), 100, seed=1)
    assert est.mean == 17.0 and est.stderr == 0.0


@pytest.mark.parametrize("d", [1, 2])
def test_concentration_on_a_time_slab_reads_the_sure_stop(d):
    # {t <= 3} has empty slices past the crossing m = 3: every walk stops at
    # n = 4, so E[N] = 4.  T18 read EmptySliceError from the slice, and T19 at
    # d = 2 divided by its plane's zero norm
    step = sb.bernoulli_affine(0, 1, 0.5)
    row = bundle(sb.product([step] * d) if d > 1 else step,
                 sb.halfspace_region([0.0] * d, 1.0, 3.0), sb.naturals())
    for tag in ("T18-concentration", "T19-concentration-hyperplane"):
        report = bound_report(tag, row)
        assert report.applicable and report.value == 4.0
        assert report.diagnostics["N_tau"] == 4
    est = sb.run_discrete(row.region, row.spec, row.schedule, 100, seed=1)
    assert est.mean == 4.0 and est.stderr == 0.0


def test_oracle_slice_search_without_a_member_reads_inapplicable():
    # the search cannot tell an empty slice from a missed one, so T18 on an
    # oracle time slab is inapplicable rather than a raised EmptySliceError
    slab = region_from_oracle(lambda t, s: t <= 3.0, 1, convex_closure=True,
                              contains_origin=True)
    report = bound_report("T18-concentration",
                          bundle(sb.bernoulli_affine(0, 1, 0.5), slab, sb.naturals()))
    assert not report.applicable and report.failed_assumptions() == ["geometry"]


def test_overshoot_bound_examples():
    report = overshoot_upper_bound(sb.exponential(1.0), math.log(2.0), sb.naturals(), "Lorden-T6")
    assert report.value == pytest.approx(1.5, abs=1e-12)
    report = overshoot_upper_bound(sb.point_mass(1.0), 0.5, sb.naturals(), "Lorden-T6")
    assert report.value == pytest.approx(0.5, abs=1e-12)
    # schedule-aware variant, threshold 3, checks every second sample
    report = overshoot_upper_bound(sb.exponential(1.0), 3.0, sb.arithmetic(0, 2), "Lorden-T7")
    lam = 3.0
    pr = 1.0 - math.exp(-lam) * (1.0 + lam)
    pe = math.exp(-lam) * (lam + 2.0)
    assert report.value == pytest.approx((1.0 + 2.0) * pr + pe, abs=1e-12)


def test_overshoot_bound_random_threshold():
    lam_spec = sb.bernoulli_affine(0.5, 1.5, 0.5)
    report = overshoot_upper_bound(sb.exponential(1.0), lam_spec, sb.naturals(), "Lorden-T6")
    manual = 0.5 * (2.0 * (1 - math.exp(-0.5)) + math.exp(-0.5)) + \
        0.5 * (2.0 * (1 - math.exp(-1.5)) + math.exp(-1.5))
    assert report.value == pytest.approx(manual, abs=1e-12)


def test_overshoot_bound_gates():
    report = overshoot_upper_bound(sb.gaussian(0.0, 1.0), 1.0, sb.naturals(), "Lorden-T6")
    assert not report.applicable  # mean is not positive
    report = overshoot_upper_bound(sb.uniform_interval(-1, 2), 1.0, sb.arithmetic(0, 2),
                                   "Lorden-T7")
    assert not report.applicable  # increments not strictly positive
    report = overshoot_upper_bound(sb.exponential(1.0), 1.0, sb.geometric(1, 2.0), "Lorden-T7")
    assert not report.applicable  # unbounded gaps


def test_brownian_bound_examples():
    def brown(tag, region, drift):
        return brownian_report(tag, BrownianBundle("example", region, drift=drift,
                                                   diffusion=1.0, dt=0.01))

    region = sb.constant_region(4.0)
    report = brown("Brown1", region, 0.5)
    assert report.value == pytest.approx(8.0, abs=1e-9)
    stopping = sb.affine_region(1.0, 10.0, "ge", "stopping")
    report = brown("Brown2-lower", stopping, 2.0)
    assert report.direction == "lower" and report.value == pytest.approx(10.0, abs=1e-9)
    report = brown("Brown2-upper", stopping, 2.0)
    assert report.value == math.inf
    # the rule function g(v) = 4/v: Brown3 is g at the drift, Brown4 is 1/(1/g)
    report = brown("Brown3", region, 0.5)
    assert report.value == pytest.approx(8.0)
    report = brown("Brown4", region, 0.5)
    assert report.direction == "lower" and report.value == pytest.approx(8.0)


def test_degenerate_noise_collapse():
    b = bundle(sb.point_mass(1.0), sb.constant_region(5.0), sb.naturals())
    m = sb.mean_ray_crossing(b.premises.continuity_view, 1.0)
    for tag in ("T10-upper", "T11-upper-bounded", "T14-hyperplane",
                "T15-hyperplane-bounded", "T16-chenlorden-I", "T16-chenlorden-II",
                "T16-chenlorden-III", "T17-gradient", "vipformula",
                "T18-concentration", "T19-concentration-hyperplane",
                "T13-samplemean-naturals"):
        report = bound_report(tag, b)
        assert report.applicable, (tag, report.failed_assumptions())
        assert math.isfinite(report.value), tag
        assert report.value >= m - 1e-9, tag


def _coin_halfspace(d, p=0.5):
    """A walk of d Bernoulli(p) coins in the continuity region below the plane sum(s) = 5 d."""
    return bundle(sb.product([sb.bernoulli_affine(0, 1, p)] * d),
                  sb.halfspace_region([1.0] * d, 0.0, 5.0 * d), sb.naturals())


@pytest.mark.parametrize("d,p", [(3, 0.5), (2, 0.3), (5, 0.5)])
def test_t16_ii_applies_to_product_laws(d, p):
    # a product law's components are independent by construction, so the elementwise
    # form applies at every dimension: 11.33, 18.83 and 11.2 against E[N] of about
    # 11.00, 18.55 and 10.80, below the norm chain member T16-I
    b = _coin_halfspace(d, p)
    first, second = (bound_report(tag, b) for tag in ("T16-chenlorden-I", "T16-chenlorden-II"))
    assert second.applicable and second.value <= first.value
    estimate = sb.run_discrete(b.region, b.spec, b.schedule, 100_000, seed=31)
    assert [row.verdict for row in certify([second], estimate)] == ["pass"]
    # a profile that does not know its coordinates independent keeps the check failing
    prof = dataclasses.replace(b.premises.profile, independent=False)
    report = sb.lorden_hyperplane_upper_bound(b.premises.hyperplane, prof, 1, "T16-chenlorden-II")
    assert report.failed_assumptions() == ["independent-components"]


@pytest.mark.parametrize("d", [21, 40])
def test_vertex_bound_rounds_the_exact_ratio_up(d):
    # T15 on d fair coins reads 12 on the exact plane, and its float form once read
    # 11.999999999999998: the value is now lam * N*/D* + K on the rounded plane, in
    # exact arithmetic at the winning vertex, rounded up
    b = _coin_halfspace(d)
    report = bound_report("T15-hyperplane-bounded", b)
    assert report.applicable and report.value >= 12.0
    p, q = b.premises, report.diagnostics["vertex"]
    hyp, slab = p.hyperplane, p.support_slab.primed
    assert report.diagnostics["winning_slab"] == "support"
    num = Fraction(hyp.level) - sum(
        Fraction(a) * (Fraction(ui) + k * (Fraction(li) - Fraction(ui)))
        for a, ui, li, k in zip(hyp.s_coef, slab.upper_icept, slab.lower_icept, q))
    den = Fraction(hyp.t_coef) + sum(
        Fraction(a) * (Fraction(us) + k * (Fraction(ls) - Fraction(us)))
        for a, us, ls, k in zip(hyp.s_coef, slab.upper_slope, slab.lower_slope, q))
    exact = Fraction(p.schedule.lam) * num / den + Fraction(p.schedule.K)
    assert Fraction(report.value) >= exact > Fraction(math.nextafter(report.value, -math.inf))


def test_inapplicable_report_carries_no_consumable_value():
    b = bundle(sb.exponential(1.0), sb.constant_region(5.0), sb.naturals())
    report = bound_report("T15-hyperplane-bounded", b)
    assert not report.applicable
    assert math.isnan(report.value)


def test_t14_zero_vertex_denominator_gives_an_applicable_infinity():
    # the square-root boundary's supporting plane makes the deviation slab's
    # smallest vertex denominator exactly 0: the vertex maximum is unbounded
    row = next(r for r in certification_matrix(10) if r["bundle"].name == "sqrt-bernoulli-naturals")
    report = bound_report("T14-hyperplane", row["bundle"])
    assert report.applicable and report.value == math.inf
    assert report.diagnostics["min_denominator"] == 0.0
    check = next(c for c in report.assumptions if c.ident == "denominator-positive")
    assert check.status == "unchecked" and "unbounded" in check.note
    # a negative smallest denominator still fails the proviso
    p = row["bundle"].premises
    hyp = p.hyperplane
    steeper = sb.Hyperplane(hyp.s_coef, hyp.t_coef - 1.0, hyp.level, hyp.anchor)
    report = sb.hyperplane_vertex_upper_bound(p, steeper, "T14-hyperplane")
    assert not report.applicable and math.isnan(report.value)
    assert report.failed_assumptions() == ["denominator-positive"]


@pytest.mark.parametrize("tag", ["T10-upper", "T11-upper-bounded", "T17-gradient",
                                 "T18-concentration", "Brown1"])
def test_mean_ray_that_never_exits_gives_an_applicable_infinity(tag):
    # drift 1/2 under the boundary s = t + 2 of slope 1: the mean ray stays inside
    region = sb.affine_region(1.0, 2.0, "le")
    if tag == "Brown1":
        report = brownian_report(tag, BrownianBundle("never-exits", region, drift=0.5,
                                                     diffusion=1.0, dt=0.01))
    else:
        report = bound_report(tag, bundle(sb.bernoulli_affine(0, 1, 0.5), region, sb.naturals()))
    assert report.value == math.inf
    assert report.applicable and report.failed_assumptions() == []
    check = next(c for c in report.assumptions if c.ident == "V")
    assert check.status == "unchecked" and "never exits" in check.note


def test_t8_entries_on_the_affine_scenarios_are_exact():
    # the mean ray meets s = t/2 - 1 at t = 4 and s = t/4 + 2 at t = 8, both
    # doubling probe points; a lower bound above the entry would not hold
    rows = {r["bundle"].name: r["bundle"] for r in certification_matrix(10)}
    assert bound_report("T8-lower", rows["affine-bernoulli-naturals"]).value == 4.0
    assert bound_report("T8-lower", rows["affine-pointmass-arith"]).value == 8.0


def test_shipped_bound_reports_never_search(monkeypatch):
    # every shipped region is a built-in family, answered by closed forms: a
    # call of the box search or its golden-section kernel fails here
    calls = collections.Counter()
    for owner, name in ((optimize, "max_concave_over_box"), (optimize, "golden_section_max")):
        def counted(*args, _name=name, _search=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _search(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    reports = [bound_report(tag, row["bundle"])
               for row in certification_matrix(10) for tag in row["tags"]]
    reports += [brownian_report(tag, case["bundle"])
                for case in brownian_cases(10) for tag in case["tags"]]
    assert len(reports) == 155 and calls == {}
    # the counters see the searches: the box maximum of an oracle twin goes through both
    oracle = region_from_oracle(lambda t, s: s[0] <= 5.0, 1, convex_closure=True,
                                contains_origin=True)
    prof = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.5))
    report = sb.sample_mean_upper_bound(premises(oracle, prof, sb.naturals()),
                                        "T13-samplemean-naturals")
    assert report.value == pytest.approx(2.0 + 5.0 / 0.25, rel=1e-8)  # box [0.25, 0.75]
    assert calls["max_concave_over_box"] == 1 and calls["golden_section_max"] == 1


def test_shipped_bound_reports_probe_membership_only_in_slice_side(monkeypatch):
    # built-in ray exits answer from the coefficients alone, with no origin
    # probe and no audit probe around the exit; what is left is slice_side's
    # one slack evaluation per bundle with d = 1 T18/T19 reports, which share N_tau
    callers = collections.Counter()
    contains = geometry.Region.contains

    def counted(self, *args, **kwargs):
        callers[sys._getframe(1).f_code.co_name] += 1
        return contains(self, *args, **kwargs)

    monkeypatch.setattr(geometry.Region, "contains", counted)
    reports = [bound_report(tag, row["bundle"])
               for row in certification_matrix(10) for tag in row["tags"]]
    reports += [brownian_report(tag, case["bundle"])
                for case in brownian_cases(10) for tag in case["tags"]]
    assert len(reports) == 155 and callers == {"slice_side": 11}
    # the counter sees the probes of an oracle region's search and audit
    oracle = region_from_oracle(lambda t, s: s[0] <= 5.0, 1, convex_closure=True,
                                contains_origin=True)
    assert sb.ray_exit_time(oracle, 1.0) == pytest.approx(5.0, abs=1e-8)
    assert callers["member"] > 0


def test_shipped_slab_reports_make_no_search(monkeypatch):
    # T10's plain slab and T11's primed slab are both closed forms on a
    # built-in region: no slab box is built at a t to be tested
    calls = collections.Counter()
    for owner, name in ((search_twin, "box"), (search_twin, "bisect"),
                        (search_twin.OracleRegion, "_meets_box")):
        def counted(*args, _name=name, _search=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _search(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    reports = [bound_report(tag, row["bundle"])
               for row in certification_matrix(10) for tag in row["tags"]]
    reports += [brownian_report(tag, case["bundle"])
                for case in brownian_cases(10) for tag in case["tags"]]
    assert len(reports) == 155 and calls == {}
    # the counters see an oracle region's slab search
    oracle = region_from_oracle(lambda t, s: s[0] <= 5.0, 1, convex_closure=True,
                                contains_origin=True)
    res = sb.max_time_in_region(oracle, sb.Slab([1.0], [1.0], [0.0], [0.0]))
    assert res.value == pytest.approx(5.0, abs=1e-8)
    assert calls["box"] > 0 and calls["bisect"] > 0 and calls["_meets_box"] > 0


@pytest.mark.parametrize("name,exact_mean", [
    ("const-pointmass-naturals", 6), ("affine-pointmass-arith", 10),
    ("sqrt-pointmass-naturals", 5)])
def test_t10_holds_with_no_slack_on_the_point_mass_rows(name, exact_mean):
    # a point mass makes N sure, so Monte Carlo reads its mean with stderr 0
    # and a T10 a single ulp low would fail certification; on the constant
    # and square-root rows T10 is tight
    bundle = next(r["bundle"] for r in certification_matrix(10) if r["bundle"].name == name)
    report = bound_report("T10-upper", bundle)
    assert report.applicable and report.value >= exact_mean
    if name != "affine-pointmass-arith":
        assert report.value == exact_mean


def test_matrix_reports_agree_with_those_of_the_oracle_twins():
    # each matrix row against its region as a bare predicate, tag by tag: the
    # closed forms against the searches.  A twin has no complement (T8, the
    # stopping row, Lorden) and no boundary slope (vipformula), so those
    # reports differ by design; the others agree where both are finite
    compared, tags = 0, set()
    for row in certification_matrix(10):
        built_in, r = row["bundle"], row["bundle"].region
        twin = dataclasses.replace(built_in, region=region_from_oracle(
            r.contains, r.dim, r.kind, r.convex_closure, r.contains_origin))
        for tag in row["tags"]:
            closed, searched = bound_report(tag, built_in), bound_report(tag, twin)
            if (closed.applicable and searched.applicable
                    and math.isfinite(closed.value) and math.isfinite(searched.value)):
                assert searched.value == pytest.approx(closed.value, rel=1e-6), (built_in.name, tag)
                compared += 1
                tags.add(tag)
    assert compared == 101 and len(tags) == 15


@pytest.mark.parametrize("exponent", [0.3, 0.5])
def test_brown4_is_inapplicable_on_power_boundaries(exponent):
    # 1/g = (v/2)^(1/(1 - e)) is strictly convex: at e = 0.3 Brown4 read an
    # applicable 7.2458 while Euler reads E[tau] = 6.31 +- 0.11, and at
    # e = 0.5 an applicable 16 while tau = 0
    case = BrownianBundle("power", sb.power_region(2.0, exponent, "le", "continuity"),
                          drift=0.5, diffusion=1.0, dt=0.01)
    report = brownian_report("Brown4", case)
    assert not report.applicable and report.failed_assumptions() == ["g-concave"]
    flat = BrownianBundle("flat", sb.constant_region(4.0), drift=0.5, diffusion=1.0, dt=0.01)
    report = brownian_report("Brown4", flat)  # 1/g = v/4 is affine
    assert report.applicable and report.assumptions[0].status == "pass"


def test_wald_lower_bound_is_inapplicable_on_a_power_row_without_declarations():
    row = bundle(sb.bernoulli_affine(0, 1, 0.5), sb.power_region(2.0, 0.5), sb.naturals())
    report = bound_report("T-UseWald-lower", row)
    assert not report.applicable and report.failed_assumptions() == ["g-concave"]
    # concavity of 1/g is computed: pass on a flat row
    flat = bundle(sb.bernoulli_affine(0, 1, 0.5), sb.constant_region(5.0), sb.naturals())
    report = bound_report("T-UseWald-lower", flat)
    assert report.applicable and report.assumptions[0].status == "pass"


def test_start_containment_is_computed_from_the_support_of_the_start_sum():
    def iv(region, prof, schedule):
        report = sb.slab_optimization_upper_bound(premises(region, prof, schedule), "T10-upper")
        return next(c.status for c in report.assumptions if c.ident == "IV")

    region = sb.constant_region(5.0)
    bern = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.5))
    assert iv(region, bern, sb.naturals(5)) == "pass"  # S_5 <= 5
    assert iv(region, bern, sb.naturals(6)) == "fail"  # S_6 = 6 with probability 1/64
    exp = sb.analytic_moments(sb.exponential(1.0))
    assert iv(region, exp, sb.naturals()) == "pass"  # at n0 = 0, the origin
    assert iv(region, exp, sb.naturals(1)) == "fail"  # S_1 is unbounded above
    # the search twin reads the same from the corners of the box of sums
    twin = region_from_oracle(region.contains, 1, convex_closure=True, contains_origin=True)
    for prof, n0, status in ((bern, 5, "pass"), (bern, 6, "fail"), (exp, 0, "pass"),
                             (exp, 1, "fail")):
        assert iv(twin, prof, sb.naturals(n0)) == status, (n0, status)


@pytest.mark.parametrize("tag", ["T-UseWald-lower", "Brown4"])
def test_reciprocal_rule_of_a_never_exiting_ray_gives_an_applicable_infinity(tag):
    # 1/g at g = +inf is 0: the rule at the mean never stops, as T8-lower and T10 find
    region = sb.affine_region(1.0, 2.0, "le")
    if tag == "Brown4":
        report = brownian_report(tag, BrownianBundle("never-exits", region, drift=0.5,
                                                     diffusion=1.0, dt=0.01))
    else:
        report = bound_report(tag, bundle(sb.bernoulli_affine(0, 1, 0.5), region, sb.naturals()))
    assert report.direction == "lower" and report.value == math.inf
    assert report.applicable and report.failed_assumptions() == []
    check = next(c for c in report.assumptions if c.ident == "g-positive-at-mean")
    assert check.status == "unchecked" and "+inf" in check.note


def test_reciprocal_rule_function_maps_zero_and_infinity():
    # Brown4 reads its rule 1/g at the drift: 1/inf = 0, 1/0 = inf and 1/8
    never, at_once = sb.affine_region(1.0, 2.0, "le"), sb.constant_region(0.0)
    views = [BrownianBundle(name, region, drift=0.5, diffusion=1.0, dt=0.01)
             for name, region in (("never", never), ("at-once", at_once),
                                  ("finite", sb.constant_region(4.0)))]
    rules = [brownian_report("Brown4", b).diagnostics["g_at_mean"] for b in views]
    assert rules == [0.0, math.inf, 0.125]
    # g(drift) = 0: Brown3 stays inapplicable, Brown4 is the true lower bound 1/(1/0) = 0
    brown3 = brownian_report("Brown3", views[1])
    assert not brown3.applicable and math.isnan(brown3.value)
    assert brown3.failed_assumptions() == ["g-positive-at-mean"]
    brown4 = brownian_report("Brown4", views[1])
    assert brown4.applicable and brown4.value == 0.0


# a finite look list is never checked after its last look: its last gap is +inf

def test_explicit_list_makes_t15_inapplicable():
    # every gap up to the 69th look is 1, yet almost every run stops at 5000
    sparse = bundle(sb.bernoulli_affine(0, 1, 0.01), sb.constant_region(5.0),
                    sb.explicit(list(range(1, 70)) + [5000]))
    report = bound_report("T15-hyperplane-bounded", sparse)
    assert not report.applicable and math.isnan(report.value)
    assert report.failed_assumptions() == ["I", "II"]
    est = sb.run_discrete(sparse.region, sparse.spec, sparse.schedule, 2000, seed=1)
    assert est.mean - 4.0 * est.stderr > 600.0  # T15 from the first 64 looks alone: 600


def test_explicit_list_makes_lorden_t7_inapplicable():
    threshold = bundle(sb.exponential(1.0), sb.constant_region(5.0, "ge", "stopping"),
                       sb.explicit([3, 6, 9, 20009]))
    report = bound_report("Lorden-T7", threshold)
    assert not report.applicable and report.failed_assumptions() == ["finite-max-gap"]
    # runs below 5 at the ninth sample overshoot by about 20 000 at the last look
    est = sb.run_discrete(threshold.region, threshold.spec, threshold.schedule, 2000, seed=1,
                          overshoot_level=5.0)
    mean, stderr = est.extras["overshoot"]
    assert mean - 4.0 * stderr > 100.0  # T7 from the gap K = 3 of the first looks: 3.67


def test_explicit_list_gets_no_upper_bound():
    # looks at 1, 2 and 3 only: no run ever leaves {s <= 5}
    short = bundle(sb.bernoulli_affine(0, 1, 0.5), sb.constant_region(5.0), sb.explicit([1, 2, 3]))
    for tag in UPPER_TAGS:
        if not tag.startswith("Brown"):
            report = bound_report(tag, short)
            assert not report.applicable and math.isnan(report.value), tag
    assert bound_report("T8-lower", short).applicable  # lower bounds do not read the schedule
    with pytest.raises(sb.AllTruncatedError):
        sb.run_discrete(short.region, short.spec, short.schedule, 200, horizon=10**6, seed=1)
    # the calculators called directly run the same schedule checks
    decades = sb.explicit([1, 2, 3] + [10 * 2**k for k in range(7)])
    p = premises(short.region, short.premises.profile, decades)
    direct = sb.hyperplane_vertex_upper_bound(p, short.premises.hyperplane, "T14-hyperplane")
    assert {"I", "II"} <= set(direct.failed_assumptions())
    gradient = sb.gradient_upper_bound(p, "T17-gradient")
    assert gradient.failed_assumptions() == ["all-naturals"]
    t6 = overshoot_upper_bound(sb.exponential(1.0), 5.0, decades, "Lorden-T6")
    assert t6.failed_assumptions() == ["all-naturals"]
    assert t6.assumptions[-1].ident == "all-naturals"
