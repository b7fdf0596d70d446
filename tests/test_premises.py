"""The premises a bundle shares among its calculators: derived once, leaking nothing.

A bundle derives the hypotheses, the mean-ray crossing, the slabs and the
start of the concentration series once, on first use, and every calculator
reads them from there (``bounds.Premises``).  These tests check that no
report depends on which reports the bundle made before it, that each shared
premise is derived at most once per bundle, and that the concentration
series, one weight call per term, sums the same terms as a plain re-summation.
"""

import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stopbounds as sb
from stopbounds import bounds, geometry, harness
from stopbounds.bounds import THEOREMS
from stopbounds.harness import BrownianBundle, ScenarioBundle, bound_report, brownian_report
from stopbounds.scenarios import brownian_cases, certification_matrix

from search_twin import region_from_oracle

DISCRETE_TAGS = tuple(tag for tag, theorem in THEOREMS.items() if not theorem.brownian)
BROWNIAN_TAGS = tuple(tag for tag, theorem in THEOREMS.items() if theorem.brownian)
BERNOULLI = sb.bernoulli_affine(0, 1, 0.5)


def _shipped():
    cases = [(row["bundle"], row["tags"], bound_report) for row in certification_matrix(10)]
    cases += [(case["bundle"], case["tags"], brownian_report) for case in brownian_cases(10)]
    return cases


def _error_paths():
    flat_outside = sb.constant_region(-1.0, "le")
    # a power boundary's region above the curve, with the convexity flag misstated
    non_convex = dataclasses.replace(sb.power_region(2.0, 0.5, "ge"), convex_closure=True)
    never_exits = sb.affine_region(1.0, 2.0, "le")
    oracle = region_from_oracle(lambda t, s: s[0] <= 5.0, 1, convex_closure=True,
                                contains_origin=True)
    discrete = [
        ScenarioBundle("origin-outside", BERNOULLI, flat_outside, sb.naturals()),
        ScenarioBundle("non-convex-side", BERNOULLI, non_convex, sb.naturals()),
        ScenarioBundle("never-exits", BERNOULLI, never_exits, sb.naturals()),
        ScenarioBundle("oracle", BERNOULLI, oracle, sb.naturals()),
        ScenarioBundle("explicit", BERNOULLI, sb.constant_region(5.0), sb.explicit([1, 2, 3])),
    ]
    brownian = [BrownianBundle(name, region, drift=0.5, diffusion=1.0, dt=0.01)
                for name, region in (("origin-outside", flat_outside),
                                     ("non-convex-side", non_convex),
                                     ("never-exits", never_exits))]
    return ([(b, DISCRETE_TAGS, bound_report) for b in discrete]
            + [(b, BROWNIAN_TAGS, brownian_report) for b in brownian])


def _fingerprint(report):
    return (report.theorem, report.direction, repr(report.value),
            [(c.ident, c.status, c.note) for c in report.assumptions], repr(report.diagnostics))


def test_error_paths_reach_the_geometry_failures():
    # the error-path bundles below do raise: the comparison covers premises that raise
    notes = {b.name: bound_report("T10-upper", b) for b, _, fn in _error_paths()
             if fn is bound_report}
    assert notes["origin-outside"].failed_assumptions() == ["geometry"]
    assert "contains_origin" in notes["origin-outside"].assumptions[0].note
    assert "non-convex side" in notes["non-convex-side"].assumptions[0].note
    assert notes["never-exits"].value == math.inf


@pytest.mark.parametrize("case", _shipped() + _error_paths(),
                         ids=lambda c: f"{type(c[0]).__name__}-{c[0].name}")
def test_no_premise_leaks_between_reports(case):
    bundle, tags, report_fn = case
    alone = {tag: _fingerprint(report_fn(tag, dataclasses.replace(bundle))) for tag in tags}
    shared = dataclasses.replace(bundle)
    # in order, each report follows the ones before it; in reverse, after the
    # first pass, each follows every other tag
    first = {tag: _fingerprint(report_fn(tag, shared)) for tag in tags}
    after_all = {tag: _fingerprint(report_fn(tag, shared)) for tag in reversed(tags)}
    for tag in tags:
        assert first[tag] == alone[tag], tag
        assert after_all[tag] == alone[tag], tag


def test_shipped_bundles_derive_each_shared_premise_at_most_once(monkeypatch):
    calls, exits = collections.Counter(), collections.Counter()
    means = {}

    def counting(owner, name, key, at_mean=False, counter=calls):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            if not at_mean or np.array_equal(np.atleast_1d(args[1]), means["mean"]):
                counter[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(bounds, "ray_exit_time", "g(mean)", at_mean=True)
    counting(bounds, "mean_ray_crossing", "g(mean)", at_mean=True)
    counting(harness, "ray_exit_time", "g(mean)", at_mean=True)
    counting(bounds, "audit_assumptions", "audit_assumptions")
    counting(geometry.FamilyRegion, "contains_sums", "contains_sums")
    counting(bounds, "slice_side", "slice_side")
    counting(geometry.FamilyRegion, "entry_and_exit", "entry_and_exit")
    counting(geometry.FamilyRegion, "ray_exit", "ray_exit(mean)", at_mean=True, counter=exits)
    per_bundle, reports = {}, 0
    for bundle, tags, report_fn in _shipped():
        calls.clear()
        means["mean"] = np.atleast_1d(
            bundle.drift if isinstance(bundle, BrownianBundle) else bundle.premises.profile.mean)
        for tag in tags:
            report_fn(tag, bundle)
            reports += 1
        per_bundle[bundle.name] = dict(calls)
    assert reports == 155
    assert all(n == 1 for counts in per_bundle.values() for n in counts.values()), per_bundle
    # the counters see each premise where it is read: g(mean) on every bundle
    # but the stopping line's (Brown2 reads the stopping view), the audit on
    # every discrete bundle, the start sum where n0 > 0, the side where T18/T19
    # run, T8's ray on the bundles with T8 or Brown2
    totals = collections.Counter()
    for counts in per_bundle.values():
        totals.update(counts)
    assert totals == {"g(mean)": 15, "audit_assumptions": 13, "contains_sums": 3,
                      "slice_side": 11, "entry_and_exit": 10}
    # the ray exits at the mean: the 15 premises, one crossing per plane (13),
    # one per T17 gradient (8) and one box maximum with a corner at the mean
    assert exits == {"ray_exit(mean)": 37}


# ---------------------------------------------------------------------------
# The concentration series, re-summed term by term
# ---------------------------------------------------------------------------


def _resummed(region, profile, schedule, hyp, user_tail, diag):
    """(value, terms) of the series summed from the plain deviation and tail functions.

    The deviation is ``hyperplane_slice_distance`` for T19, |mean - f(n)/n|
    on a d = 1 boundary curve s = f(t) (which ``slice_distance`` rounds
    differently), and ``slice_distance`` elsewhere.
    """
    mu, d = profile.mean, profile.dim
    f = region.scalar_boundary if d == 1 else None
    widths = ([b - a for a, b in zip(profile.support_lo, profile.support_hi)]
              if profile.bounded else None)

    def tail(n, dev, k):
        if user_tail is None:
            return bounds._hoeffding_one_sided(n, dev, widths[k])
        return float(user_tail(n, dev))

    m = diag["m"]
    index, n = sb.tau_index(schedule, m + bounds._CROSSING_ROUND * max(1.0, m))
    assert (index, n) == (diag["tau"], diag["N_tau"])
    total, terms, tiny = 0.0, 0, 0
    while tiny < 3:
        if hyp is not None:
            dev = sb.hyperplane_slice_distance(hyp, n, mu)
        elif f is not None:
            dev = abs(float(mu[0]) - f(n) / n)
        else:
            dev = sb.slice_distance(region, n, mu)
        if diag["one_sided"]:
            weight = min(1.0, tail(n, dev, 0))
        else:
            weight = min(1.0, sum(2.0 * tail(n, dev / math.sqrt(d), k) for k in range(d)))
        n_next = schedule.element(index + 1)
        term = (n_next - n) * weight
        total += term
        terms += 1
        tiny = tiny + 1 if term < bounds._TERM_TOL else 0
        index, n = index + 1, n_next
    return diag["N_tau"] + total, terms


def _assert_resums(region, profile, schedule, hyp=None, user_tail=None, report=None):
    if report is None:
        tag = "T18-concentration" if hyp is None else "T19-concentration-hyperplane"
        report = sb.concentration_upper_bound(sb.Premises(region, profile.mean, profile, schedule),
                                              tag, hyp=hyp, user_tail=user_tail)
    assert report.applicable and "series_terms" in report.diagnostics, report
    value, terms = _resummed(region, profile, schedule, hyp, user_tail, report.diagnostics)
    assert repr(report.value) == repr(value)
    assert report.diagnostics["series_terms"] == terms
    return report


def test_shipped_concentration_reports_resum_bit_for_bit():
    resummed = 0
    for row in certification_matrix(10):
        b = row["bundle"]
        for tag in ("T18-concentration", "T19-concentration-hyperplane"):
            if tag in row["tags"]:
                p = b.premises
                hyp = p.hyperplane if tag.startswith("T19") else None
                _assert_resums(p.continuity_view, p.profile, b.schedule, hyp,
                               report=bound_report(tag, b))
                resummed += 1
    assert resummed == 22


def _gentle_tail(n, dev):
    return math.exp(-n * dev * dev)


@st.composite
def _scenarios(draw):
    """A d = 1 (or, for two-sided tails, d = 2) scenario whose mean ray exits."""
    schedule = draw(st.sampled_from([sb.naturals(), sb.arithmetic(0, 2), sb.arithmetic(0, 3),
                                     sb.geometric(1, 2.0), sb.geometric(2, 1.5)]))
    step = draw(st.sampled_from([sb.bernoulli_affine(0, 1, 0.5), sb.bernoulli_affine(0, 1, 0.25),
                                 sb.uniform_interval(0.0, 1.0), sb.uniform_interval(0.2, 0.6),
                                 sb.point_mass(0.5)]))
    mean = float(sb.analytic_moments(step).mean[0])
    level = draw(st.floats(1.0, 8.0))
    shape = draw(st.sampled_from(["constant", "affine", "power", "ge", "plane-2d"]))
    if shape == "constant":
        region = sb.constant_region(level)
    elif shape == "affine":
        region = sb.affine_region(mean - draw(st.floats(0.05, 0.4)), level)
    elif shape == "power":
        region = sb.power_region(level, draw(st.floats(0.3, 0.7)))
    elif shape == "ge":  # the mirror image: decreasing sums above a floor
        step = draw(st.sampled_from([sb.bernoulli_affine(-1, 0, 0.5), sb.uniform_interval(-1.0, 0.0),
                                     sb.point_mass(-0.5)]))
        region = sb.constant_region(-level, "ge")
    else:
        step = sb.product([step, step])
        region = sb.halfspace_region([1.0, draw(st.floats(0.5, 2.0))], 0.0, level)
    user_tail = _gentle_tail if draw(st.booleans()) else None
    return region, sb.analytic_moments(step), schedule, user_tail


@settings(max_examples=60, deadline=None)
@given(case=_scenarios(), plane=st.booleans())
def test_concentration_series_resums_bit_for_bit(case, plane):
    region, profile, schedule, user_tail = case
    hyp = sb.supporting_hyperplane(region, profile.mean) if plane else None
    report = _assert_resums(region, profile, schedule, hyp, user_tail)
    assert report.diagnostics["one_sided"] == (profile.dim == 1)


def test_concentration_series_resums_on_an_oracle_slice():
    # a d = 1 region with no boundary curve reads each deviation from slice_distance
    oracle = region_from_oracle(lambda t, s: s[0] <= 5.0, 1, convex_closure=True,
                                contains_origin=True)
    profile = sb.analytic_moments(BERNOULLI)
    for user_tail in (None, _gentle_tail):
        report = _assert_resums(oracle, profile, sb.naturals(), user_tail=user_tail)
        assert report.diagnostics["one_sided"]


def _float_tuple(value) -> bool:
    return type(value) is tuple and all(type(x) is float for x in value)


def test_shipped_carriers_hold_tuples_of_python_floats():
    # the bound path computes on Python floats: every profile field, both slabs, the
    # primed slab and the plane's normal are tuples of them, with no numpy scalar inside
    seen = collections.Counter()
    for bundle, _, _ in _shipped():
        p = bundle.premises
        assert _float_tuple(p.mean), bundle.name
        if p.profile is not None:
            prof = p.profile
            for field in dataclasses.fields(prof):
                value = getattr(prof, field.name)
                if field.name == "independent" or (field.name == "bound_v" and value is None):
                    continue
                assert _float_tuple(value), (bundle.name, field.name)
            slabs = [p.dev_slab]
            if prof.bounded:
                slabs += [p.support_slab, p.support_slab.primed, p.envelope_slab]
            for slab in slabs:
                for name in ("lower_slope", "upper_slope", "lower_icept", "upper_icept"):
                    assert _float_tuple(getattr(slab, name)), (bundle.name, name)
            seen["slabs"] += len(slabs)
        assert _float_tuple(p.hyperplane.s_coef), bundle.name
        seen["planes"] += 1
    # 13 deviation slabs, three more for each of the 11 bounded laws; 13 + 3 planes
    assert seen == {"slabs": 46, "planes": 16}


def test_premises_refuse_a_region_and_a_mean_of_different_dimension():
    pair = sb.product([BERNOULLI, BERNOULLI])
    walk = ScenarioBundle("x", pair, sb.constant_region(3.0, "ge", "stopping"), sb.naturals())
    for tag in ("T10-upper", "Lorden-T6"):
        with pytest.raises(ValueError, match="^region and mean dimensions disagree: 1, 2$"):
            bound_report(tag, walk)
    drift = BrownianBundle("y", sb.constant_region(3.0), [0.5, 0.5], 1.0, 0.05)
    with pytest.raises(ValueError, match="^region and mean dimensions disagree: 1, 2$"):
        brownian_report("Brown1", drift)
    plane = sb.halfspace_region([1.0, 1.0], 0.0, 8.0, "ge", "stopping")
    with pytest.raises(ValueError, match="^region and mean dimensions disagree: 2, 1$"):
        sb.Premises(plane, [0.5])


def test_premises_refuse_a_profile_of_another_mean():
    # the calculators read both p.mean and p.profile.mean: they must be one vector
    region, coin = sb.constant_region(3.0), sb.analytic_moments(BERNOULLI)
    with pytest.raises(ValueError, match=r"^mean and profile mean disagree: \(0\.25,\), \(0\.5,\)$"):
        sb.Premises(region, [0.25], coin, sb.naturals(), BERNOULLI)
    pair = sb.analytic_moments(sb.product([BERNOULLI, BERNOULLI]))
    with pytest.raises(ValueError, match=r"^mean and profile mean disagree: \(0\.5,\), \(0\.5, 0\.5\)$"):
        sb.Premises(region, [0.5], pair, sb.naturals())
    assert sb.Premises(region, [0.5], coin, sb.naturals(), BERNOULLI).mean == (0.5,)
