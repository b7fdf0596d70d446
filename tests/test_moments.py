import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import stopbounds as sb
from stopbounds.moments import StreamPool, sample_block, stream_for_run


def test_point_mass_moments():
    prof = sb.analytic_moments(sb.point_mass(0.5))
    assert prof.mean[0] == 0.5
    assert prof.pos_dev[0] == 0.0
    assert prof.neg_dev[0] == 0.0
    assert prof.variance[0] == 0.0
    assert prof.bound_v[0] == 0.0


def test_bernoulli_moments():
    prof = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.5))
    assert prof.mean[0] == 0.5
    assert prof.pos_dev[0] == 0.25
    assert prof.neg_dev[0] == 0.25
    assert prof.variance[0] == 0.25
    assert prof.bound_v[0] == 0.25


def test_exponential_moments_against_quadrature():
    # oracle: E[(X-1)^+] = integral_1^inf (x-1) e^-x dx
    oracle, _ = integrate.quad(lambda x: (x - 1.0) * math.exp(-x), 1.0, np.inf)
    assert oracle == pytest.approx(0.3678794411714422, abs=1e-12)
    prof = sb.analytic_moments(sb.exponential(1.0))
    assert prof.mean[0] == 1.0
    assert prof.variance[0] == 1.0
    assert prof.pos_dev[0] == pytest.approx(oracle, abs=1e-10)
    assert prof.neg_dev[0] == pytest.approx(oracle, abs=1e-10)
    a3, _ = integrate.quad(lambda x: abs(x - 1.0) ** 3 * math.exp(-x), 0.0, np.inf)
    assert prof.abs_third[0] == pytest.approx(a3, abs=1e-9)


def test_uniform_and_gaussian_moments_against_quadrature():
    prof = sb.analytic_moments(sb.uniform_interval(-1.0, 3.0))
    pos, _ = integrate.quad(lambda x: max(x - 1.0, 0.0) / 4.0, -1.0, 3.0)
    assert prof.pos_dev[0] == pytest.approx(pos, abs=1e-12)
    a3, _ = integrate.quad(lambda x: abs(x - 1.0) ** 3 / 4.0, -1.0, 3.0)
    assert prof.abs_third[0] == pytest.approx(a3, abs=1e-10)
    assert prof.bound_v[0] == pytest.approx(2.0 * 2.0 / 4.0, abs=1e-12)

    prof = sb.analytic_moments(sb.gaussian(0.3, 1.7))
    density = lambda x: math.exp(-((x - 0.3) ** 2) / (2 * 1.7**2)) / (1.7 * math.sqrt(2 * math.pi))
    pos, _ = integrate.quad(lambda x: max(x - 0.3, 0.0) * density(x), -np.inf, np.inf)
    assert prof.pos_dev[0] == pytest.approx(pos, abs=1e-9)
    a3, _ = integrate.quad(lambda x: abs(x - 0.3) ** 3 * density(x), -np.inf, np.inf)
    assert prof.abs_third[0] == pytest.approx(a3, rel=1e-8)
    assert not prof.bounded
    assert prof.abs_third_finite


ALL_SPECS = [
    sb.point_mass(0.5),
    sb.bernoulli_affine(-1.0, 2.0, 0.3),
    sb.uniform_interval(-0.5, 1.5),
    sb.gaussian(0.2, 0.8),
    sb.exponential(2.0),
    sb.product([sb.bernoulli_affine(0, 1, 0.5), sb.exponential(1.0)]),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_one_sided_deviations_balance(spec):
    prof = sb.analytic_moments(spec)
    mean, pos, neg, var, lo, hi = map(np.array, (prof.mean, prof.pos_dev, prof.neg_dev,
                                                 prof.variance, prof.support_lo, prof.support_hi))
    assert np.all(np.abs(pos - neg) <= 1e-12)
    assert np.all(pos >= 0)
    assert np.all(var >= 0)
    if prof.bounded:
        assert np.all(lo <= mean + 1e-12)
        assert np.all(mean <= hi + 1e-12)
        assert np.all(pos <= np.array(prof.bound_v) + 1e-12)
        assert np.all(neg <= np.array(prof.bound_v) + 1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_empirical_mean_within_clt_band(spec):
    prof = sb.analytic_moments(spec)
    n = 1_000_000
    draws = sample_block(spec, stream_for_run(123, 0), n)
    for k in range(spec.dim):
        band = 4.0 * math.sqrt(max(prof.variance[k], 1e-30) / n)
        assert abs(draws[:, k].mean() - prof.mean[k]) <= band + 1e-12
    if prof.bounded:
        assert np.all(draws >= np.array(prof.support_lo) - 1e-12)
        assert np.all(draws <= np.array(prof.support_hi) + 1e-12)


def test_unbounded_supports_carry_infinite_ends():
    prof = sb.analytic_moments(sb.product([sb.exponential(2.0), sb.gaussian(0.0, 1.0),
                                           sb.uniform_interval(-1.0, 1.0)]))
    assert prof.support_lo == (0.0, -math.inf, -1.0)
    assert prof.support_hi == (math.inf, math.inf, 1.0)
    assert not prof.bounded and prof.bound_v is None
    assert sb.analytic_moments(sb.uniform_interval(-1.0, 1.0)).bounded


def test_degenerate_and_certain_draws():
    rng = stream_for_run(0, 0)
    assert sb.sample(sb.point_mass(0.5), rng)[0] == 0.5
    draws = sample_block(sb.bernoulli_affine(0, 1, 1.0), rng, 64)
    assert np.all(draws == 1.0)


def test_streams_are_reproducible_and_index_disjoint():
    a = sample_block(sb.gaussian(0, 1), stream_for_run(5, 7), 100)
    b = sample_block(sb.gaussian(0, 1), stream_for_run(5, 7), 100)
    c = sample_block(sb.gaussian(0, 1), stream_for_run(5, 8), 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_stream_pool_matches_fresh_streams(spec):
    pool = StreamPool(17)
    for idx in (0, 3, 2**40):
        a = sample_block(spec, pool.stream(idx), 257)
        b = sample_block(spec, stream_for_run(17, idx), 257)
        assert np.array_equal(a, b)


_NUMPY_SAMPLERS = {  # numpy's allocating samplers, whose values the in-place draws reproduce
    "point-mass": lambda p, rng, n: np.full(n, p["value"]),
    "bernoulli-affine": lambda p, rng, n: p["x0"] + (p["x1"] - p["x0"]) * (rng.random(n) < p["p"]),
    "uniform-interval": lambda p, rng, n: rng.uniform(p["lo"], p["hi"], n),
    "gaussian": lambda p, rng, n: rng.normal(p["mean"], p["sd"], n),
    "exponential": lambda p, rng, n: rng.exponential(1.0 / p["rate"], n),
}


@pytest.mark.parametrize("spec", ALL_SPECS + [sb.product(ALL_SPECS[:5])],
                         ids=lambda s: f"{s.family}-{s.dim}")
def test_in_place_draws_match_the_allocating_forms_bit_for_bit(spec):
    n = 5000
    fresh = sample_block(spec, stream_for_run(9, 4), n)
    out = np.full((n, spec.dim), np.nan)
    assert sample_block(spec, stream_for_run(9, 4), n, out) is out
    assert out.tobytes() == fresh.tobytes()
    rng = stream_for_run(9, 4)  # components draw in order, each n values
    cols = [_NUMPY_SAMPLERS[c.family](c.params, rng, n) for c in spec.components]
    assert np.column_stack(cols).tobytes() == out.tobytes()


def test_seeds_outside_the_key_word_are_rejected():
    # a masked seed would alias: -1 and 2**64 - 1 (or 2**64 and 0) would share streams
    for seed in (-1, 2**64, -(2**64)):
        with pytest.raises(ValueError):
            StreamPool(seed)
        with pytest.raises(ValueError):
            stream_for_run(seed, 0)
    top = sample_block(sb.gaussian(0, 1), StreamPool(2**64 - 1).stream(3), 8)
    assert np.array_equal(top, sample_block(sb.gaussian(0, 1), stream_for_run(2**64 - 1, 3), 8))


def test_parameter_domain_errors():
    with pytest.raises(sb.ParameterError):
        sb.bernoulli_affine(1.0, 0.0, 0.5)
    with pytest.raises(sb.ParameterError):
        sb.bernoulli_affine(0.0, 1.0, 1.5)
    with pytest.raises(sb.ParameterError):
        sb.uniform_interval(2.0, 2.0)
    with pytest.raises(sb.ParameterError):
        sb.exponential(0.0)
    with pytest.raises(sb.ParameterError):
        sb.gaussian(0.0, -1.0)
    # the same checks guard direct construction
    for family, params in [("uniform-interval", {"lo": 2.0, "hi": 1.0}),
                           ("gaussian", {"mean": 0.0, "sd": -1.0}),
                           ("exponential", {}),
                           ("bernoulli-affine", {"x0": 0.0, "x1": 1.0, "p": "half"}),
                           ("point-mass", {"value": float("nan")}),
                           ("point-mass", {"value": 1.0, "extra": 2.0})]:
        with pytest.raises(sb.ParameterError):
            sb.DistributionSpec(family, params)
    assert sb.DistributionSpec("exponential", {"rate": 2}).params == {"rate": 2.0}


@settings(max_examples=40, deadline=None)
@given(x0=st.floats(-5, 5), width=st.floats(0.01, 10), p=st.floats(0, 1))
def test_bernoulli_envelope_dominates_deviations(x0, width, p):
    prof = sb.analytic_moments(sb.bernoulli_affine(x0, x0 + width, p))
    assert prof.pos_dev[0] <= prof.bound_v[0] + 1e-12
    assert abs(prof.pos_dev[0] - prof.neg_dev[0]) <= 1e-12
