import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats

import stopbounds as sb
from stopbounds.moments import scalar_family
from stopbounds.overshoot import sum_law, threshold_functionals


@pytest.mark.parametrize("spec,c", [
    (sb.uniform_interval(-1.0, 2.0), 0.7),
    (sb.gaussian(0.3, 1.1), 0.9),
    (sb.exponential(0.8), 1.3),
])
def test_partial_expectation_against_quadrature(spec, c):
    rng = sb.stream_for_run(1, 0)
    draws = sb.sample_block(spec, rng, 400_000)[:, 0]
    # quadrature-grade check via a huge empirical sample plus exact formulas
    law = sum_law(spec, 1)
    assert law.partial_above(c) == pytest.approx(
        float(np.maximum(draws - c, 0.0).mean()), abs=4e-3)
    assert law.cdf_strict(c) == pytest.approx(float((draws < c).mean()), abs=4e-3)
    assert scalar_family(spec).positive_part_square(spec.params) == pytest.approx(
        float((np.maximum(draws, 0.0) ** 2).mean()), rel=2e-2)


def test_irwin_hall_cdf_against_convolution_oracle():
    # n=3 standard-uniform sum: oracle by numeric self-convolution on a grid
    grid = np.linspace(0, 1, 2001)
    density = np.ones_like(grid) / (len(grid) - 1)
    conv = np.convolve(np.convolve(density, density), density)
    xs = np.linspace(0, 3, len(conv))
    cdf = np.cumsum(conv)
    irwin_hall = sum_law(sb.uniform_interval(0.0, 1.0), 3).cdf_strict
    for x in (0.4, 1.0, 1.5, 2.3, 2.9):
        approx = float(np.interp(x, xs, cdf))
        assert irwin_hall(x) == pytest.approx(approx, abs=2e-3)
    assert irwin_hall(-0.1) == 0.0
    assert irwin_hall(3.1) == 1.0


def test_uniform_batch_law_closed_forms():
    # Y = sum of two uniforms on [0.5, 1.5]: triangular on [1, 3]
    law = sum_law(sb.uniform_interval(0.5, 1.5), 2)
    assert law.cdf_strict(2.0) == pytest.approx(0.5, abs=1e-9)
    assert law.partial_above(2.0) == pytest.approx(1.0 / 6.0, abs=1e-7)
    assert law.partial_above(0.5) == pytest.approx(2.0 - 0.5, abs=1e-7)


def test_t7_uniform_hand_computed_value():
    report = sb.overshoot_upper_bound(sb.uniform_interval(0.5, 1.5), 2.0, sb.arithmetic(0, 2),
                                      "T7")
    assert report.applicable
    # ((K-1) E[Z] + E[Z^2]/E[Z]) Pr{Y<2} + E[(Y-2)^+] = (25/12)/2 + 1/6
    assert report.value == pytest.approx(25.0 / 24.0 + 1.0 / 6.0, abs=1e-7)


def _irwin_hall_mp(n, x):
    x = mp.mpf(x)
    return sum((-1) ** j * mp.binomial(n, j) * (x - j) ** n
               for j in range(int(mp.floor(x)) + 1)) / mp.factorial(n)


@pytest.mark.parametrize("step", [40, 60])
def test_t7_uniform_large_steps_match_exact_oracle(step):
    # Y = step/2 + (sum of step standard uniforms); the threshold 0.8*step sits at
    # x = 0.3*step in uniform units.  Oracle at 60 digits: the alternating sum for
    # Pr{Y < c} and E[(Y-c)^+] = E[Y] - c + int_0^x F by Gauss-Legendre quadrature.
    report = sb.overshoot_upper_bound(sb.uniform_interval(0.5, 1.5), 0.8 * step,
                                      sb.arithmetic(0, step), "T7")
    assert report.applicable
    assert math.isfinite(report.value) and report.value >= 0.0
    with mp.workdps(60):
        x = 0.3 * step
        pr = _irwin_hall_mp(step, x)
        nodes = [0] + list(range(1, math.ceil(x))) + [x]
        pe = mp.mpf(step) - 0.8 * step + mp.quad(lambda t: _irwin_hall_mp(step, t), nodes,
                                                  method="gauss-legendre")
        oracle = float(((step - 1) + (1 + mp.mpf(1) / 12)) * pr + pe)
    assert report.value == pytest.approx(oracle, rel=1e-9)


def test_batch_laws_match_scipy_stats():
    cases = [(sb.gaussian(0.7, 1.3), lambda k: stats.norm(0.7 * k, 1.3 * math.sqrt(k))),
             (sb.bernoulli_affine(0.0, 1.0, 0.3), lambda k: stats.binom(k, 0.3)),
             (sb.exponential(1.7), lambda k: stats.gamma(k, scale=1.0 / 1.7))]
    for spec, oracle in cases:
        for k in (1, 2, 7, 40, 2000):
            law, dist = sum_law(spec, k), oracle(k)
            mean = dist.mean()
            for c in mean + dist.std() * np.array([-3.0, -1.3, 0.1, 0.45, 2.0, 4.0]):
                # the binomial atoms are the integers, all off this grid
                assert law.cdf_strict(c) == pytest.approx(dist.cdf(c), rel=1e-9, abs=1e-14)
                if hasattr(dist, "pmf"):
                    ys = np.arange(k + 1)
                    partial = float(np.sum(dist.pmf(ys) * np.maximum(ys - c, 0.0)))
                else:
                    partial = dist.expect(lambda y: np.maximum(y - c, 0.0), lb=c)
                assert law.partial_above(c) == pytest.approx(partial, rel=1e-7, abs=1e-12)
            assert law.partial_above(mean - 1e3) == pytest.approx(1e3, rel=1e-12)
    # the inequality is strict at an atom
    assert sum_law(sb.bernoulli_affine(0.0, 1.0, 0.3), 40).cdf_strict(12.0) == pytest.approx(
        stats.binom.cdf(11, 40, 0.3), rel=1e-12)
    # one summand reproduces the two-point weights exactly
    law = sum_law(sb.bernoulli_affine(0.0, 1.0, 0.3), 1)
    assert law.cdf_strict(0.5) == 1.0 - 0.3
    assert law.partial_above(0.0) == 0.3


def test_threshold_functionals_uniform_random_threshold():
    z = sb.exponential(1.0)
    lam = sb.uniform_interval(0.5, 1.5)
    law = sum_law(z, 1)
    pr, pe = threshold_functionals(z, lam, law.cdf_strict, law.partial_above)
    pr_oracle, _ = integrate.quad(lambda l: 1 - math.exp(-l), 0.5, 1.5)
    pe_oracle, _ = integrate.quad(lambda l: math.exp(-l), 0.5, 1.5)
    assert pr == pytest.approx(pr_oracle, abs=1e-9)
    assert pe == pytest.approx(pe_oracle, abs=1e-9)
