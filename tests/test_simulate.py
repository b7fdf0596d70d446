import numpy as np
import pytest

import stopbounds as sb
from stopbounds.moments import sample_block, stream_for_run
from stopbounds.simulate import AllTruncatedError, discrete_paths


def test_point_mass_continuity_anchor():
    est = sb.run_discrete(sb.constant_region(5.0), sb.point_mass(1.0),
                          sb.naturals(), 200, seed=1)
    assert est.mean == 6.0 and est.stderr == 0.0
    assert est.extras["last_before"] == (5.0, 0.0)
    assert est.extras["stop_sum[0]"][0] == 6.0


def test_point_mass_stopping_anchor():
    region = sb.affine_region(1.0, 10.0, "ge", "stopping")
    est = sb.run_discrete(region, sb.point_mass(2.0), sb.naturals(), 100, seed=1)
    assert est.mean == 10.0 and est.stderr == 0.0


def test_bernoulli_threshold_wald_anchor():
    region = sb.constant_region(5.0, "ge", "stopping")
    est = sb.run_discrete(region, sb.bernoulli_affine(0, 1, 0.5), sb.naturals(),
                          40_000, seed=11, overshoot_level=5.0)
    assert abs(est.mean - 10.0) <= 4.0 * est.stderr
    over_mean, over_se = est.extras["overshoot"]
    assert over_mean == 0.0 and over_se == 0.0  # unit steps cross exactly


def test_boundary_convention_switch():
    region = sb.constant_region(5.0, "le", "continuity")
    closed = sb.run_discrete(region, sb.point_mass(1.0), sb.naturals(), 50, seed=0)
    strict = sb.run_discrete(region, sb.point_mass(1.0), sb.naturals(), 50, seed=0,
                             boundary="strict")
    assert closed.mean == 6.0
    assert strict.mean == 5.0  # boundary touch already counts as exit


def test_paths_respect_schedule_and_rule():
    region = sb.constant_region(5.0, "ge", "stopping")
    sched = sb.arithmetic(1, 3)  # checks at 4, 7, 10, ...
    spec = sb.bernoulli_affine(0, 1, 0.5)
    paths = discrete_paths(region, spec, sched, 500, seed=5)
    allowed = set(sched.iter_elements(10_000))
    for idx in range(paths.n_runs):
        n = int(paths.stop_n[idx])
        m = paths.last_before[idx]
        assert n in allowed
        assert m < n
        assert m == sched.n0 or int(m) in allowed
        # replay the stream: the rule must fail at every earlier checkpoint
        draws = sample_block(spec, stream_for_run(5, idx), 256)[:, 0]
        sums = np.cumsum(draws)
        for point in sched.iter_elements(n):
            if point < n:
                assert sums[point - 1] < 5.0
            else:
                assert sums[point - 1] >= 5.0
        assert paths.stop_sum[idx, 0] == sums[n - 1]


def test_truncation_accounting_and_bias_flag():
    # horizon at the typical crossing size: a fraction of runs truncates
    region = sb.constant_region(8.0, "ge", "stopping")
    est = sb.run_discrete(region, sb.exponential(1.0), sb.naturals(), 400,
                          horizon=9, seed=2)
    assert 0 < est.truncated < 400
    assert est.downward_biased
    with pytest.raises(AllTruncatedError):
        sb.run_discrete(sb.constant_region(10**9, "ge", "stopping"),
                        sb.point_mass(1.0), sb.naturals(), 10, horizon=100, seed=0)


def test_worker_count_is_invisible():
    region = sb.constant_region(5.0, "ge", "stopping")
    spec = sb.bernoulli_affine(0, 1, 0.5)
    a = discrete_paths(region, spec, sb.naturals(), 20_000, seed=9, workers=1)
    b = discrete_paths(region, spec, sb.naturals(), 20_000, seed=9, workers=8)
    assert np.array_equal(a.stop_n, b.stop_n)
    assert np.array_equal(a.stop_sum, b.stop_sum)
    assert np.array_equal(a.last_before, b.last_before)


def test_overshoot_nonnegative_in_threshold_runs():
    region = sb.constant_region(3.0, "ge", "stopping")
    for spec in (sb.exponential(1.0), sb.uniform_interval(0.0, 1.0)):
        paths = discrete_paths(region, spec, sb.naturals(), 3000, seed=4)
        assert np.all(paths.stop_sum[:, 0] >= 3.0 - 1e-12)


def test_vector_walk_stopping():
    spec = sb.product([sb.bernoulli_affine(0, 1, 0.5), sb.bernoulli_affine(0, 1, 0.5)])
    region = sb.halfspace_region([1.0, 1.0], 0.0, 8.0, "ge", "stopping")
    est = sb.run_discrete(region, spec, sb.naturals(), 20_000, seed=3)
    # first-moment identity: E[N] * mean-sum-rate equals E[s1 + s2 at the stop]
    total = est.extras["stop_sum[0]"][0] + est.extras["stop_sum[1]"][0]
    spread = est.extras["stop_sum[0]"][1] + est.extras["stop_sum[1]"][1]
    assert abs(est.mean * 1.0 - total) <= 4.0 * (est.stderr + spread)
    assert 8.0 <= est.mean <= 9.0  # level 8 plus sub-unit overshoot


@pytest.mark.parametrize("dt", [1.0 / 8, 1.0 / 32, 1.0 / 128])
def test_brownian_drift_only_exact(dt):
    region = sb.constant_region(4.0)
    est = sb.run_brownian(region, 0.5, 0.0, dt, 64, horizon=64.0, seed=0)
    assert est.mean == 8.0
    assert est.stderr == 0.0
    assert est.diagnostics["discretization_diagnostic"] == 0.0


def test_brownian_vector_drift_only():
    region = sb.halfspace_region([1.0, 1.0], 0.0, 4.0, "le", "continuity")
    est = sb.run_brownian(region, [1.0, 1.0], 0.0, 1.0 / 64, 16, horizon=32.0, seed=0)
    assert est.mean == 2.0  # combined drift 2 against level 4


def test_brownian_drift_only_stopping_entry():
    region = sb.affine_region(1.0, 10.0, "ge", "stopping")
    est = sb.run_brownian(region, 2.0, 0.0, 1.0 / 64, 16, horizon=100.0, seed=0)
    assert est.mean == 10.0


def test_brownian_diffusive_first_passage():
    region = sb.constant_region(4.0)
    est = sb.run_brownian(region, 0.5, 1.0, 0.02, 8000, horizon=400.0, seed=21)
    band = max(4.0 * est.stderr, 2.0 * est.diagnostics["discretization_diagnostic"])
    assert abs(est.mean - 8.0) <= band


def test_brownian_workers_bit_identical():
    region = sb.constant_region(4.0)
    a = sb.run_brownian(region, 0.5, 1.0, 0.05, 2000, horizon=200.0, seed=5, workers=1)
    b = sb.run_brownian(region, 0.5, 1.0, 0.05, 2000, horizon=200.0, seed=5, workers=6)
    assert a.mean == b.mean and a.stderr == b.stderr
    assert a.extras["coarse"] == b.extras["coarse"]


@pytest.mark.parametrize("region,spec,schedule", [
    (sb.constant_region(5.0, "ge", "stopping"), sb.bernoulli_affine(0, 1, 0.5), sb.naturals()),
    (sb.power_region(2.0, 0.5), sb.uniform_interval(0.0, 2.0), sb.arithmetic(1, 3)),
    (sb.halfspace_region([1.0, 1.0], 0.0, 8.0, "ge", "stopping"),
     sb.product([sb.bernoulli_affine(0, 1, 0.5), sb.exponential(2.0)]), sb.naturals()),
], ids=["constant-stopping", "power-continuity", "halfspace-2d"])
def test_oracle_wrapper_walks_like_its_region(region, spec, schedule):
    # the per-point oracle branch of Region.inside against the slack branch
    oracle = sb.region_from_oracle(region.contains, region.dim, region.kind,
                                   region.convex_closure, region.contains_origin)
    exact = discrete_paths(region, spec, schedule, 60, seed=3)
    wrapped = discrete_paths(oracle, spec, schedule, 60, seed=3)
    assert np.array_equal(exact.stop_n, wrapped.stop_n)
    assert np.array_equal(exact.stop_sum, wrapped.stop_sum)
    assert np.array_equal(exact.last_before, wrapped.last_before)
