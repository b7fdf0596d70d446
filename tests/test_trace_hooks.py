"""The names the benchmark's tracer (perfbench/tracing.py) replaces must stay in place.

The tracer swaps module attributes and a region's ``slack_batch`` for timing
wrappers.  A rename or a call that bypasses these names would silently drop
layers from a traced run, so they are pinned here.
"""

import dataclasses
import threading

import numpy as np
import pytest

import stopbounds as sb
from stopbounds import bounds, cli, harness, moments, overshoot, schedules, simulate
from stopbounds.simulate import discrete_paths

PATCHED = {
    simulate: ("sample_block", "run_discrete", "run_brownian"),
    moments.StreamPool: ("stream",),
    schedules.SampleSchedule: ("iter_elements",),
    bounds: ("supporting_hyperplane", "ray_exit_time", "mean_ray_crossing",
             "ray_entry_and_exit", "slice_distance", "hyperplane_slice_distance",
             "slice_side", "log_exit_gradient", "max_time_in_region",
             "max_concave_over_box", "vertex_fraction_max", "audit_assumptions",
             "gap_supremum"),
    harness: ("supporting_hyperplane", "ray_exit_time", "bound_report",
              "brownian_report", "certify"),
    overshoot: ("sum_law", "threshold_functionals"),
    cli: ("bound_report", "brownian_report", "certify", "run_discrete", "run_brownian",
          "write_report"),
}


@pytest.mark.parametrize("owner,attr", [(o, a) for o, names in PATCHED.items() for a in names],
                         ids=lambda x: x if isinstance(x, str) else getattr(x, "__name__", ""))
def test_patched_name_exists(owner, attr):
    assert callable(vars(owner)[attr])


def test_gradient_bound_calls_log_exit_gradient_through_bounds(monkeypatch):
    calls = []
    original = bounds.log_exit_gradient
    monkeypatch.setattr(bounds, "log_exit_gradient",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    prof = sb.analytic_moments(sb.bernoulli_affine(0, 1, 0.5))
    report = sb.gradient_upper_bound(sb.constant_region(5.0), prof, sb.naturals(), "T17-gradient")
    assert report.applicable and len(calls) == 1


SCALAR = sb.bernoulli_affine(0, 1, 0.5)


@pytest.mark.parametrize("region,spec", [
    (sb.constant_region(5.0, "ge", "stopping"), SCALAR),
    (sb.affine_region(0.25, 2.0, "le"), SCALAR),
    (sb.power_region(2.0, 0.5), SCALAR),
    (sb.halfspace_region([-1.0], 0.0, -5.0, "ge"), SCALAR),
    (sb.halfspace_region([1.0, 1.0], 0.0, 8.0, "ge", "stopping"), sb.product([SCALAR, SCALAR])),
    (sb.constant_region(5.0, "le").complement_closure(), SCALAR),
], ids=["constant", "affine", "power", "halfspace-1d", "halfspace-2d", "complement"])
def test_discrete_paths_calls_the_swapped_slack(region, spec):
    points = []

    def counting(ts, ss):
        points.append(len(ts))
        return region.slack_batch(ts, ss)

    swapped = dataclasses.replace(region, slack_batch=counting)
    traced = discrete_paths(swapped, spec, sb.naturals(), 20, seed=2)
    plain = discrete_paths(region, spec, sb.naturals(), 20, seed=2)
    assert sum(points) > 0
    assert np.array_equal(traced.stop_n, plain.stop_n)


@pytest.mark.parametrize("region", [
    sb.constant_region(5.0),
    sb.region_from_oracle(lambda t, s: s[0] <= 5.0, 1),
], ids=["built-in", "oracle"])
def test_run_discrete_passes_the_tracers_slack_check(region):
    # the tracer reads region.slack_batch on every region it simulates and
    # swaps in a counting slack when there is one; an oracle region has none
    # and is walked as it is
    points = []

    def counting(ts, ss):
        points.append(len(ts))
        return region.slack_batch(ts, ss)

    traced = region if region.slack_batch is None else dataclasses.replace(
        region, slack_batch=counting)
    estimate = simulate.run_discrete(traced, SCALAR, sb.naturals(), 64, seed=3)
    plain = simulate.run_discrete(region, SCALAR, sb.naturals(), 64, seed=3)
    assert (estimate.mean, estimate.stderr) == (plain.mean, plain.stderr)
    assert (region.slack_batch is not None) == region.closed_form == (sum(points) > 0)


class _CountingGenerator:
    """Generator proxy that counts the variates each method hands out."""

    def __init__(self, gen, drawn):
        self._gen, self._drawn = gen, drawn

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            with _COUNTS:
                self._drawn[name] = self._drawn.get(name, 0) + np.size(out)
            return out

        return counted


_COUNTS = threading.Lock()  # the counters are bumped from the samplers' worker threads


def _route(monkeypatch):
    """Counting wrappers over the two names the tracer patches for draws and streams."""
    log = {"keys": [], "drawn": {}, "block_draws": 0, "foreign_rng": 0}
    stream, block = moments.StreamPool.stream, simulate.sample_block

    def counting_stream(pool, index):
        log["keys"].append(index)
        return _CountingGenerator(stream(pool, index), log["drawn"])

    def counting_block(spec, rng, n, out=None):
        with _COUNTS:
            log["block_draws"] += n * spec.dim
            log["foreign_rng"] += not isinstance(rng, _CountingGenerator)
        return block(spec, rng, n, out)

    monkeypatch.setattr(moments.StreamPool, "stream", counting_stream)
    monkeypatch.setattr(simulate, "sample_block", counting_block)
    return log


def test_discrete_draws_and_keys_go_through_the_traced_names(monkeypatch):
    region = sb.halfspace_region([1.0, 1.0], 0.0, 8.0, "ge", "stopping")
    spec = sb.product([SCALAR, sb.exponential(2.0)])
    n = 9000  # three chunks, the last one partial
    assert n % simulate._CHUNK and 2 * simulate._CHUNK < n < 3 * simulate._CHUNK
    plain = discrete_paths(region, spec, sb.naturals(), n, seed=4)
    routed = _route(monkeypatch)
    traced = discrete_paths(region, spec, sb.naturals(), n, seed=4, workers=3)
    assert np.array_equal(traced.stop_n, plain.stop_n)
    assert np.array_equal(traced.stop_sum, plain.stop_sum)
    # one key per chunk, every variate drawn through sample_block on a keyed stream
    assert sorted(routed["keys"]) == [simulate._stream_key(0, c) for c in range(3)]
    assert routed["foreign_rng"] == 0
    assert sum(routed["drawn"].values()) == routed["block_draws"]
    assert traced.stop_n.sum() * spec.dim <= routed["block_draws"]  # draw efficiency <= 1


_EXACT_ROUTES = [  # region, drift, diffusion, horizon and the Generator methods drawn from
    (sb.constant_region(4.0), 0.5, 1.0, 200.0, {"wald"}),
    (sb.constant_region(4.0), 0.0, 1.0, 200.0, {"standard_normal", "random"}),
    (sb.halfspace_region([1.0, 2.0], 0.5, 3.0, "le"), [0.5, -0.1], [1.0, 0.5], 200.0,
     {"wald", "standard_normal"}),
    (sb.constant_region(1.0), -0.3, 1.0, 20.0, {"random", "wald", "standard_normal"}),
]


def test_brownian_draws_and_keys_go_through_the_traced_names(monkeypatch):
    n = 9000
    chunks = -(-n // simulate._CHUNK)
    assert chunks == 3
    for region, drift, diffusion, horizon, methods in _EXACT_ROUTES:
        args = (region, drift, diffusion, 0.05, n)
        plain = simulate.run_brownian(*args, horizon=horizon, seed=5, workers=1)
        with monkeypatch.context() as patch:
            routed = _route(patch)
            traced = simulate.run_brownian(*args, horizon=horizon, seed=5, workers=2)
        assert (traced.mean, traced.stderr, traced.extras) == (plain.mean, plain.stderr,
                                                               plain.extras)
        # one fresh key per chunk, all on the exact sampler's grid
        assert sorted(routed["keys"]) == [simulate._stream_key(2, c) for c in range(chunks)]
        assert set(routed["drawn"]) == methods
        assert routed["block_draws"] == 0
        if methods == {"wald"}:
            assert routed["drawn"]["wald"] == traced.n_runs  # one passage time per run
        if "random" in methods:
            # an acceptance uniform per proposal, and at least one proposal per truncated run
            assert routed["drawn"]["random"] >= traced.truncated > 0


def test_euler_brownian_draws_and_keys_go_through_the_traced_names(monkeypatch):
    args = (sb.power_region(2.0, 0.3), 0.5, 1.0, 0.05, 4500)  # two chunks
    plain = simulate.run_brownian(*args, horizon=200.0, seed=5, workers=1)
    routed = _route(monkeypatch)
    traced = simulate.run_brownian(*args, horizon=200.0, seed=5, workers=2)
    assert (traced.mean, traced.stderr, traced.extras) == (plain.mean, plain.stderr, plain.extras)
    # one key per chunk on each of the two grids
    assert sorted(routed["keys"]) == [simulate._stream_key(g, c) for g in (0, 1) for c in (0, 1)]
    assert set(routed["drawn"]) == {"standard_normal"}
    used = traced.n_runs * (traced.mean / 0.0125 + traced.extras["coarse"][0] / 0.05)
    assert used <= routed["drawn"]["standard_normal"]
    assert routed["block_draws"] == 0
