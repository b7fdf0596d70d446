import hashlib
import math
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import stopbounds as sb
from stopbounds import simulate
from stopbounds.geometry import RegionError
from stopbounds.moments import StreamPool, stream_for_run
from stopbounds.simulate import (_BLOCK, _CHUNK, _FIRST, AllTruncatedError, _blocks, _coefficients,
                                 _exact_paths, _passage_line, _stream_key, discrete_paths,
                                 replay_run)

from search_twin import region_from_oracle


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


def test_an_oracle_region_refuses_a_strict_boundary():
    # the search twin answers closed membership only: a strict walk is refused
    # rather than walked as closed, which would read 6 where strict reads 5
    twin = region_from_oracle(lambda t, s: s[0] <= 5.0, 1, convex_closure=True,
                              contains_origin=True)
    with pytest.raises(RegionError, match="closed membership only"):
        sb.run_discrete(twin, sb.point_mass(1.0), sb.naturals(), 10, seed=0, boundary="strict")
    with pytest.raises(RegionError, match="closed membership only"):
        twin.contains(1.0, [0.0], strict=True)
    assert sb.run_discrete(twin, sb.point_mass(1.0), sb.naturals(), 10, seed=0).mean == 6.0


def _block_sums(draws):
    """Running sums as the engine forms them: each block's cumsum plus the total before it."""
    sums, total = [], 0.0
    for lo, length in _blocks(draws.size):
        sums.append(total + np.cumsum(draws[lo:lo + length]))
        total = sums[-1][-1]
    return np.concatenate(sums)


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
        draws = replay_run(5, idx, spec, sched, paths.stop_n, int(paths.horizon))[:, 0]
        assert draws.shape == (n,)
        sums = _block_sums(draws)
        for point in sched.iter_elements(n):
            if point < n:
                assert sums[point - 1] < 5.0
            else:
                assert sums[point - 1] >= 5.0
        assert paths.stop_sum[idx, 0] == sums[n - 1]


def test_replay_spans_chunks_and_long_walks():
    # a level far above the block length makes runs outlive several blocks,
    # and 9000 runs give a partial third chunk
    runs = 9000
    assert runs % _CHUNK and 2 * _CHUNK < runs < 3 * _CHUNK
    region = sb.constant_region(500.0, "ge", "stopping")
    sched = sb.arithmetic(0, 7)
    spec = sb.uniform_interval(0.0, 2.0)
    paths = discrete_paths(region, spec, sched, runs, seed=8, workers=2)
    # stops fall in several blocks, so later blocks draw for fewer runs
    starts = [start for start, _ in _blocks(1000)]
    assert len(set(np.searchsorted(starts, paths.stop_n))) > 1
    assert paths.stop_n.min() > 3 * _BLOCK  # and every run outlives several blocks
    picked = list(range(0, runs, 331)) + [_CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, 2 * _CHUNK,
                                          runs - 1]
    for idx in picked:
        n = int(paths.stop_n[idx])
        sums = _block_sums(replay_run(8, idx, spec, sched, paths.stop_n, int(paths.horizon))[:, 0])
        assert sums.shape == (n,)
        assert all(sums[p - 1] < 500.0 for p in sched.iter_elements(n) if p < n)
        assert sums[n - 1] >= 500.0
        assert paths.stop_sum[idx, 0] == sums[n - 1]


def test_a_chunk_draws_every_block_from_its_one_stream():
    # rebuilt without replay_run: chunk c's blocks continue the one stream
    # keyed (seed, grid 0, c), each drawing `length` increments for every run
    # still live at its start, in run order
    runs, seed, level = 9000, 8, 200.0
    assert runs % _CHUNK and 2 * _CHUNK < runs < 3 * _CHUNK
    region = sb.constant_region(level, "ge", "stopping")
    paths = discrete_paths(region, sb.uniform_interval(0.0, 2.0), sb.naturals(), runs, seed=seed,
                           workers=2)
    assert paths.stop_n.min() > _FIRST + 2 * _FIRST + 4 * _FIRST  # past the third block
    for chunk in range(3):
        rows = np.arange(chunk * _CHUNK, min((chunk + 1) * _CHUNK, runs))
        rng = stream_for_run(seed, _stream_key(0, chunk))
        total, stop_n, stop_sum = np.zeros(rows.size), np.zeros(rows.size), np.zeros(rows.size)
        live = np.arange(rows.size)
        for start, length in _blocks(10**6):
            if not live.size:
                break
            sums = np.cumsum(rng.uniform(0.0, 2.0, (live.size, length)), axis=1)
            sums += total[live, None]
            hits = sums >= level
            done = hits.any(axis=1)
            first = hits.argmax(axis=1)[done]
            stop_n[live[done]] = start + 1 + first
            stop_sum[live[done]] = sums[done, first]
            total[live] = sums[:, -1]
            live = live[~done]
        assert np.array_equal(paths.stop_n[rows], stop_n)
        assert np.array_equal(paths.stop_sum[rows, 0], stop_sum)


def test_walks_that_stop_within_the_first_block_keep_their_draws():
    # the first block of chunk c draws from the stream keyed (seed, grid 0, c)
    # and every run below stops within it, so these digests of the stops have
    # not moved since each block of a chunk had a stream of its own
    cases = [
        (sb.constant_region(5.0, "ge", "stopping"), sb.uniform_interval(0.5, 1.5),
         "7bc187208c6aeafa54383825b4aa2f495f28f9cb58fb95ae88c6239de68b93a3"),
        (sb.halfspace_region([1.0, 1.0], 0.0, 8.0, "ge", "stopping"),
         sb.product([sb.uniform_interval(0.5, 1.5), sb.exponential(2.0)]),
         "d54aa5b8cbfa45781ae533f799c4c1feaa3c249d8a1dc93e31ff9917018839e1"),
    ]
    for region, spec, digest in cases:
        for workers in (1, 3):
            paths = discrete_paths(region, spec, sb.naturals(), 9000, seed=21, workers=workers)
            assert paths.stop_n.max() <= _FIRST and not paths.truncated.any()
            data = paths.stop_n.tobytes() + paths.stop_sum.tobytes()
            assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("schedule,horizon", [(sb.naturals(), 0),
                                              (sb.explicit([50, 60]), 49)],
                         ids=["naturals-horizon-0", "explicit-beyond-horizon"])
def test_horizon_below_first_element_fails_cleanly(schedule, horizon):
    region = sb.constant_region(5.0, "ge", "stopping")
    with pytest.raises(ValueError, match="horizon lies below the first schedule element"):
        discrete_paths(region, sb.point_mass(1.0), schedule, 10, horizon=horizon)


def test_finite_schedule_ends_the_walk():
    # checks only at 2 and 3: runs below level 2 at size 3 are truncated
    region = sb.constant_region(2.0, "ge", "stopping")
    spec, sched = sb.bernoulli_affine(0, 1, 0.5), sb.explicit([2, 3])
    paths = discrete_paths(region, spec, sched, 2000, horizon=10**12, seed=1)
    cut = paths.truncated
    assert 0 < cut.sum() < 2000
    assert np.all(paths.stop_n[cut] == 1e12) and np.all(paths.last_before[cut] == 3.0)
    assert np.all(paths.stop_sum[cut, 0] < 2.0)  # the sum at size 3: nothing drawn beyond it
    for idx in range(0, 2000, 37):
        draws = replay_run(1, idx, spec, sched, paths.stop_n, 10**12)
        assert draws.shape == (min(paths.stop_n[idx], 3), 1)
        assert draws.sum() == paths.stop_sum[idx, 0]
    assert np.all(paths.stop_n[~cut] <= 3.0)


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
    assert 20_000 % _CHUNK  # a partial last chunk
    a = discrete_paths(region, spec, sb.naturals(), 20_000, seed=9, workers=1)
    for workers in (3, 8):
        b = discrete_paths(region, spec, sb.naturals(), 20_000, seed=9, workers=workers)
        assert np.array_equal(a.stop_n, b.stop_n)
        assert np.array_equal(a.stop_sum, b.stop_sum)
        assert np.array_equal(a.last_before, b.last_before)
        assert np.array_equal(a.truncated, b.truncated)


_SIX_CHUNKS = (sb.constant_region(40.0, "ge", "stopping"), sb.bernoulli_affine(0, 1, 0.5),
               sb.naturals(), 5 * _CHUNK + 7)  # each chunk walks several blocks


def test_a_walk_builds_one_stream_pool_per_worker(monkeypatch):
    pools = []

    class CountingPool(StreamPool):
        def __init__(self, seed):
            pools.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(simulate, "StreamPool", CountingPool)
    for workers in (1, 2, 4):
        pools.clear()
        discrete_paths(*_SIX_CHUNKS, seed=3, workers=workers)
        assert len(pools) == workers
    pools.clear()
    sb.run_brownian(sb.power_region(2.0, 0.3), 0.5, 1.0, 0.05, 2 * _CHUNK + 7, horizon=6.0,
                    seed=5, workers=2)
    assert len(pools) == 4  # two workers on each of the two Euler grids
    for workers in (1, 2, 4):  # the exact passage: one per share of its three chunks
        pools.clear()
        sb.run_brownian(sb.constant_region(4.0), 0.5, 1.0, 0.05, 2 * _CHUNK + 7, horizon=6.0,
                        seed=5, workers=workers)
        assert len(pools) == min(workers, 3)


def test_the_pool_starts_at_most_its_cap_of_threads(monkeypatch):
    args = (sb.constant_region(5.0, "ge", "stopping"), sb.bernoulli_affine(0, 1, 0.5),
            sb.naturals(), 8 * _CHUNK + 3)  # nine chunks: eight shares
    one = discrete_paths(*args, seed=6)
    monkeypatch.setattr(simulate, "_executor", None)
    monkeypatch.setattr(simulate, "_thread_cap", lambda: 2)
    before = threading.active_count()
    try:
        eight = discrete_paths(*args, seed=6, workers=8)
        assert threading.active_count() - before <= 2
    finally:
        if simulate._executor is not None:
            simulate._executor.shutdown(wait=True)
    assert np.array_equal(one.stop_n, eight.stop_n)
    assert np.array_equal(one.stop_sum, eight.stop_sum)
    assert np.array_equal(one.last_before, eight.last_before)


def test_repeated_threaded_calls_reuse_the_pool():
    n = 2 * _CHUNK + 7
    calls = [lambda: sb.run_discrete(*_SIX_CHUNKS[:3], n, seed=1, workers=2),
             lambda: sb.run_brownian(sb.constant_region(4.0), 0.5, 1.0, 0.05, n, seed=1,
                                     workers=2),
             lambda: sb.run_brownian(sb.power_region(2.0, 0.3), 0.5, 1.0, 0.05, n,
                                     horizon=6.0, seed=1, workers=2)]
    for call in calls:
        call()
        threads = threading.active_count()
        assert any(t.name.startswith("stopbounds") for t in threading.enumerate())
        for _ in range(4):
            call()
            assert threading.active_count() == threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_walks_on_a_pool_of_its_own():
    args = (*_SIX_CHUNKS[:3], 2 * _CHUNK + 7)
    parent = discrete_paths(*args, seed=8, workers=2)  # the pool now has a thread
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads, 3.12+
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            dropped = simulate._executor is None
            child = discrete_paths(*args, seed=8, workers=2)
            code = 0 if dropped and np.array_equal(child.stop_n, parent.stop_n) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done, "the forked child's walk hung"
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_every_block_is_drawn_in_place_into_a_worker_scratch_block(monkeypatch):
    starts = []

    def recording_block(spec, rng, n, out=None):
        starts.append(out.__array_interface__["data"][0])
        return sb.sample_block(spec, rng, n, out)

    monkeypatch.setattr(simulate, "sample_block", recording_block)
    for workers in (1, 3):
        starts.clear()
        discrete_paths(*_SIX_CHUNKS, seed=3, workers=workers)
        assert len(starts) > 6 * 3 and len(set(starts)) <= workers


def test_shared_checkpoints_under_thread_switching():
    # more threads than cores extend the shared lazy checkpoint list while
    # others read it; a lost update would move some run's stop
    region = sb.constant_region(1500.0, "ge", "stopping")
    args = (region, sb.exponential(1.0), sb.arithmetic(0, 3), 6 * _CHUNK + 5)
    one = discrete_paths(*args, seed=12)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = discrete_paths(*args, seed=12, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(one.stop_n, many.stop_n)
    assert np.array_equal(one.stop_sum, many.stop_sum)
    assert np.array_equal(one.last_before, many.last_before)


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


@pytest.mark.parametrize("drift", [1e-17, 1e-18, 1e-308, -1e-18])
def test_exact_passage_at_a_tiny_drift_is_the_levy_time(drift):
    # past mean/scale ~ 1e15 Generator.wald's transform cancels to exact zeros,
    # and at mean = inf it returns NaN: the passage to 4 at drift ~0 is
    # Levy's, truncated at h, with mean the integral of P(|Z| < 4/sqrt(t)) to h
    from scipy import integrate, special

    h = 400.0
    truth = integrate.quad(lambda t: special.erf(4.0 / math.sqrt(2.0 * t)), 0.0, h, limit=200)[0]
    est = sb.run_brownian(sb.constant_region(4.0), drift, 1.0, 0.01, 20000, horizon=h, seed=3)
    assert abs(est.mean - truth) <= 4.0 * est.stderr, (est.mean, est.stderr, truth)


def test_brownian_workers_bit_identical():
    n = 6000
    assert n % _CHUNK and n > _CHUNK  # two chunks, the last one partial
    # exact passage; the same with residuals and truncation; the Euler walk
    for args in [(sb.constant_region(4.0), 0.5, 1.0, 0.05, n),
                 (sb.halfspace_region([1.0, 1.0], 0.0, 1.5, "le"), [-0.3, 0.2], [1.0, 0.7],
                  0.05, n),
                 (sb.power_region(2.0, 0.3), 0.5, 1.0, 0.05, n)]:
        a = sb.run_brownian(*args, horizon=6.0, seed=5, workers=1)
        for workers in (3, 6, 8):
            b = sb.run_brownian(*args, horizon=6.0, seed=5, workers=workers)
            assert (a.mean, a.stderr, a.truncated) == (b.mean, b.stderr, b.truncated)
            assert a.extras == b.extras


def _exact(region, drift, diffusion, n_runs, horizon, seed):
    mu, sigma = _coefficients(drift, diffusion)
    return _exact_paths(region, mu, sigma, n_runs, horizon, seed)


def _phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _ig_cdf(x, mean, shape):
    """Inverse Gaussian CDF (Chhikara & Folks 1989, eq. 2.3)."""
    r = math.sqrt(shape / x)
    return _phi(r * (x / mean - 1.0)) + math.exp(2.0 * shape / mean) * _phi(-r * (x / mean + 1.0))


def _ks(values, cdf, n):
    """Kolmogorov-Smirnov distance of n draws whose values <= some cap are ``values``."""
    values = np.sort(values)
    f = np.array([cdf(x) for x in values])
    i = np.arange(1, values.size + 1)
    return max(np.max(i / n - f), np.max(f - (i - 1) / n))


_KS_001 = 1.95  # Kolmogorov distribution quantile at level 0.001, times sqrt(n)


@pytest.mark.parametrize("region,drift,diffusion", [
    (sb.constant_region(4.0), 0.5, 1.0),
    (sb.affine_region(1.0, 10.0, "ge", "stopping"), 2.0, 1.5),
    (sb.halfspace_region([1.0, 2.0], 0.5, 3.0, "le"), [0.5, -0.1], [1.0, 0.5]),
], ids=["constant", "affine-stopping", "halfspace-2d"])
def test_passage_times_follow_the_inverse_gaussian_law(region, drift, diffusion):
    a, b, c = _passage_line(region)
    mu, sigma = _coefficients(drift, diffusion)
    gamma, v = float(a @ mu) + b, float(np.sum((a * sigma) ** 2))
    n = 20_000
    paths = _exact(region, drift, diffusion, n, 1e6, seed=31)
    assert not paths.truncated.any()
    assert _ks(paths.stop_n, lambda x: _ig_cdf(x, c / gamma, c * c / v), n) < _KS_001 / math.sqrt(n)


def test_passage_without_noise_is_exact():
    est = sb.run_brownian(sb.constant_region(4.0), 0.5, 0.0, 0.3, 300, horizon=64.0, seed=4)
    assert (est.mean, est.stderr, est.truncated) == (8.0, 0.0, 0)
    assert est.extras["stop_sum[0]"] == (4.0, 0.0)
    # noise orthogonal to the normal leaves tau exact but spreads the other coordinate
    region = sb.halfspace_region([1.0, 0.0], 0.0, 3.0, "le")
    paths = _exact(region, [1.5, 0.5], [0.0, 2.0], 4000, 10.0, seed=4)
    assert np.all(paths.stop_n == 2.0) and np.all(paths.stop_sum[:, 0] == 3.0)
    z = (paths.stop_sum[:, 1] - 1.0) / (2.0 * math.sqrt(2.0))
    assert abs(z.mean()) < 4.0 / math.sqrt(4000) and abs(z.var() - 1.0) < 0.1
    # drift away from the boundary never reaches it
    with pytest.raises(AllTruncatedError):
        sb.run_brownian(sb.constant_region(4.0), -0.5, 0.0, 0.1, 10, horizon=64.0)


def test_passage_without_drift_is_levy():
    # gamma = 0: P(tau <= t) = erfc(c / sqrt(2 v t)), with a heavy tail beyond the horizon
    n, h, c, v = 20_000, 50.0, 2.0, 1.5**2
    paths = _exact(sb.constant_region(c), 0.0, 1.5, n, h, seed=6)
    cut = paths.truncated
    p_cut = 1.0 - math.erfc(c / math.sqrt(2.0 * v * h))
    assert abs(cut.mean() - p_cut) < 4.0 * math.sqrt(p_cut * (1 - p_cut) / n)
    levy = lambda t: math.erfc(c / math.sqrt(2.0 * v * t))
    assert _ks(paths.stop_n[~cut], levy, n) < _KS_001 / math.sqrt(n)


def test_passage_against_the_drift_hits_with_the_exponential_probability():
    n, c, gamma, v = 20_000, 1.0, -0.4, 1.0
    paths = _exact(sb.constant_region(c), gamma, 1.0, n, 1e4, seed=8)
    p_hit = math.exp(2.0 * c * gamma / v)
    hit = ~paths.truncated
    assert abs(hit.mean() - p_hit) < 4.0 * math.sqrt(p_hit * (1 - p_hit) / n)
    # given a hit, the time is IG(c/|gamma|, c^2/v)
    ig = lambda t: _ig_cdf(t, c / -gamma, c * c / v)
    assert _ks(paths.stop_n[hit], ig, hit.sum()) < _KS_001 / math.sqrt(hit.sum())
    assert np.allclose(paths.stop_sum[hit, 0], c, rtol=0, atol=1e-12)


@pytest.mark.parametrize("region", [
    sb.constant_region(-1.0),
    sb.constant_region(0.0),
    sb.affine_region(1.0, -2.0, "ge", "stopping"),
    sb.halfspace_region([1.0, 1.0], 0.0, 0.0, "ge", "stopping"),
], ids=["continuity-outside", "continuity-on-boundary", "stopping-inside", "stopping-2d"])
def test_passage_from_outside_the_continuation_set_is_immediate(region):
    drift = [0.5] * region.dim
    paths = _exact(region, drift, 1.0, 50, 10.0, seed=1)
    assert np.all(paths.stop_n == 0.0) and np.all(paths.stop_sum == 0.0)
    assert not paths.truncated.any()


def test_truncated_runs_end_at_the_exact_conditional_law():
    # tau ~ IG(8, 16); W_h given tau > h has the image-method density below c
    n, h, c, gamma, v = 20_000, 5.0, 4.0, 0.5, 1.0
    paths = _exact(sb.constant_region(c), gamma, 1.0, n, h, seed=10)
    cut = paths.truncated
    p_cut = 1.0 - _ig_cdf(h, c / gamma, c * c / v)
    assert abs(cut.mean() - p_cut) < 4.0 * math.sqrt(p_cut * (1 - p_cut) / n)
    assert np.all(paths.stop_n[cut] == h) and np.all(paths.stop_n[~cut] <= h)
    w = paths.stop_sum[cut, 0]
    assert np.all(w < c)
    s = math.sqrt(v * h)
    survive = lambda y: (_phi((y - gamma * h) / s)
                         - math.exp(2 * c * gamma / v) * _phi((y - 2 * c - gamma * h) / s)) / p_cut
    assert _ks(w, survive, w.size) < _KS_001 / math.sqrt(w.size)


def test_halfspace_exit_lies_on_the_plane_with_the_stated_covariance():
    a, b, c = np.array([1.0, 2.0]), 0.5, 3.0
    mu, sigma = np.array([0.5, -0.1]), np.array([1.0, 0.5])
    n = 20_000
    paths = _exact(sb.halfspace_region(a, b, c, "le"), mu, sigma, n, 1e6, seed=12)
    tau, w = paths.stop_n, paths.stop_sum
    assert np.allclose(w @ a + b * tau, c, rtol=0, atol=1e-9)
    # u is Sigma-orthogonal to a: <u, W> is independent of the passage and
    # <u, W_tau> - <u, mu> tau ~ N(0, tau u' Sigma u)
    u = np.array([sigma[1] ** 2 * a[1], -sigma[0] ** 2 * a[0]])
    z = (w @ u - (u @ mu) * tau) / np.sqrt(tau * np.sum((u * sigma) ** 2))
    assert abs(z.mean()) < 4.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 0.05
    assert abs(np.corrcoef(z, np.log(tau))[0, 1]) < 4.0 / math.sqrt(n)


def test_replay_passage_from_the_chunk_stream():
    # chunk c of the exact sampler draws everything from the stream keyed
    # (seed, grid 2, chunk c): first the passage times, in run order
    n, seed = 9000, 8
    assert n % _CHUNK and 2 * _CHUNK < n < 3 * _CHUNK
    paths = _exact(sb.constant_region(4.0), 0.5, 1.0, n, 400.0, seed)
    for chunk in range(3):
        rows = slice(chunk * _CHUNK, min((chunk + 1) * _CHUNK, n))
        rng = StreamPool(seed).stream(_stream_key(2, chunk))
        tau = rng.wald(8.0, 16.0, rows.stop - rows.start)
        assert np.array_equal(paths.stop_n[rows], tau)
        assert np.allclose(paths.stop_sum[rows, 0], 4.0, rtol=0, atol=1e-12)
    # against the drift: a uniform per run decides the hit, then IG times for the hits,
    # then the truncated runs' proposals
    region = sb.halfspace_region([1.0, 2.0], 0.0, 1.0, "le")
    mu, sigma = [-0.2, 0.05], [1.0, 0.5]
    paths = _exact(region, mu, sigma, n, 30.0, seed)
    gamma, v = -0.1, 2.0
    for chunk in range(3):
        rows = np.arange(chunk * _CHUNK, min((chunk + 1) * _CHUNK, n))
        rng = StreamPool(seed).stream(_stream_key(2, chunk))
        hit = rng.random(rows.size) < math.exp(2.0 * gamma / v)
        tau = rng.wald(10.0, 0.5, hit.sum())
        inside = tau <= 30.0
        assert np.array_equal(paths.stop_n[rows[hit][inside]], tau[inside])
        assert np.array_equal(paths.truncated[rows], ~hit | (paths.stop_n[rows] == 30.0))
        assert np.all(paths.stop_n[rows[~hit]] == 30.0)
        # the residual of each exit is one standard-normal row, in run order
        z = rng.standard_normal((inside.sum(), 2))
        t = tau[inside, None]
        k = np.array([1.0, 0.5]) / v
        q = np.array([1.0, 1.0]) / math.sqrt(v)
        w = np.array(mu) * t + k * (1.0 - gamma * t) + np.sqrt(t) * sigma * (z - np.outer(z @ q, q))
        assert np.allclose(paths.stop_sum[rows[hit][inside]], w, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("region", [
    sb.power_region(2.0, 0.3),
    # a twin answers closed membership only, so its Euler walk is of a stopping region
    region_from_oracle(sb.constant_region(4.0, "ge", "stopping").contains, 1, "stopping",
                       True, False),
], ids=["power", "oracle"])
def test_curved_and_oracle_regions_keep_the_two_grid_euler_path(region):
    est = sb.run_brownian(region, 0.5, 1.0, 0.05, 600, horizon=200.0, seed=3)
    assert est.diagnostics["passage"] == "euler-two-grid"
    assert est.diagnostics["dt_fine"] == 0.0125
    assert est.extras["coarse"] != (est.mean, est.stderr)
    assert est.diagnostics["discretization_diagnostic"] == abs(est.mean - est.extras["coarse"][0])
    exact = sb.run_brownian(sb.constant_region(4.0), 0.5, 1.0, 0.05, 600, horizon=200.0, seed=3)
    assert exact.diagnostics["passage"] == "exact-inverse-gaussian"


@pytest.mark.parametrize("orientation", ["le", "ge"])
@pytest.mark.parametrize("kind", ["continuity", "stopping"])
def test_noisy_power_boundary_with_exponent_from_one_half_is_left_at_once(orientation, kind,
                                                                         monkeypatch):
    # W_t - c t^e changes sign at times arbitrarily close to 0 when e >= 1/2,
    # so tau = 0 almost surely; no grid is walked and no stream drawn
    def no_walk(*args, **kwargs):
        raise AssertionError("an immediate passage walks no grid")

    monkeypatch.setattr(simulate, "_walk", no_walk)
    monkeypatch.setattr(simulate, "StreamPool", no_walk)
    for coef, exponent in ((2.0, 0.5), (-1.0, 0.75)):
        region = sb.power_region(coef, exponent, orientation, kind)
        est = sb.run_brownian(region, 0.5, 1.0, 0.05, 600, horizon=200.0, seed=3)
        assert (est.mean, est.stderr, est.n_runs, est.truncated) == (0.0, 0.0, 600, 0)
        assert est.extras == {"coarse": (0.0, 0.0), "stop_sum[0]": (0.0, 0.0)}
        assert est.diagnostics == {"dt": 0.05, "dt_fine": 0.05,
                                   "discretization_diagnostic": 0.0, "passage": "immediate"}
    monkeypatch.undo()
    # without noise, and below exponent 1/2, the path is walked as before
    for region, sigma in ((sb.power_region(2.0, 0.5), 0.0), (sb.power_region(2.0, 0.3), 1.0)):
        est = sb.run_brownian(region, 0.5, sigma, 0.05, 50, horizon=200.0, seed=3)
        assert est.diagnostics["passage"] == "euler-two-grid" and est.mean > 0.0


@pytest.mark.parametrize("region,spec,schedule", [
    (sb.constant_region(5.0, "ge", "stopping"), sb.bernoulli_affine(0, 1, 0.5), sb.naturals()),
    (sb.power_region(2.0, 0.5), sb.uniform_interval(0.0, 2.0), sb.arithmetic(1, 3)),
    (sb.halfspace_region([1.0, 1.0], 0.0, 8.0, "ge", "stopping"),
     sb.product([sb.bernoulli_affine(0, 1, 0.5), sb.exponential(2.0)]), sb.naturals()),
    # stops at sizes 210..1065; past step 315 each 128-step block holds zero or one size
    (sb.power_region(2.0, 0.5), sb.bernoulli_affine(0, 1, 0.1), sb.geometric(2, 1.5)),
], ids=["constant-stopping", "power-continuity", "halfspace-2d", "power-geometric"])
def test_oracle_wrapper_walks_like_its_region(region, spec, schedule):
    # the per-point oracle branch of the exit test against the slack, which
    # takes the checkpoint times and the gathered block as they are
    oracle = region_from_oracle(region.contains, region.dim, region.kind,
                                region.convex_closure, region.contains_origin)
    exact = discrete_paths(region, spec, schedule, 60, seed=3)
    wrapped = discrete_paths(oracle, spec, schedule, 60, seed=3)
    assert np.array_equal(exact.stop_n, wrapped.stop_n)
    assert np.array_equal(exact.stop_sum, wrapped.stop_sum)
    assert np.array_equal(exact.last_before, wrapped.last_before)
