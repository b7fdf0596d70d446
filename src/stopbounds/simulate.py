"""Exact Monte Carlo simulation of stopping times and the inequality validators.

One engine walks every path.  The runs are cut into chunks of ``_CHUNK``,
and a chunk advances one block of steps at a time as one (live runs x
block x d) matrix: one draw, one cumulative sum and one exit test at the
checkpoints inside the block.  Blocks grow from ``_FIRST`` steps, a little
more than a short walk uses, to ``_BLOCK``.  Runs that stopped are dropped
before the next block.  Every block of chunk c continues one counter-based
stream keyed by (seed, grid, c), one row per live run in run order.
The chunk size depends on neither ``n_runs`` nor the worker count, so
results are bit-identical for any number of workers.  Of W = min(workers,
chunks) shares, share w takes chunks w, w + W, ... with one ``StreamPool``
(``_in_shares``); a walk's share draws every block in place into one
scratch block of ``_CHUNK x _BLOCK x d`` doubles, so a walk allocates no
block arrays.  The calling thread takes share 0 and one module-wide thread
pool, built on the first call with more than one share and capped at the
CPU count, takes the others.  ``replay_run`` rebuilds one run's increments
from this layout.

Discrete walks apply the stopping rule only at schedule sizes, which are
enumerated lazily as the blocks reach them, and use closed membership by
default (a strict variant is a switch, which an oracle region refuses).

Brownian motion leaves a region with a flat boundary (constant, affine
and halfspace families) at an inverse-Gaussian time, which is sampled
exactly: one draw per run, and chunk c takes all of its draws from the
single stream keyed (seed, grid 2, c); its chunks are shared out
as the walk's are.  With noise it leaves a power boundary c*t^e with
e >= 1/2 at time 0, which needs no draw at all.
Other regions are walked by the engine as Euler increments (grid 1 at dt,
grid 0 at dt/4) with a checkpoint at every step and strict continuation,
so that drift-only passages land exactly on the boundary grid point.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .geometry import Region, _accepted_rows
from .moments import DistributionSpec, StreamPool, analytic_moments, sample_block, stream_for_run
from .schedules import SampleSchedule

_CHUNK = 4096  # runs per chunk: the unit of stream keying and of the shares
_FIRST = 16    # steps in a chunk's first block; each next block doubles, up to _BLOCK
_BLOCK = 128   # steps per block: a worker's scratch of 4096 runs x 128 steps is 4 MB at d = 1


class AllTruncatedError(RuntimeError):
    """Every run hit the horizon cap; no stopping-time estimate exists."""


@dataclass(frozen=True)
class PathSample:
    """Per-run records of one batch of simulated stopping times."""

    stop_n: np.ndarray          # stopping size or time, horizon value when truncated
    stop_sum: np.ndarray        # walk sum / path value at the stop, shape (runs, dim)
    last_before: np.ndarray     # last schedule size strictly before the stop
    truncated: np.ndarray       # boolean mask of runs that hit the horizon
    seed: int
    horizon: float

    @property
    def n_runs(self) -> int:
        return self.stop_n.shape[0]


@dataclass(frozen=True)
class SimulationEstimate:
    """Aggregated Monte Carlo estimate with truncation accounting.

    A nonzero ``truncated`` count biases the stopping-time mean downward, so
    certification must then only test upper bounds against it.
    """

    mean: float
    stderr: float
    n_runs: int
    truncated: int
    horizon: float
    seed: int
    extras: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def downward_biased(self) -> bool:
        return self.truncated > 0


def _mean_stderr(values: np.ndarray):
    mean = float(np.mean(values))
    if values.shape[0] > 1:
        stderr = float(np.std(values, ddof=1) / math.sqrt(values.shape[0]))
    else:
        stderr = 0.0
    return mean, stderr


def _exit_test(region: Region, boundary: str):
    """Stop test of a block given the boundary convention.

    Takes (steps,) checkpoint times and the (runs, steps, d) sums at them
    and gives (runs, steps) hits: ``Region.inside`` broadcasts the times
    against the block as it is.  A stopping region's hits are its
    membership; a continuity region negates its membership in place, so a
    NaN slack reads as outside.
    """
    strict = boundary == "strict"
    if region.kind == "stopping":
        return lambda ts, at: region.inside(ts, at, strict)

    def outside(ts, at):
        hits = region.inside(ts, at, strict)
        return np.logical_not(hits, out=hits)

    return outside


def _blocks(n_steps: int):
    """(start, length) of the blocks that cover steps 1..n_steps.

    Blocks grow from ``_FIRST`` to ``_BLOCK`` steps, so that short walks
    draw little more than they use and long ones few, large blocks.
    """
    start, length = 0, _FIRST
    while start < n_steps:
        yield start, min(length, n_steps - start)
        start, length = start + length, min(2 * length, _BLOCK)


def _stream_key(grid: int, chunk: int) -> int:
    """``StreamPool`` index of one chunk: 2 bits of grid, 30 of chunk, and 32 zero bits."""
    return grid << 62 | chunk << 32


_executor = None  # the thread pool of both samplers, built by the first call with two shares
_executor_lock = threading.Lock()


def _thread_cap() -> int:
    """Threads the pool may start: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _drop_executor():
    """Forget the pool in a forked child: its threads do not exist there."""
    global _executor, _executor_lock
    _executor, _executor_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_executor)


def _in_shares(walk: Callable[[range], None], n_chunks: int, workers: int):
    """Call ``walk(range(w, n_chunks, W))`` for each share w of W = min(workers, n_chunks).

    The calling thread walks share 0 and the module's pool the others.  A
    share the pool has not started by the time the caller is done is taken
    back and walked here, so no share waits on another, and shares queued
    behind a saturated pool, or submitted from one of its threads, cannot
    deadlock.  If a share raises, the others are cancelled or finished
    before the error propagates, so none writes after the return.
    """
    global _executor
    shares = max(1, min(workers, n_chunks))
    parts = [range(w, n_chunks, shares) for w in range(shares)]
    if shares == 1:
        walk(parts[0])
        return
    from concurrent.futures import ThreadPoolExecutor, wait  # loads logging: only when threaded

    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(_thread_cap(), thread_name_prefix="stopbounds")
        futures = [_executor.submit(walk, part) for part in parts[1:]]
    try:
        walk(parts[0])
        for part, future in zip(parts[1:], futures):
            if future.cancel():
                walk(part)
            else:
                future.result()
    finally:
        for future in futures:
            future.cancel()
        wait(futures)


class _Checkpoints:
    """Schedule sizes in (lo, hi], enumerated up to a reach that doubles as blocks pass it."""

    def __init__(self, schedule: SampleSchedule, horizon: int):
        self._schedule, self._horizon = schedule, horizon
        self._reach, self._points = 0, np.empty(0, dtype=np.int64)
        self._lock = threading.Lock()  # chunks on worker threads share the enumeration

    def __call__(self, lo: int, hi: int) -> np.ndarray:
        if hi > self._reach:
            with self._lock:
                if hi > self._reach:
                    reach = min(max(hi, 2 * self._reach), self._horizon)
                    self._points = np.fromiter(self._schedule.iter_elements(reach), np.int64)
                    self._reach = reach
        points = self._points
        return points[np.searchsorted(points, lo, "right"):np.searchsorted(points, hi, "right")]


def _walk(draw, checkpoints, stops, dim: int, n_steps: int, n_runs: int, seed: int,
          grid: int, workers: int, horizon: float, cap: float, scale: float = 1.0,
          anchor: float = 0.0) -> PathSample:
    """Walk ``n_runs`` paths for at most ``n_steps`` steps, chunk by chunk.

    ``draw(rng, out)`` fills a (runs, length, dim) block of increments in
    place, ``checkpoints(lo, hi)`` gives the steps in (lo, hi] where the rule
    is checked, and ``stops(ts, at)`` the exit test of the sums ``at`` at
    those steps, at times ``ts = step * scale``.  ``anchor`` is the time
    recorded as ``last_before`` for a stop at the first checkpoint;
    truncated runs record ``cap`` as their stop.  Each share of the chunks
    (``_in_shares``) walks them with one ``StreamPool``, a chunk drawing all
    its blocks from ``pool.stream(_stream_key(grid, chunk))`` into one scratch block.
    """
    stop_n = np.full(n_runs, float(cap))
    stop_sum = np.empty((n_runs, dim))
    last_before = np.empty(n_runs)
    truncated = np.zeros(n_runs, dtype=bool)
    width = min(n_runs, _CHUNK)

    def run_chunk(chunk: int, pool: StreamPool, scratch: np.ndarray, carry: np.ndarray):
        rows = np.arange(chunk * _CHUNK, min((chunk + 1) * _CHUNK, n_runs))
        total = carry[:rows.size]
        total.fill(0.0)
        last = float(anchor)
        rng = pool.stream(_stream_key(grid, chunk))
        for start, length in _blocks(n_steps):
            if not rows.size:
                break
            sums = scratch[:rows.size * length * dim].reshape(rows.size, length, dim)
            draw(rng, sums)
            np.cumsum(sums, axis=1, out=sums)
            sums += total[:, None, :]
            live = slice(None)
            steps = checkpoints(start, start + length)
            if steps.size:
                ts = steps * scale
                at = sums if steps.size == length else sums[:, steps - start - 1]
                hits = stops(ts, at)
                first = hits.argmax(axis=1)
                done = hits[np.arange(rows.size), first]
                if done.any():
                    j, gone = first[done], rows[done]
                    stop_n[gone] = ts[j]
                    stop_sum[gone] = at[done, j]
                    last_before[gone] = np.where(j > 0, ts[j - 1], last)
                    live = ~done
                    rows = rows[live]
                last = float(ts[-1])
            total = carry[:rows.size]
            total[...] = sums[live, -1]
        truncated[rows] = True
        stop_sum[rows] = total
        last_before[rows] = last

    def run_share(chunks: range):
        pool = StreamPool(seed)
        scratch = np.empty(width * min(n_steps, _BLOCK) * dim)
        carry = np.empty((width, dim))  # each live run's sum before the block
        for chunk in chunks:
            run_chunk(chunk, pool, scratch, carry)

    _in_shares(run_share, -(-n_runs // _CHUNK), workers)
    if bool(truncated.all()):
        raise AllTruncatedError("every run hit the horizon cap")
    return PathSample(stop_n, stop_sum, last_before, truncated, seed, float(horizon))


def _last_step(schedule: SampleSchedule, horizon: int) -> int:
    """The last sample size a walk may need: the horizon or a finite schedule's end."""
    if schedule.element(1) > horizon:
        raise ValueError("horizon lies below the first schedule element")
    return min(horizon, schedule.values[-1]) if schedule.finite else horizon


def discrete_paths(region: Region, spec: DistributionSpec, schedule: SampleSchedule,
                   n_runs: int, horizon: int = 1_000_000, seed: int = 0,
                   boundary: str = "closed", workers: int = 1) -> PathSample:
    """Simulate stopping times of the i.i.d. walk (grid 0 of the stream layout).

    The rule is evaluated only at schedule sizes; ``last_before`` records
    the schedule size preceding the stop (the start anchor when the rule
    fires at the first size).  Runs reaching the horizon are marked
    truncated; a finite schedule ends the walk at its last size.  An oracle
    region refuses ``boundary="strict"`` with ``RegionError``.
    """
    if boundary not in ("closed", "strict"):
        raise ValueError("boundary must be 'closed' or 'strict'")
    if region.dim != spec.dim:
        raise ValueError("region and distribution dimensions disagree")
    n_steps = _last_step(schedule, horizon)
    d = spec.dim

    def draw(rng, out: np.ndarray):
        sample_block(spec, rng, out.shape[0] * out.shape[1], out.reshape(-1, d))

    return _walk(draw, _Checkpoints(schedule, horizon), _exit_test(region, boundary), d,
                 n_steps, n_runs, seed, 0, workers, horizon, cap=horizon, anchor=schedule.n0)


def replay_run(seed: int, run: int, spec: DistributionSpec, schedule: SampleSchedule,
               stop_n: np.ndarray, horizon: int) -> np.ndarray:
    """The increments of one run of ``discrete_paths`` up to its stop, shape (steps, dim).

    Rebuilt from the stream layout alone: each block, in turn, drew from the
    chunk's stream one row per run of the chunk whose stop lies beyond the
    block's start, in run order.  ``stop_n`` holds the stop sizes of all the
    walk's runs, which fix those rows; the schedule and horizon fix where the walk ends.
    """
    chunk, d = run // _CHUNK, spec.dim
    peers = np.asarray(stop_n)[chunk * _CHUNK:(chunk + 1) * _CHUNK]
    end = int(stop_n[run])
    rng, out = StreamPool(seed).stream(_stream_key(0, chunk)), []
    for start, length in _blocks(_last_step(schedule, horizon)):
        if start >= end:
            break
        live = peers > start
        draws = sample_block(spec, rng, live.sum() * length)
        row = np.count_nonzero(live[:run - chunk * _CHUNK])
        out.append(draws.reshape(-1, length, d)[row])
    return np.concatenate(out)[:end]


def estimate_from_paths(paths: PathSample, overshoot_level: Optional[float] = None) -> SimulationEstimate:
    mean, stderr = _mean_stderr(paths.stop_n)
    extras = {}
    for k in range(paths.stop_sum.shape[1]):
        extras[f"stop_sum[{k}]"] = _mean_stderr(paths.stop_sum[:, k])
    extras["last_before"] = _mean_stderr(paths.last_before)
    if overshoot_level is not None:
        extras["overshoot"] = _mean_stderr(paths.stop_sum[:, 0] - overshoot_level)
    return SimulationEstimate(mean, stderr, paths.n_runs, int(paths.truncated.sum()),
                              paths.horizon, paths.seed, extras)


def run_discrete(region: Region, spec: DistributionSpec, schedule: SampleSchedule,
                 n_runs: int, horizon: int = 1_000_000, seed: int = 0,
                 boundary: str = "closed", workers: int = 1,
                 overshoot_level: Optional[float] = None) -> SimulationEstimate:
    """Monte Carlo estimate of the expected stopping size (see discrete_paths)."""
    paths = discrete_paths(region, spec, schedule, n_runs, horizon, seed, boundary, workers)
    return estimate_from_paths(paths, overshoot_level)


# ---------------------------------------------------------------------------
# Brownian motion
# ---------------------------------------------------------------------------


def _coefficients(drift, diffusion):
    """Drift vector and per-coordinate diffusion; a scalar diffusion applies to every coordinate."""
    drift_vec = np.atleast_1d(np.asarray(drift, dtype=float))
    sigma = np.atleast_1d(np.asarray(diffusion, dtype=float))
    if sigma.shape[0] == 1 and drift_vec.shape[0] > 1:
        sigma = np.full(drift_vec.shape[0], float(sigma[0]))
    return drift_vec, sigma


def _brownian_paths(region: Region, drift_vec: np.ndarray, sigma: np.ndarray, dt: float,
                    n_runs: int, horizon: float, seed: int, grid: int,
                    workers: int) -> PathSample:
    """Euler walk: increments drift*dt + sqrt(dt)*diffusion*N(0, 1), checked every step.

    A continuity region continues strictly, so that drift-only passages stop
    exactly at the boundary grid point, but an oracle region, which knows
    closed membership only, continues on its closure.
    """
    d = drift_vec.shape[0]
    n_steps = int(math.ceil(horizon / dt))
    step_drift, step_noise = drift_vec * dt, math.sqrt(dt) * sigma
    noisy = bool(np.any(sigma != 0.0))

    def draw(rng, out: np.ndarray):
        if not noisy:
            out[...] = step_drift
            return
        rng.standard_normal(out=out)
        out *= step_noise
        out += step_drift

    boundary = "strict" if region.kind == "continuity" and region.closed_form else "closed"
    return _walk(draw, lambda lo, hi: np.arange(lo + 1, hi + 1), _exit_test(region, boundary),
                 d, n_steps, n_runs, seed, grid, workers, horizon, cap=float(n_steps) * dt,
                 scale=dt)


def _passage_line(region: Region):
    """(a, b, c) such that the exit is the first time <a, W_t> + b*t reaches c.

    For the regions with a flat boundary (``Region.linear_slack``).  When
    c > 0 the start (0, 0) lies on the side <a, s> + b*t < c: c is the
    start's slack for a continuity region and its negation for a stopping
    region.  When c <= 0 the start is already outside.
    """
    alpha, beta, kappa = region.linear_slack
    if region.kind == "continuity":
        return beta, kappa, alpha
    return -beta, -kappa, -alpha


def _passage_times(rng: np.random.Generator, n: int, c: float, gamma: float,
                   v: float) -> np.ndarray:
    """n first times at which a Brownian motion with drift gamma and variance v reaches c.

    An inverse Gaussian IG(c/gamma, c^2/v) time for gamma > 0, drawn with
    ``Generator.wald`` (Michael, Schucany & Haas 1976); the Levy time
    c^2/(v Z^2) for gamma = 0; for gamma < 0 the level is reached with
    probability exp(2 c gamma / v), and then at an IG(c/|gamma|, c^2/v)
    time.  A level never reached gives inf.
    """
    if c <= 0.0:
        return np.zeros(n)
    if v == 0.0:
        return np.full(n, c / gamma if gamma > 0.0 else math.inf)
    if gamma > 0.0:
        return rng.wald(c / gamma, c * c / v, n)
    if gamma == 0.0:
        z = rng.standard_normal(n)
        with np.errstate(divide="ignore"):
            return c * c / (v * z * z)
    tau = np.full(n, math.inf)
    hit = rng.random(n) < math.exp(2.0 * c * gamma / v)
    tau[hit] = rng.wald(c / -gamma, c * c / v, int(np.count_nonzero(hit)))
    return tau


def _exact_paths(region: Region, drift_vec: np.ndarray, sigma: np.ndarray, n_runs: int,
                 horizon: float, seed: int, workers: int = 1) -> PathSample:
    """Exact first passage through a flat boundary, one stream per chunk (grid 2).

    Y_t = <a, W_t> + b*t is a Brownian motion with drift gamma = <a, mu> + b
    and variance v = sum_i a_i^2 sigma_i^2, and the exit is Y's passage
    through c (``_passage_times``).  The rest of the path is independent of
    Y: at the exit, W = mu*tau + k*(c - gamma*tau) + R with k = Sigma a / v
    and R = sqrt(tau)*sigma*(z - q<q, z>) ~ N(0, tau*(Sigma - Sigma a a' Sigma / v)),
    q = sigma*a/sqrt(v) and z standard normal.  A run that has not exited by
    the horizon h is truncated; its W_h is drawn from N(mu*h, Sigma*h) by
    rejection, keeping a proposal with Y_h = y < c with the probability
    1 - exp(-2c(c - y)/(v h)) that the bridge between them stayed below c.
    Each chunk draws its passage times, then the residuals R of the runs
    that exited, then the proposals for the truncated runs.  The chunks are
    shared out over ``workers`` as the walk's are (``_in_shares``), one
    ``StreamPool`` per share.
    """
    a, b, c = _passage_line(region)
    gamma = float(a @ drift_vec) + b
    v = float(np.sum((a * sigma) ** 2))
    d, h = drift_vec.shape[0], float(horizon)
    k = sigma**2 * a / v if v > 0.0 else np.zeros(d)
    q = sigma * a / math.sqrt(v) if v > 0.0 else np.zeros(d)
    level = max(c, 0.0)  # Y at the exit; 0 when the start is already outside
    spread = np.count_nonzero(sigma) > (1 if v > 0.0 else 0)  # R is not identically 0
    stop_n = np.empty(n_runs)
    stop_sum = np.empty((n_runs, d))
    truncated = np.zeros(n_runs, dtype=bool)

    def survivors(rng, n: int) -> np.ndarray:
        out, filled, batch = np.empty((n, d)), 0, n
        while filled < n:
            w = drift_vec * h + math.sqrt(h) * sigma * rng.standard_normal((batch, d))
            if v > 0.0:
                gap = np.maximum(c - (w @ a + b * h), 0.0)
                w = w[rng.random(batch) < -np.expm1(-2.0 * c * gap / (v * h))]
            take = min(n - filled, w.shape[0])
            out[filled:filled + take] = w[:take]
            filled, batch = filled + take, min(2 * batch, 1 << 16)
        return out

    def run_share(chunks: range):
        pool = StreamPool(seed)
        for chunk in chunks:
            rows = np.arange(chunk * _CHUNK, min((chunk + 1) * _CHUNK, n_runs))
            rng = pool.stream(_stream_key(2, chunk))
            tau = _passage_times(rng, rows.size, c, gamma, v)
            cut = tau > h
            done, gone = rows[~cut], rows[cut]
            t = tau[~cut, None]
            w = drift_vec * t + k * (level - gamma * t)
            if spread:
                z = rng.standard_normal(w.shape)
                w += np.sqrt(t) * sigma * (z - np.outer(z @ q, q))
            stop_n[done], stop_sum[done] = tau[~cut], w
            stop_n[gone], stop_sum[gone], truncated[gone] = h, survivors(rng, gone.size), True

    _in_shares(run_share, -(-n_runs // _CHUNK), workers)
    if bool(truncated.all()):
        raise AllTruncatedError("every run hit the horizon cap")
    # monitoring is continuous: the last time checked before the stop is the stop
    return PathSample(stop_n, stop_sum, stop_n, truncated, seed, h)


def _leaves_at_once(region: Region, sigma: np.ndarray) -> bool:
    """Whether a noisy path crosses the boundary c*t^e (e >= 1/2) at once.

    With sigma > 0, (c*t^e - mu*t)/(sigma*sqrt(t)) stays bounded as t -> 0,
    while B_t/sqrt(t) takes values above and below any level at times
    arbitrarily close to 0 (Brownian scaling and Blumenthal's 0-1 law, or
    the law of the iterated logarithm).  So W_t - c*t^e changes sign at
    once and tau = 0 almost surely, for either orientation and kind.
    """
    exponent = region.power_exponent
    return exponent is not None and exponent >= 0.5 and bool(np.any(sigma != 0.0))


def run_brownian(region: Region, drift, diffusion, dt: float, n_runs: int,
                 horizon: float = 10_000.0, seed: int = 0, workers: int = 1) -> SimulationEstimate:
    """First passage of drifted Brownian motion W_t = mu*t + diag(diffusion) B_t.

    A power boundary with exponent >= 1/2 is left at time 0 by a noisy path
    (``_leaves_at_once``): every run stops at 0 with W = 0, no stream is
    drawn and ``diagnostics["passage"]`` is "immediate".  Regions with a
    flat boundary (constant, affine and halfspace families) take the exact
    passage sampler ``_exact_paths`` on ``workers`` threads.  In both cases
    the estimate does not depend on dt, ``extras["coarse"]`` repeats the
    headline figures and the discretization diagnostic is 0; the exact
    sampler's ``diagnostics["passage"]`` is "exact-inverse-gaussian".  Other
    regions are walked with Euler steps at dt (stream grid 1) and dt/4
    (grid 0) on ``workers`` threads: the headline figures come from the
    finer grid, the coarse ones go to ``extras["coarse"]`` and their
    difference is the discretization diagnostic.  Discrete crossing
    detection misses excursions between grid points, which biases passage
    times upward for exits through an upper boundary.
    """
    drift_vec, sigma = _coefficients(drift, diffusion)
    at_once = _leaves_at_once(region, sigma)
    if at_once or region.linear_slack is not None:
        if at_once:
            zeros = np.zeros(n_runs)
            paths = PathSample(zeros, np.zeros((n_runs, drift_vec.shape[0])), zeros,
                               np.zeros(n_runs, dtype=bool), seed, float(horizon))
        else:
            paths = _exact_paths(region, drift_vec, sigma, n_runs, horizon, seed, workers)
        mean, stderr = coarse = _mean_stderr(paths.stop_n)
        diag = {"dt": dt, "dt_fine": dt, "discretization_diagnostic": 0.0,
                "passage": "immediate" if at_once else "exact-inverse-gaussian"}
    else:
        coarse_paths = _brownian_paths(region, drift_vec, sigma, dt, n_runs, horizon, seed,
                                       grid=1, workers=workers)
        paths = _brownian_paths(region, drift_vec, sigma, dt / 4.0, n_runs, horizon, seed,
                                grid=0, workers=workers)
        mean, stderr = _mean_stderr(paths.stop_n)
        coarse = _mean_stderr(coarse_paths.stop_n)
        diag = {"dt": dt, "dt_fine": dt / 4.0,
                "discretization_diagnostic": abs(mean - coarse[0]),
                "passage": "euler-two-grid"}
    extras = {"coarse": coarse}
    for k in range(paths.stop_sum.shape[1]):
        extras[f"stop_sum[{k}]"] = _mean_stderr(paths.stop_sum[:, k])
    return SimulationEstimate(mean, stderr, n_runs, int(paths.truncated.sum()),
                              horizon, seed, extras, diag)


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationResult:
    name: str
    passed: bool
    margins: dict = field(default_factory=dict)
    witness: Optional[dict] = None


def box_rejection_sampler(halfspaces, box_lo, box_hi):
    """Sampler ``draw(rng, n) -> (n, d)`` of uniform points in a polytope, by rejection from a box.

    Point k is the k-th box point ``rng.uniform(box_lo, box_hi)`` inside every
    (normal, offset) halfspace {x : <normal, x> <= offset} to 1e-12.  At most
    max(200*n, 100 000) box points are tried; with fewer than n hits among
    them, ``draw`` raises RuntimeError.
    """
    lo = np.atleast_1d(np.asarray(box_lo, dtype=float))
    hi = np.atleast_1d(np.asarray(box_hi, dtype=float))
    normals = np.array([np.atleast_1d(w) for w, _ in halfspaces], dtype=float).reshape(-1, lo.size)
    offsets = np.array([c for _, c in halfspaces], dtype=float)

    def inside(x):
        return np.all(x @ normals.T <= offsets + 1e-12, axis=1)

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        points = _accepted_rows(rng, lo, hi, n, inside, max(200 * n, 100_000))
        if points.shape[0] < n:
            raise RuntimeError("rejection sampler failed to hit the polytope")
        return points

    return draw


def validate_convex_mean(halfspaces, sampler: Callable, n_samples: int,
                         seed: int = 0) -> ValidationResult:
    """Check that the empirical mean of points inside a polytope stays inside.

    ``halfspaces`` is a list of (normal, offset) with the polytope
    {x : <normal, x> <= offset}; ``sampler(rng, n)`` returns the (n, d)
    sample in one call.  A failure returns the violated halfspace.
    """
    mean = sampler(np.random.default_rng(seed), n_samples).mean(axis=0)
    margins = {}
    for i, (w, c) in enumerate(halfspaces):
        margins[f"halfspace[{i}]"] = float(c - np.dot(w, mean))
    for i, (w, c) in enumerate(halfspaces):
        if float(np.dot(w, mean)) > c + 1e-9:
            return ValidationResult("convex-mean", False, margins,
                                    {"halfspace": i, "normal": list(map(float, np.atleast_1d(w))),
                                     "offset": float(c), "mean": mean.tolist()})
    return ValidationResult("convex-mean", True, margins)


_PERSPECTIVE_BLOCK = 65_536  # trials drawn and tested at a time


def validate_perspective(gfun: Callable, n_trials: int, seed: int = 0,
                         dim: int = 1) -> ValidationResult:
    """Probabilistic audit that (t, s) -> t * gfun(s/t) is jointly convex for t > 0.

    ``gfun`` maps (n, dim) points to n values.  Trial k draws t1, t2 in
    [0.2, 3], s1, s2 in [-3, 3]^dim and rho in [0.05, 0.95] as per-trial
    ``rng.uniform`` calls in that order would, in blocks of at most
    ``_PERSPECTIVE_BLOCK`` trials.  The first chord more than 1e-10 below
    the surface fails with its witness triple and ends the draws, which
    happens quickly when gfun itself is not convex; ``trials`` counts the
    trials up to it and ``worst_gap`` is their smallest gap.
    """
    rng = np.random.default_rng(seed)
    lo = np.array([0.2, 0.2] + [-3.0] * (2 * dim) + [0.05])
    hi = np.array([3.0, 3.0] + [3.0] * (2 * dim) + [0.95])

    def f(t, s):
        return t * gfun(s / t[:, None])

    worst, done = math.inf, 0
    while done < n_trials:
        u = lo + (hi - lo) * rng.random((min(_PERSPECTIVE_BLOCK, n_trials - done), lo.size))
        t1, t2, rho = u[:, 0], u[:, 1], u[:, -1]
        s1, s2 = u[:, 2:2 + dim], u[:, 2 + dim:-1]
        tm = rho * t1 + (1 - rho) * t2
        sm = rho[:, None] * s1 + (1 - rho)[:, None] * s2
        gap = rho * f(t1, s1) + (1 - rho) * f(t2, s2) - f(tm, sm)
        bad = np.flatnonzero(gap < -1e-10)
        if bad.size:  # the first failing gap is the smallest one so far
            k = bad[0]
            return ValidationResult("perspective-convexity", False,
                                    {"worst_gap": float(gap[k]), "trials": done + int(k) + 1},
                                    {"t1": float(t1[k]), "s1": s1[k].tolist(), "t2": float(t2[k]),
                                     "s2": s2[k].tolist(), "rho": float(rho[k])})
        seen = gap[~np.isnan(gap)]  # as in a running min(): NaN never wins, the first tie does
        if seen.size:
            worst = min(worst, float(seen[np.argmin(seen)]))
        done += u.shape[0]
    return ValidationResult("perspective-convexity", True,
                            {"worst_gap": worst, "trials": n_trials})


def _four_sigma(name: str, diff: np.ndarray, equality: bool = False, **margins) -> ValidationResult:
    """The 4-sigma verdict on per-run differences: |mean| <= 4 stderr for an
    equality, mean >= -4 stderr for an inequality."""
    mean, stderr = _mean_stderr(diff)
    slack = 4.0 * stderr
    return ValidationResult(name, abs(mean) <= slack if equality else mean >= -slack,
                            {"mean_gap": mean, "stderr": stderr, **margins})


def validate_identity(which: str, scenario: dict, n_runs: int, seed: int = 0) -> ValidationResult:
    """Monte Carlo check of one generalized identity or inequality.

    ``scenario`` supplies the simulation inputs: keys ``spec``, ``region``,
    ``schedule`` (plus ``gfun`` for the sample-mean inequalities, ``p`` for
    the norm inequality, ``lam`` for the overshoot checks against the bounds
    module).  ``gfun`` maps (n, d) points to n values and is called once on
    the runs' array.  Equalities pass when |mean| <= 4 stderr of the
    per-run difference; inequalities when mean >= -4 stderr, so ``n_runs``
    must be at least 2.
    """
    if n_runs < 2:
        raise ValueError("a 4-sigma verdict needs at least 2 runs")
    if which in ("jensen-T3",):
        gfun = scenario["gfun"]
        y_spec, z_spec = scenario["y_spec"], scenario["z_spec"]
        rng = stream_for_run(seed, 0)
        y = sample_block(y_spec, rng, n_runs)[:, 0]
        z = sample_block(z_spec, rng, n_runs)[:, 0]
        if np.any(y <= 0):
            raise ValueError("jensen-T3 check needs a positive ratio variable")
        lhs = y * gfun((z / y)[:, None])
        ratio = float(np.mean(z)) / float(np.mean(y))
        rhs = float(np.mean(y)) * float(gfun(np.array([[ratio]]))[0])
        return _four_sigma(which, lhs - rhs)

    paths = discrete_paths(scenario["region"], scenario["spec"], scenario["schedule"],
                           n_runs, scenario.get("horizon", 1_000_000), seed,
                           scenario.get("boundary", "closed"))
    spec = scenario["spec"]
    prof = analytic_moments(spec)
    mu = prof.mean
    n = paths.stop_n
    s = paths.stop_sum
    gfun = scenario.get("gfun")
    if which == "wald-T4-I":
        if gfun is None:
            # linear rule function: the inequality collapses to Wald equality
            return _four_sigma(which, s[:, 0] - n * mu[0], True, mode="equality")
        diff = n * gfun(s / n[:, None]) - n * float(gfun(mu[None, :])[0])
        return _four_sigma(which, diff, mode="inequality")
    if which == "wald-T4-II":
        vbar = (s - n[:, None] * mu) ** 2 / n[:, None]
        if gfun is None:
            return _four_sigma(which, n * vbar[:, 0] - n * prof.variance[0], True,
                               mode="equality")
        diff = n * gfun(vbar) - n * float(gfun(prof.variance[None, :])[0])
        return _four_sigma(which, diff, mode="inequality")
    if which == "lp-norm":
        p = scenario.get("p", 2)
        lhs = np.linalg.norm(s, ord=p, axis=1)
        return _four_sigma(f"lp-norm-p{p}", lhs - n * float(np.linalg.norm(mu, ord=p)))
    if which in ("lorden-T6", "lorden-T7"):
        # the one validator that consumes a calculator; imported here so the
        # simulator stays importable without the bounds machinery
        from .bounds import overshoot_upper_bound

        lam = scenario["lam"]
        level = lam if isinstance(lam, (int, float)) else None
        if level is None:
            raise ValueError("overshoot validators use a constant threshold")
        mean, stderr = _mean_stderr(s[:, 0] - level)
        # the validator's name is its bound's tag with a lowercase initial
        report = overshoot_upper_bound(spec, lam, scenario["schedule"], "L" + which[1:])
        ok = report.applicable and mean - 4.0 * stderr <= report.value
        return ValidationResult(which, ok,
                                {"mc_overshoot": mean, "stderr": stderr,
                                 "bound": report.value})
    raise ValueError(f"unknown identity check {which!r}")
