"""The search twin: a region known by membership alone, the reference for every closed form.

``region_from_oracle`` wraps a predicate membership(t, s) as an
``OracleRegion``.  It is a ``geometry.Region``, so every free function and
bound calculator takes it where it takes a built-in region, and its methods
answer each geometry question by probing membership: ``bracket`` (double
or halve until membership flips), ``bisect``, ``optimize.golden_section_max``
and ``optimize.max_concave_over_box``, each to the region's own ``tol``.
Tests check the closed forms of the built-in families against these
searches, and the planes against ``support_audit`` on sampled members.  The
library builds no such region, and no slab box at a given t (``box``).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from stopbounds import optimize
from stopbounds.geometry import (
    EmptySliceError,
    GradientDomainError,
    Hyperplane,
    NonConvexityError,
    Region,
    RegionError,
    SlabMaxResult,
    _RAY_CAP,
    _T_CAP,
    ray_exit_time,
)
from stopbounds.simulate import _accepted_rows

DOUBLING_CAP = 0.5 * _RAY_CAP  # the last doubling probe below the ray cap


def bracket(flips: Callable[[float], bool], x: float, factor: float, cap: float, last=None):
    """(last x that did not flip, first x = start * factor**j that flips), x None if none does.

    Doubling stops past cap, halving below it; ``last`` starts as the point before the start.
    """
    while x <= cap if factor > 1.0 else x >= cap:
        if flips(x):
            return last, x
        last, x = x, x * factor
    return last, None


def bisect(holds: Callable[[float], bool], inside: float, outside: float, tol: float):
    """(inside, outside), where ``holds`` is true and false, bisected to tol or adjacent floats."""
    while abs(outside - inside) > tol:
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):  # adjacent floats: tol is below their spacing
            break
        if holds(mid):
            inside = mid
        else:
            outside = mid
    return inside, outside


def _boundary_root(member, inside: float, outside: float, tol=None) -> float:
    """The midpoint of ``bisect`` to tol (default 1e-9 of the larger end, at least 1e-9)."""
    if tol is None:
        tol = 1e-9 * max(1.0, abs(inside), abs(outside))
    inside, outside = bisect(member, inside, outside, tol)
    return 0.5 * (inside + outside)


def box(slab, t: float):
    """Elementwise box [lo, hi] of the sums s a slab allows at t, intersecting its primed slab."""
    lo = t * slab.lower_slope + slab.lower_icept
    hi = t * slab.upper_slope + slab.upper_icept
    if slab.primed is not None:
        plo, phi = box(slab.primed, t)
        lo = np.maximum(lo, plo)
        hi = np.minimum(hi, phi)
    return lo, hi


def _directions(d: int, extra: int, rng) -> list:
    """The 2d signed unit axes, then ``extra`` random unit vectors drawn from rng."""
    dirs = [np.eye(d)[k] * s for k in range(d) for s in (1.0, -1.0)]
    return dirs + [u / np.linalg.norm(u) for u in rng.normal(size=(extra, d))]


def _ray_member(region: Region, v: np.ndarray):
    def member(t: float) -> bool:
        return region.contains(t, t * v)

    return member


def _bracket_ray_exit(member, t: float):
    """Member lo (0.0 below 1e-300) and non-member hi (None past the cap) around the exit."""
    if member(t):
        return bracket(lambda x: not member(x), 2.0 * t, 2.0, _RAY_CAP, t)
    hi, lo = bracket(member, 0.5 * t, 0.5, 1e-300, t)
    return 0.0 if lo is None else lo, hi


def _audit_exit(member, lo: float, hi: float):
    """Convexity audit around an exit in [lo, hi]: inside must persist below, outside above."""
    if 0.0 < lo < math.inf and not member(0.25 * lo):
        raise NonConvexityError("membership not monotone along the ray below the exit")
    for factor in (1.5, 4.0):
        if 0.0 < hi * factor <= DOUBLING_CAP and member(hi * factor):
            raise NonConvexityError("membership recurs along the ray beyond the exit")


def region_from_oracle(membership, dim: int, kind: str = "continuity",
                       convex_closure: bool = False, contains_origin: bool = False) -> Region:
    """Wrap a plain membership predicate as an ``OracleRegion``, which searches."""
    return OracleRegion(kind, dim, convex_closure, contains_origin, membership)


def sample_member_points(region: Region, n_points: int, seed: int, t_max: float, s_span):
    """Rejection-sample up to n_points members of the region inside a box.

    Candidate k is the (t, s) that per-candidate calls rng.uniform(0, t_max),
    rng.uniform(-s_span, s_span) would return, up to 200*n_points candidates.
    """
    s_span = np.atleast_1d(np.asarray(s_span, dtype=float))
    rows = _accepted_rows(np.random.default_rng(seed), np.concatenate(([0.0], -s_span)),
                          np.concatenate(([t_max], s_span)), n_points,
                          lambda x: region.inside(x[:, 0], x[:, 1:]), 200 * n_points)
    return rows[:, 0], rows[:, 1:]


def support_audit(region: Region, hyp: Hyperplane, mean):
    """Raise NonConvexityError unless 200 members sampled from seed 7 lie below the plane.

    Members come from [0, 2m] x [-span, span] with span = 2m(|mean| + 1) and
    m the plane's anchor; each must satisfy value <= level + 1e-6 max(1, m).
    """
    m = hyp.anchor
    span = 2.0 * m * (np.abs(mean) + 1.0)
    ts, ss = sample_member_points(region, 200, 7, 2.0 * m, span)
    if ts.size:
        vals = ss @ hyp.s_coef + hyp.t_coef * ts
        slackness = 1e-6 * max(1.0, abs(m))
        if np.any(vals > hyp.level + slackness):
            raise NonConvexityError("support check failed: a member lies above the plane")


@dataclass(frozen=True)
class OracleRegion(Region):
    """Known by ``membership(t, s)`` alone (s a (d,) float vector): no slack or complement.

    It has none of the built-in capabilities: no boundary curve, flat slack
    or power exponent, and no time slab.  ``tol`` is how far every search
    may end from the boundary; None takes 1e-9 of the larger end of a ray's
    bracket (at least 1e-9), and 1e-9 on a slice or a slab.
    """

    membership: Callable[[float, np.ndarray], bool]
    tol: Optional[float] = None

    slack_batch = None
    scalar_boundary = boundary_slope = orientation = linear_slack = power_exponent = None
    time_slab = False

    def inside(self, ts, ss, strict: bool = False):
        """Membership asked point by point over any leading shape; strict raises RegionError."""
        if strict:
            raise RegionError("an oracle region answers closed membership only, not strict")
        ss = np.asarray(ss, dtype=float)
        if ss.ndim == 1:
            return bool(self.membership(ts, ss))
        ts = np.broadcast_to(ts, ss.shape[:-1])
        hits = [bool(self.membership(t, s))
                for t, s in zip(ts.ravel(), ss.reshape(-1, ss.shape[-1]))]
        return np.array(hits, dtype=bool).reshape(ts.shape)

    def complement_closure(self):
        raise RegionError("complement_closure requires a built-in region family")

    def contains_sums(self, n: int, lo, hi) -> bool:
        """Whether every corner of the box n*[lo, hi] is a member at t = n.

        A convex region's slice at t = n holds the box of sums exactly when
        it holds the corners.  An infinite coordinate of n*corner is asked
        as the largest float of its sign, so that a zero coefficient on it
        reads 0, not NaN; at n = 0 the sum of no increments is 0.
        """
        corners = itertools.product(*zip(np.atleast_1d(lo).tolist(), np.atleast_1d(hi).tolist()))
        big = sys.float_info.max
        return all(self.contains(n, np.clip(n * np.array(c), -big, big) if n else np.zeros(len(c)))
                   for c in corners)

    @property
    def _slice_tol(self) -> float:  # the search tolerance on a slice or a slab
        return 1e-9 if self.tol is None else self.tol

    def ray_exit(self, v: np.ndarray) -> float:
        return self._exit(v, self.tol, 1.0)  # log_gradient asks its stencil tighter

    def _exit(self, v: np.ndarray, tol: Optional[float], t_start: float) -> float:
        """sup{t >= 0 : (t, t v) in the region} from a bracket at ``t_start``, audited, bisected."""
        member = _ray_member(self, v)
        if not member(0.0):
            raise RegionError("asserted origin containment fails at (0, 0)")
        lo, hi = _bracket_ray_exit(member, max(float(t_start), 1e-12))
        if hi is None:
            return math.inf
        _audit_exit(member, lo, hi)
        return _boundary_root(member, lo, hi, tol)

    def exit_box_max(self, lo, hi) -> float:
        """The box search of ``max_concave_over_box`` on g = ``ray_exit_time``."""
        return optimize.max_concave_over_box(lambda v: ray_exit_time(self, v), lo, hi)

    def entry_and_exit(self, v: np.ndarray):
        """(inf A, sup A) of A = {t >= 0 : (t, t v) in the region}, or (None, None).

        An entry past the origin is scanned for by doubling from 2**-40.
        """
        member = _ray_member(self, v)
        if member(0.0):
            entry, t_in = 0.0, 1.0
        else:
            prev, t_in = bracket(member, 2.0**-40, 2.0, _RAY_CAP, 0.0)
            if t_in is None:
                return None, None
            entry = _boundary_root(member, t_in, prev, self.tol)
        lo, hi = _bracket_ray_exit(member, t_in)
        return entry, math.inf if hi is None else _boundary_root(member, lo, hi, self.tol)

    def log_gradient(self, mean: np.ndarray, g0: float) -> np.ndarray:
        """Richardson-extrapolated central differences of ln g at the mean, where g = g0."""
        # bisect the stencil's exit times far below the difference step, whose
        # quotient divides their error by about 1e-5
        tol = 1e-13 * g0
        grad = np.empty(mean.shape[0])
        for k in range(mean.shape[0]):
            h = 1e-5 * max(1.0, abs(mean[k]))

            def central(hh):
                vp = mean.copy()
                vm = mean.copy()
                vp[k] += hh
                vm[k] -= hh
                gp = self._exit(vp, tol, g0)
                gm = self._exit(vm, tol, g0)
                if not (np.isfinite(gp) and np.isfinite(gm) and gp > 0.0 and gm > 0.0):
                    raise GradientDomainError("g not finite in the difference stencil")
                return (math.log(gp) - math.log(gm)) / (2.0 * hh)

            coarse, fine = central(h), central(0.5 * h)
            grad[k] = (4.0 * fine - coarse) / 3.0
        return grad

    def _radial_boundary(self, n: float, mu: np.ndarray, u: np.ndarray, tol: float):
        """Distance along direction u from mu to the nearest member of the slice, or inf."""
        def member(r):
            return self.contains(n, n * (mu + r * u))

        r0 = 1e-9 * max(1.0, float(np.linalg.norm(mu)))
        outside, inside = bracket(member, r0, 2.0, r0 * 2.0**59, 0.0)
        return math.inf if inside is None else _boundary_root(member, inside, outside, tol)

    def _nearest_side(self, n: float, mu: np.ndarray, tol: float):
        """("above" | "below", distance) of the nearest member of a d = 1 slice that misses mu."""
        above, below = (self._radial_boundary(n, mu, np.array([sgn]), tol) for sgn in (1.0, -1.0))
        if math.isinf(min(above, below)):
            raise EmptySliceError(f"no member of the slice at n={n} found near the mean")
        return ("above", above) if above <= below else ("below", below)

    def slice_side(self, n: float, mu: np.ndarray) -> str:
        return self._nearest_side(n, mu, self._slice_tol)[0]

    def _slice_distance_2d(self, n: float, mu: np.ndarray, tol: float) -> float:
        def radial(a):
            return self._radial_boundary(n, mu, np.array([math.cos(a), math.sin(a)]), tol)

        angles = np.linspace(0.0, 2.0 * math.pi, 721)[:-1]
        dists = np.array([radial(a) for a in angles])
        if not np.any(np.isfinite(dists)):
            raise EmptySliceError(f"no member of the slice at n={n} found near the mean")
        best = int(np.argmin(dists))
        span = angles[1] - angles[0]
        # an angle off by 1e-12 moves the distance by about 1e-24 of it, far
        # below the bisection error of each radial distance
        refined = -optimize.golden_section_max(lambda a: -radial(a), angles[best] - span,
                                               angles[best] + span, 1e-12)
        return min(refined, float(dists[best]))

    def _slice_distance_nd(self, n: float, mu: np.ndarray, tol: float) -> float:
        def member(z: np.ndarray) -> bool:
            return self.contains(n, n * z)

        d = mu.shape[0]
        rng = np.random.default_rng(11)
        candidates = []
        for u in _directions(d, 4 * d, rng):
            r = self._radial_boundary(n, mu, u, tol)
            if math.isfinite(r):
                candidates.append(mu + r * u)
        if not candidates:
            raise EmptySliceError(f"no member of the slice at n={n} found near the mean")
        best = min(candidates, key=lambda z: np.linalg.norm(z - mu))
        best_d = float(np.linalg.norm(best - mu))
        # derivative-free descent over the convex slice: random steps, shrinking
        # radius, four restarts of 2500 steps
        for _ in range(4):
            z, dist, h = best.copy(), best_d, 0.5 * best_d
            for it in range(2500):
                u = rng.normal(size=d)
                u /= np.linalg.norm(u)
                cand = z + h * u
                if member(cand):
                    cd = float(np.linalg.norm(cand - mu))
                    if cd < dist:
                        z, dist = cand, cd
                        continue
                if it % 40 == 39:
                    h *= 0.8
                    if h < tol:
                        break
            if dist < best_d:
                best_d, best = dist, z
        return best_d

    def slice_distance(self, n: float, mu: np.ndarray) -> float:
        """Distance from mu to {z : (n, n z) in the region}: 0 when mu is a member."""
        if self.contains(n, n * mu):
            return 0.0
        tol = self._slice_tol
        if mu.shape[0] == 1:
            return self._nearest_side(n, mu, tol)[1]
        if mu.shape[0] == 2:
            return self._slice_distance_2d(n, mu, tol)
        return self._slice_distance_nd(n, mu, tol)

    def slab_max(self, slab) -> SlabMaxResult:
        """The largest t in [0, t_cap] whose box meets the slice: a scan in t, then a bisection.

        t_cap is 2**30, as on a built-in region.  The feasible t form an
        interval by convexity.  Failing t_cap, the scan tests from the top
        down the halvings t_cap/2, t_cap/4, ... to 1e-12, then 0, and among
        them the slab's breakpoints, where two box edges cross, each as the
        nearest float and its two neighbours, to a feasible t; the bisection
        runs to tol between it and the last infeasible t above it.  On a
        flat boundary a nonempty feasible set holds 0, t_cap or a
        breakpoint, so the scan finds it, even as one t between two floats,
        where the box is empty by far less than tol; on a curved boundary it
        may lie between two probes.
        """
        t_cap, tol = _T_CAP, self._slice_tol

        def feasible(t: float) -> bool:
            return self._meets_box(t, *box(slab, t), tol)

        if feasible(t_cap):
            return SlabMaxResult(math.inf, unbounded=True)
        probes = {0.0}
        for t in map(float, slab.breakpoints(t_cap)):
            probes.update((math.nextafter(t, -math.inf), t, math.nextafter(t, t_cap)))
        t = 0.5 * t_cap
        while t >= 1e-12:
            probes.add(t)
            t *= 0.5
        outside = t_cap
        for t in sorted(probes, reverse=True):
            if feasible(t):
                inside, outside = bisect(feasible, t, outside, tol)
                return SlabMaxResult(outside, uncertainty=outside - inside)
            outside = t
        return SlabMaxResult(0.0, empty_domain=True)

    def _meets_box(self, t: float, lo: np.ndarray, hi: np.ndarray, tol: float) -> bool:
        """Whether the box [lo, hi] at t meets the slice, up to tol.

        A box that is empty by at most tol on a coordinate stands for the
        segment between its edges there.  Failing the centre, the corners (up
        to d = 12) and a 65-point sweep of each of the d axis segments through
        the centre, each probe walks toward a member found by doubling from
        the centre; a boundary point so found within tol of the box counts.
        The doubling starts outside the box, so a bounded slice inside the box
        is found only by the probes: the sweep finds any such slice that
        covers more than 1/64 of one of those segments.
        """
        def member(s: np.ndarray) -> bool:
            return self.contains(t, s)

        if np.any(lo > hi + tol):
            return False
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        d = lo.shape[0]
        center = 0.5 * (lo + hi)
        probes = [center]
        if d <= 12:
            probes += [np.where(np.array(mask, dtype=bool), hi, lo)
                       for mask in itertools.product((0, 1), repeat=d)]
        grid, axis = np.linspace(lo, hi, 65), np.arange(d)
        sweep = (np.where(axis == k, row, center) for k in range(d) for row in grid)
        if any(member(p) for p in itertools.chain(probes, sweep)):
            return True
        r0 = float(np.max(hi - lo) + np.max(np.abs(center)) + 1.0)
        for u in _directions(d, 2 * d, np.random.default_rng(1234)):
            _, r = bracket(lambda r: member(center + r * u), r0, 2.0, r0 * 2.0**47)
            if r is not None:
                anchor = center + r * u
                break
        else:
            return False

        def walked(p):  # the boundary point on the segment from the probe p to the anchor
            step = anchor - p
            return p + _boundary_root(lambda x: member(p + x * step), 1.0, 0.0, 2.0**-60) * step

        return any(np.all(b >= lo - tol) and np.all(b <= hi + tol)
                   for b in itertools.chain([anchor], map(walked, probes)))
