"""Convex-optimization kernels behind the slab and vertex bounds.

Three operations: maximize the time coordinate over a slab-constrained
region slice, maximize a concave function over a box, and maximize the
fractional vertex form over the corners of the unit cube.  All of them are
deterministic: the box search draws its random starts from a fixed seed.
The slab maximum is the region's own ``slab_max``: a closed form on a
built-in region, for a plain or a primed slab alike.  The box maximum is a
function kernel (golden section for d = 1, multi-start ascent above); a
built-in region's ``exit_box_max`` is a closed form and needs none.  The
vertex maximum is a threshold argument in exact integers: numerator and
denominator are affine in the vertex q, so at the maximum ratio lam* each
q_i is 1 where its gain n_i - lam* d_i is positive and 0 where it is
negative, and one sweep through the sorted breakpoints n_i/d_i meets a
maximizer among d + 1 vertices.  Its positivity proviso is decided on the
exact least denominator, ties go to the lexicographically smallest
maximizing vertex, and the maximum ratio is rounded up to a float.  Slabs
hold tuples of Python floats.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .geometry import Hyperplane, Region, SlabMaxResult, _numerators, as_floats, float_at_least


class ProvisoViolatedError(RuntimeError):
    """The positivity proviso of the vertex bound fails; the bound is inapplicable."""


@dataclass(frozen=True)
class Slab:
    """Constraint t*lower_slope + lower_icept <= s <= t*upper_slope + upper_icept.

    Each of the four rows is held as a tuple of Python floats, one per
    coordinate, whatever sequence it is given as.  An optional primed
    quadruple intersects a second slab of the same form.  ``is_empty`` flags
    a lower slope or intercept above its upper one: the box may still be
    non-empty on an interval of t, which the slab maximum finds, as for a
    primed slab.
    """

    lower_slope: tuple
    upper_slope: tuple
    lower_icept: tuple
    upper_icept: tuple
    primed: Optional["Slab"] = None

    def __post_init__(self):
        names = ("lower_slope", "upper_slope", "lower_icept", "upper_icept")
        for name in names:
            object.__setattr__(self, name, as_floats(getattr(self, name)))
        if len({len(getattr(self, name)) for name in names}) != 1:
            raise ValueError("the four rows of a slab must have one length")
        if self.primed is not None and self.primed.dim != self.dim:
            raise ValueError("a slab and its primed slab must have one dimension")

    @property
    def dim(self) -> int:
        return len(self.lower_slope)

    @cached_property
    def is_empty(self) -> bool:
        return (any(lo > hi for lo, hi in zip(self.lower_slope, self.upper_slope))
                or any(lo > hi for lo, hi in zip(self.lower_icept, self.upper_icept))
                or (self.primed is not None and self.primed.is_empty))


def max_time_in_region(region: Region, slab: Slab) -> SlabMaxResult:
    """Largest t whose slab box intersects the region slice: the region's ``slab_max``.

    Feasibility at t = 2**30 is reported as an unbounded domain; feasibility
    nowhere as an empty one.  A built-in region answers in closed form.
    """
    if not region.convex_closure:
        raise ValueError("max_time_in_region requires the asserted convex closure")
    if slab.dim != region.dim:
        raise ValueError("region and slab dimensions disagree")
    return region.slab_max(slab)


def golden_section_max(fun: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Largest value of fun found by golden-section search on [a, b], down to b - a <= tol.

    fun is taken to be unimodal on [a, b].  A probe that reads +inf is
    returned at once.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, e = b - invphi * (b - a), a + invphi * (b - a)
    fc, fe = fun(c), fun(e)
    while math.inf not in (fc, fe) and b - a > tol:
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = fun(e)
    return max(fc, fe)


def max_concave_over_box(fun: Callable[[np.ndarray], float], lo, hi,
                         tol: float = 1e-10) -> float:
    """Maximum of a caller-asserted concave function over the box [lo, hi].

    The corners (for d <= 12) and the centre first, then golden-section
    search for d=1 and projected multi-start ascent for d >= 2.  An infinite
    probe value propagates as the maximum.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if np.any(lo > hi):
        raise ValueError("box is empty")
    d = lo.shape[0]

    def probe(x: np.ndarray) -> float:
        v = float(fun(x))
        if math.isnan(v):
            raise ValueError("objective returned NaN inside the box")
        return v

    corners = [np.where(np.array(mask), hi, lo)
               for mask in itertools.product((0, 1), repeat=d)] if d <= 12 else []
    base_points = corners + [0.5 * (lo + hi)]
    best = -math.inf
    for p in base_points:
        v = probe(p)
        if v == math.inf:
            return math.inf
        best = max(best, v)

    if d == 1:
        a, b = float(lo[0]), float(hi[0])
        if b - a <= tol:
            return best
        return max(best, golden_section_max(lambda x: probe(np.array([x])), a, b, tol))

    rng = np.random.default_rng(3)
    width = hi - lo
    for r in range(6):  # the box centre, then five random starts
        x = lo + rng.random(d) * width if r else 0.5 * (lo + hi)
        fx = probe(x)
        if fx == math.inf:
            return math.inf
        step_scale = 1.0
        for _ in range(400):
            h = 1e-6 * np.maximum(1.0, np.abs(x))
            grad = np.empty(d)
            for k in range(d):
                xp, xm = x.copy(), x.copy()
                xp[k] = min(hi[k], x[k] + h[k])
                xm[k] = max(lo[k], x[k] - h[k])
                denom = xp[k] - xm[k]
                fp, fm = probe(xp), probe(xm)
                if math.inf in (fp, fm):
                    return math.inf
                grad[k] = (fp - fm) / denom if denom > 0 else 0.0
            gnorm = float(np.linalg.norm(grad))
            if gnorm * step_scale * float(np.max(width)) < tol:
                break
            cand = np.clip(x + step_scale * grad / max(gnorm, 1e-300) * np.max(width), lo, hi)
            if np.array_equal(cand, x):  # pinned to the box: smaller steps stay put too
                break
            fc = probe(cand)
            if fc == math.inf:
                return math.inf
            if fc > fx:
                x, fx = cand, fc
            else:
                step_scale *= 0.5
                if step_scale < 1e-12:
                    break
        best = max(best, fx)
    return best


class VertexMaxResult(NamedTuple):  # a tuple: cheaper than a dataclass to define at import
    value: float
    vertex: tuple
    min_denominator: float


def vertex_fraction_max(hyp: Hyperplane, slab: Slab) -> VertexMaxResult:
    """Maximum of (level - <a, icept(q)>) / (t_coef + <a, slope(q)>) over cube vertices.

    q ranges over {0,1}^d; slope(q) interpolates the upper and lower slab
    slopes elementwise and icept(q) the intercepts, so the ratio is
    (N0 + sum q_i n_i) / (D0 + sum q_i d_i), each gain an exact integer over
    one common denominator.  The proviso, every denominator positive, is
    decided first and exactly: a negative minimum D0 + sum min(0, d_i)
    raises, and a minimum of 0 leaves the maximum unbounded: +inf at the
    vertex taking 1 exactly where d_i < 0.  Otherwise a maximizer takes
    q_i = 1 where n_i - lam* d_i > 0 and 0 where it is < 0, for the maximum
    ratio lam* (Dinkelbach, Management Science 1967), and that choice only
    changes where lam passes a breakpoint n_i/d_i: the best ratio along one
    sweep flipping the coordinates in increasing order of breakpoint is
    lam*.  Ties go to the lexicographically smallest maximizer, q_i = 1
    exactly where n_i - lam* d_i > 0.  ``value`` is that exact ratio N*/D*
    and ``min_denominator`` the exact least denominator, each rounded up to
    a float.
    """
    if hyp.dim != slab.dim:
        raise ValueError("hyperplane and slab dimensions disagree")
    terms = [(hyp.t_coef,), (hyp.level,)]
    for a, us, ls, ui, li in zip(hyp.s_coef, slab.upper_slope, slab.lower_slope,
                                 slab.upper_icept, slab.lower_icept):
        terms += (a, us), (a, ls), (a, ui), (a, li)
    (den0, num0, *products), den = _numerators(terms)
    dg, ng = [], []  # the gains d_i and n_i of taking q_i = 1
    fall = rise_n = rise_d = 0  # the gains below 0, and those taken at lam = -inf
    for k in range(0, len(products), 4):
        us, ls, ui, li = products[k:k + 4]
        den0, num0 = den0 + us, num0 - ui
        x, n = ls - us, ui - li
        dg.append(x)
        ng.append(n)
        if x < 0:
            fall += x
        elif x > 0 or n > 0:
            rise_n, rise_d = rise_n + n, rise_d + x
    lowest = den0 + fall
    min_vertex = tuple([int(x < 0) for x in dg])
    if lowest <= 0:
        if lowest < 0:
            raise ProvisoViolatedError(
                f"vertex denominator minimum {float_at_least(lowest, den):.6g} is not positive")
        return VertexMaxResult(math.inf, min_vertex, 0.0)
    num, dnm = num0 + rise_n, den0 + rise_d  # the vertex at lam = -inf, then each breakpoint
    best_num, best_den = num, dnm
    moving = [i for i, x in enumerate(dg) if x != 0]
    # n_i/d_i - n_j/d_j has the sign of (n_i d_j - n_j d_i) d_i d_j
    moving.sort(key=functools.cmp_to_key(
        lambda i, j: (ng[i] * dg[j] - ng[j] * dg[i]) * (1 if (dg[i] > 0) == (dg[j] > 0) else -1)))
    for i in moving:  # q_i falls from 1 to 0 where d_i > 0 and rises where d_i < 0
        if dg[i] > 0:
            num, dnm = num - ng[i], dnm - dg[i]
        else:
            num, dnm = num + ng[i], dnm + dg[i]
        if num * best_den > best_num * dnm:
            best_num, best_den = num, dnm
    vertex = tuple([int(n * best_den > best_num * x) for n, x in zip(ng, dg)])
    return VertexMaxResult(float_at_least(best_num, best_den), vertex, float_at_least(lowest, den))
