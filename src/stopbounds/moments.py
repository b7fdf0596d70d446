"""Increment distributions with exact analytic moments and reproducible sampling.

Every bound calculator in this package consumes moments of the i.i.d.
increment vector X: the mean, the one-sided deviations E[(X-mean)^+] and
E[(X-mean)^-], the variance E[|X-mean|^2], and the third absolute moment.
``SCALAR_FAMILIES`` has one entry per scalar law with these, its parameter
check, its sampler and the exact functionals the overshoot bounds use.
Nothing is estimated, so that "bound holds" assertions are not polluted by
estimation noise.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


class ParameterError(ValueError):
    """Distribution parameters outside their valid domain."""


@dataclass(frozen=True)
class DistributionSpec:
    """Declarative description of one increment distribution.

    ``family`` is a key of ``SCALAR_FAMILIES``, whose parameters are checked
    against the family's domain and stored as floats, or
    ``product-of-scalars``, whose ``params`` hold the key ``components`` with
    a tuple of scalar specs, one per coordinate.
    """

    family: str
    params: dict = field(default_factory=dict)
    dim: int = 1

    def __post_init__(self):
        if self.family == "product-of-scalars":
            comps = tuple(self.params.get("components", ()))
            if not comps or not all(isinstance(c, DistributionSpec)
                                    and c.family in SCALAR_FAMILIES for c in comps):
                raise ParameterError("product-of-scalars needs one or more scalar specs")
            if self.dim != len(comps):
                raise ParameterError("dim must equal the number of components")
            return
        family = SCALAR_FAMILIES.get(self.family) if isinstance(self.family, str) else None
        if family is None:
            raise ParameterError(f"unknown family {self.family!r}")
        if self.dim != 1:
            raise ParameterError("scalar families have dim 1")
        object.__setattr__(self, "params", family.validate(self.params))

    @property
    def components(self) -> tuple["DistributionSpec", ...]:
        if self.family == "product-of-scalars":
            return tuple(self.params["components"])
        return (self,)


@dataclass(frozen=True)
class ScalarFamily:
    """One scalar increment law; each function takes the validated ``params`` first.

    ``moments`` gives (mean, E[(Z-mean)^+], variance, E[|Z-mean|^3], support
    lo, support hi), infinite on an unbounded side.  ``sum_law(p, k)`` gives
    c -> Pr{Y < c} and c -> E[(Y-c)^+] for the k-fold i.i.d. sum Y, and
    ``expect(p, fn)`` is E[fn(Z)].  ``strictly_positive``: draws are > 0.
    """

    name: str
    params: tuple
    checks: tuple  # (predicate on the params, message when it fails)
    moments: Callable
    draw: Callable  # (params, rng, out) fills the 1-D out; its numpy calls fix the streams
    positive_part_square: Callable  # E[(Z^+)^2]
    sum_law: Callable
    expect: Callable
    strictly_positive: bool = False

    def validate(self, params) -> dict:
        """``params`` as floats, after the domain checks."""
        if not isinstance(params, dict) or set(params) != set(self.params):
            raise ParameterError(f"{self.name} takes {', '.join(self.params)}; got {params!r}")
        out = {}
        for key in self.params:
            value = params[key]
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not abs(value) <= sys.float_info.max):
                raise ParameterError(f"{self.name} parameter {key!r} must be a finite "
                                     f"number, got {value!r}")
            out[key] = float(value)
        for ok, message in self.checks:
            if not ok(out):
                raise ParameterError(message)
        return out

    def spec(self, *values) -> DistributionSpec:
        return DistributionSpec(self.name, dict(zip(self.params, values)))


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _Phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _quad(fn, lo: float, hi: float) -> float:
    from scipy import integrate  # only random thresholds with a density get here

    return integrate.quad(fn, lo, hi, limit=200)[0]


def _atomic_law(atoms, weights):
    atoms, weights = np.asarray(atoms, dtype=float), np.asarray(weights, dtype=float)
    return (lambda c: float(weights[atoms < c].sum()),
            lambda c: float((weights * np.maximum(atoms - c, 0.0)).sum()))


def _binomial_law(p: dict, k: int):
    r, js = p["p"], range(k + 1)
    if k <= 1000:  # C(k, j) fits a float; k = 1 gives the weights (1-p, p) exactly
        weights = [math.comb(k, j) * r**j * (1.0 - r) ** (k - j) for j in js]
    elif 0.0 < r < 1.0:
        lk = math.lgamma(k + 1)
        weights = [math.exp(lk - math.lgamma(j + 1) - math.lgamma(k - j + 1) + j * math.log(r)
                            + (k - j) * math.log1p(-r)) for j in js]
    else:  # all the mass on j = k r
        weights = [float(j == k * r) for j in js]
    return _atomic_law([(k - j) * p["x0"] + j * p["x1"] for j in js], weights)


def _irwin_hall(n: int, x: float, power: int) -> Fraction:
    """sum_{j <= x} (-1)^j C(n, j) (x - j)^power / power! in exact arithmetic.

    On [0, n], power = n gives the CDF F of a sum of n standard uniforms
    (Irwin 1927; Hall 1927) and power = n + 1 gives G(x) = int_0^x F.  In
    floating point the alternating terms cancel catastrophically.
    """
    a, d = x.as_integer_ratio()
    total = sum((-1) ** j * math.comb(n, j) * (a - j * d) ** power
                for j in range(math.floor(x) + 1))
    return Fraction(total, d**power * math.factorial(power))


def _uniform_sum_law(p: dict, k: int):
    lo, w = p["lo"], p["hi"] - p["lo"]
    shift = k * lo

    def cdf(c):
        x = (c - shift) / w
        if x <= 0.0:
            return 0.0
        if x >= k:
            return 1.0
        return float(_irwin_hall(k, x, k))

    def partial(c):
        # int_x^k (1 - F) = (k - x) - (G(k) - G(x)), and G(k) = k - E = k/2
        x = (c - shift) / w
        if x >= k:
            return 0.0
        x = max(x, 0.0)
        base = w * float(Fraction(k, 2) - Fraction(x) + _irwin_hall(k, x, k + 1))
        if c < shift:
            base += shift - c
        return base

    return cdf, partial


def _gaussian_sum_law(p: dict, k: int):
    mean, sd = k * p["mean"], p["sd"] * math.sqrt(k)  # N(k mu, k sigma^2)
    return (lambda c: _Phi((c - mean) / sd),
            lambda c: (mean - c) * _Phi((mean - c) / sd) + sd * _phi((mean - c) / sd))


def _erlang_law(p: dict, k: int):
    # for c > 0, Pr{Y < c} = 1 - sum_{j<k} pois(j; rc) and
    # E[(Y-c)^+] = sum_{j<k} (k-j) pois(j; rc) / r, with pois in log space
    r = p["rate"]

    def poisson(c):
        m = r * c
        return [math.exp(j * math.log(m) - m - math.lgamma(j + 1)) for j in range(k)]

    return (lambda c: 1.0 - math.fsum(poisson(c)) if c > 0 else 0.0,
            lambda c: (math.fsum((k - j) * q for j, q in enumerate(poisson(c))) / r
                       if c > 0 else k / r - c))


def _bernoulli_moments(p: dict):
    w, q = p["x1"] - p["x0"], p["p"]
    return (p["x0"] + q * w, q * (1.0 - q) * w, q * (1.0 - q) * w * w,
            q * (1.0 - q) * w**3 * ((1.0 - q) ** 2 + q**2), p["x0"], p["x1"])


def _uniform_moments(p: dict):
    w = p["hi"] - p["lo"]
    # E[(X-mean)^+] = w/8, E[|X-mean|^3] = w^3/32
    return 0.5 * (p["lo"] + p["hi"]), w / 8.0, w * w / 12.0, w**3 / 32.0, p["lo"], p["hi"]


# The draws fill ``out`` in place with the arithmetic of numpy's allocating
# samplers (uniform: lo + (hi - lo) u, normal: mean + sd z, exponential:
# z / rate as (1 / rate) z), so the values are bit-identical to theirs.
def _bernoulli_draw(p: dict, rng, out: np.ndarray):
    rng.random(out=out)
    np.less(out, p["p"], out=out)  # x0 + (x1 - x0) * [u < p]
    # [u < p] is +0.0 or 1.0, which a unit width and a zero x0 leave as they are
    if p["x1"] - p["x0"] != 1.0:
        out *= p["x1"] - p["x0"]
    if p["x0"] != 0.0:
        out += p["x0"]


def _uniform_draw(p: dict, rng, out: np.ndarray):
    rng.random(out=out)
    out *= p["hi"] - p["lo"]
    out += p["lo"]


def _gaussian_draw(p: dict, rng, out: np.ndarray):
    rng.standard_normal(out=out)
    out *= p["sd"]
    out += p["mean"]


def _exponential_draw(p: dict, rng, out: np.ndarray):
    rng.standard_exponential(out=out)
    out *= 1.0 / p["rate"]


_POINT_MASS = ScalarFamily(
    "point-mass", ("value",), (),
    moments=lambda p: (p["value"], 0.0, 0.0, 0.0, p["value"], p["value"]),
    draw=lambda p, rng, out: out.fill(p["value"]),
    positive_part_square=lambda p: max(p["value"], 0.0) ** 2,
    sum_law=lambda p, k: _atomic_law([k * p["value"]], [1.0]),
    expect=lambda p, fn: fn(p["value"]),
)
_BERNOULLI = ScalarFamily(
    "bernoulli-affine", ("x0", "x1", "p"),
    ((lambda p: 0.0 <= p["p"] <= 1.0, "p must lie in [0, 1]"),
     (lambda p: p["x0"] < p["x1"], "need x0 < x1")),
    moments=_bernoulli_moments,
    draw=_bernoulli_draw,
    positive_part_square=lambda p: ((1.0 - p["p"]) * max(p["x0"], 0.0) ** 2
                                    + p["p"] * max(p["x1"], 0.0) ** 2),
    sum_law=_binomial_law,
    expect=lambda p, fn: (1.0 - p["p"]) * fn(p["x0"]) + p["p"] * fn(p["x1"]),
)
_UNIFORM = ScalarFamily(
    "uniform-interval", ("lo", "hi"),
    ((lambda p: p["lo"] < p["hi"], "need lo < hi"),),
    moments=_uniform_moments,
    draw=_uniform_draw,
    positive_part_square=lambda p: (0.0 if p["hi"] <= 0 else (p["hi"] ** 3 - max(p["lo"], 0.0) ** 3)
                                    / (3.0 * (p["hi"] - p["lo"]))),
    sum_law=_uniform_sum_law,
    expect=lambda p, fn: _quad(lambda l: fn(l) / (p["hi"] - p["lo"]), p["lo"], p["hi"]),
)
_GAUSSIAN = ScalarFamily(
    "gaussian", ("mean", "sd"),
    ((lambda p: p["sd"] > 0, "sd must be positive (use point-mass for sd=0)"),),
    moments=lambda p: (p["mean"], p["sd"] / math.sqrt(2.0 * math.pi), p["sd"] * p["sd"],
                       2.0 * math.sqrt(2.0) / math.sqrt(math.pi) * p["sd"] ** 3,
                       -math.inf, math.inf),
    draw=_gaussian_draw,
    positive_part_square=lambda p: ((p["mean"] * p["mean"] + p["sd"] * p["sd"])
                                    * _Phi(p["mean"] / p["sd"])
                                    + p["mean"] * p["sd"] * _phi(p["mean"] / p["sd"])),
    sum_law=_gaussian_sum_law,
    expect=lambda p, fn: _quad(lambda l: fn(l) * (_phi((l - p["mean"]) / p["sd"]) / p["sd"]),
                               p["mean"] - 10 * p["sd"], p["mean"] + 10 * p["sd"]),
)
_EXPONENTIAL = ScalarFamily(
    "exponential", ("rate",),
    ((lambda p: p["rate"] > 0, "rate must be positive"),),
    # E[(X-1/r)^+] = e^-1 / r, E[|X-1/r|^3] = (12/e - 2) / r^3
    moments=lambda p: (1.0 / p["rate"], math.exp(-1.0) / p["rate"], 1.0 / p["rate"] ** 2,
                       (12.0 * math.exp(-1.0) - 2.0) / p["rate"] ** 3, 0.0, math.inf),
    draw=_exponential_draw,
    positive_part_square=lambda p: 2.0 / p["rate"] ** 2,
    sum_law=_erlang_law,
    expect=lambda p, fn: _quad(lambda l: fn(l) * (p["rate"] * math.exp(-p["rate"] * l)),
                               0.0, 50.0 / p["rate"]),
    strictly_positive=True,
)
SCALAR_FAMILIES = {f.name: f for f in (_POINT_MASS, _BERNOULLI, _UNIFORM, _GAUSSIAN, _EXPONENTIAL)}


def scalar_family(spec: DistributionSpec) -> ScalarFamily:
    """The ``SCALAR_FAMILIES`` entry of a scalar spec."""
    family = SCALAR_FAMILIES.get(spec.family)
    if family is None:
        raise ParameterError(f"{spec.family!r} is not a scalar family")
    return family


def point_mass(value: float) -> DistributionSpec:
    return _POINT_MASS.spec(value)


def bernoulli_affine(x0: float, x1: float, p: float) -> DistributionSpec:
    """Two-point distribution taking ``x1`` with probability ``p``, else ``x0``."""
    return _BERNOULLI.spec(x0, x1, p)


def uniform_interval(lo: float, hi: float) -> DistributionSpec:
    return _UNIFORM.spec(lo, hi)


def gaussian(mean: float, sd: float) -> DistributionSpec:
    return _GAUSSIAN.spec(mean, sd)


def exponential(rate: float) -> DistributionSpec:
    return _EXPONENTIAL.spec(rate)


def product(components) -> DistributionSpec:
    comps = tuple(components)
    return DistributionSpec("product-of-scalars", {"components": comps}, dim=len(comps))


@dataclass(frozen=True)
class MomentProfile:
    """Exact moments of an increment vector, one entry per coordinate.

    ``pos_dev`` and ``neg_dev`` are E[(X-mean)^+] and E[(X-mean)^-]; they are
    equal for every distribution since the centered increment has zero mean.
    The support box [a, b] is infinite on an unbounded side.  ``bound_v`` is
    the moment envelope (mean-a)(b-mean)/(b-a), defined only when [a, b] is
    bounded; it dominates both one-sided deviations.
    """

    mean: np.ndarray
    pos_dev: np.ndarray
    neg_dev: np.ndarray
    variance: np.ndarray
    abs_third: np.ndarray
    support_lo: np.ndarray
    support_hi: np.ndarray
    bound_v: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def bounded(self) -> bool:
        return self.bound_v is not None

    @property
    def abs_third_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.abs_third)))


def analytic_moments(spec: DistributionSpec) -> MomentProfile:
    """Closed-form moment profile for a distribution spec."""
    cols = list(zip(*(SCALAR_FAMILIES[c.family].moments(c.params) for c in spec.components)))
    mean, pos, var, a3, lo, hi = (np.array(col, dtype=float) for col in cols)
    width = hi - lo  # inf on an unbounded side
    v = None if np.isinf(width).any() else np.where(
        width > 0, (mean - lo) * (hi - mean) / np.where(width > 0, width, 1.0), 0.0)
    return MomentProfile(mean, pos, pos.copy(), var, a3, lo, hi, v)


def _seed_word(seed: int) -> int:
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed!r}")
    return seed


def stream_for_run(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one simulation run.

    Distinct (seed, index) pairs map to distinct Philox keys, so draws are
    independent across runs and identical regardless of scheduling or worker
    count.  ``seed`` must lie in [0, 2**64), the Philox key word it becomes.
    """
    key = np.array([_seed_word(seed), index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class StreamPool:
    """The streams of one seed: ``stream(index)`` is ``stream_for_run(seed, index)``.

    The simulator takes one stream per chunk of runs from it (see
    ``simulate``), so a fresh bit generator per stream costs nothing that
    shows.  The class is the one place both samplers get a generator from,
    and the benchmark's tracer replaces its ``stream`` method to count and
    time the draws (``perfbench/tracing.py``, pinned by
    ``tests/test_trace_hooks.py``).
    """

    def __init__(self, seed: int):
        self._seed = _seed_word(seed)

    def stream(self, index: int) -> np.random.Generator:
        return stream_for_run(self._seed, index)


def sample_block(spec: DistributionSpec, rng: np.random.Generator, n: int,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Draw ``n`` i.i.d. increments, shape (n, dim). Component draw order is fixed.

    ``out``, a C-contiguous (n, dim) float array, is filled in place and
    returned; a new array is allocated only when it is None.
    """
    if out is None:
        out = np.empty((n, spec.dim))
    if spec.family != "product-of-scalars":
        SCALAR_FAMILIES[spec.family].draw(spec.params, rng, out.reshape(n))
        return out
    col = np.empty(n)  # the generators fill contiguous arrays only
    for k, c in enumerate(spec.components):
        SCALAR_FAMILIES[c.family].draw(c.params, rng, col)
        out[:, k] = col
    return out


def sample(spec: DistributionSpec, rng: np.random.Generator) -> np.ndarray:
    """One i.i.d. draw as a length-``dim`` vector."""
    return sample_block(spec, rng, 1)[0]
