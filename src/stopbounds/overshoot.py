"""Batch-sum laws and threshold averages for the overshoot bounds.

The generalized overshoot bounds need Pr{Y < c} and E[(Y - c)^+] for the
first-batch sum Y = Z_1 + ... + Z_k of a scalar increment Z (k = 1 for the
every-sample bound), at a constant or random threshold c.  Both are exact:
each family's entry in ``moments.SCALAR_FAMILIES`` gives the law of Y in
closed form (a point mass, binomial atoms, the Irwin-Hall law in rational
arithmetic, N(k mu, k sigma^2) and the Erlang finite sums), and a random
threshold is averaged over its atoms or by deterministic quadrature over
its density; the quadrature loads ``scipy.integrate`` on first use, so the
package imports numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .moments import DistributionSpec, ParameterError, scalar_family


@dataclass(frozen=True)
class SumLaw:
    """Functionals of Y = Z_1 + ... + Z_count for i.i.d. Z of one scalar family."""

    cdf_strict: Callable[[float], float]  # c -> Pr{Y < c}
    partial_above: Callable[[float], float]  # c -> E[(Y - c)^+]


def sum_law(spec: DistributionSpec, count: int) -> SumLaw:
    """Exact law of the count-fold i.i.d. sum; count = 1 is the law of Z."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return SumLaw(*scalar_family(spec).sum_law(spec.params, count))


def threshold_functionals(spec: DistributionSpec, lam, base_cdf, base_partial):
    """Pr{base < lam} and E[(base - lam)^+] for constant or random thresholds.

    ``lam`` is either a float or a scalar DistributionSpec independent of
    the summands; random thresholds are integrated exactly over atoms or by
    quadrature over the density.
    """
    if isinstance(lam, (int, float)):
        return base_cdf(float(lam)), base_partial(float(lam))
    if not isinstance(lam, DistributionSpec):
        raise ParameterError("threshold must be a number or a scalar DistributionSpec")
    family = scalar_family(lam)
    return family.expect(lam.params, base_cdf), family.expect(lam.params, base_partial)
