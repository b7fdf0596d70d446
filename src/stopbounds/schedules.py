"""Permitted sample-size sets and their growth certificates.

A schedule is the increasing set of sample sizes at which the stopping rule
may be checked, together with the growth constants (lam, K) used by the
indirect bound E[N] <= lam * E[M] + K.  The two growth conditions audited
here are (I) N_{l+1} <= lam * N_l + K and (II) bounded gaps or a growth
ratio strictly above one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional


class ScheduleError(ValueError):
    """Malformed schedule (non-increasing, bad parameters)."""


class ExhaustedScheduleError(RuntimeError):
    """No schedule element exceeds the requested level."""


@dataclass(frozen=True)
class SampleSchedule:
    """Increasing set of permitted sample sizes N_1 < N_2 < ...

    ``n0`` is the pre-check anchor 0 <= N_0 < N_1 (the rule is never applied
    at N_0).  ``lam`` and ``K`` are the declared growth constants; for the
    built-in kinds they are derived, for explicit lists they are supplied.
    """

    kind: str  # "all-naturals" | "arithmetic" | "geometric" | "explicit"
    lam: float
    K: float
    n0: int = 0
    step: Optional[int] = None
    ratio: Optional[float] = None
    first: Optional[int] = None
    values: Optional[tuple] = None

    def element(self, index: int) -> int:
        """N_index for 1-based index."""
        if index < 1:
            raise ScheduleError("schedule elements are 1-indexed")
        if self.kind == "all-naturals":
            return self.n0 + index
        if self.kind == "arithmetic":
            return self.n0 + index * self.step
        if self.kind == "geometric":
            return _geometric_element(self.first, self.ratio, index)
        if self.kind == "explicit":
            if index > len(self.values):
                raise ExhaustedScheduleError("explicit schedule exhausted")
            return self.values[index - 1]
        raise ScheduleError(f"unknown kind {self.kind!r}")

    @property
    def finite(self) -> bool:
        return self.kind == "explicit"

    @property
    def size(self) -> Optional[int]:
        return len(self.values) if self.finite else None

    def iter_elements(self, limit: int) -> Iterator[int]:
        """Yield schedule elements <= limit in increasing order."""
        index = 1
        while True:
            try:
                value = self.element(index)
            except ExhaustedScheduleError:
                return
            if value > limit:
                return
            yield value
            index += 1

    def first_index_above(self, level: float):
        """Smallest (index, N_index) with N_index > level."""
        index = 1
        while True:
            try:
                value = self.element(index)
            except ExhaustedScheduleError:
                raise ExhaustedScheduleError(
                    f"no schedule element exceeds {level}"
                ) from None
            if value > level:
                return index, value
            index += 1

    def max_gap(self, horizon: int) -> int:
        """sup of N_{l+1} - N_l over the audited prefix, including N_1 - N_0."""
        gap = 0
        prev = self.n0
        for value in self.iter_elements(horizon):
            gap = max(gap, value - prev)
            prev = value
        if gap == 0:
            raise ScheduleError("horizon below the first schedule element")
        return gap

    @property
    def is_all_naturals(self) -> bool:
        return self.kind == "all-naturals" and self.n0 == 0

    def is_multiples_of(self, k: int) -> bool:
        """True when the schedule is exactly {k, 2k, 3k, ...}."""
        if self.kind == "all-naturals":
            return k == 1 and self.n0 == 0
        if self.kind == "arithmetic":
            return self.n0 == 0 and self.step == k
        return False


_GEOMETRIC_CACHE: dict = {}


def _geometric_element(first: int, ratio: float, index: int) -> int:
    # exact rational growth: float multiplication would overflow and break
    # the declared growth certificate on long prefixes
    from fractions import Fraction

    cache = _GEOMETRIC_CACHE.setdefault((first, ratio), [first])
    if index > len(cache):
        num, den = Fraction(ratio).as_integer_ratio()
        value = cache[-1]
        for _ in range(index - len(cache)):
            value = max(value + 1, -((-num * value) // den))
            cache.append(value)
    return cache[index - 1]


def naturals(n0: int = 0) -> SampleSchedule:
    """All positive integers above n0; growth constants lam=1, K=1."""
    if n0 < 0:
        raise ScheduleError("n0 must be nonnegative")
    return SampleSchedule("all-naturals", lam=1.0, K=1.0, n0=n0)


def arithmetic(n0: int, step: int) -> SampleSchedule:
    """N_l = n0 + l*step; growth constants lam=1, K=step."""
    if step < 1:
        raise ScheduleError("step must be a positive integer")
    if n0 < 0:
        raise ScheduleError("n0 must be nonnegative")
    return SampleSchedule("arithmetic", lam=1.0, K=float(step), n0=n0, step=int(step))


def geometric(first: int, ratio: float, n0: int = 0) -> SampleSchedule:
    """N_1 = first, N_{l+1} = ceil(ratio * N_l); growth constants lam=ratio, K derived.

    K = max(ratio, first - ratio * n0) so the growth certificate also covers
    the initial jump from n0 to the first element.
    """
    if ratio <= 1.0:
        raise ScheduleError("ratio must exceed 1")
    if first < 1 or n0 >= first or n0 < 0:
        raise ScheduleError("need 0 <= n0 < first")
    K = max(float(ratio), float(first) - float(ratio) * n0)
    return SampleSchedule("geometric", lam=float(ratio), K=K, n0=n0,
                          ratio=float(ratio), first=int(first))


def explicit(values, lam: float, K: float, n0: int = 0) -> SampleSchedule:
    vals = tuple(int(v) for v in values)
    if not vals:
        raise ScheduleError("explicit schedule must be nonempty")
    if n0 < 0 or n0 >= vals[0]:
        raise ScheduleError("need 0 <= n0 < first element")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ScheduleError("explicit schedule must be strictly increasing")
    return SampleSchedule("explicit", lam=float(lam), K=float(K), n0=n0, values=vals)


@dataclass(frozen=True)
class ScheduleAudit:
    """Pass/fail record of the growth assumptions over an audited prefix."""

    increasing: bool
    growth_pass: bool            # condition (I) with the declared (lam, K)
    gap_or_ratio_pass: bool      # condition (II)
    gap_or_ratio_mode: str       # "bounded-gaps" | "ratio-above-one" | "prefix-only"
    audited: int
    worst_excess: float          # max of N_{l+1} - lam*N_l - K over the prefix


def audit_assumptions(schedule: SampleSchedule, horizon: int) -> ScheduleAudit:
    """Audit the growth conditions on the prefix of elements <= horizon.

    For the built-in kinds condition (II) is settled analytically; for
    explicit lists only the prefix is checked and the mode is marked
    ``prefix-only``.
    """
    elements = [schedule.n0] + list(schedule.iter_elements(horizon))
    if len(elements) < 3:
        raise ScheduleError("horizon must cover at least two schedule elements")
    increasing = all(b > a for a, b in zip(elements, elements[1:]))
    worst = max(b - schedule.lam * a - schedule.K for a, b in zip(elements, elements[1:]))
    growth_pass = worst <= 1e-12

    if schedule.kind in ("all-naturals", "arithmetic"):
        mode, ii_pass = "bounded-gaps", True
    elif schedule.kind == "geometric":
        mode, ii_pass = "ratio-above-one", schedule.ratio > 1.0
    else:
        mode = "prefix-only"
        gaps = [b - a for a, b in zip(elements[1:], elements[2:])]
        ii_pass = bool(gaps) and max(gaps) < math.inf
    return ScheduleAudit(increasing, growth_pass, ii_pass, mode, len(elements) - 1, worst)


def tau_index(schedule: SampleSchedule, m: float):
    """Smallest (index, N_index) with N_index strictly above the crossing time m."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return schedule.first_index_above(m)


def gap_supremum(schedule: SampleSchedule, horizon: int = 10_000) -> float:
    """sup of consecutive gaps over the whole schedule.

    Analytic for the built-in kinds (infinite for geometric growth); for
    explicit lists this is a prefix estimate only.
    """
    if schedule.kind == "all-naturals":
        return 1.0
    if schedule.kind == "arithmetic":
        return float(schedule.step)
    if schedule.kind == "geometric":
        return math.inf
    return float(schedule.max_gap(horizon))
