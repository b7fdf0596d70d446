"""Permitted sample-size sets and their growth certificates.

A schedule is the increasing set of sample sizes at which the stopping rule
may be checked.  The indirect bound E[N] <= lam * E[M] + K rests on two
growth conditions: (I) N_{l+1} <= lam * N_l + K and (II) bounded gaps or a
growth ratio strictly above one.  Both are settled from the schedule's kind
and parameters, never by enumerating a prefix: (lam, K) are derived from the
parameters of the infinite kinds, so (I) holds by construction, and (II) is
read off the kind.  An explicit list is finite and the rule is never checked
after its last element, so its last gap, its K and its gap supremum are
+inf: no schedule-based upper bound applies to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator, Optional


class ScheduleError(ValueError):
    """Malformed schedule (non-increasing, bad parameters)."""


class ExhaustedScheduleError(RuntimeError):
    """No schedule element exceeds the requested level."""


@dataclass(frozen=True, repr=False)
class SampleSchedule:
    """Increasing set of permitted sample sizes N_1 < N_2 < ...

    ``n0`` is the pre-check anchor 0 <= N_0 < N_1 (the rule is never applied
    at N_0).  The growth constants ``lam`` and ``K`` are properties of the
    kind and its parameters, not settable values.
    """

    kind: str  # "all-naturals" | "arithmetic" | "geometric" | "explicit"
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

    def __repr__(self) -> str:
        # the derived growth constants are shown beside the fields
        rest = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)[1:])
        return f"SampleSchedule(kind={self.kind!r}, lam={self.lam!r}, K={self.K!r}, {rest})"

    @property
    def finite(self) -> bool:
        return self.kind == "explicit"

    @property
    def lam(self) -> float:
        """Growth ratio of condition (I): the geometric ratio, else 1."""
        return self.ratio if self.kind == "geometric" else 1.0

    @property
    def K(self) -> float:
        """Growth offset of condition (I), covering the jump from N_0 to N_1.

        A geometric schedule needs K = max(ratio, first - ratio * n0): the
        ceiling adds less than one to ratio * N_l, and ratio > 1.
        """
        if self.kind == "geometric":
            return max(self.ratio, self.first - self.ratio * self.n0)
        return gap_supremum(self)

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
        """Smallest (index, N_index) with N_index > level.

        Closed form for naturals and arithmetic schedules, whose elements
        are integers: N_index > level exactly when N_index >= floor(level) + 1,
        and floor is exact on a float.  Other kinds are scanned from index 1.
        """
        if self.kind in ("all-naturals", "arithmetic"):
            above_n0 = math.floor(level) + 1 - self.n0  # the least N - n0 that exceeds level
            index = max(1, -(-above_n0 // (self.step or 1)))
            return index, self.element(index)
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
    # the growth certificate on long prefixes
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
    return SampleSchedule("all-naturals", n0=n0)


def arithmetic(n0: int, step: int) -> SampleSchedule:
    """N_l = n0 + l*step; growth constants lam=1, K=step."""
    if step < 1:
        raise ScheduleError("step must be a positive integer")
    if n0 < 0:
        raise ScheduleError("n0 must be nonnegative")
    return SampleSchedule("arithmetic", n0=n0, step=int(step))


def geometric(first: int, ratio: float, n0: int = 0) -> SampleSchedule:
    """N_1 = first, N_{l+1} = ceil(ratio * N_l); growth constants lam=ratio, K derived."""
    if ratio <= 1.0:
        raise ScheduleError("ratio must exceed 1")
    if first < 1 or n0 >= first or n0 < 0:
        raise ScheduleError("need 0 <= n0 < first")
    return SampleSchedule("geometric", n0=n0, ratio=float(ratio), first=int(first))


def explicit(values, n0: int = 0) -> SampleSchedule:
    """A finite list of looks; growth constants lam=1, K=+inf."""
    vals = tuple(int(v) for v in values)
    if not vals:
        raise ScheduleError("explicit schedule must be nonempty")
    if n0 < 0 or n0 >= vals[0]:
        raise ScheduleError("need 0 <= n0 < first element")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ScheduleError("explicit schedule must be strictly increasing")
    return SampleSchedule("explicit", n0=n0, values=vals)


@dataclass(frozen=True)
class ScheduleAudit:
    """Pass/fail record of the growth conditions."""

    growth_pass: bool            # condition (I): finite derived (lam, K)
    gap_or_ratio_pass: bool      # condition (II)
    gap_or_ratio_mode: str       # "bounded-gaps" | "ratio-above-one" | "last-gap-infinite"


def audit_assumptions(schedule: SampleSchedule) -> ScheduleAudit:
    """Settle the growth conditions from the schedule's kind and parameters.

    Naturals and arithmetic schedules have bounded gaps; a geometric one
    grows by a ratio above one.  An explicit list fails both conditions:
    its last gap is +inf, so no finite K bounds it.
    """
    if schedule.kind == "geometric":
        return ScheduleAudit(True, schedule.ratio > 1.0, "ratio-above-one")
    bounded = math.isfinite(gap_supremum(schedule))
    return ScheduleAudit(bounded, bounded, "bounded-gaps" if bounded else "last-gap-infinite")


def tau_index(schedule: SampleSchedule, m: float):
    """Smallest (index, N_index) with N_index strictly above the crossing time m."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return schedule.first_index_above(m)


def gap_supremum(schedule: SampleSchedule) -> float:
    """sup of consecutive gaps over the whole schedule, including N_1 - N_0.

    Infinite for geometric growth, and for an explicit list, whose rule is
    never checked after its last element.
    """
    if schedule.kind == "all-naturals":
        return 1.0
    if schedule.kind == "arithmetic":
        return float(schedule.step)
    return math.inf
