import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stopbounds as sb
from stopbounds.schedules import (
    ExhaustedScheduleError,
    ScheduleError,
    audit_assumptions,
    explicit,
    gap_supremum,
    tau_index,
)


def test_naturals_audit_passes():
    audit = audit_assumptions(sb.naturals())
    assert audit.growth_pass
    assert audit.gap_or_ratio_pass
    assert audit.gap_or_ratio_mode == "bounded-gaps"


def test_geometric_audit_passes():
    audit = audit_assumptions(sb.geometric(1, 2.0))
    assert audit.growth_pass
    assert audit.gap_or_ratio_pass
    assert audit.gap_or_ratio_mode == "ratio-above-one"


def test_explicit_list_fails_both_growth_conditions():
    # the rule is never checked after the last look: the last gap is +inf
    for values in ([5], [8, 11, 14, 17, 20], list(range(1, 70)) + [5000]):
        sched = explicit(values)
        assert (sched.lam, sched.K, gap_supremum(sched)) == (1.0, math.inf, math.inf)
        audit = audit_assumptions(sched)
        assert not audit.growth_pass and not audit.gap_or_ratio_pass
        assert audit.gap_or_ratio_mode == "last-gap-infinite"


def test_growth_constants_are_derived_not_settable():
    assert "lam" not in {f.name for f in dataclasses.fields(sb.SampleSchedule)}
    assert "K" not in {f.name for f in dataclasses.fields(sb.SampleSchedule)}
    with pytest.raises(TypeError):
        dataclasses.replace(sb.naturals(), K=0.5)
    with pytest.raises(TypeError):
        explicit([1, 2, 4], lam=2.0, K=0.0)
    assert (sb.arithmetic(1, 3).lam, sb.arithmetic(1, 3).K) == (1.0, 3.0)
    # K covers the jump from n0 = 2 to first = 10: 10 - 1.5 * 2 = 7
    assert (sb.geometric(10, 1.5, 2).lam, sb.geometric(10, 1.5, 2).K) == (1.5, 7.0)


def test_tau_index_examples():
    assert tau_index(sb.naturals(), 4.0) == (5, 5)
    sched = explicit([1, 2, 4, 8, 16])
    index, value = tau_index(sched, 5.0)
    assert value == 8
    assert tau_index(sb.naturals(), 0.5) == (1, 1)


def _scanned_index_above(sched, level):
    """The first (index, N_index) with N_index > level, by a scan from index 1: the reference."""
    index = 1
    while sched.element(index) <= level:
        index += 1
    return index, sched.element(index)


@st.composite
def _schedule_and_level(draw):
    n0 = draw(st.integers(0, 50))
    sched = draw(st.sampled_from([sb.naturals(n0), sb.arithmetic(n0, draw(st.integers(1, 9)))]))
    element = float(sched.element(draw(st.integers(1, 2000))))
    level = draw(st.one_of(
        st.just(element),  # a level that equals an element exactly
        st.sampled_from([math.nextafter(element, -math.inf), math.nextafter(element, math.inf)]),
        st.floats(-10.0, element + 10.0, allow_nan=False),
    ))
    return sched, level


@settings(max_examples=300, deadline=None)
@given(case=_schedule_and_level())
def test_closed_form_index_above_matches_the_scan(case):
    sched, level = case
    assert sched.first_index_above(level) == _scanned_index_above(sched, level)


def test_tau_exhausted():
    sched = explicit([1, 2, 4])
    with pytest.raises(ExhaustedScheduleError):
        tau_index(sched, 10.0)


@pytest.mark.parametrize("sched", [
    sb.naturals(),
    sb.naturals(3),
    sb.arithmetic(2, 2),
    sb.arithmetic(0, 5),
    sb.geometric(1, 2.0),
    sb.geometric(4, 1.3),
], ids=str)
def test_enumeration_monotone_and_certified(sched):
    # exact rational arithmetic: geometric elements overflow float precision
    from fractions import Fraction

    lam, K = Fraction(sched.lam), Fraction(sched.K)
    prev = sched.n0
    for index in range(1, 10_001):
        value = sched.element(index)
        assert value > prev
        assert Fraction(value) <= lam * prev + K
        prev = value


def test_gap_supremum_by_kind():
    assert gap_supremum(sb.naturals()) == 1.0
    assert gap_supremum(sb.arithmetic(2, 2)) == 2.0
    assert gap_supremum(sb.geometric(1, 2.0)) == math.inf
    assert gap_supremum(explicit([2, 4, 7])) == math.inf


def test_multiples_detection():
    assert sb.naturals().is_multiples_of(1)
    assert sb.arithmetic(0, 3).is_multiples_of(3)
    assert not sb.arithmetic(1, 3).is_multiples_of(3)
    assert not sb.geometric(1, 2.0).is_multiples_of(2)


def test_schedule_validation_errors():
    with pytest.raises(ScheduleError):
        explicit([3, 3, 4])
    with pytest.raises(ScheduleError):
        explicit([])
    with pytest.raises(ScheduleError):
        sb.arithmetic(0, 0)
    with pytest.raises(ScheduleError):
        sb.geometric(1, 1.0)
    with pytest.raises(ScheduleError):
        sb.naturals(-1)


def test_geometric_rounding_grows_strictly():
    sched = sb.geometric(3, 1.1)
    values = [sched.element(i) for i in range(1, 30)]
    assert values[:5] == [3, 4, 5, 6, 7]
    assert all(b > a for a, b in zip(values, values[1:]))
