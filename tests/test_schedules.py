import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _brute import budget_at
from vegas_restart import starfn
from vegas_restart.schedules import (
    MAX_BLOCK_PARAM,
    ScheduleRangeError,
    budget_block,
    build_schedule,
    fixed_schedule,
    luby_schedule,
    luby_value,
    single_threshold_schedule,
    specific_e_schedule,
    two_threshold_schedule,
    universal_schedule,
)


def first_budgets(schedule, n):
    return list(itertools.islice(schedule.budgets(), n))


def test_single_threshold_constant_stream():
    s = single_threshold_schedule(0.0)
    assert first_budgets(s, 3) == [2.0, 2.0, 2.0]
    s = single_threshold_schedule(5.0)
    assert budget_at(s, 1) == pytest.approx(296.826, abs=1e-3)
    assert budget_at(s, 10) == budget_at(s, 1)


def test_fixed_schedule_is_mean_plus_one():
    s = fixed_schedule(4.0)
    assert budget_at(s, 1) == pytest.approx(2.0 * math.exp(5.0), rel=1e-15)
    assert budget_at(s, 1) == budget_at(single_threshold_schedule(5.0), 1)


def test_threshold_range_guards():
    with pytest.raises(ScheduleRangeError):
        single_threshold_schedule(291.0)
    with pytest.raises(ScheduleRangeError):
        single_threshold_schedule(math.inf)
    with pytest.raises(ScheduleRangeError):
        fixed_schedule(290.0)
    with pytest.raises(ScheduleRangeError):
        two_threshold_schedule(0.5)
    with pytest.raises(ScheduleRangeError):
        two_threshold_schedule(281.0)


def test_two_threshold_block_for_mean_four():
    s = two_threshold_schedule(4.0)
    low = 2.0 * math.exp(4.0) / 4.0
    high = 2.0 * math.exp(6.0)
    assert s.cycle == ((5, pytest.approx(low, rel=1e-15)), (4, pytest.approx(high, rel=1e-15)))
    assert budget_at(s, 6) == pytest.approx(806.858, abs=1e-3)
    assert first_budgets(s, 10) == pytest.approx([low] * 5 + [high] * 4 + [low], rel=1e-14)


def test_two_threshold_block_for_mean_one():
    s = two_threshold_schedule(1.0)
    assert s.cycle == (
        (2, pytest.approx(2.0 * math.e, rel=1e-15)),
        (2, pytest.approx(2.0 * math.exp(3.0), rel=1e-15)),
    )


def test_budget_block_five_has_only_the_closing_pair():
    block = budget_block(5.0)
    assert block == ((2, pytest.approx(2.0 * math.exp(15.0), rel=1e-15)),)


def test_budget_block_six_counts_and_budgets():
    block = budget_block(6.0)
    counts = [c for c, _ in block]
    assert counts == [130, 112, 102, 2]
    exponents = [math.log(b / 2.0) for _, b in block]
    assert exponents[:3] == pytest.approx([0.625, 0.954, 1.144], abs=1.1e-3)
    assert exponents[3] == pytest.approx(16.0, abs=1e-12)


def test_budget_block_builds_each_e_once(monkeypatch):
    calls = []
    real = starfn.shrink_trace
    monkeypatch.setattr(starfn, "shrink_trace", lambda e: calls.append(e) or real(e))
    budget_block.cache_clear()
    first = budget_block(9.0)
    assert budget_block(9.0) is first
    for _ in range(2):
        first_budgets(universal_schedule(), 1000)
    assert calls.count(9.0) == 1 and len(calls) == len(set(calls)) > 1


def test_budget_block_out_of_range_raises_on_every_call():
    for e in (4.999, MAX_BLOCK_PARAM + 0.5, math.nan, math.inf):
        for _ in range(3):
            with pytest.raises(ScheduleRangeError):
                budget_block(e)


def test_budget_block_counts_are_even_and_at_least_two():
    for e in (5.0, 6.0, 10.5, 20.0, 50.0):
        for count, _ in budget_block(e):
            assert count >= 2 and count % 2 == 0


def test_budget_block_budgets_increase_within_block():
    for e in (6.0, 10.0, 30.0, 100.0):
        budgets = [b for _, b in budget_block(e)]
        assert budgets == sorted(budgets)
        assert all(b2 > b1 for b1, b2 in zip(budgets, budgets[1:]))


def test_budget_block_total_cost_bound():
    for e in range(5, 51):
        block = budget_block(float(e))
        assert math.fsum(c * b for c, b in block) <= 10.0 * math.exp(e + 10.0)


def test_budget_block_matches_generating_formula():
    for e in (7.0, 13.0, 42.0):
        values = starfn.shrink_trace(e).values
        entries = budget_block(e)
        assert len(entries) == len(values)
        for k in range(1, len(values)):
            count, budget = entries[k - 1]
            assert count == 2 * math.ceil((values[k - 1] + 2.0) ** 2 + 1.0)
            assert budget == 2.0 * math.exp(e - values[k])
        assert entries[-1] == (2, 2.0 * math.exp(e + 10.0))


def test_specific_e_cycles_the_block():
    s = specific_e_schedule(5.0)
    assert first_budgets(s, 3) == [2.0 * math.exp(15.0)] * 3
    s6 = specific_e_schedule(6.0)
    assert budget_at(s6, 1) == budget_at(s6, 130)
    assert budget_at(s6, 131) == pytest.approx(2.0 * math.exp(6.0 - starfn.shrink_iter(2, 6.0)), rel=1e-12)
    assert budget_at(s6, 347) == budget_at(s6, 1)  # cycle length 130 + 112 + 102 + 2


def test_universal_prefix():
    u = universal_schedule()
    first = 2.0 * math.exp(15.0)
    assert budget_at(u, 1) == first
    assert budget_at(u, 2) == first
    assert budget_at(u, 3) == pytest.approx(budget_block(6.0)[0][1], rel=1e-15)
    assert budget_at(u, 1) == pytest.approx(6.538e6, rel=1e-3)


def test_universal_budgets_unbounded():
    u = universal_schedule()
    bound = 1e12
    for budget in u.budgets():
        if budget >= bound:
            break
    else:  # pragma: no cover
        pytest.fail("budget stream ended")


def test_universal_cumulative_prefix_cost_stays_geometric():
    # The total cost of all blocks before bound e stays below a fixed
    # multiple of exp(e): the per-block cost factor is bounded, so the prefix
    # is a geometric sum.
    cum = 0.0
    factor = (4.0 * math.exp(10.0) + 17.0) / (math.e - 1.0)
    for e in range(5, 61):
        assert cum <= factor * math.exp(e)
        cum += math.fsum(c * b for c, b in budget_block(float(e)))


def test_universal_budgets_end_after_the_last_block():
    # The blocks stop at the range guard of budget_block instead of raising
    # past it: the last group is the closing pair of budget_block(280).
    groups = list(universal_schedule().groups())
    assert groups[-1] == (2, 2.0 * math.exp(MAX_BLOCK_PARAM + 10.0))
    assert len(groups) == sum(len(budget_block(float(e))) for e in range(5, 281))
    assert sum(count for count, _ in groups) == 15_327_864


def test_luby_sequence_values():
    assert [luby_value(i) for i in range(1, 8)] == [1, 1, 2, 1, 1, 2, 4]
    assert luby_value(15) == 8
    s = luby_schedule(3.0)
    assert budget_at(s, 3) == 6.0
    assert first_budgets(s, 7) == [3.0, 3.0, 6.0, 3.0, 3.0, 6.0, 12.0]
    with pytest.raises(ScheduleRangeError):
        luby_schedule(0.0)
    with pytest.raises(ValueError, match="^luby index is 1-based, got 0$"):
        luby_value(0)


def test_luby_peak_gaps_are_bounded():
    # Elements of value >= 2**m recur within 2**(m+1) positions; the cost
    # oracle's tail certificate for this schedule leans on that recurrence.
    values = [luby_value(i) for i in range(1, 1 << 14)]
    for m in range(0, 9):
        positions = [i for i, v in enumerate(values, start=1) if v >= (1 << m)]
        first = positions[0]
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        assert first <= (1 << (m + 1)) - 1
        assert max(gaps) <= 1 << (m + 1)


def luby_reference(i):
    k = (i + 1).bit_length() - 1
    if (i + 1) & i == 0:
        return 1 << (k - 1)
    return luby_reference(i - (1 << k) + 1)


@given(st.integers(min_value=1, max_value=4096))
@settings(max_examples=300)
def test_luby_matches_recursive_reference(i):
    assert luby_value(i) == luby_reference(i)


def test_luby_schedule_budgets_follow_luby_value():
    n = 1 << 16
    values = [luby_value(i) for i in range(1, n + 1)]
    for unit in (0.5, 1.0, 3.0):
        budgets = first_budgets(luby_schedule(unit), n)
        assert budgets == [unit * v for v in values]


def test_luby_pieces_spell_the_sequence_and_introduce_levels_singly():
    # Luby's groups are single terms unit * luby_value(i), the same doubles
    # the oracle's runs S_k take as unit * 2**level.
    n = 1 << 13
    for unit in (0.5, 1.0, 3.0):
        groups = list(itertools.islice(luby_schedule(unit).groups(), n))
        assert groups == [(1, unit * luby_value(i)) for i in range(1, n + 1)]
        assert groups[(1 << 13) - 2] == (1, math.ldexp(unit, 12))  # level 12 first ends S_13


def test_budget_recomputation_is_bit_identical():
    for s in (
        single_threshold_schedule(3.7),
        two_threshold_schedule(9.2),
        specific_e_schedule(11.0),
        universal_schedule(),
        luby_schedule(1.5),
    ):
        for i in (1, 2, 7, 40):
            assert budget_at(s, i) == budget_at(s, i)
        again = list(itertools.islice(s.budgets(), 50))
        assert again == list(itertools.islice(s.budgets(), 50))


def test_all_budgets_positive_finite():
    for s in (
        single_threshold_schedule(-5.0),
        two_threshold_schedule(1.0),
        specific_e_schedule(5.0),
        universal_schedule(),
        luby_schedule(0.25),
    ):
        for budget in itertools.islice(s.budgets(), 200):
            assert budget > 0.0 and math.isfinite(budget)


def test_build_schedule_dispatch():
    assert build_schedule({"kind": "single_threshold", "t": 2.0}).kind == "single_threshold"
    assert (budget_at(build_schedule({"kind": "fixed"}, default_ex=4.0), 1)
            == budget_at(fixed_schedule(4.0), 1))
    assert build_schedule({"kind": "two_threshold", "EX": 4.0}).cycle == two_threshold_schedule(4.0).cycle
    assert build_schedule({"kind": "two_threshold"}, default_ex=3.0) == two_threshold_schedule(3.0)
    assert build_schedule({"kind": "specific_E"}, default_ex=3.0).label == "specific_E(E=5)"
    assert build_schedule({"kind": "universal"}).kind == "universal"
    assert budget_at(build_schedule({"kind": "luby", "unit": 2.0}), 3) == 4.0
    with pytest.raises(ValueError):
        build_schedule({"kind": "universal", "t": 1.0})
    with pytest.raises(ValueError):
        build_schedule({"kind": "fixed"})
    with pytest.raises(ValueError):
        build_schedule({"kind": "wat"})
