import itertools
import math
import random
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _brute import budget_at
from vegas_restart import analysis, distx, engine, schedules
from vegas_restart.distx import RuntimeModel, constant, two_point
from vegas_restart.engine import (
    CapExceeded,
    Caps,
    SamplerProcess,
    TrialRng,
    bitstring_guess_model,
    bitstring_guess_process,
    default_caps,
    geometric_coin_process,
    mc_expected_cost,
    run_once_truncated,
    run_with_schedule,
)
from vegas_restart.schedules import (
    budget_block,
    single_threshold_schedule,
    specific_e_schedule,
    two_threshold_schedule,
    universal_schedule,
)
from vegas_restart.streams import CounterStream, stream_key


def stream(*words):
    return CounterStream(stream_key(*words))


# ---------------------------------------------------------------------------
# Streams


def test_streams_are_reproducible_and_distinct():
    a = stream(42, 0, 1)
    b = stream(42, 0, 1)
    assert [a.random() for _ in range(8)] == [b.random() for _ in range(8)]
    c = stream(42, 0, 2)
    assert a.key != c.key
    draws = [stream(7).random() for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    s = stream(9)
    scalar_first = [s.random() for _ in range(4)]
    v = int(scalar_first[2] * 2.0**53)
    assert stream(9).first_in(4, v, v + 1) == (True, 3)
    s2 = stream(9)
    assert s2.first_in(4, 0, 0) == (False, 4)  # a miss moves past the four draws
    assert [s2.random() for _ in range(4)] == [s.random() for _ in range(4)]


def test_trial_rng_keys_each_attempt_as_stream_key_of_three_words():
    # Trials interleaved and repeated, so the key kept for the last trial is
    # both reused and replaced.
    for seed, trial, j in [(42, 0, 1), (42, 0, 2), (42, 1, 1), (42, 0, 3), (-5, 2**70, 0),
                           (7, 3, 10**6), (7, 3, 1)]:
        assert TrialRng(seed, trial).attempt(j).key == stream_key(seed, trial, j)


# Scan lengths at the edges of first_in's chunks of 64, 128, ..., 1024 draws
# (cumulative 64, 192, 448, 960, then every 1024: 1984, ..., 4032, 8128), at
# the 4096-draw edges of earlier versions, and past them to the 22268 steps of
# bitstring_guess[k=12]'s fixed schedule.
_SCAN_LENGTHS = (0, 1, 63, 64, 65, 959, 960, 961, 1984, 4095, 4096, 4097, 8127, 8128, 8129,
                 22268)


@st.composite
def _v_ranges(draw):
    """A range [lo, hi) of 53-bit draw integers: below a bound, an aligned
    k-bit guess, every draw from lo on, or empty."""
    kind = draw(st.sampled_from(("below", "aligned", "to_top", "empty")))
    # rates near 2**-8 .. 2**-14 put hits deep in long scans
    shift = draw(st.one_of(st.integers(8, 14), st.integers(0, 53)))
    if kind == "below":
        return 0, draw(st.integers(0, 2**53)) >> shift
    if kind == "aligned":
        k = shift
        t = draw(st.integers(0, 2**k - 1))
        return t << (53 - k), (t + 1) << (53 - k)
    lo = draw(st.integers(0, 2**53))
    return (lo, 2**53) if kind == "to_top" else (lo, lo)


def _scalar_first_in(s, n, lo, hi):
    for used in range(1, n + 1):
        if lo <= int(s.random() * 2.0**53) < hi:
            return True, used
    return False, n


@given(
    key=st.integers(0, 2**64 - 1),
    skip=st.integers(0, 3),
    n=st.sampled_from(_SCAN_LENGTHS),
    v_range=_v_ranges(),
)
@example(key=0, skip=0, n=22268, v_range=(0, 0))
@example(key=2**64 - 1, skip=1, n=22268, v_range=(3 << 40, 4 << 40))
@settings(max_examples=150, deadline=None)
def test_first_in_is_a_scan_of_scalar_draws(key, skip, n, v_range):
    lo, hi = v_range
    fast, slow = CounterStream(key), CounterStream(key)
    for _ in range(skip):
        assert fast.random() == slow.random()
    assert fast.first_in(n, lo, hi) == _scalar_first_in(slow, n, lo, hi)
    # the stream stands just past the hit, or past all n draws on a miss
    assert [fast.random() for _ in range(3)] == [slow.random() for _ in range(3)]


@given(
    key=st.integers(0, 2**64 - 1),
    a=st.sampled_from(_SCAN_LENGTHS),
    b=st.sampled_from(_SCAN_LENGTHS),
    v_range=_v_ranges(),
)
@settings(max_examples=80, deadline=None)
def test_first_in_split_scans_use_the_draws_of_one(key, a, b, v_range):
    lo, hi = v_range
    split, whole = CounterStream(key), CounterStream(key)
    done, used = split.first_in(a, lo, hi)
    if not done:
        assert used == a
        done, used_b = split.first_in(b, lo, hi)
        used += used_b
    assert (done, used) == whole.first_in(a + b, lo, hi)
    assert split.random() == whole.random()


@pytest.mark.parametrize("j", [0, 1, 2, 63, 64, 100, 191, 192, 959, 960, 1983, 2500, 3500, 5000])
def test_first_in_range_ends_are_exact(j):
    # Ranges that start or end at the integer of draw j + 1, the last of the
    # scan, at chunk edges, inside a stepped chunk and in a chunk's unused
    # lanes: lo is inside the range, hi outside it, and draw j + 2 is past n.
    s = stream(21, j)
    vs = [int(s.random() * 2.0**53) for _ in range(j + 2)]
    v, past = vs[j], vs[j + 1]
    for lo, hi in ((v, v + 1), (v, 2**53), (0, v + 1), (0, v), (v + 1, 2**53), (past, past + 1)):
        want = next((i + 1 for i, u in enumerate(vs[: j + 1]) if lo <= u < hi), None)
        got = stream(21, j).first_in(j + 1, lo, hi)
        assert got == ((True, want) if want else (False, j + 1)), (lo, hi)


def test_first_in_clamps_its_range_to_the_draws():
    assert stream(3).first_in(5, -7, 2**60) == (True, 1)
    assert stream(3).first_in(5, 2**60, 2**61) == (False, 5)
    assert stream(3).first_in(-2, 0, 2**53) == (False, 0)


# ---------------------------------------------------------------------------
# Single truncated attempts


def test_run_once_sampler_success_and_failure():
    proc = SamplerProcess(RuntimeModel(constant(5.0), "deterministic"))
    out = run_once_truncated(proc, 296.83, stream(1))
    assert out.success and out.cost == pytest.approx(math.exp(5.0))
    out = run_once_truncated(proc, 2.0, stream(1))
    assert not out.success and out.cost == 2.0


def test_run_once_refuses_an_unknown_process_type():
    with pytest.raises(TypeError, match="^unknown process type tuple$"):
        run_once_truncated((), 1.0, stream(1))


def test_run_once_rejects_nonpositive_budget():
    proc = SamplerProcess(RuntimeModel(constant(0.0), "deterministic"))
    with pytest.raises(ValueError):
        run_once_truncated(proc, 0.0, stream(1))


@pytest.mark.parametrize("process", [
    SamplerProcess(RuntimeModel(constant(1.0), "deterministic")),
    SamplerProcess(RuntimeModel(constant(1.0), "geometric")),
    geometric_coin_process(constant(1.0)),
], ids=lambda p: p.label)
def test_run_once_takes_nan_and_infinite_budgets_by_process_kind(process):
    # NaN fails "budget > 0" as well as "budget <= 0", so it needs the
    # negated test.  A sampler attempt with an infinite budget runs to its
    # end; a stepped one cannot, and says so instead of failing in floor().
    with pytest.raises(ValueError, match="budget must be positive"):
        run_once_truncated(process, math.nan, stream(1))
    if isinstance(process, SamplerProcess):
        out = run_once_truncated(process, math.inf, stream(1))
        assert out.success and out.cost == distx.sample_t(process.model, stream(1))
    else:
        with pytest.raises(ValueError, match="finite budget"):
            run_once_truncated(process, math.inf, stream(1))


def test_run_once_geometric_uses_whole_steps():
    proc = SamplerProcess(RuntimeModel(constant(1.0), "geometric"))
    out = run_once_truncated(proc, 0.9, stream(1))
    assert not out.success and out.cost == 0.0
    outcomes = [run_once_truncated(proc, 7.5, stream(2, i)) for i in range(200)]
    for out in outcomes:
        assert out.cost == math.floor(out.cost)
        assert out.cost <= 7.0
        if not out.success:
            assert out.cost == 7.0


def test_geometric_coin_success_rate_single_step():
    # One step with success probability exp(-ln 2) = 1/2.
    proc = geometric_coin_process(constant(math.log(2.0)))
    n = 100_000
    wins = sum(
        run_once_truncated(proc, 1.0, stream(11, i)).success for i in range(n)
    )
    sigma = 0.5 / math.sqrt(n)
    assert abs(wins / n - 0.5) <= 3.0 * sigma


# ---------------------------------------------------------------------------
# Schedule execution


def test_run_with_schedule_forced_divergence_trips_attempt_cap():
    proc = SamplerProcess(RuntimeModel(constant(10.0), "deterministic"))
    sched = single_threshold_schedule(3.0)
    with pytest.raises(CapExceeded) as err:
        run_with_schedule(proc, sched, TrialRng(seed=1), caps=Caps(max_attempts=500))
    assert err.value.which == "max_attempts"
    assert err.value.report.attempts == 500
    assert err.value.report.total_cost == pytest.approx(500 * 2.0 * math.exp(3.0))


def test_run_with_schedule_cost_cap():
    proc = SamplerProcess(RuntimeModel(constant(10.0), "deterministic"))
    sched = single_threshold_schedule(3.0)
    with pytest.raises(CapExceeded) as err:
        run_with_schedule(proc, sched, TrialRng(seed=1), caps=Caps(max_total_cost=100.0))
    assert err.value.which == "max_total_cost"


def test_run_with_schedule_two_point_first_attempt():
    proc = SamplerProcess(RuntimeModel(two_point(4.0), "deterministic"))
    sched = single_threshold_schedule(5.0)
    for trial in range(50):
        report = run_with_schedule(proc, sched, TrialRng(seed=3, trial=trial))
        assert report.success and report.attempts == 1
        assert report.total_cost in (1.0, math.exp(5.0))


def test_run_with_schedule_universal_always_succeeds():
    proc = SamplerProcess(RuntimeModel(two_point(4.0), "geometric"))
    sched = universal_schedule()
    for trial in range(10_000):
        report = run_with_schedule(proc, sched, TrialRng(seed=4, trial=trial))
        assert report.success


def test_run_with_schedule_trips_a_cap_when_the_budgets_end(monkeypatch):
    # Past its last block "universal" has no budget left: each trial ends as
    # a cap trip of its own name, counted in n_capped, not as an error.  Two
    # blocks stand in for the 276 the real schedule runs.
    monkeypatch.setattr(schedules, "_UNIVERSAL_ES", range(5, 7))
    proc = SamplerProcess(RuntimeModel(constant(295.0), "deterministic"))
    budgets = [b for e in (5.0, 6.0) for count, b in budget_block(e) for _ in range(count)]
    *_, total = itertools.accumulate(budgets)  # the engine's order of adds
    with pytest.raises(CapExceeded) as err:
        run_with_schedule(proc, universal_schedule(), TrialRng(seed=1))
    assert err.value.which == "schedule_end"
    assert str(err.value) == f"execution cap schedule_end exceeded after {len(budgets)} attempts"
    assert err.value.report == (False, total, len(budgets))
    est = mc_expected_cost(proc, universal_schedule(), trials=2, seed=1, on_cap="count")
    assert est.n_capped == 2 and est.mean == total


def test_report_cost_identity_under_deterministic_law():
    # With the zero-variance law every failed attempt costs its full budget.
    # Attempt j replayed on its own stream gives the outcome the schedule run
    # saw, so the report's total is the exact sum of the replayed costs.
    proc = SamplerProcess(RuntimeModel(two_point(4.0), "deterministic"))
    sched = single_threshold_schedule(0.0)
    for trial in range(200):
        rng = TrialRng(seed=5, trial=trial)
        report = run_with_schedule(proc, sched, rng)
        outcomes = [
            run_once_truncated(proc, budget_at(sched, j), rng.attempt(j))
            for j in range(1, report.attempts + 1)
        ]
        assert report.success and outcomes[-1].success
        for j, outcome in enumerate(outcomes[:-1], start=1):
            assert not outcome.success and outcome.cost == budget_at(sched, j)
        assert report.total_cost == sum(outcome.cost for outcome in outcomes)


def test_attempt_outcomes_are_independent_across_indices():
    # Success indicators of attempts 1 and 2 are uncorrelated, and the
    # attempt-2 success frequency among trials that reach it matches the
    # unconditional per-attempt success probability.
    proc = SamplerProcess(RuntimeModel(two_point(4.0), "geometric"))
    n = 100_000
    budget = 2.0
    s1 = np.empty(n)
    s2 = np.empty(n)
    for trial in range(n):
        rng = TrialRng(seed=6, trial=trial)
        s1[trial] = run_once_truncated(proc, budget, rng.attempt(1)).success
        s2[trial] = run_once_truncated(proc, budget, rng.attempt(2)).success
    r = np.corrcoef(s1, s2)[0, 1]
    assert abs(r) < 0.01
    reached = s1 == 0.0
    p = s1.mean()
    se = math.sqrt(p * (1.0 - p) / reached.sum())
    assert abs(s2[reached].mean() - p) <= 5.0 * se


# ---------------------------------------------------------------------------
# Monte Carlo


def test_mc_matches_renewal_value():
    proc = SamplerProcess(RuntimeModel(two_point(4.0), "deterministic"))
    sched = single_threshold_schedule(0.0)
    est = mc_expected_cost(proc, sched, trials=100_000, seed=42)
    assert abs(est.mean - 9.0) <= 5.0 * est.std_error


def test_mc_degenerate_process():
    proc = SamplerProcess(RuntimeModel(constant(0.0), "deterministic"))
    est = mc_expected_cost(proc, universal_schedule(), trials=100, seed=1)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_mc_bit_identical_reruns():
    proc = SamplerProcess(RuntimeModel(two_point(4.0), "geometric"))
    sched = two_threshold_schedule(4.0)
    a = mc_expected_cost(proc, sched, trials=5_000, seed=9)
    b = mc_expected_cost(proc, sched, trials=5_000, seed=9)
    assert a.mean == b.mean and a.std_error == b.std_error


def test_mc_cap_counting_mode():
    proc = SamplerProcess(RuntimeModel(constant(10.0), "deterministic"))
    sched = single_threshold_schedule(3.0)
    caps = Caps(max_attempts=10)
    with pytest.raises(CapExceeded):
        mc_expected_cost(proc, sched, trials=10, seed=1, caps=caps)
    est = mc_expected_cost(proc, sched, trials=10, seed=1, caps=caps, on_cap="count")
    assert est.n_capped == 10


def test_records_refuse_field_assignment():
    model = RuntimeModel(two_point(4.0), "geometric")
    sched = two_threshold_schedule(4.0)
    est = mc_expected_cost(SamplerProcess(model), sched, trials=10, seed=1)
    records = (
        (analysis.analytic_cost(model, sched), "expected_cost"),
        (model.dist, "kind"),
        (sched, "cycle"),
        (est, "mean"),
    )
    for record, field in records:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) == before, type(record).__name__


def test_mc_validates_arguments():
    proc = SamplerProcess(RuntimeModel(constant(0.0), "deterministic"))
    with pytest.raises(ValueError):
        mc_expected_cost(proc, universal_schedule(), trials=1, seed=1)
    with pytest.raises(ValueError):
        mc_expected_cost(proc, universal_schedule(), trials=10, seed=1, on_cap="x")


# Lengths about the pairwise sum's edges: below one 8-term block, about its
# 128-term leaves, about a split whose half is not a multiple of 8, and
# past a 4096-term half.
_SUM_LENGTHS = st.one_of(st.integers(0, 9), st.integers(120, 136), st.integers(250, 260),
                         st.integers(8185, 8200))


def _numpy_mean_and_std_error(values):
    arr = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean(arr)), float(np.std(arr, ddof=1) / math.sqrt(len(arr)))


@given(
    n=_SUM_LENGTHS,
    scale=st.floats(min_value=0.0, max_value=1e300),
    pool=st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=100_001, scale=1.0, pool=[0.0, 3.0], seed=0)
@example(n=9, scale=1e300, pool=[1e300], seed=1)
@example(n=100_001, scale=1e300, pool=[1e300], seed=2)
@settings(max_examples=60, deadline=None)
def test_pairwise_sum_keeps_numpys_bits(n, scale, pool, seed):
    # About a quarter of the terms repeat a pool value or are exact zeros;
    # the rest spread over [0, scale], so that the order of the additions
    # shows in the last bits; near 1e300 the squared deviations overflow to
    # inf, as they do in numpy.
    rng = random.Random(seed)
    values = array("d", (rng.choice(pool + [0.0]) if rng.random() < 0.25 else rng.random() * scale
                         for _ in range(n)))
    arr = np.array(values)
    assert repr(engine._pairwise_sum(values)) == repr(float(np.add.reduce(arr)))
    centre = float(np.add.reduce(arr)) / n if n else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        centred = float(np.add.reduce((arr - centre) * (arr - centre)))
    assert repr(engine._pairwise_sum(values, centre)) == repr(centred)
    if n >= 2:
        got = engine._mean_and_std_error(values)
        assert repr(got) == repr(_numpy_mean_and_std_error(values))


def test_std_error_makes_no_per_trial_array():
    # The squared deviations are summed one leaf of at most 128 terms at a
    # time; an n-length array of them would take 800 KB here.
    costs = array("d", (float(i % 97) for i in range(100_000)))
    tracemalloc.start()
    try:
        engine._mean_and_std_error(costs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _fed(costs, block):
    """A _TrialCosts handed costs `block` at a time, as mc_expected_cost does."""
    store = engine._TrialCosts()
    for start in range(0, len(costs), block):
        store.extend(costs[start:start + block])
    return store


# Among the pools' doubles: zero, subnormals, the smallest normal, 1e300,
# whose squared deviations overflow, and inf, whose deviations are NaN.
_SPECIAL_COSTS = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e300, math.inf)


@given(
    n=st.integers(2, 9000),
    pool_size=st.integers(1, 300),
    block=st.sampled_from((1, 7, 128, 1000, 4096)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=9000, pool_size=300, block=4096, seed=0)
@example(n=9000, pool_size=256, block=4096, seed=1)
@example(n=8200, pool_size=257, block=1000, seed=2)
@settings(max_examples=40, deadline=None)
def test_trial_costs_keep_the_bits_of_an_array(n, pool_size, block, seed):
    # Costs drawn from a pool of doubles cross the 256-value limit or not,
    # in any block; the mean and SE are the array's and numpy's bits either way.
    rng = random.Random(seed)
    pool = list(_SPECIAL_COSTS) + [rng.random() * 10.0 ** rng.randint(-320, 300)
                                   for _ in range(pool_size)]
    rng.shuffle(pool)
    pool = pool[:pool_size]
    costs = array("d", (rng.choice(pool) for _ in range(n)))
    store = _fed(costs, block)
    assert len(store) == n
    assert (store._costs is None) == (len(set(costs)) <= 256)
    got = repr(engine._mean_and_std_error(store))
    assert got == repr(engine._mean_and_std_error(costs))
    assert got == repr(_numpy_mean_and_std_error(costs))


def _costs_with_new_value_at(n, at):
    """n costs over 256 values, all seen before index at, which brings a 257th."""
    values = [0.1 * i + 1e-3 for i in range(257)]
    return array("d", (values[256] if i == at else values[i % (256 if i < at else 257)]
                       for i in range(n)))


@pytest.mark.parametrize("n, at", [
    (8200, None),   # exactly 256 values: stays coded
    (8200, 4096),   # the 257th value is the first cost of the second block
    (3000, 1061),   # mid-leaf, inside the first block
    (9000, 8500),   # in the last, partial block
    (8200, 5000),   # past the 4096-cost half of the pairwise sum
])
def test_trial_costs_switch_at_the_257th_value(n, at):
    costs = _costs_with_new_value_at(n, n if at is None else at)
    store = _fed(costs, 4096)
    assert (store._costs is None) == (at is None)
    assert list(store[0:n]) == list(costs)
    assert list(store[at or 0:n - 3]) == list(costs[at or 0:n - 3])
    got = repr(engine._mean_and_std_error(store))
    assert got == repr(engine._mean_and_std_error(costs))
    assert got == repr(_numpy_mean_and_std_error(costs))


def test_mc_keeps_a_byte_per_trial_while_costs_repeat():
    # 20 000 costs over 3 values: one byte a trial plus a 4096-cost block,
    # where an array of every cost took 172 808 B.
    dist = distx.variance_counterexample(5.0, 10.0)
    proc = SamplerProcess(RuntimeModel(dist, "deterministic"))
    caps = default_caps(e_hint=distx.support_max(dist))
    sched = specific_e_schedule(5.0)
    tracemalloc.start()
    try:
        mc_expected_cost(proc, sched, trials=20_000, seed=42, caps=caps, on_cap="count")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("law", distx.LAWS)
def test_mc_mean_and_std_error_are_numpys_on_the_trial_costs(law):
    proc = SamplerProcess(RuntimeModel(distx.adversarial_density(5.0), law))
    sched = universal_schedule()
    for trials in (8, 129, 2000):
        est = mc_expected_cost(proc, sched, trials=trials, seed=5)
        costs = [run_with_schedule(proc, sched, TrialRng(5, i)).total_cost for i in range(trials)]
        assert repr((est.mean, est.std_error)) == repr(_numpy_mean_and_std_error(costs))


def test_default_caps_hint():
    caps = default_caps(e_hint=5.0)
    assert caps.max_total_cost == pytest.approx(math.exp(25.0))
    assert default_caps().max_total_cost == 1e300
    assert default_caps(e_hint=800.0).max_total_cost == 1e300
    assert default_caps(e_hint=math.inf).max_total_cost == 1e300
    assert default_caps(e_hint=0.0).max_total_cost == pytest.approx(math.exp(20.0))
    # X >= 0, so no distribution has these: NaN would give a cap that never
    # trips, a negative hint one that trips after the first failed attempt.
    for e_hint in (math.nan, -math.inf, -30.0):
        with pytest.raises(ValueError):
            default_caps(e_hint=e_hint)


# ---------------------------------------------------------------------------
# Resumable processes against the sampler algebra


def test_geometric_coin_reproduces_oracle():
    dist = constant(math.log(2.0))
    sched = single_threshold_schedule(math.log(3.0))
    oracle = analysis.analytic_cost(RuntimeModel(dist, "geometric"), sched)
    assert oracle.expected_cost == pytest.approx(2.0, rel=1e-9)
    est = mc_expected_cost(geometric_coin_process(dist), sched, trials=30_000, seed=2)
    assert abs(est.mean - oracle.expected_cost) <= 5.0 * est.std_error


def test_bitstring_guesser_reproduces_oracle():
    k = 3
    sched = single_threshold_schedule(math.log(3.0))  # six guesses per attempt
    oracle = analysis.analytic_cost(bitstring_guess_model(k), sched)
    assert oracle.expected_cost == pytest.approx(8.0, rel=1e-9)
    est = mc_expected_cost(bitstring_guess_process(k), sched, trials=30_000, seed=3)
    assert abs(est.mean - oracle.expected_cost) <= 5.0 * est.std_error


@pytest.mark.parametrize("k", [-1, 54, 64, 80])
def test_bitstring_guess_refuses_k_past_one_draw(k):
    # int(u * 2**k) takes only 2**53 values, so k > 53 would not succeed 2**-k
    # of the time, as the model says; a negative k would be a shift error.
    for build in (bitstring_guess_process, bitstring_guess_model):
        with pytest.raises(ValueError, match=r"k in 0\.\.53"):
            build(k)


def test_bitstring_guess_at_the_ends_of_k():
    assert run_once_truncated(bitstring_guess_process(0), 5.0, stream(1)).cost == 1.0
    assert bitstring_guess_model(53).dist.atoms[0][0] == 53 * math.log(2.0)
    out = run_once_truncated(bitstring_guess_process(53), 1000.0, stream(1))
    assert (out.success, out.cost) == (False, 1000.0)


def test_resumable_consumes_at_most_budget():
    proc = bitstring_guess_process(4)
    for i in range(300):
        out = run_once_truncated(proc, 9.7, stream(13, i))
        assert out.cost <= 9.0
        assert out.cost == math.floor(out.cost)
