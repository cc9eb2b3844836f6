import functools
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _brute
from _brute import (
    brute_cost_deterministic,
    brute_cost_geometric,
    budget_at,
    group_sum_prefix_cost,
    reference_scan_cost,
    renewal_partial_cost,
)
from _outcomes import _enclosures_agree
from vegas_restart import analysis, distx, schedules
from vegas_restart.analysis import (
    TailNotConvergent,
    analytic_cost,
    block_success_prob,
    check_block_coverage,
    check_two_phase_coverage,
    expected_runtime,
    find_threshold_witness,
    min_threshold_ratio,
)
from vegas_restart.distx import (
    RuntimeModel,
    adversarial_density,
    constant,
    expectation,
    fixed_t_counterexample,
    two_point,
    variance_counterexample,
    zoo_distributions,
    zoo_models,
)
from vegas_restart.schedules import (
    fixed_schedule,
    luby_schedule,
    single_threshold_schedule,
    specific_e_schedule,
    two_threshold_schedule,
    universal_schedule,
)


# ---------------------------------------------------------------------------
# Exact oracle


def test_oracle_simple_renewal_value():
    model = RuntimeModel(two_point(4.0), "deterministic")
    est = analytic_cost(model, single_threshold_schedule(0.0), eps_tail=1e-12)
    assert est.expected_cost == pytest.approx(9.0, abs=1e-9)
    assert 0.0 <= est.tail_bound <= 1e-9
    assert est.expected_cost + est.tail_bound >= 9.0 - 1e-12


def test_oracle_first_attempt_succeeds():
    model = RuntimeModel(two_point(4.0), "deterministic")
    est = analytic_cost(model, single_threshold_schedule(5.0))
    assert est.expected_cost == pytest.approx(0.2 + 0.8 * math.exp(5.0), rel=1e-12)
    assert est.tail_bound == 0.0


def test_oracle_detects_divergence_by_support():
    model = RuntimeModel(constant(10.0), "deterministic")
    est = analytic_cost(model, single_threshold_schedule(3.0))
    assert math.isinf(est.expected_cost)


def test_oracle_enclosure_contains_truth():
    # Chop the series at coarse eps values; the enclosure must always contain
    # the tight value.  eps_tail chops only the scans: the cyclic kind's
    # closed form is the same point at every eps.
    model = RuntimeModel(two_point(4.0), "geometric")
    for sched in (single_threshold_schedule(1.0), universal_schedule(), luby_schedule(1.0)):
        tight = analytic_cost(model, sched, eps_tail=1e-14)
        truth = tight.expected_cost + 0.5 * tight.tail_bound
        for eps in (1e-2, 1e-4, 1e-8):
            est = analytic_cost(model, sched, eps_tail=eps)
            assert est.expected_cost <= truth <= est.expected_cost + est.tail_bound + 1e-12
            if sched.cycle is not None:
                assert est == tight


def test_oracle_universal_matches_block_prefix_renewal():
    # For a model that cannot survive past the first blocks, the universal
    # cost must agree with the plain renewal sum over the budget prefix.
    model = RuntimeModel(two_point(4.0), "geometric")
    est = analytic_cost(model, universal_schedule(), eps_tail=1e-12)
    budgets = list(itertools.islice(universal_schedule().budgets(), 40))
    assert est.expected_cost == pytest.approx(renewal_partial_cost(model, budgets), rel=1e-10)


def test_oracle_universal_certified_tail_is_small():
    for model in (
        RuntimeModel(variance_counterexample(5.0, 10.0), "deterministic"),
        RuntimeModel(adversarial_density(10.0), "geometric"),
    ):
        est = analytic_cost(model, universal_schedule(), eps_tail=1e-10)
        assert est.tail_bound <= 1e-4 * max(est.expected_cost, 1.0)


def test_oracle_luby_exact_when_support_bounded():
    model = RuntimeModel(two_point(4.0), "deterministic")
    est = analytic_cost(model, luby_schedule(1.0))
    # independent check against a long explicit prefix
    budgets = list(itertools.islice(luby_schedule(1.0).budgets(), 2047))
    assert est.expected_cost == pytest.approx(renewal_partial_cost(model, budgets), rel=1e-9)
    assert est.tail_bound <= 1e-9 * est.expected_cost
    # Weights that sum to 1 - 1e-13 leave p short of 1 past the support, but
    # q = 0 there is exact zero: the scan ends after its first attempt
    # instead of doubling the budget 1e308 past double range.
    for law in distx.LAWS:
        model = RuntimeModel(distx.discrete([[0.0, 0.5], [1.0, 0.5 - 1e-13]]), law)
        est = analytic_cost(model, luby_schedule(1e308), eps_tail=1e-20)
        assert (est.tail_bound, est.attempts_summed) == (0.0, 1)
    # An exact zero after 2**1431 - 1 attempts, more than a double holds:
    # the certificate closes it without forming its span.
    est = analytic_cost(RuntimeModel(constant(300.0), "deterministic"), luby_schedule(1e-300),
                        attempt_cap=2**2000)
    assert (est.tail_bound, est.attempts_summed) == (0.0, 2**1431 - 1)


def test_oracle_luby_certificate_for_heavy_tail():
    model = RuntimeModel(variance_counterexample(5.0, 10.0), "deterministic")
    est = analytic_cost(model, luby_schedule(4.0), eps_tail=1e-12)
    assert math.isfinite(est.expected_cost)
    assert est.tail_bound < 1.0


def test_oracle_luby_geometric_certified():
    model = RuntimeModel(two_point(4.0), "geometric")
    est = analytic_cost(model, luby_schedule(1.0), eps_tail=1e-12)
    budgets = list(itertools.islice(luby_schedule(1.0).budgets(), 4095))
    assert est.expected_cost == pytest.approx(renewal_partial_cost(model, budgets), rel=1e-6)


def test_oracle_raises_when_attempt_cap_blocks_certificate():
    model = RuntimeModel(two_point(4.0), "geometric")
    with pytest.raises(TailNotConvergent):
        analytic_cost(model, luby_schedule(1.0), attempt_cap=3)


def test_oracle_universal_range_guard_for_uncoverable_support():
    # constant(295) needs escalation blocks past the range guard.  A cap that
    # lets the scan reach the guard gives a refusal where the blocks end, not
    # the guard's ScheduleRangeError, which the CLI reports as a config error.
    model = RuntimeModel(constant(295.0), "deterministic")
    with pytest.raises(TailNotConvergent, match="whose blocks end at E = 280$"):
        analytic_cost(model, universal_schedule(), attempt_cap=10**9)


def test_oracle_rejects_bad_eps():
    model = RuntimeModel(constant(0.0), "deterministic")
    with pytest.raises(ValueError):
        analytic_cost(model, universal_schedule(), eps_tail=0.0)


def test_oracle_rejects_nan_eps_tail_on_a_cycle():
    # The closed form of a cycle does not read eps_tail, but analytic_cost
    # checks it for every schedule kind, so a bad value never passes silently.
    model = RuntimeModel(two_point(4.0), "deterministic")
    with pytest.raises(ValueError, match="eps_tail must be positive, got nan"):
        analytic_cost(model, fixed_schedule(4.0), eps_tail=math.nan)
    with pytest.raises(ValueError, match="eps_tail must be finite, got inf"):
        analytic_cost(RuntimeModel(two_point(4.0), "geometric"), fixed_schedule(4.0),
                      eps_tail=math.inf)


def test_oracle_rejects_nan_eps_tail_on_a_scan():
    # Unchecked, a NaN eps_tail switches the certificate off, and this scan
    # sums to zero survival: (6.671613793880576, 0.0, 3068).  An infinite
    # one passes the certificate's survival test at once: universal returns
    # (0.0, 13078592.513593188, 0), a bound with nothing summed.
    model = RuntimeModel(two_point(4.0), "geometric")
    with pytest.raises(ValueError, match="eps_tail must be positive, got nan"):
        analytic_cost(model, luby_schedule(1.0), eps_tail=math.nan)
    with pytest.raises(ValueError, match="eps_tail must be finite, got inf"):
        analytic_cost(model, universal_schedule(), eps_tail=math.inf)


def test_oracle_rejects_an_attempt_cap_that_is_not_whole():
    # Unchecked, a NaN cap switches the cap off, and this scan sums
    # 67 108 863 attempts instead of refusing.
    model = RuntimeModel(two_point(16.0), "deterministic")
    for cap in (math.nan, math.inf, -1, 1.5):
        with pytest.raises(ValueError, match="attempt_cap must be a non-negative whole number"):
            analytic_cost(model, luby_schedule(1.0), attempt_cap=cap)


def test_oracle_float_attempt_cap_counts_whole_attempts():
    # The cap is converted to int once, so no float leaks into the count: the
    # refusal names 100001 attempts, not 100001.0.
    model = RuntimeModel(two_point(16.0), "deterministic")
    with pytest.raises(TailNotConvergent) as info:
        analytic_cost(model, luby_schedule(1.0), attempt_cap=1e5)
    assert str(info.value) == "no tail certificate after 100001 attempts of schedule luby(unit=1)"
    est = analytic_cost(RuntimeModel(two_point(4.0), "geometric"), luby_schedule(1.0),
                        attempt_cap=1e5)
    assert repr(est.attempts_summed) == "255"


# {0: p, 50: 1 - p} under single_threshold(0), budget 2: every attempt fails
# with probability about 1 - p, so the cost is about 2/p.  q = 1 - p rounds
# to 1 for p below about 1e-16; the closed form takes p itself.
_NEAR_CERTAIN_PS = (1e-300, 1e-200, 1e-30, 1e-18, 1e-17, 1e-16, 1e-12, 1e-10, 1e-6, 1e-3,
                    0.1, 0.5)


def _near_certain_exact(atoms, law, budget):
    """E[min(T, b)] / Pr(T <= b) over the atoms as given: exact rationals under
    the deterministic law, 50-digit mpmath under the geometric one."""
    if law == "deterministic":
        runs = [(Fraction(w), Fraction(math.exp(x))) for x, w in atoms]
        charged = sum(w * min(t_run, Fraction(budget)) for w, t_run in runs)
        return charged / sum(w for w, t_run in runs if t_run <= budget)
    with mpmath.workdps(50):
        n = math.floor(budget)
        charged = succ_total = mpmath.mpf(0)
        for x, w in atoms:
            pg = mpmath.exp(-mpmath.mpf(x))
            succ = -mpmath.expm1(n * mpmath.log1p(-pg)) if x > 0.0 else mpmath.mpf(1)
            charged += w * succ / pg
            succ_total += w * succ
        return charged / succ_total


@pytest.mark.parametrize("law", distx.LAWS)
@pytest.mark.parametrize("p", _NEAR_CERTAIN_PS)
def test_cyclic_closed_form_keeps_a_tiny_success_probability(p, law):
    atoms = [(0.0, p), (50.0, 1.0 - p)]
    schedule = single_threshold_schedule(0.0)
    est = analytic_cost(RuntimeModel(distx.discrete(atoms), law), schedule)
    exact = _near_certain_exact(atoms, law, schedule.cycle[0][1])
    assert (est.tail_bound, est.attempts_summed) == (0.0, 1)
    if law == "deterministic":
        rel = abs(Fraction(est.expected_cost) / exact - 1)
    else:
        rel = abs(mpmath.mpf(est.expected_cost) / exact - 1)
    assert rel <= 4 * 2.0**-53, (p, law, est.expected_cost, float(rel))


def test_cyclic_closed_form_refuses_to_overflow():
    # The cost is about 2e310, past double range: a refusal, not inf, which
    # only the support argument returns.
    model = RuntimeModel(distx.discrete([[0.0, 1e-310], [50.0, 1.0 - 1e-310]]), "deterministic")
    with pytest.raises(TailNotConvergent, match="overflows double range"):
        analytic_cost(model, single_threshold_schedule(0.0))


def test_density_geometric_cycle_refuses_an_unresolved_success_probability():
    # With 5 whole steps the density's success probability is about 9.6e-25.
    # Taking it as 1 - q from a quadrature read 2.2e-16, so the oracle used to
    # refuse the cycle (TailNotConvergent, "numerical integration"); the
    # closed form keeps p at full relative precision and returns the cost,
    # 5.19837778794628e24 by 50-digit mpmath.
    model = RuntimeModel(adversarial_density(60.0), "geometric")
    est = analytic_cost(model, single_threshold_schedule(1.0))
    assert (est.tail_bound, est.attempts_summed) == (0.0, 1)
    assert abs(est.expected_cost / 5.19837778794628e24 - 1.0) <= 4 * 2.0**-53, est
    est = analytic_cost(RuntimeModel(adversarial_density(5.0), "geometric"), fixed_schedule(5.0))
    assert math.isfinite(est.expected_cost) and est.tail_bound == 0.0


def test_universal_scan_refuses_where_the_blocks_end():
    # With a cap past the 15 327 864 attempts of the blocks for E = 5 ... 280,
    # constant(290) x geometric runs out of blocks and is refused, naming the
    # last one.  Under the deterministic law survival reaches zero on the last
    # group of that block, which must end the scan before it asks for another.
    with pytest.raises(TailNotConvergent) as info:
        analytic_cost(RuntimeModel(constant(290.0), "geometric"), universal_schedule(),
                      attempt_cap=10**12)
    assert str(info.value) == (
        "no tail certificate after 15327864 attempts of schedule universal,"
        " whose blocks end at E = 280"
    )
    est = analytic_cost(RuntimeModel(constant(290.0), "deterministic"), universal_schedule(),
                        attempt_cap=10**12)
    got = (est.expected_cost, est.tail_bound, est.attempts_summed)
    assert repr(got) == repr((2.935067886828244e+126, 0.0, 15327864))


def test_universal_certificate_prices_its_blocks_closing_budget(monkeypatch):
    # Move each block's closing pair to 2e^(E+10.5), a budget no block of the
    # real schedule holds: the certificate before a block must price the
    # moved budget, and 2e^(E+10) must never be priced.  Under the geometric
    # law two_point(16) closes on the certificate before block 7; under the
    # deterministic law its survival reaches zero before any is tried.
    def moved_block(e):
        *steps, (count, _) = schedules.budget_block(e)
        return (*steps, (count, 2.0 * math.exp(e + 10.5)))

    priced = []

    def recording_stats(model, budget):
        priced.append(budget)
        return distx.runtime_stats(model, budget)

    monkeypatch.setattr(analysis, "budget_block", moved_block)
    monkeypatch.setattr(analysis, "runtime_stats", recording_stats)
    est = analytic_cost(RuntimeModel(two_point(16.0), "geometric"), universal_schedule())
    assert est.tail_bound > 0.0
    assert not {2.0 * math.exp(e + 10.0) for e in schedules._UNIVERSAL_ES} & set(priced)
    # The scan closes on the certificate before the first block it does not
    # sum, and that certificate priced the block's moved closing budget last.
    last = next(e for e in schedules._UNIVERSAL_ES
                if sum(count for e2 in range(5, e) for count, _ in moved_block(e2))
                == est.attempts_summed)
    assert priced[-1] == 2.0 * math.exp(last + 10.5)


def test_oracle_vs_brute_force_deterministic():
    cases = [
        (two_point(4.0), [budget_at(single_threshold_schedule(0.0), 1)] * 20),
        (two_point(4.0), [budget_at(fixed_schedule(4.0), 1)] * 5),
        (fixed_t_counterexample(5.0, 5.0), [budget_at(single_threshold_schedule(5.0), 1)] * 15),
        (
            variance_counterexample(5.0, 10.0),
            [budget_at(universal_schedule(), i) for i in range(1, 19)],
        ),
    ]
    for dist, budgets in cases:
        model = RuntimeModel(dist, "deterministic")
        brute = brute_cost_deterministic(dist.atoms, budgets)
        assert group_sum_prefix_cost(model, budgets) == pytest.approx(brute, rel=1e-12)


def test_oracle_vs_brute_force_geometric():
    cases = [
        (two_point(2.0), [2.0] * 12),
        (constant(math.log(3.0)), [6.0] * 12),
        (distx.discrete([(0.0, 0.25), (1.0, 0.35), (2.5, 0.4)]), [3.0] * 10),
    ]
    for dist, budgets in cases:
        model = RuntimeModel(dist, "geometric")
        brute = brute_cost_geometric(dist.atoms, budgets)
        assert group_sum_prefix_cost(model, budgets) == pytest.approx(brute, rel=1e-12)


# ---------------------------------------------------------------------------
# Threshold witness search


def test_threshold_witness_two_point():
    verdict = find_threshold_witness(two_point(4.0))
    assert verdict.holds
    assert 0.0 < verdict.witness < 1e-6
    ratio = math.exp(verdict.witness) / 0.2
    assert ratio == pytest.approx(5.0, rel=1e-6)
    assert verdict.margin == pytest.approx(5.0 - math.log(5.0), rel=1e-6)


def test_threshold_witness_constant():
    for c in (0.0, 1.0, 7.0):
        verdict = find_threshold_witness(constant(c))
        assert verdict.holds
        assert verdict.margin == pytest.approx(1.0, abs=1e-6)


def test_threshold_witness_adversarial_marginal():
    verdict = find_threshold_witness(adversarial_density(10.0))
    assert verdict.holds
    assert 0.0 < verdict.margin < 1e-3
    _, ratio = min_threshold_ratio(adversarial_density(10.0), 0.0, 12.0)
    assert ratio > math.exp(11.0)


def test_lemma3_margin_on_atoms_takes_math_log():
    # The witness is the double just above the first atom, where
    # Pr(X < t) = p, so the margin is (E[X] + 1) - (t - ln p) with ln p from
    # math.log.  numpy's log differs from it in the last bit here on an
    # AVX-512 host (numpy 2.4).  Against the probe 1 + delta, delta =
    # 1e-9 (1 + E[X]), the margin may only rise, and by at most delta.
    p = 0.6509193788395786
    dist = distx.discrete([(1.0, p), (4.0, 1.0 - p)])
    verdict = find_threshold_witness(dist)
    ex = expectation(dist)
    assert verdict.witness == math.nextafter(1.0, math.inf)
    assert verdict.margin == (ex + 1.0) - (verdict.witness - math.log(p))
    delta = 1e-9 * (1.0 + ex)
    old_margin = (ex + 1.0) - (1.0 + delta - math.log(p))
    assert old_margin <= verdict.margin <= old_margin + delta


def test_threshold_witness_holds_zoo_wide():
    for dist in zoo_distributions():
        assert find_threshold_witness(dist).holds, dist.label


def test_threshold_witness_margin_vanishes_along_density_family():
    margins = [find_threshold_witness(adversarial_density(e)).margin for e in (5.0, 10.0, 20.0)]
    assert all(m > 0.0 for m in margins)
    assert margins == sorted(margins, reverse=True)
    assert margins[-1] < 1e-6


def test_min_threshold_ratio_adversarial():
    dist = adversarial_density(10.0)
    t_star, ratio = min_threshold_ratio(dist, 0.0, 12.0)
    t_max = 11.0 + math.log1p(math.exp(-11.0))
    assert t_star == pytest.approx(t_max, abs=2e-3)
    assert ratio >= math.exp(11.0)
    assert ratio == pytest.approx(math.exp(11.0) / (1.0 - math.exp(-t_max)), rel=1e-6)


def test_min_threshold_ratio_two_point():
    t_star, ratio = min_threshold_ratio(two_point(4.0), 0.0, 5.0)
    assert t_star < 1e-6
    assert ratio == pytest.approx(5.0, rel=1e-6)


def test_min_threshold_ratio_empty_mass():
    _, ratio = min_threshold_ratio(two_point(4.0), -3.0, -1.0)
    assert math.isinf(ratio)
    with pytest.raises(ValueError):
        min_threshold_ratio(two_point(4.0), 1.0, 1.0)


def _lemma3_pairs(dist, ranges):
    verdict = find_threshold_witness(dist)
    return [(verdict.witness, verdict.margin)] + [min_threshold_ratio(dist, lo, hi) for lo, hi in ranges]


def _lemma3_against_the_grid(dist, ranges):
    """(witness, margin or ratio) pairs of find_threshold_witness and of
    min_threshold_ratio over each range, and the same from the grid search."""
    got = _lemma3_pairs(dist, ranges)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_threshold_candidates", _brute.reference_threshold_candidates)
        ref = _lemma3_pairs(dist, ranges)
    return list(zip(got, ref))


_LEMMA3_RANGES = ((0.0, 1.0), (0.5, 3.0), (-3.0, -1.0), (1.0, 12.0), (0.0, 12.0), (2.0, 310.0))


def test_lemma3_search_is_bit_identical_to_the_grid_on_the_zoo():
    for dist in zoo_distributions():
        ex = expectation(dist)
        ranges = _LEMMA3_RANGES + ((0.0, ex + 2.0), (-1.0, ex), (ex, ex + 5.0))
        for got, ref in _lemma3_against_the_grid(dist, ranges):
            assert repr(got) == repr(ref), dist.label


def test_lemma3_grid_can_land_just_above_an_atom():
    # The grid of [0, 1] has the point 0.7258 just above the atom x; the
    # candidate nextafter(x, inf) lies below it, so the grid cannot win.
    x = 0.7258 - 1e-8
    dist = distx.discrete([(x, 0.5), (100.0, 0.5)])
    (_, (got, ref)) = _lemma3_against_the_grid(dist, [(0.0, 1.0)])
    assert got == ref and got[0] == math.nextafter(x, math.inf)


@st.composite
def _atom_sets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    xs = draw(st.lists(st.floats(min_value=0.0, max_value=300.0), min_size=n, max_size=n,
                       unique=True))
    weights = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n))
    total = math.fsum(weights)
    return distx.discrete([[x, w / total] for x, w in zip(xs, weights)])


@given(_atom_sets(), st.floats(min_value=-5.0, max_value=305.0),
       st.floats(min_value=1e-3, max_value=310.0))
@settings(max_examples=200, deadline=None)
def test_lemma3_search_matches_the_grid_on_random_atoms(dist, t_lo, width):
    for got, ref in _lemma3_against_the_grid(dist, [(t_lo, t_lo + width)]):
        assert repr(got) == repr(ref)


# ---------------------------------------------------------------------------
# Coverage checkers


def test_two_phase_coverage_two_point():
    verdict = check_two_phase_coverage(two_point(4.0))
    assert verdict.holds and verdict.witness == "high"
    # the low branch misses exactly at equality: Pr(X <= 4 - ln 4) = 1/5
    dist = two_point(4.0)
    assert distx.cdf(dist, 4.0 - math.log(4.0)) == 1.0 / 5.0


def test_two_phase_coverage_constant():
    for c in (1.0, 5.0, 10.0):
        verdict = check_two_phase_coverage(constant(c))
        assert verdict.holds


def test_two_phase_coverage_adversarial():
    assert check_two_phase_coverage(adversarial_density(10.0)).holds


def test_two_phase_coverage_requires_mean_at_least_one():
    with pytest.raises(ValueError):
        check_two_phase_coverage(constant(0.5))


def test_two_phase_coverage_zoo_wide():
    for dist in zoo_distributions():
        if expectation(dist) >= 1.0:
            assert check_two_phase_coverage(dist).holds, dist.label


def test_block_coverage_two_point_twenty():
    verdict = check_block_coverage(two_point(20.0), 20.0)
    assert verdict.holds and verdict.witness == 1
    lhs = distx.cdf_strict(two_point(20.0), 20.0 - 3.0 * math.log(20.0))
    assert lhs == pytest.approx(1.0 / 21.0)
    assert lhs >= 1.0 / ((20.0 + 2.0) ** 2 + 1.0)


def test_block_coverage_tail_clause():
    verdict = check_block_coverage(constant(5.0), 5.0)
    assert verdict.holds and verdict.witness == "tail"


def test_block_coverage_rejects_small_bound():
    with pytest.raises(ValueError):
        check_block_coverage(two_point(20.0), 10.0)
    with pytest.raises(ValueError):
        check_block_coverage(constant(1.0), 4.0)


def test_block_coverage_zoo_wide_both_bound_choices():
    for dist in zoo_distributions():
        ex = expectation(dist)
        for e in (max(ex, 5.0), max(float(math.ceil(ex)) + 3.0, 5.0)):
            assert check_block_coverage(dist, e).holds, (dist.label, e)


def test_block_success_prob_examples():
    assert block_success_prob(
        RuntimeModel(two_point(4.0), "deterministic"), 5.0
    ) == pytest.approx(1.0)
    assert block_success_prob(
        RuntimeModel(constant(6.0), "deterministic"), 6.0
    ) == pytest.approx(1.0)


def test_block_success_prob_zoo_wide():
    for model in zoo_models():
        e = max(expectation(model.dist), 5.0)
        assert block_success_prob(model, e) >= 0.75, model.label


def test_block_success_verdict_reports_margin_over_three_quarters():
    for model in zoo_models():
        e = max(expectation(model.dist), 5.0)
        prob = block_success_prob(model, e)
        verdict = analysis.check_block_success(model, e)
        assert verdict.check == "cor10"
        assert verdict.holds == (prob >= 0.75)
        assert verdict.margin == prob - 0.75


# ---------------------------------------------------------------------------
# Strategy cost guarantees (spot checks; the sweep lives in the verify suite)


def test_single_threshold_lower_bound_on_trap_family():
    for e in (5.0, 10.0, 20.0):
        for t in (e, e + 1.0, e + 5.0, 2.0 * e):
            model = RuntimeModel(fixed_t_counterexample(e, t), "deterministic")
            est = analytic_cost(model, single_threshold_schedule(t))
            expected = 1.0 + 2.0 * e * math.exp(t) / (t + 1.0 - e)
            assert est.expected_cost == pytest.approx(expected, rel=1e-9)
            assert est.expected_cost >= e * math.exp(e)


def test_universal_beats_single_threshold_on_trap_family():
    e = 20.0
    dist = fixed_t_counterexample(e, 2.0 * e)
    model = RuntimeModel(dist, "deterministic")
    single = analytic_cost(model, single_threshold_schedule(2.0 * e))
    universal = analytic_cost(model, universal_schedule())
    advantage = single.expected_cost / (universal.expected_cost + universal.tail_bound)
    assert advantage >= e * math.exp(e - 1.0) / analysis.ALG5_BOUND_CONSTANT


def test_fixed_threshold_slope_on_trap_family():
    # On the family built to defeat the mean-plus-one threshold, its cost is
    # 1 + E * exp(E+1), so log-cost minus the mean grows like 1 + ln E.
    es = np.arange(5.0, 31.0)
    excess = []
    for e in es:
        model = RuntimeModel(fixed_t_counterexample(e, e + 1.0), "deterministic")
        est = analytic_cost(model, fixed_schedule(e))
        assert est.expected_cost == pytest.approx(1.0 + e * math.exp(e + 1.0), rel=1e-9)
        excess.append(math.log(est.expected_cost) - e)
    slope = np.polyfit(np.log(es), np.array(excess), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_expected_runtime_helper():
    model = RuntimeModel(two_point(4.0), "geometric")
    assert expected_runtime(model) == pytest.approx(0.2 + 0.8 * math.exp(5.0), rel=1e-12)


# (expected_cost, tail_bound, attempts_summed) of the unbounded scans at the
# default eps_tail and attempt_cap.  The Luby pins are the doubling
# recursion's; where they moved from the scans that summed a Luby term at a
# time, that value is kept in _PER_TERM_SCAN_PINS.  Where a pin moved when
# survival went to log space, with ln q = log(q) for q <= 1/2, the value
# of the scans that multiplied survival by q**count is kept in
# _Q_PRODUCT_SCAN_PINS.  Where a Luby pin moved when the doubling step
# became S_{k+1} = S_k followed by (S_k followed by the peak), which rounds
# ln Q_k + (ln Q_k + ln q) where 2 ln Q_k + ln q was, the old value is kept
# in _TWICE_LN_Q_SCAN_PINS.  Each kept value must agree with the pin
# (_enclosures_agree), and the last two sum the same attempts.
# The adversarial_density x geometric pins are the closed form's bits.  The
# values below were scipy.integrate.quad's (epsrel 1e-11) and then a
# Gauss-Kronrod rule's (the old pins, good to 1e-12); the per-term pins must
# agree with both to those tolerances.
_SCIPY_SCAN_VALUES = {
    ("adversarial_density(E=5)|geometric", "universal"): (202.71439674636747, 0.0, 2),
    ("adversarial_density(E=5)|geometric", "luby(unit=1)"): (80.13394781790622, 0.0007435038876474849, 519),
    ("adversarial_density(E=5)|geometric", "luby(unit=4)"): (93.21732878298997, 0.00024622402900640103, 197),
}
_QUAD_SCAN_PINS = {
    ("adversarial_density(E=5)|geometric", "universal"): (202.71439674636744, 0.0, 2),
    ("adversarial_density(E=5)|geometric", "luby(unit=1)"): (80.13394781790606, 0.0007435038876474565, 519),
    ("adversarial_density(E=5)|geometric", "luby(unit=4)"): (93.21732878298955, 0.00024622402900638585, 197),
}
_PER_TERM_SCAN_PINS = {
    ('two_point(E=1)|geometric', 'luby(unit=1)'): (1.8317346850154734, 4.47729213612637e-07, 24),
    ('two_point(E=1)|geometric', 'luby(unit=4)'): (2.9987354056505686, 2.318277286685674e-07, 14),
    ('two_point(E=4)|geometric', 'luby(unit=1)'): (6.671613793880576, 5.1505184415542065e-22, 255),
    ('two_point(E=4)|geometric', 'luby(unit=4)'): (20.496536156641426, 5.0229047664271947e-05, 78),
    ('fixed_t_counterexample(E=5,t=5)|geometric', 'luby(unit=1)'): (8.704085809953604, 2.2124986990012566e-36, 511),
    ('fixed_t_counterexample(E=5,t=5)|geometric', 'luby(unit=4)'): (29.49892176690886, 4.995498391898204e-06, 127),
    ('fixed_t_counterexample(E=5,t=10)|deterministic', 'luby(unit=1)'): (1.9486067976362087, 1.8388849404159303e-06, 30),
    ('fixed_t_counterexample(E=5,t=10)|deterministic', 'luby(unit=4)'): (4.794427190704949, 7.355539761663721e-06, 30),
    ('fixed_t_counterexample(E=10,t=20)|geometric', 'luby(unit=1)'): (2.0462483292074154, 4.625377885857101e-06, 32),
    ('fixed_t_counterexample(E=10,t=20)|geometric', 'luby(unit=4)'): (5.1849932982177, 1.850150608068102e-05, 32),
    ('fixed_t_counterexample(E=10,t=20)|deterministic', 'luby(unit=1)'): (2.0462483311672903, 4.625378341086143e-06, 32),
    ('fixed_t_counterexample(E=10,t=20)|deterministic', 'luby(unit=4)'): (5.184993324815744, 1.8501513364344573e-05, 32),
    ('fixed_t_counterexample(E=20,t=40)|deterministic', 'luby(unit=1)'): (2.1027781228066234, 5.3691522346865544e-06, 33),
    ('fixed_t_counterexample(E=20,t=40)|deterministic', 'luby(unit=4)'): (5.411112491381106, 2.1476608938746218e-05, 33),
    ('adversarial_density(E=5)|geometric', 'luby(unit=1)'): (80.13394781790709, 0.0007435038876476086, 519),
    ('adversarial_density(E=5)|geometric', 'luby(unit=4)'): (93.21732878299011, 0.0002462240290064076, 197),
    ('variance_counterexample(E=5,V=10)|deterministic', 'luby(unit=1)'): (487.27381637170055, 5.647793208664182e-05, 1022),
    ('variance_counterexample(E=5,V=10)|deterministic', 'luby(unit=4)'): (1039.1918603936153, 6.592639557465349e-07, 255),
    ('variance_counterexample(E=5,V=10)|geometric', 'luby(unit=1)'): (106.62130428548019, 0.0005747488554457656, 645),
    ('variance_counterexample(E=5,V=10)|geometric', 'luby(unit=4)'): (131.72300956517176, 0.00015933163431352886, 252),
    ('constant(c=1)|geometric', 'luby(unit=1)'): (2.7182818283399515, 1.7477273267784201e-07, 28),
    ('constant(c=1)|geometric', 'luby(unit=4)'): (2.718281828339951, 1.0120620150065088e-07, 8),
    ('constant(c=5)|geometric', 'luby(unit=1)'): (148.4131590879532, 0.0006903537642960515, 797),
    ('constant(c=5)|geometric', 'luby(unit=4)'): (148.41315909812718, 6.590049270753538e-05, 254),
}
_Q_PRODUCT_SCAN_PINS = {
    ('two_point(E=1)|geometric', 'luby(unit=1)'): (1.831734685174959, 4.5418873799729886e-11, 31),
    ('two_point(E=1)|geometric', 'luby(unit=4)'): (2.998735405870347, 2.2677983305734915e-09, 15),
    ('fixed_t_counterexample(E=5,t=10)|deterministic', 'luby(unit=1)'): (1.9486067980534867, 1.9624369249898183e-06, 31),
    ('fixed_t_counterexample(E=5,t=10)|deterministic', 'luby(unit=4)'): (4.7944271922867285, 7.849747699959273e-06, 31),
    ('fixed_t_counterexample(E=10,t=20)|geometric', 'universal'): (4577211.837505962, 1.6078295891071596e-104, 348),
    ('fixed_t_counterexample(E=10,t=20)|geometric', 'luby(unit=1)'): (2.0462483293147735, 1.8787686239862666e-15, 63),
    ('fixed_t_counterexample(E=10,t=20)|deterministic', 'universal'): (4595899.209794183, 1.8575733867943973e-104, 348),
    ('two_point(E=16)|geometric', 'universal'): (9261694.228596887, 0.009291079487631772, 348),
    ('fixed_t_counterexample(E=20,t=40)|deterministic', 'universal'): (4745035.986235101, 8.847413043285821e-101, 348),
    ('adversarial_density(E=5)|geometric', 'luby(unit=1)'): (80.1339478260429, 2.0569439348900737e-14, 1023),
    ('variance_counterexample(E=5,V=10)|deterministic', 'universal'): (902.2868901908497, 1.6772771020411924e-09, 348),
    ('variance_counterexample(E=5,V=10)|deterministic', 'luby(unit=1)'): (487.27381637368853, 1.4689272918364175e-08, 1023),
    ('variance_counterexample(E=5,V=10)|deterministic', 'luby(unit=4)'): (1039.1918603936153, 6.592639557460935e-07, 255),
    ('variance_counterexample(E=5,V=10)|geometric', 'universal'): (902.2867950524263, 4.353823670062739e-14, 348),
    ('constant(c=1)|geometric', 'luby(unit=1)'): (2.718281828459045, 1.048502550789549e-12, 31),
    ('constant(c=1)|geometric', 'luby(unit=4)'): (2.7182818284590446, 2.809607208027182e-22, 15),
    ('constant(c=5)|geometric', 'luby(unit=4)'): (148.413159102437, 2.5125684180878275e-06, 255),
}
_TWICE_LN_Q_SCAN_PINS = {
    ('two_point(E=4)|geometric', 'luby(unit=1)'): (6.671613793880578, 5.150518441554203e-22, 255),
    ('two_point(E=4)|geometric', 'luby(unit=4)'): (20.49653615799569, 2.8573827432656585e-12, 127),
    ('fixed_t_counterexample(E=10,t=20)|geometric', 'luby(unit=4)'): (5.184993298500545, 7.515069545300114e-15, 63),
    ('fixed_t_counterexample(E=20,t=40)|deterministic', 'luby(unit=1)'): (2.1027781229398177, 9.243004239423021e-15, 63),
    ('fixed_t_counterexample(E=20,t=40)|deterministic', 'luby(unit=4)'): (5.411112491759268, 3.6972016957692085e-14, 63),
    ('adversarial_density(E=5)|geometric', 'luby(unit=1)'): (80.1339478260429, 2.0569439348900883e-14, 1023),
    ('variance_counterexample(E=5,V=10)|deterministic', 'luby(unit=1)'): (487.27381637368853, 1.4689272918373985e-08, 1023),
    ('variance_counterexample(E=5,V=10)|deterministic', 'luby(unit=4)'): (1039.1918603936153, 6.592639557465339e-07, 255),
    ('variance_counterexample(E=5,V=10)|geometric', 'luby(unit=4)'): (131.72300957593606, 4.5131390747058246e-07, 255),
    ('constant(c=1)|geometric', 'luby(unit=4)'): (2.7182818284590446, 2.8096072080704026e-22, 15),
    ('constant(c=5)|geometric', 'luby(unit=1)'): (148.4131591025765, 9.917515376311414e-09, 1023),
}
_SCAN_PINS = [
        (two_point(1.0), "deterministic", universal_schedule(), (4.194528049465325, 0.0, 2)),
        (two_point(1.0), "deterministic", luby_schedule(1.0), (2.165478181643644, 0.0, 15)),
        (two_point(1.0), "deterministic", luby_schedule(4.0), (4.7986320123663315, 0.0, 3)),
        (two_point(1.0), "geometric", universal_schedule(), (4.194528049465324, 0.0, 2)),
        (two_point(1.0), "geometric", luby_schedule(1.0), (1.8317346851749587, 4.54188737997302e-11, 31)),
        (two_point(1.0), "geometric", luby_schedule(4.0), (2.998735405870347, 2.2677983305735312e-09, 15)),
        (two_point(4.0), "geometric", universal_schedule(), (118.93052728206129, 0.0, 2)),
        (two_point(4.0), "geometric", luby_schedule(1.0), (6.671613793880578, 5.150518441554129e-22, 255)),
        (two_point(4.0), "geometric", luby_schedule(4.0), (20.49653615799569, 2.8573827432656795e-12, 127)),
        (fixed_t_counterexample(5.0, 5.0), "geometric", universal_schedule(), (336.35732791061264, 0.0, 2)),
        (fixed_t_counterexample(5.0, 5.0), "geometric", luby_schedule(1.0), (8.704085809953607, 2.2124986990012653e-36, 511)),
        (fixed_t_counterexample(5.0, 5.0), "geometric", luby_schedule(4.0), (29.49892176690886, 4.995498391898239e-06, 127)),
        (fixed_t_counterexample(5.0, 10.0), "deterministic", universal_schedule(), (27216.064415999008, 0.0, 2)),
        (fixed_t_counterexample(5.0, 10.0), "deterministic", luby_schedule(1.0), (1.9486067980534867, 1.9624369249898043e-06, 31)),
        (fixed_t_counterexample(5.0, 10.0), "deterministic", luby_schedule(4.0), (4.794427192286727, 7.849747699959217e-06, 31)),
        (fixed_t_counterexample(10.0, 20.0), "geometric", universal_schedule(), (4577211.837505962, 1.6078295891071903e-104, 348)),
        (fixed_t_counterexample(10.0, 20.0), "geometric", luby_schedule(1.0), (2.046248329314774, 1.8787686239862796e-15, 63)),
        (fixed_t_counterexample(10.0, 20.0), "geometric", luby_schedule(4.0), (5.184993298500545, 7.515069545300062e-15, 63)),
        (fixed_t_counterexample(10.0, 20.0), "deterministic", universal_schedule(), (4595899.209794183, 1.8575733867944993e-104, 348)),
        (fixed_t_counterexample(10.0, 20.0), "deterministic", luby_schedule(1.0), (2.046248331274648, 1.8787690365402274e-15, 63)),
        (fixed_t_counterexample(10.0, 20.0), "deterministic", luby_schedule(4.0), (5.184993325098593, 7.51507614616091e-15, 63)),
        (two_point(16.0), "geometric", universal_schedule(), (9261694.228596885, 0.009291079487631835, 348)),
        (fixed_t_counterexample(20.0, 40.0), "deterministic", universal_schedule(), (4745035.986235101, 8.847413043285434e-101, 348)),
        (fixed_t_counterexample(20.0, 40.0), "deterministic", luby_schedule(1.0), (2.1027781229398177, 9.243004239423088e-15, 63)),
        (fixed_t_counterexample(20.0, 40.0), "deterministic", luby_schedule(4.0), (5.411112491759268, 3.697201695769235e-14, 63)),
        (adversarial_density(5.0), "geometric", universal_schedule(), (202.71439674636753, 0.0, 2)),
        (adversarial_density(5.0), "geometric", luby_schedule(1.0), (80.1339478260429, 2.0569439348901028e-14, 1023)),
        (adversarial_density(5.0), "geometric", luby_schedule(4.0), (93.21732879221445, 1.3158822545343059e-08, 255)),
        (variance_counterexample(5.0, 10.0), "deterministic", universal_schedule(), (902.2868901908497, 1.677277102041193e-09, 348)),
        (variance_counterexample(5.0, 10.0), "deterministic", luby_schedule(1.0), (487.2738163736887, 1.4689272918373985e-08, 1023)),
        (variance_counterexample(5.0, 10.0), "deterministic", luby_schedule(4.0), (1039.1918603936156, 6.592639557465339e-07, 255)),
        (variance_counterexample(5.0, 10.0), "geometric", universal_schedule(), (902.2867950524263, 4.3538236700626824e-14, 348)),
        (variance_counterexample(5.0, 10.0), "geometric", luby_schedule(1.0), (106.6213042961759, 9.911673509045494e-12, 1023)),
        (variance_counterexample(5.0, 10.0), "geometric", luby_schedule(4.0), (131.72300957593606, 4.513139074705841e-07, 255)),
        (constant(0.0), "deterministic", universal_schedule(), (1.0, 0.0, 2)),
        (constant(0.0), "deterministic", luby_schedule(1.0), (1.0, 0.0, 1)),
        (constant(0.0), "deterministic", luby_schedule(4.0), (1.0, 0.0, 1)),
        (constant(1.0), "geometric", universal_schedule(), (2.718281828459045, 0.0, 2)),
        (constant(1.0), "geometric", luby_schedule(1.0), (2.7182818284590446, 1.048502550789549e-12, 31)),
        (constant(1.0), "geometric", luby_schedule(4.0), (2.7182818284590446, 2.809607208070383e-22, 15)),
        (constant(5.0), "geometric", universal_schedule(), (148.4131591025766, 0.0, 2)),
        (constant(5.0), "geometric", luby_schedule(1.0), (148.4131591025765, 9.917515376311346e-09, 1023)),
        (constant(5.0), "geometric", luby_schedule(4.0), (148.413159102437, 2.512568418087836e-06, 255)),
]


@pytest.mark.parametrize("dist, law, schedule, expected", _SCAN_PINS)
def test_unbounded_scan_enclosures_are_bit_identical(dist, law, schedule, expected):
    model = RuntimeModel(dist, law)
    est = analytic_cost(model, schedule)
    got = (est.expected_cost, est.tail_bound, est.attempts_summed)
    assert repr(got) == repr(expected)
    per_term = _PER_TERM_SCAN_PINS.get((model.label, schedule.label))
    if per_term is not None:
        assert _enclosures_agree(got, per_term), (got, per_term)
    q_product = _Q_PRODUCT_SCAN_PINS.get((model.label, schedule.label))
    if q_product is not None:
        assert q_product[2] == got[2] and _enclosures_agree(got, q_product), (got, q_product)
    twice_ln_q = _TWICE_LN_Q_SCAN_PINS.get((model.label, schedule.label))
    if twice_ln_q is not None:
        assert twice_ln_q[2] == got[2] and _enclosures_agree(got, twice_ln_q), (got, twice_ln_q)
    scipy_values = _SCIPY_SCAN_VALUES.get((model.label, schedule.label))
    if scipy_values is not None:
        pinned = per_term or got
        assert pinned == pytest.approx(scipy_values, rel=1e-11, abs=0.0)
        assert pinned == pytest.approx(_QUAD_SCAN_PINS[model.label, schedule.label], rel=1e-12,
                                       abs=0.0)


# Ten atoms of mass 0.1: the failure probability of a hopeless budget sums to
# 0.9999999999999999, so the support argument's q = 1 shows in the bits.
_TENTHS = RuntimeModel(distx.discrete([[1.0 + i, 0.1] for i in range(10)]), "deterministic")


def _scan_outcome(cost, model, schedule, attempt_cap=20_000, eps_tail=1e-10):
    """The enclosure as (expected_cost, tail_bound, attempts_summed), or the
    refusal's text."""
    try:
        est = cost(model, schedule, eps_tail=eps_tail, attempt_cap=attempt_cap)
    except TailNotConvergent as exc:
        return f"TailNotConvergent: {exc}"
    return est.expected_cost, est.tail_bound, est.attempts_summed


def _assert_scan_matches_reference(model, schedule, **caps):
    """Both scans, universal a block at a time and Luby a run at a time, with
    survival in log space, must give the reference's outcome (an enclosure,
    or the same refusal text) and an enclosure that agrees with the
    reference's; universal also sums the reference's attempt count."""
    got = _scan_outcome(analytic_cost, model, schedule, **caps)
    want = _scan_outcome(reference_scan_cost, model, schedule, **caps)
    where = (model.label, schedule.label, caps)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want, where
        return
    if schedule.kind == "universal":
        assert got[2] == want[2], (where, got, want)
    assert _enclosures_agree(got, want), (where, got, want)


def test_scan_stopping_early_evaluates_only_the_levels_it_reached(monkeypatch):
    # Each scan stops at the end of a run S_K, or inside S_{K+1} on the attempt
    # cap: after attempt 15 on exact zero survival, after attempt 31 on the
    # certificate, and after attempt 30 on the cap.  It evaluates each level
    # 0, ..., K - 1 once, in order, and no level beyond.
    calls = []

    def counting_runtime_stats(model, budget):
        calls.append(budget)
        return distx.runtime_stats(model, budget)

    monkeypatch.setattr(analysis, "runtime_stats", counting_runtime_stats)
    schedule = luby_schedule(1.0)
    for dist, cap, attempts, levels in (
        (two_point(1.0), 10**7, 15, 4),
        (fixed_t_counterexample(5.0, 10.0), 10**7, 31, 5),
        (two_point(16.0), 29, 30, 4),
    ):
        calls.clear()
        outcome = _scan_outcome(analytic_cost, RuntimeModel(dist, "deterministic"), schedule,
                                attempt_cap=cap)
        assert outcome[2:] == (attempts,) or f"after {attempts} attempts" in outcome
        assert calls == [2.0**level for level in range(levels)], outcome


def test_scan_is_bit_identical_to_the_per_round_reference():
    for model in zoo_models() + [_TENTHS]:
        for schedule in (universal_schedule(), luby_schedule(0.5), luby_schedule(1.0),
                         luby_schedule(4.0)):
            _assert_scan_matches_reference(model, schedule)


def test_scan_calls_runtime_stats_once_per_distinct_budget(monkeypatch):
    calls, reference_calls = [], []

    def counting(calls):
        def runtime_stats(model, budget):
            calls.append(budget)
            return distx.runtime_stats(model, budget)

        return runtime_stats

    monkeypatch.setattr(analysis, "runtime_stats", counting(calls))
    monkeypatch.setattr(_brute, "runtime_stats", counting(reference_calls))
    schedule = luby_schedule(1.0)
    est = analytic_cost(RuntimeModel(two_point(8.0), "geometric"), schedule)
    budgets = set(itertools.islice(schedule.budgets(), est.attempts_summed))
    assert sorted(calls) == sorted(budgets)
    assert len(calls) == 14
    # The universal scans also evaluate the closing pair of each block whose
    # certificate they try, as the reference does, and nothing twice.
    for law in distx.LAWS:
        model = RuntimeModel(two_point(16.0), law)
        calls.clear()
        reference_calls.clear()
        _assert_scan_matches_reference(model, universal_schedule(), attempt_cap=10_000_000)
        assert len(calls) == len(set(calls))
        assert set(calls) == set(reference_calls)


def test_scan_is_bit_identical_at_piece_edges():
    # Caps around the end 2**k - 1 of each run S_k: the prefix of cap + 1
    # attempts ends inside a run, exactly at one, or is S_{k-1} twice
    # (cap = 2**k - 3, where S_{k-1} is the last whole run summed).
    models = (
        RuntimeModel(two_point(16.0), "deterministic"),
        RuntimeModel(variance_counterexample(5.0, 10.0), "deterministic"),
        RuntimeModel(variance_counterexample(5.0, 10.0), "geometric"),
        _TENTHS,
    )
    for model in models:
        for k in range(3, 15):
            for cap in range(2**k - 3, 2**k + 2):
                _assert_scan_matches_reference(model, luby_schedule(1.0), attempt_cap=cap,
                                               eps_tail=1e-4)
    # Certificates that close inside a run for the per-term reference (at
    # 24 870 and 78 363 attempts) and in the prefix.  With the cap one attempt
    # short, the cap and the certificate fall on the same term, and the
    # certificate, tried first, must win; the doubling recursion reaches it on
    # the prefix of attempt_cap + 1 attempts.
    for model, unit, eps_tail in (
        (RuntimeModel(constant(10.0), "geometric"), 3.0, 1e-10),
        (RuntimeModel(adversarial_density(10.0), "deterministic"), 1.0, 1e-4),
        (RuntimeModel(variance_counterexample(5.0, 10.0), "geometric"), 1.0, 1e-10),
    ):
        est = reference_scan_cost(model, luby_schedule(unit), eps_tail=eps_tail)
        assert est.tail_bound > 0.0
        for cap in (est.attempts_summed - 2, est.attempts_summed - 1):
            _assert_scan_matches_reference(model, luby_schedule(unit), attempt_cap=cap,
                                           eps_tail=eps_tail)


@st.composite
def _small_models(draw, max_x=8.0):
    n = draw(st.integers(min_value=1, max_value=4))
    xs = draw(st.lists(st.floats(min_value=0.0, max_value=max_x), min_size=n, max_size=n,
                       unique=True))
    weights = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n))
    total = math.fsum(weights)
    atoms = [[x, w / total] for x, w in zip(xs, weights)]
    return RuntimeModel(distx.discrete(atoms), draw(st.sampled_from(distx.LAWS)))


@given(
    _small_models(),
    st.one_of(st.just(universal_schedule()),
              st.floats(min_value=0.25, max_value=8.0).map(luby_schedule)),
    st.integers(min_value=0, max_value=5000),
    st.sampled_from([1e-4, 1e-10]),
)
@settings(max_examples=60, deadline=None)
def test_unbounded_scan_matches_the_per_round_reference(model, schedule, cap, eps_tail):
    _assert_scan_matches_reference(model, schedule, attempt_cap=cap, eps_tail=eps_tail)


def _monotone_budget_grid(dist):
    """Budgets in increasing order: a sweep of e**(k/4) from e**-2 to e**301;
    at each atom x, e**x and the doubles either side of it and the whole-step
    edges floor(e**x) and floor(e**x) + 1; for the density, the doubles
    either side of e**0 and budgets approaching e**t_max from below."""
    budgets = {math.exp(k / 4.0) for k in range(-8, 4 * 301 + 1)}
    if dist.kind == "adversarial_density":
        edges = [1.0, math.exp(distx.support_max(dist))]
        budgets.update(edges[1] * (1.0 - 2.0**-k) for k in range(1, 54))
    else:
        edges = [math.exp(x) for x, _ in dist.atoms]
        budgets.update(w for b in edges for w in (math.floor(b), math.floor(b) + 1.0) if w > 0.0)
    budgets.update(w for b in edges for w in (math.nextafter(b, 0.0), b, math.nextafter(b, math.inf)))
    return sorted(budgets)


def _assert_attempt_statistics_monotone(dist):
    """runtime_stats' q never rises and p never falls as the budget grows,
    and a q of 0.0 stays 0.0, under both laws: the Luby and universal
    certificates assume it, and so does the Luby scan closing an exact zero
    survival by its certificate."""
    budgets = _monotone_budget_grid(dist)
    for law in distx.LAWS:
        model = RuntimeModel(dist, law)
        stats = [distx.runtime_stats(model, b)[::2] for b in budgets]
        for (b0, (q0, p0)), (b1, (q1, p1)) in itertools.pairwise(zip(budgets, stats)):
            assert q1 <= q0 and p1 >= p0, (model.label, b0, b1, q0, q1, p0, p1)
            assert q0 != 0.0 or q1 == 0.0, (model.label, b0, b1, q0, q1)


def test_attempt_statistics_of_the_zoo_are_monotone_in_the_budget():
    for dist in zoo_distributions():
        _assert_attempt_statistics_monotone(dist)


# Weights that sum to 1 + 1 ulp: before q was held to 1, the geometric law's
# q rose from 1 below one whole step to 1.0000000000000002 at one step.
@given(_small_models(max_x=300.0))
@example(RuntimeModel(distx.discrete([(37.0, 0.49751243781094534), (38.0, 0.49751243781094534),
                                      (39.0, 0.0049751243781094535)]), "geometric"))
@settings(max_examples=100, deadline=None)
def test_attempt_statistics_of_random_atoms_are_monotone_in_the_budget(model):
    _assert_attempt_statistics_monotone(model.dist)


def _renewal_until_survival(model, schedule, survival_floor=1e-15):
    """renewal_partial_cost over the schedule's budgets up to the first
    attempt after which survival is at most survival_floor."""
    budgets, survival = [], 1.0
    for budget in schedule.budgets():
        budgets.append(budget)
        survival *= distx.runtime_stats(model, budget)[0]
        if survival <= survival_floor:
            return renewal_partial_cost(model, budgets)
    raise AssertionError("unreachable: cyclic schedules are infinite")


@given(_small_models(), st.floats(min_value=0.0, max_value=9.0))
@settings(max_examples=60, deadline=None)
def test_cyclic_closed_form_matches_the_renewal_sum(model, t):
    ex = expectation(model.dist)
    schedules = [single_threshold_schedule(t), fixed_schedule(ex), specific_e_schedule(max(ex, 5.0))]
    if ex >= 1.0:
        schedules.append(two_threshold_schedule(ex))
    for schedule in schedules:
        est = analytic_cost(model, schedule)
        if all(_brute._success_impossible(model, b) for _, b in schedule.cycle):
            assert est.expected_cost == math.inf
            continue
        assert (est.tail_bound, est.attempts_summed) == (
            0.0, sum(count for count, _ in schedule.cycle))
        assert est.expected_cost == pytest.approx(_renewal_until_survival(model, schedule),
                                                  rel=1e-12), schedule.label


def _edge_budgets(model):
    """Budgets at the edges of the support: below, at and just above one
    whole step, and for atom models the lowest atom's runtime and its two
    neighbouring doubles."""
    budgets = [0.5, 1.0, math.nextafter(1.0, 2.0), 2.0]
    if model.dist.atoms:
        t_low = math.exp(model.dist.atoms[0][0])
        budgets += [math.nextafter(t_low, 0.0), t_low, math.nextafter(t_low, math.inf)]
    return budgets


@pytest.mark.parametrize("model", zoo_models(), ids=lambda m: m.label)
def test_zero_success_probability_is_exactly_the_support_argument(model):
    # _cyclic_cost returns +inf when the cycle's survival stays at ln Q = 0.0,
    # which happens only when p = 0 at every budget: p must be 0.0 exactly
    # where no run can finish, and positive everywhere else.
    for budget in _edge_budgets(model):
        p = distx.runtime_stats(model, budget)[2]
        assert (p == 0.0) == _brute._success_impossible(model, budget), (budget, p)
    est = analytic_cost(model, single_threshold_schedule(-1.0))  # budget 2/e < 1
    assert (est.expected_cost, est.tail_bound, est.attempts_summed) == (math.inf, 0.0, 1)


def _exact_atom_stats(model, budget):
    """(q, m, p) of one attempt in 50-digit mpmath from the atoms, their
    weights normalised to sum to 1; each run's cost is the double exp(x)
    under the deterministic law, as in _near_certain_exact."""
    total = mpmath.fsum(mpmath.mpf(w) for _, w in model.dist.atoms)
    q = m = p = mpmath.mpf(0)
    for x, w in model.dist.atoms:
        w = mpmath.mpf(w) / total
        if model.law == "deterministic":
            t_run = math.exp(x)
            p, q = (p + w, q) if t_run <= budget else (p, q + w)
            m += w * min(t_run, budget)
            continue
        n = math.floor(budget)
        if n < 1:
            q += w
            continue
        pg = mpmath.exp(-mpmath.mpf(x))
        log_fail = n * mpmath.log1p(-pg) if x > 0.0 else mpmath.ninf
        q += w * mpmath.exp(log_fail)
        m += w * -mpmath.expm1(log_fail) / pg
        p += w * -mpmath.expm1(log_fail)
    return q, m, p


def _exact_cycle_cost(schedule, stats):
    """The cyclic closed form in 50-digit mpmath on the statistics that
    stats(budget) gives, with log1p and expm1: at 50 digits (1 - p)^n rounds
    to 1 for the 1e-129 atom of variance_counterexample."""
    with mpmath.workdps(50):
        cycle_cost = log_survival = mpmath.mpf(0)
        for count, budget in schedule.cycle:
            q, m, p = (mpmath.mpf(v) for v in stats(budget))
            if p == 0:
                cost, log_group = m * count, mpmath.mpf(0)
            else:
                log_group = count * (mpmath.log(q) if q <= 0.5 else mpmath.log1p(-p))
                cost = m * -mpmath.expm1(log_group) / p
            cycle_cost += mpmath.exp(log_survival) * cost
            log_survival += log_group
        return cycle_cost / -mpmath.expm1(log_survival)


def _cyclic_schedules(model):
    ex = expectation(model.dist)
    thresholds = {0.0, ex, ex + 1.0} | {x for x, _ in model.dist.atoms if x <= 290.0}
    schedules = [fixed_schedule(ex), specific_e_schedule(max(ex, 5.0))]
    schedules += [two_threshold_schedule(ex)] if ex >= 1.0 else []
    return schedules + [single_threshold_schedule(t) for t in sorted(thresholds)]


def _ulps_off(est, exact):
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(est.expected_cost) / exact - 1) * 2**53)


def test_cyclic_costs_of_the_zoo_are_within_4_ulps_of_mpmath():
    # Summed through q**count products, 12 of these were 4.5 to 88.7 units of
    # 2**-53 off (constant(10) x geometric x specific_E(10) the worst); with
    # survival in log space the worst is 2.6.
    for model in zoo_models():
        if model.dist.kind == "adversarial_density":
            continue
        for schedule in _cyclic_schedules(model):
            est = analytic_cost(model, schedule)
            if est.expected_cost == math.inf:
                continue
            exact = _exact_cycle_cost(schedule, functools.partial(_exact_atom_stats, model))
            assert _ulps_off(est, exact) <= 4.0, (model.label, schedule.label, est, exact)


@given(_small_models())
@settings(max_examples=60, deadline=None)
def test_cyclic_closed_form_rounds_within_4_ulps(model):
    # Against the closed form on runtime_stats's own doubles, which isolates
    # the summation: the statistics' rounding can add about a unit more end
    # to end (4.7 units at worst over 17 214 cycles of random models).
    for schedule in _cyclic_schedules(model):
        est = analytic_cost(model, schedule)
        if est.expected_cost == math.inf:
            continue
        exact = _exact_cycle_cost(schedule, functools.partial(distx.runtime_stats, model))
        assert _ulps_off(est, exact) <= 4.0, (model.label, schedule.label, est, exact)


@given(
    _small_models(),
    st.one_of(st.just(universal_schedule()),
              st.floats(min_value=0.25, max_value=8.0).map(luby_schedule)),
)
@settings(max_examples=40, deadline=None)
def test_scan_enclosures_nest_as_eps_tail_shrinks(model, schedule):
    outer = None
    for eps_tail in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
        est = analytic_cost(model, schedule, eps_tail=eps_tail)
        if outer is not None:
            assert outer.expected_cost <= est.expected_cost, (eps_tail, outer, est)
            assert est.upper <= outer.upper, (eps_tail, outer, est)
        outer = est


def test_long_luby_scans_keep_their_results():
    # Both were computed with the per-round loop (about 9 s and 22 s there);
    # the point moved in its last bits with the doubling recursion, and again
    # when ln Q_k + (ln Q_k + ln q) replaced 2 ln Q_k + ln q.  The first ends
    # on an exact zero survival, which the certificate closes with a tail of 0.
    est = analytic_cost(RuntimeModel(fixed_t_counterexample(10.0, 15.0), "geometric"),
                        luby_schedule(1.0))
    got = (est.expected_cost, est.tail_bound, est.attempts_summed)
    assert repr(got) == repr((3.1041063119494186, 0.0, 4194303))
    assert _enclosures_agree(got, (3.1041063119494163, 0.0, 4194303))
    assert _enclosures_agree(got, (3.104106311949418, 0.0, 4194303))
    with pytest.raises(TailNotConvergent) as info:
        analytic_cost(RuntimeModel(two_point(16.0), "deterministic"), luby_schedule(1.0))
    assert str(info.value) == "no tail certificate after 10000001 attempts of schedule luby(unit=1)"


def test_luby_keeps_a_success_probability_below_rounding():
    # Every attempt succeeds with p = 1e-17 until the budget reaches e^50, so
    # q = 1 - p rounds to 1: a survival taken as a product of q (or of
    # squares of it) stays 1 and the sum runs to about 6.95e23, where the cost
    # is about 2.8e18.  The scan keeps ln Q_k from log1p(-p) and must match
    # the doubling recursion done in 60 digits on the same statistics.
    model = RuntimeModel(distx.discrete([[0.0, 1e-17], [50.0, 1.0 - 1e-17]]), "deterministic")
    est = analytic_cost(model, luby_schedule(1.0), attempt_cap=2**80)
    levels = est.attempts_summed.bit_length()
    assert (est.tail_bound, est.attempts_summed) == (0.0, 2**levels - 1)
    with mpmath.workdps(60):
        cost, log_q = mpmath.mpf(0), mpmath.mpf(0)
        for level in range(levels):
            _, m, p = distx.runtime_stats(model, 2.0**level)
            q = mpmath.exp(log_q)
            cost += q * (cost + q * m)
            log_q = 2 * log_q + (mpmath.log1p(-p) if p < 1.0 else mpmath.ninf)
        assert log_q == mpmath.ninf
        assert abs(mpmath.mpf(est.expected_cost) / cost - 1) <= levels * 2.0**-53, (est, cost)


# The zoo models whose luby(1) scan finds no certificate within the default
# attempt cap.  Their survival underflows long before the cap, but the
# certificate needs the peak's q at most 1/2: exact zero (an attempt with
# q = 0 or p = 1) has it, as q never rises with the budget; an underflow
# need not.
_LUBY_DEFAULT_CAP_REFUSALS = (
    "two_point(E=16)|deterministic",
    "two_point(E=16)|geometric",
    "two_point(E=32)|deterministic",
    "two_point(E=32)|geometric",
    "fixed_t_counterexample(E=10,t=15)|deterministic",
    "fixed_t_counterexample(E=20,t=20)|deterministic",
    "fixed_t_counterexample(E=20,t=20)|geometric",
    "fixed_t_counterexample(E=20,t=21)|deterministic",
    "fixed_t_counterexample(E=20,t=21)|geometric",
    "fixed_t_counterexample(E=20,t=25)|deterministic",
    "fixed_t_counterexample(E=20,t=25)|geometric",
    "adversarial_density(E=20)|deterministic",
    "adversarial_density(E=20)|geometric",
)


def test_luby_default_cap_refusals_of_the_zoo():
    refused = {}
    for model in zoo_models():
        try:
            analytic_cost(model, luby_schedule(1.0))
        except TailNotConvergent as exc:
            refused[model.label] = str(exc)
    assert sorted(refused) == sorted(_LUBY_DEFAULT_CAP_REFUSALS)
    assert set(refused.values()) == {
        "no tail certificate after 10000001 attempts of schedule luby(unit=1)"}
    # The benchmark's refusal op: q = 16/17 below e^17, so the survival of
    # S_14 (16 383 attempts) underflows to 0.0, which is not exact zero.
    with pytest.raises(TailNotConvergent, match="after 100001 attempts of schedule luby"):
        analytic_cost(RuntimeModel(two_point(16.0), "deterministic"), luby_schedule(1.0),
                      attempt_cap=100_000)


def test_universal_certificate_is_tried_before_the_attempt_cap():
    # The scan passes the cap after the E = 6 block, but survival is already
    # below eps_tail there and the E = 7 block's closing pair certifies the
    # tail, so the enclosure is returned instead of TailNotConvergent.  The
    # point moved in its last bit when survival went to log space; the
    # q-product value is kept next to it.
    model = RuntimeModel(two_point(16.0), "deterministic")
    est = analytic_cost(model, universal_schedule(), eps_tail=1e-4, attempt_cap=3)
    got = (est.expected_cost, est.tail_bound, est.attempts_summed)
    assert repr(got) == repr((11944975.585774496, 0.06647820696049604, 348))
    assert _enclosures_agree(got, (11944975.585774494, 0.06647820696049571, 348))
    _assert_scan_matches_reference(model, universal_schedule(), eps_tail=1e-4, attempt_cap=3)
