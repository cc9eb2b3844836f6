import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _brute
from _brute import brute_cost_deterministic, brute_cost_geometric, reference_scan_cost
from vegas_restart import analysis, distx
from vegas_restart.analysis import (
    TailNotConvergent,
    analytic_cost,
    block_success_prob,
    check_block_coverage,
    check_two_phase_coverage,
    expected_runtime,
    find_threshold_witness,
    min_threshold_ratio,
    renewal_partial_cost,
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
    # the tight value.
    model = RuntimeModel(two_point(4.0), "geometric")
    sched = single_threshold_schedule(1.0)
    tight = analytic_cost(model, sched, eps_tail=1e-14)
    truth = tight.expected_cost + 0.5 * tight.tail_bound
    for eps in (1e-2, 1e-4, 1e-8):
        est = analytic_cost(model, sched, eps_tail=eps)
        assert est.expected_cost <= truth <= est.expected_cost + est.tail_bound + 1e-12


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
    # Unchecked, a NaN eps_tail fails later, in counting the cycles, with
    # "cannot convert float NaN to integer", and an infinite one with
    # "cannot convert float infinity to integer".
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
    # The cap is converted to int once, so no float leaks into the count.
    model = RuntimeModel(distx.discrete([[0.0, 1e-10], [50.0, 1.0 - 1e-10]]), "deterministic")
    est = analytic_cost(model, single_threshold_schedule(0.0), attempt_cap=1e5)
    assert repr(est.attempts_summed) == "100000"


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


def test_oracle_vs_brute_force_deterministic():
    cases = [
        (two_point(4.0), [single_threshold_schedule(0.0).budget(1)] * 20),
        (two_point(4.0), [fixed_schedule(4.0).budget(1)] * 5),
        (fixed_t_counterexample(5.0, 5.0), [single_threshold_schedule(5.0).budget(1)] * 15),
        (
            variance_counterexample(5.0, 10.0),
            [universal_schedule().budget(i) for i in range(1, 19)],
        ),
    ]
    for dist, budgets in cases:
        model = RuntimeModel(dist, "deterministic")
        brute = brute_cost_deterministic(dist.atoms, budgets)
        renewal = renewal_partial_cost(model, budgets)
        assert renewal == pytest.approx(brute, rel=1e-12)


def test_oracle_vs_brute_force_geometric():
    cases = [
        (two_point(2.0), [2.0] * 12),
        (constant(math.log(3.0)), [6.0] * 12),
        (distx.discrete([(0.0, 0.25), (1.0, 0.35), (2.5, 0.4)]), [3.0] * 10),
    ]
    for dist, budgets in cases:
        model = RuntimeModel(dist, "geometric")
        brute = brute_cost_geometric(dist.atoms, budgets)
        renewal = renewal_partial_cost(model, budgets)
        assert renewal == pytest.approx(brute, rel=1e-12)


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


def _grid_landed_just_above_an_atom(dist, got, ref, is_margin):
    """The one way the grid can beat the exact candidates: a grid point w in
    (x, x + delta) above an atom x, where the candidate is x + delta.  Both
    approach the infimum x - ln Pr(X < x+) from above, and w is closer to it
    by less than delta in log space."""
    delta = 1e-9 * (1.0 + expectation(dist))
    (w_got, v_got), (w_ref, v_ref) = got, ref
    if not any(x < w_ref < x + delta == w_got for x, _ in dist.atoms):
        return False
    gap = v_ref - v_got if is_margin else math.log(v_got) - math.log(v_ref)
    return 0.0 < gap <= 1.01 * delta


_LEMMA3_RANGES = ((0.0, 1.0), (0.5, 3.0), (-3.0, -1.0), (1.0, 12.0), (0.0, 12.0), (2.0, 310.0))


def test_lemma3_search_is_bit_identical_to_the_grid_on_the_zoo():
    for dist in zoo_distributions():
        ex = expectation(dist)
        ranges = _LEMMA3_RANGES + ((0.0, ex + 2.0), (-1.0, ex), (ex, ex + 5.0))
        for got, ref in _lemma3_against_the_grid(dist, ranges):
            assert repr(got) == repr(ref), dist.label


def test_lemma3_grid_can_land_just_above_an_atom():
    # E[X] is about 50, so delta is about 5e-8, and the grid of [0, 1] has the
    # point 0.7258 inside (x, x + delta).
    x = 0.7258 - 1e-8
    dist = distx.discrete([(x, 0.5), (100.0, 0.5)])
    (_, (got, ref)) = _lemma3_against_the_grid(dist, [(0.0, 1.0)])
    assert ref[0] == 0.7258 and got[0] == x + 1e-9 * (1.0 + expectation(dist))
    assert _grid_landed_just_above_an_atom(dist, got, ref, is_margin=False)


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
    pairs = _lemma3_against_the_grid(dist, [(t_lo, t_lo + width)])
    for i, (got, ref) in enumerate(pairs):
        assert repr(got) == repr(ref) or _grid_landed_just_above_an_atom(dist, got, ref, i == 0)


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
# default eps_tail and attempt_cap, recorded from earlier scans that summed a
# round (a universal block or a Luby term) at a time; the piece-wise scan must
# reproduce them bit for bit.
# The adversarial_density x geometric pins are the package's Gauss-Kronrod
# rule's bits; the values below were scipy.integrate.quad's (epsrel 1e-11),
# and the pins must agree with them to that tolerance.
_SCIPY_SCAN_VALUES = {
    ("adversarial_density(E=5)|geometric", "universal"): (202.71439674636747, 0.0, 2),
    ("adversarial_density(E=5)|geometric", "luby(unit=1)"): (80.13394781790622, 0.0007435038876474849, 519),
    ("adversarial_density(E=5)|geometric", "luby(unit=4)"): (93.21732878298997, 0.00024622402900640103, 197),
}
_SCAN_PINS = [
        (two_point(1.0), "deterministic", universal_schedule(), (4.194528049465325, 0.0, 2)),
        (two_point(1.0), "deterministic", luby_schedule(1.0), (2.165478181643644, 0.0, 15)),
        (two_point(1.0), "deterministic", luby_schedule(4.0), (4.7986320123663315, 0.0, 3)),
        (two_point(1.0), "geometric", universal_schedule(), (4.194528049465324, 0.0, 2)),
        (two_point(1.0), "geometric", luby_schedule(1.0), (1.8317346850154734, 4.47729213612637e-07, 24)),
        (two_point(1.0), "geometric", luby_schedule(4.0), (2.9987354056505686, 2.318277286685674e-07, 14)),
        (two_point(4.0), "geometric", universal_schedule(), (118.93052728206129, 0.0, 2)),
        (two_point(4.0), "geometric", luby_schedule(1.0), (6.671613793880576, 5.1505184415542065e-22, 255)),
        (two_point(4.0), "geometric", luby_schedule(4.0), (20.496536156641426, 5.0229047664271947e-05, 78)),
        (fixed_t_counterexample(5.0, 5.0), "geometric", universal_schedule(), (336.35732791061264, 0.0, 2)),
        (fixed_t_counterexample(5.0, 5.0), "geometric", luby_schedule(1.0), (8.704085809953604, 2.2124986990012566e-36, 511)),
        (fixed_t_counterexample(5.0, 5.0), "geometric", luby_schedule(4.0), (29.49892176690886, 4.995498391898204e-06, 127)),
        (fixed_t_counterexample(5.0, 10.0), "deterministic", universal_schedule(), (27216.064415999008, 0.0, 2)),
        (fixed_t_counterexample(5.0, 10.0), "deterministic", luby_schedule(1.0), (1.9486067976362087, 1.8388849404159303e-06, 30)),
        (fixed_t_counterexample(5.0, 10.0), "deterministic", luby_schedule(4.0), (4.794427190704949, 7.355539761663721e-06, 30)),
        (fixed_t_counterexample(10.0, 20.0), "geometric", universal_schedule(), (4577211.837505962, 1.6078295891071596e-104, 348)),
        (fixed_t_counterexample(10.0, 20.0), "geometric", luby_schedule(1.0), (2.0462483292074154, 4.625377885857101e-06, 32)),
        (fixed_t_counterexample(10.0, 20.0), "geometric", luby_schedule(4.0), (5.1849932982177, 1.850150608068102e-05, 32)),
        (fixed_t_counterexample(10.0, 20.0), "deterministic", universal_schedule(), (4595899.209794183, 1.8575733867943973e-104, 348)),
        (fixed_t_counterexample(10.0, 20.0), "deterministic", luby_schedule(1.0), (2.0462483311672903, 4.625378341086143e-06, 32)),
        (fixed_t_counterexample(10.0, 20.0), "deterministic", luby_schedule(4.0), (5.184993324815744, 1.8501513364344573e-05, 32)),
        (two_point(16.0), "geometric", universal_schedule(), (9261694.228596887, 0.009291079487631772, 348)),
        (fixed_t_counterexample(20.0, 40.0), "deterministic", universal_schedule(), (4745035.986235101, 8.847413043285821e-101, 348)),
        (fixed_t_counterexample(20.0, 40.0), "deterministic", luby_schedule(1.0), (2.1027781228066234, 5.3691522346865544e-06, 33)),
        (fixed_t_counterexample(20.0, 40.0), "deterministic", luby_schedule(4.0), (5.411112491381106, 2.1476608938746218e-05, 33)),
        (adversarial_density(5.0), "geometric", universal_schedule(), (202.71439674636744, 0.0, 2)),
        (adversarial_density(5.0), "geometric", luby_schedule(1.0), (80.13394781790606, 0.0007435038876474565, 519)),
        (adversarial_density(5.0), "geometric", luby_schedule(4.0), (93.21732878298955, 0.00024622402900638585, 197)),
        (variance_counterexample(5.0, 10.0), "deterministic", universal_schedule(), (902.2868901908497, 1.6772771020411924e-09, 348)),
        (variance_counterexample(5.0, 10.0), "deterministic", luby_schedule(1.0), (487.27381637170055, 5.647793208664182e-05, 1022)),
        (variance_counterexample(5.0, 10.0), "deterministic", luby_schedule(4.0), (1039.1918603936153, 6.592639557465349e-07, 255)),
        (variance_counterexample(5.0, 10.0), "geometric", universal_schedule(), (902.2867950524263, 4.353823670062739e-14, 348)),
        (variance_counterexample(5.0, 10.0), "geometric", luby_schedule(1.0), (106.62130428548019, 0.0005747488554457656, 645)),
        (variance_counterexample(5.0, 10.0), "geometric", luby_schedule(4.0), (131.72300956517176, 0.00015933163431352886, 252)),
        (constant(0.0), "deterministic", universal_schedule(), (1.0, 0.0, 2)),
        (constant(0.0), "deterministic", luby_schedule(1.0), (1.0, 0.0, 1)),
        (constant(0.0), "deterministic", luby_schedule(4.0), (1.0, 0.0, 1)),
        (constant(1.0), "geometric", universal_schedule(), (2.718281828459045, 0.0, 2)),
        (constant(1.0), "geometric", luby_schedule(1.0), (2.7182818283399515, 1.7477273267784201e-07, 28)),
        (constant(1.0), "geometric", luby_schedule(4.0), (2.718281828339951, 1.0120620150065088e-07, 8)),
        (constant(5.0), "geometric", universal_schedule(), (148.4131591025766, 0.0, 2)),
        (constant(5.0), "geometric", luby_schedule(1.0), (148.4131590879532, 0.0006903537642960515, 797)),
        (constant(5.0), "geometric", luby_schedule(4.0), (148.41315909812718, 6.590049270753538e-05, 254)),
]


@pytest.mark.parametrize("dist, law, schedule, expected", _SCAN_PINS)
def test_unbounded_scan_enclosures_are_bit_identical(dist, law, schedule, expected):
    model = RuntimeModel(dist, law)
    est = analytic_cost(model, schedule)
    got = (est.expected_cost, est.tail_bound, est.attempts_summed)
    assert repr(got) == repr(expected)
    scipy_values = _SCIPY_SCAN_VALUES.get((model.label, schedule.label))
    if scipy_values is not None:
        assert got == pytest.approx(scipy_values, rel=1e-11, abs=0.0)


# Ten atoms of mass 0.1: the failure probability of a hopeless budget sums to
# 0.9999999999999999, so the support argument's q = 1 shows in the bits.
_TENTHS = RuntimeModel(distx.discrete([[1.0 + i, 0.1] for i in range(10)]), "deterministic")


def _scan_outcome(cost, model, schedule, attempt_cap=20_000, eps_tail=1e-10):
    try:
        est = cost(model, schedule, eps_tail=eps_tail, attempt_cap=attempt_cap)
    except TailNotConvergent as exc:
        return f"TailNotConvergent: {exc}"
    return repr((est.expected_cost, est.tail_bound, est.attempts_summed))


def test_scan_stopping_early_evaluates_only_the_levels_it_reached(monkeypatch):
    # Each scan stops next to a level's first term, a single-term piece: after
    # attempt 15 on exact zero survival, and before attempt 31 on the
    # certificate and on the attempt cap.  A level is evaluated only once the
    # scan sums its first term.
    calls = []

    def counting_runtime_stats(model, budget):
        calls.append(budget)
        return distx.runtime_stats(model, budget)

    monkeypatch.setattr(analysis, "runtime_stats", counting_runtime_stats)
    schedule = luby_schedule(1.0)
    for dist, cap, attempts in (
        (two_point(1.0), 10**7, 15),
        (fixed_t_counterexample(5.0, 10.0), 10**7, 30),
        (two_point(16.0), 29, 30),
    ):
        calls.clear()
        outcome = _scan_outcome(analytic_cost, RuntimeModel(dist, "deterministic"), schedule,
                                attempt_cap=cap)
        assert outcome.endswith(f", {attempts})") or f"after {attempts} attempts" in outcome
        assert sorted(calls) == sorted(set(itertools.islice(schedule.budgets(), attempts)))


def test_scan_is_bit_identical_to_the_per_round_reference():
    # The scans must do the reference's floating-point operations in the same
    # order: same enclosure bits, attempt count and refusal text.
    for model in zoo_models() + [_TENTHS]:
        for schedule in (universal_schedule(), luby_schedule(0.5), luby_schedule(1.0),
                         luby_schedule(4.0)):
            got = _scan_outcome(analytic_cost, model, schedule)
            assert got == _scan_outcome(reference_scan_cost, model, schedule), (
                model.label, schedule.label)


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
        assert analytic_cost(model, universal_schedule()) == reference_scan_cost(
            model, universal_schedule())
        assert len(calls) == len(set(calls))
        assert set(calls) == set(reference_calls)


def test_scan_is_bit_identical_at_piece_edges():
    # Caps just before, at and after the end of the first full-depth run S_c,
    # and inside the third, so that the cap falls inside a summed piece.
    c = analysis._LUBY_DEPTH
    models = (
        RuntimeModel(two_point(16.0), "deterministic"),
        RuntimeModel(variance_counterexample(5.0, 10.0), "deterministic"),
        RuntimeModel(variance_counterexample(5.0, 10.0), "geometric"),
        _TENTHS,
    )
    for model in models:
        for cap in (2**c - 2, 2**c - 1, 2**c, 2**c + 1, 3 * 2**c):
            for eps_tail in (1e-4, 1e-10):
                outcomes = [
                    _scan_outcome(cost, model, luby_schedule(1.0), attempt_cap=cap,
                                  eps_tail=eps_tail)
                    for cost in (analytic_cost, reference_scan_cost)
                ]
                assert outcomes[0] == outcomes[1], (model.label, cap, eps_tail)
    # Certificates that close inside a full-depth piece (at 24 870 and 78 363
    # attempts) and in the prefix.  With the cap one attempt short, the cap
    # and the certificate fall on the same term, and the certificate, tried
    # first, must win.
    for model, unit, eps_tail in (
        (RuntimeModel(constant(10.0), "geometric"), 3.0, 1e-10),
        (RuntimeModel(adversarial_density(10.0), "deterministic"), 1.0, 1e-4),
        (RuntimeModel(variance_counterexample(5.0, 10.0), "geometric"), 1.0, 1e-10),
    ):
        est = analytic_cost(model, luby_schedule(unit), eps_tail=eps_tail)
        assert est.tail_bound > 0.0
        for cap in (est.attempts_summed - 2, est.attempts_summed - 1):
            outcomes = [
                _scan_outcome(cost, model, luby_schedule(unit), attempt_cap=cap,
                              eps_tail=eps_tail)
                for cost in (analytic_cost, reference_scan_cost)
            ]
            assert outcomes[0] == outcomes[1], (model.label, cap)
        assert outcomes[0] == repr((est.expected_cost, est.tail_bound, est.attempts_summed))


@st.composite
def _small_models(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    xs = draw(st.lists(st.floats(min_value=0.0, max_value=8.0), min_size=n, max_size=n,
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
    got = _scan_outcome(analytic_cost, model, schedule, attempt_cap=cap, eps_tail=eps_tail)
    assert got == _scan_outcome(reference_scan_cost, model, schedule, attempt_cap=cap,
                                eps_tail=eps_tail)


def test_long_luby_scans_keep_their_results():
    # Both were computed with the per-round loop (about 9 s and 22 s there).
    est = analytic_cost(RuntimeModel(fixed_t_counterexample(10.0, 15.0), "geometric"),
                        luby_schedule(1.0))
    got = (est.expected_cost, est.tail_bound, est.attempts_summed)
    assert repr(got) == repr((3.1041063119494163, 0.0, 4194303))
    with pytest.raises(TailNotConvergent) as info:
        analytic_cost(RuntimeModel(two_point(16.0), "deterministic"), luby_schedule(1.0))
    assert str(info.value) == "no tail certificate after 10000001 attempts of schedule luby(unit=1)"


def test_universal_certificate_is_tried_before_the_attempt_cap():
    # The scan passes the cap after the E = 6 block, but survival is already
    # below eps_tail there and the E = 7 block's closing pair certifies the
    # tail, so the enclosure is returned instead of TailNotConvergent.
    est = analytic_cost(
        RuntimeModel(two_point(16.0), "deterministic"),
        universal_schedule(),
        eps_tail=1e-4,
        attempt_cap=3,
    )
    expected = (11944975.585774494, 0.06647820696049571, 348)
    assert repr((est.expected_cost, est.tail_bound, est.attempts_summed)) == repr(expected)
