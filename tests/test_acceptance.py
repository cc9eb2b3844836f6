"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np

from _brute import (
    brute_cost_deterministic,
    brute_cost_geometric,
    budget_at,
    group_sum_prefix_cost,
)
from vegas_restart import analysis, distx, starfn
from vegas_restart.analysis import (
    ALG1_BOUND_CONSTANT,
    ALG3_BOUND_CONSTANT,
    ALG4_BOUND_CONSTANT,
    ALG5_BOUND_CONSTANT,
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
from vegas_restart.engine import SamplerProcess, geometric_coin_process, mc_expected_cost
from vegas_restart.schedules import (
    fixed_schedule,
    single_threshold_schedule,
    specific_e_schedule,
    two_threshold_schedule,
    universal_schedule,
)


def report(number, ok, elapsed, limit, detail=""):
    line = (
        f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}"
        f" ({elapsed:.2f}s / limit {limit:.0f}s) {detail}"
    )
    print(line)
    assert ok, line
    assert elapsed < limit, line


def test_criterion_1_star_function_suite():
    t0 = time.perf_counter()
    failures = []
    star_410 = starfn.shrink_star(410.0)
    for x in (5.0, 6.0, 16.0, 410.0, 1e3, 1e6, 1e9):
        values = starfn.shrink_trace(x).values
        if not math.fsum(1.0 / v for v in values) < 2.0:
            failures.append(f"reciprocal sum at {x}")
        if not (4.0 < values[-1] <= 5.0):
            failures.append(f"last-iterate bracket at {x}")
        if x >= 410.0:
            ls = starfn.log_star(math.ceil(x))
            ss = starfn.shrink_star(x)
            if not (ls <= ss <= 2 * ls + star_410):
                failures.append(f"star sandwich at {x}")
    report(1, not failures, time.perf_counter() - t0, 1.0, "; ".join(failures))


def test_criterion_2_threshold_witness_and_lower_bound():
    t0 = time.perf_counter()
    failures = []
    for dist in zoo_distributions():
        if not find_threshold_witness(dist).holds:
            failures.append(f"no witness for {dist.label}")
    for e in (5.0, 10.0, 20.0):
        _, ratio = min_threshold_ratio(adversarial_density(e), 0.0, e + 2.0)
        if not ratio >= math.exp(e + 1.0) * (1.0 - 1e-9):
            failures.append(f"ratio floor at E={e}")
    report(2, not failures, time.perf_counter() - t0, 5.0, "; ".join(failures))


def test_criterion_3_coverage_checkers():
    t0 = time.perf_counter()
    failures = []
    for dist in zoo_distributions():
        ex = expectation(dist)
        if ex >= 1.0 and not check_two_phase_coverage(dist).holds:
            failures.append(f"two-phase coverage {dist.label}")
        for e in (max(ex, 5.0), max(float(math.ceil(ex)) + 3.0, 5.0)):
            if not check_block_coverage(dist, e).holds:
                failures.append(f"block coverage {dist.label} E={e:g}")
    report(3, not failures, time.perf_counter() - t0, 5.0, "; ".join(failures))


def test_criterion_4_block_success_probability():
    t0 = time.perf_counter()
    failures = []
    for model in zoo_models():
        e = max(expectation(model.dist), 5.0)
        prob = block_success_prob(model, e)
        if not prob >= 0.75:
            failures.append(f"{model.label}: {prob}")
    report(4, not failures, time.perf_counter() - t0, 5.0, "; ".join(failures))


def test_criterion_5_expected_cost_bounds():
    t0 = time.perf_counter()
    failures = []
    for model in zoo_models():
        ex = expectation(model.dist)
        if not (1.0 <= ex <= 30.0):
            continue
        est = analytic_cost(model, fixed_schedule(ex))
        if not est.upper <= ALG1_BOUND_CONSTANT * math.exp(ex + 1.0) * (ex + 1.0):
            failures.append(f"mean-plus-one bound {model.label}")
        est = analytic_cost(model, two_threshold_schedule(ex))
        if not est.upper <= ALG3_BOUND_CONSTANT * math.exp(ex) * (math.log(ex) + 2.0):
            failures.append(f"two-threshold bound {model.label}")
        e4 = max(ex, 5.0)
        est = analytic_cost(model, specific_e_schedule(e4))
        if not est.upper <= ALG4_BOUND_CONSTANT * math.exp(e4):
            failures.append(f"known-bound block bound {model.label}")
        est = analytic_cost(model, universal_schedule())
        if not est.upper <= ALG5_BOUND_CONSTANT * math.exp(ex):
            failures.append(f"universal bound {model.label}")
        if not est.upper <= ALG5_BOUND_CONSTANT * expected_runtime(model):
            failures.append(f"universal never-worse bound {model.label}")
    report(5, not failures, time.perf_counter() - t0, 60.0, "; ".join(failures))


def test_criterion_6_negative_results():
    t0 = time.perf_counter()
    failures = []
    for e in (5.0, 10.0, 20.0):
        model = RuntimeModel(constant(e), "deterministic")
        for t in (0.0, e - 5.0, e - 1.0):
            if t < 0.0:
                continue
            est = analytic_cost(model, single_threshold_schedule(t))
            if not math.isinf(est.expected_cost):
                failures.append(f"constant({e:g}) t={t:g} not infinite")
        for t in (e, e + 1.0, e + 5.0, 2.0 * e):
            model = RuntimeModel(fixed_t_counterexample(e, t), "deterministic")
            est = analytic_cost(model, single_threshold_schedule(t))
            if not est.expected_cost >= e * math.exp(e):
                failures.append(f"trap lower bound E={e:g} t={t:g}")
    report(6, not failures, time.perf_counter() - t0, 5.0, "; ".join(failures))


def test_criterion_7_oracle_vs_brute_force():
    t0 = time.perf_counter()
    failures = []
    det_cases = [
        (two_point(4.0), [2.0] * 20),
        (two_point(4.0), [2.0 * math.exp(5.0)] * 5),
        (fixed_t_counterexample(5.0, 5.0), [2.0 * math.exp(5.0)] * 15),
        (variance_counterexample(5.0, 10.0),
         [budget_at(universal_schedule(), i) for i in range(1, 19)]),
    ]
    for dist, budgets in det_cases:
        model = RuntimeModel(dist, "deterministic")
        brute = brute_cost_deterministic(dist.atoms, budgets)
        oracle = group_sum_prefix_cost(model, budgets)
        if abs(oracle - brute) > 1e-12 * abs(brute):
            failures.append(f"deterministic mismatch {dist.label}")
    geom_cases = [
        (two_point(2.0), [2.0] * 12),
        (constant(math.log(3.0)), [6.0] * 12),
        (distx.discrete([(0.0, 0.25), (1.0, 0.35), (2.5, 0.4)]), [3.0] * 10),
    ]
    for dist, budgets in geom_cases:
        model = RuntimeModel(dist, "geometric")
        brute = brute_cost_geometric(dist.atoms, budgets)
        oracle = group_sum_prefix_cost(model, budgets)
        if abs(oracle - brute) > 1e-12 * abs(brute):
            failures.append(f"geometric mismatch {dist.label}")
    report(7, not failures, time.perf_counter() - t0, 10.0, "; ".join(failures))


MC_PAIRS = [
    (RuntimeModel(two_point(4.0), "deterministic"), single_threshold_schedule(0.0)),
    (RuntimeModel(two_point(4.0), "deterministic"), fixed_schedule(4.0)),
    (RuntimeModel(two_point(4.0), "geometric"), single_threshold_schedule(0.0)),
    (RuntimeModel(two_point(4.0), "deterministic"), two_threshold_schedule(4.0)),
    (RuntimeModel(two_point(4.0), "deterministic"), universal_schedule()),
    (RuntimeModel(two_point(4.0), "geometric"), universal_schedule()),
    (RuntimeModel(constant(0.0), "deterministic"), universal_schedule()),
    (RuntimeModel(constant(1.0), "geometric"), single_threshold_schedule(2.0)),
    (RuntimeModel(fixed_t_counterexample(5.0, 10.0), "deterministic"),
     single_threshold_schedule(10.0)),
    (RuntimeModel(adversarial_density(5.0), "deterministic"),
     fixed_schedule(expectation(adversarial_density(5.0)))),
    (RuntimeModel(adversarial_density(5.0), "geometric"),
     two_threshold_schedule(expectation(adversarial_density(5.0)))),
    (RuntimeModel(variance_counterexample(5.0, 10.0), "deterministic"),
     specific_e_schedule(5.0)),
]


def test_criterion_8_oracle_vs_monte_carlo():
    t0 = time.perf_counter()
    failures = []
    estimates = []
    for model, sched in MC_PAIRS:
        oracle = analytic_cost(model, sched)
        est = mc_expected_cost(SamplerProcess(model), sched, trials=100_000, seed=42)
        estimates.append(est)
        # tolerance: five standard errors plus a float-summation cushion for
        # zero-variance pairs whose exact mean is irrational
        tol = 5.0 * est.std_error + 1e-9 * (1.0 + abs(oracle.expected_cost))
        lo = oracle.expected_cost - tol
        hi = oracle.expected_cost + oracle.tail_bound + tol
        if not (lo <= est.mean <= hi):
            failures.append(
                f"{model.label}/{sched.label}: mc={est.mean} oracle={oracle.expected_cost}"
            )
    model, sched = MC_PAIRS[2]
    again = mc_expected_cost(SamplerProcess(model), sched, trials=100_000, seed=42)
    if not (again.mean == estimates[2].mean and again.std_error == estimates[2].std_error):
        failures.append("rerun not bit-identical")
    report(8, not failures, time.perf_counter() - t0, 120.0, "; ".join(failures))


def test_criterion_9_separation_sweep():
    # The sweep runs on fixed_t_counterexample(E, E+1), the family whose
    # docstring says it forces a constant-budget strategy to pay at least
    # E * exp(E): mass E/(E+2) sits at E+2, out of reach of every budget
    # 2*exp(E+1), so the mean-plus-one schedule pays exactly 1 + E*exp(E+1)
    # and its (log cost - E) grows against ln E with slope about 1.  The
    # two-point family cannot show this: its largest run costs exp(E+1),
    # within the first budget, so the mean-plus-one cost there is just E[T].
    # The universal schedule promises an upper bound only, O(exp(E)) with
    # the constant of criterion 5: the enclosure's upper end minus E stays
    # below ln ALG5_BOUND_CONSTANT and does not grow with ln E (its cheap
    # early budgets find the mass at 0, so the excess even falls).
    t0 = time.perf_counter()
    es = np.arange(5.0, 31.0)
    fixed_excess = []
    universal_excess = []
    failures = []
    for e in es.tolist():
        model = RuntimeModel(fixed_t_counterexample(e, e + 1.0), "deterministic")
        est = analytic_cost(model, fixed_schedule(e))
        exact = 1.0 + e * math.exp(e + 1.0)
        if not math.isclose(est.expected_cost, exact, rel_tol=1e-9):
            failures.append(f"mean-plus-one cost at E={e:g}: {est.expected_cost} != {exact}")
        fixed_excess.append(math.log(est.expected_cost) - e)
        est = analytic_cost(model, universal_schedule())
        universal_excess.append(math.log(est.upper) - e)
    slope = float(np.polyfit(np.log(es), np.array(fixed_excess), 1)[0])
    universal_slope = float(np.polyfit(np.log(es), np.array(universal_excess), 1)[0])
    universal_max = float(np.max(universal_excess))
    log_c = math.log(ALG5_BOUND_CONSTANT)
    ok = (
        not failures
        and abs(slope - 1.0) <= 0.2
        and universal_max <= log_c
        and universal_slope <= 0.2
    )
    report(
        9,
        ok,
        time.perf_counter() - t0,
        60.0,
        f"fixed slope={slope:.3f} (need 1 +- 0.2), universal slope={universal_slope:.3f}"
        f" (need <= 0.2), universal max excess={universal_max:.3f}"
        f" (need <= ln C = {log_c:.3f})" + "".join(f"; {f}" for f in failures),
    )


def test_criterion_10_resumable_engine_consistency():
    t0 = time.perf_counter()
    dist = constant(math.log(2.0))
    sched = single_threshold_schedule(math.log(3.0))
    oracle = analytic_cost(RuntimeModel(dist, "geometric"), sched)
    est = mc_expected_cost(geometric_coin_process(dist), sched, trials=100_000, seed=42)
    gap = abs(est.mean - oracle.expected_cost)
    ok = gap <= 5.0 * est.std_error + oracle.tail_bound
    report(
        10,
        ok,
        time.perf_counter() - t0,
        30.0,
        f"mc={est.mean:.4f} se={est.std_error:.4f} oracle={oracle.expected_cost:.4f}",
    )
