"""Independent brute-force oracles for cross-checking the renewal summation,
the per-round reference for the oracle's unbounded scans with its plain
renewal prefix sum, the grid reference for lemma 3's threshold search, and
budget_at, a schedule's i-th budget.

The brute-force oracles enumerate the full outcome tree of a finite attempt
prefix from first principles (per-atom draws, and per-step coin flips for
the integer-step law), using no closed-form truncated moments.  Survivors of
the last attempt contribute their accrued cost.
"""

import functools
import itertools
import math

import numpy as np

from vegas_restart import distx
from vegas_restart.analysis import _BLOCK_COST_FACTOR, CostEstimate, TailNotConvergent, _fold
from vegas_restart.distx import runtime_stats
from vegas_restart.schedules import budget_block, luby_value


def brute_cost_deterministic(atoms, budgets):
    """Exhaustive atom-tree enumeration for the zero-variance law."""

    def rec(i, acc, prob):
        if i == len(budgets):
            return prob * acc
        budget = budgets[i]
        total = 0.0
        for x, p in atoms:
            t_run = math.exp(x)
            if t_run <= budget:
                total += prob * p * (acc + t_run)
            else:
                total += rec(i + 1, acc + budget, prob * p)
        return total

    return rec(0, 0.0, 1.0)


def brute_cost_geometric(atoms, budgets):
    """Exhaustive atom-and-step enumeration for the integer-step law.

    Each attempt with n = floor(budget) whole steps branches over the atom
    drawn and the step at which the run finishes (or runs out of steps); the
    per-branch probabilities are built by repeated multiplication.
    """

    def rec(i, acc, prob):
        if i == len(budgets):
            return prob * acc
        n = int(math.floor(budgets[i]))
        total = 0.0
        for x, p in atoms:
            pg = math.exp(-x)
            alive = 1.0
            for step in range(1, n + 1):
                total += prob * p * alive * pg * (acc + step)
                alive *= 1.0 - pg
            total += rec(i + 1, acc + n, prob * p * alive)
        return total

    return rec(0, 0.0, 1.0)


def budget_at(schedule, i):
    """The i-th budget of the schedule, 1-indexed."""
    return next(itertools.islice(schedule.budgets(), i - 1, None))


def group_sum_prefix_cost(model, budgets):
    """The cost of the oracle's segment (analysis._fold) over a finite budget
    prefix, each run of equal budgets one group.  The enumerations above
    check it."""
    groups = [(len(list(group)), budget)
              for budget, group in itertools.groupby(float(b) for b in budgets)]
    *_, (_, _, cost) = _fold(functools.partial(runtime_stats, model), groups)
    return cost


# ---------------------------------------------------------------------------
# Reference for the oracle's unbounded scans: the per-round loop that calls
# runtime_stats for every group and every certificate try, with the Luby terms
# taken from luby_value(i), one at a time, and survival a product of q.
# analysis.analytic_cost's scan loop, fed "universal" a block at a time and
# Luby a run S_k at a time by the doubling recursion, with survival in log
# space, must answer or refuse where it does, with the same refusal text and
# attempt count, and give an enclosure that overlaps its one up to rounding.


def _group_partial(q, count, m):
    """sum_{j<count} q**j * m, stable for q near 0 and 1."""
    if q >= 1.0:
        return m * count
    if q <= 0.0:
        return m
    return m * (-math.expm1(count * math.log(q))) / (1.0 - q)


def renewal_partial_cost(model, budgets):
    """Expected cost accrued over the given finite budget prefix,
    sum_i (prod_{j<i} q_j) * m_i, one attempt at a time; survivors of the
    last attempt pay their accrued cost, as in the enumerations above."""
    survival = 1.0
    total = 0.0
    for budget in budgets:
        q, m, _ = runtime_stats(model, float(budget))
        total += survival * m
        survival *= q
    return total


def _reference_rounds(schedule):
    if schedule.kind == "universal":
        for e in itertools.count(5):
            yield budget_block(float(e))
    unit = dict(schedule.params)["unit"]
    for i in itertools.count(1):
        yield ((1, unit * luby_value(i)),)


def _success_impossible(model, budget):
    """True when no run can finish within the budget, by a support argument
    on the model alone: the reference for the oracle's p = 0."""
    if model.law == "geometric":
        return math.floor(budget) < 1.0  # T >= 1 and any whole step can succeed
    if model.dist.kind == "adversarial_density":
        return budget <= 1.0  # Pr(X <= ln b) = 0 iff ln b <= 0
    return math.exp(model.dist.atoms[0][0]) > budget


def _eval_group(model, count, budget):
    hopeless = _success_impossible(model, budget)
    q, m, _ = runtime_stats(model, budget)
    return count, budget, 1.0 if hopeless else q, m, hopeless


def _universal_tail(model, schedule, rounds_done, survival):
    e = 5 + rounds_done  # bound of the next block
    q_close, _, _ = runtime_stats(model, 2.0 * math.exp(e + 10.0))
    if q_close <= 0.5:
        ratio = math.e * q_close * q_close
        return survival * _BLOCK_COST_FACTOR * math.exp(e) / (1.0 - ratio)
    return None


def _luby_tail(model, schedule, rounds_done, survival):
    if rounds_done == 0:
        return None
    unit = dict(schedule.params)["unit"]
    mult = float(1 << ((rounds_done + 1).bit_length() - 2))
    q_peak, _, _ = runtime_stats(model, unit * mult)
    if q_peak <= 0.5:
        span = rounds_done + 4.0 * mult
        return survival * unit * span * span * (1.0 + q_peak) / (1.0 - q_peak) ** 3
    return None


def reference_scan_cost(model, schedule, eps_tail=1e-10, attempt_cap=10_000_000):
    tail_certificate = _universal_tail if schedule.kind == "universal" else _luby_tail
    survival = 1.0
    total = 0.0
    attempts = 0
    for rounds_done, groups in enumerate(_reference_rounds(schedule)):
        if survival <= eps_tail:
            tail = tail_certificate(model, schedule, rounds_done, survival)
            if tail is not None:
                return CostEstimate(total, tail, attempts)
        if attempts > attempt_cap:
            raise TailNotConvergent(
                f"no tail certificate after {attempts} attempts of schedule {schedule.label}"
            )
        for count, budget in groups:
            count, budget, q, m, _hopeless = _eval_group(model, count, budget)
            total += survival * _group_partial(q, count, m)
            survival *= q**count
            attempts += count
            if survival <= 0.0:
                return CostEstimate(total, 0.0, attempts)
    raise RuntimeError("unreachable: schedules are infinite")


# ---------------------------------------------------------------------------
# Reference for lemma 3's threshold search: a 10,001-point grid with the
# exact candidates added.  analysis._threshold_candidates keeps only the
# exact candidates, the ends and the knots; with this set patched in,
# find_threshold_witness and min_threshold_ratio run the grid search.  The
# grid cannot win: between two atoms Pr(X < t) is constant and t - ln p
# rises with t, an order that rounded subtraction keeps.

_GRID_POINTS = 10_001


def reference_threshold_candidates(dist, t_lo, t_hi):
    """The grid of [t_lo, t_hi] plus the top of the support and the double
    just above each atom, those inside the interval."""
    knots = np.array([distx.support_max(dist)]
                     + [math.nextafter(x, math.inf) for x, _ in dist.atoms])
    knots = knots[(knots >= t_lo) & (knots <= t_hi)]
    return np.unique(np.concatenate([np.linspace(t_lo, t_hi, _GRID_POINTS), knots]))
