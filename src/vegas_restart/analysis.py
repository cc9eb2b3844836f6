"""Exact expected-cost oracle for (model, schedule) pairs plus the checkers
behind the verification suite.

The oracle uses renewal summation over independent attempts: with
(q_i, m_i) = runtime_stats at budget i, expected total cost is
sum_i (prod_{j<i} q_j) * m_i.  Cyclic schedules admit an exact closed-form
remainder; universal and Luby are summed a piece at a time, until a tail
certificate closes the series or the survival hits exact zero.
Expected-cost claims are reported as [expected_cost, expected_cost +
tail_bound] enclosures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import distx, starfn
from .distx import DistX, RuntimeModel, cdf, cdf_strict, expectation, runtime_stats
from .schedules import MAX_BLOCK_PARAM, Schedule, budget_block, luby_pieces

# Bound constants for the cost guarantees of the four strategies, used by the
# verification suite.  ALG1/ALG4 come from the construction itself; ALG3 and
# ALG5 are measured over the built-in zoo (both laws, E[X] in [1, 30]) and
# frozen with headroom.
ALG1_BOUND_CONSTANT = 16.0
ALG3_BOUND_CONSTANT = 2.0
ALG4_BOUND_CONSTANT = 12.0 * math.exp(10.0)
ALG5_BOUND_CONSTANT = 400.0

# Corollary 10's lower bound on the success probability of one escalation block.
COR10_SUCCESS_FLOOR = 0.75

# Any single escalation block for bound E costs at most this factor times
# exp(E): the closing pair contributes 4*exp(10)*exp(E), and the k-th entry
# costs 4*ceil((v+2)^2+1)*exp(E)/v'^3 <= 8.4*exp(E)/v for trace values
# v >= 4.8 whose reciprocals sum to < 2.
_BLOCK_COST_FACTOR = 4.0 * math.exp(10.0) + 17.0


class TailNotConvergent(RuntimeError):
    """The oracle could not certify a tail bound within the attempt cap."""


@dataclass(frozen=True)
class CostEstimate:
    """Expected total cost with a certified truncation remainder.

    When finite, the true expected cost lies in
    [expected_cost, expected_cost + tail_bound].
    """

    expected_cost: float
    tail_bound: float
    attempts_summed: int

    @property
    def upper(self) -> float:
        return self.expected_cost + self.tail_bound


@dataclass(frozen=True)
class LemmaVerdict:
    """Outcome of one analytic check; margin is the slack of the inequality."""

    check: str
    holds: bool
    witness: object = None
    margin: float = math.nan
    detail: str = ""


def _group_partial(q: float, count: int, m: float) -> float:
    """sum_{j<count} q**j * m, stable for q near 0 and 1."""
    if q >= 1.0:
        return m * count
    if q <= 0.0:
        return m
    return m * (-math.expm1(count * math.log(q))) / (1.0 - q)


def _group_terms(model: RuntimeModel, stats, count: int, budget: float) -> tuple[float, float]:
    """Summand and survival factor, _group_partial(q, count, m) and q**count, of
    count attempts at budget, with q = 1 where no run can complete within the
    budget (the support argument)."""
    q, m = stats(budget)
    if distx.success_impossible(model, budget):
        q = 1.0
    return _group_partial(q, count, m), q**count


def analytic_cost(
    model: RuntimeModel,
    schedule: Schedule,
    eps_tail: float = 1e-10,
    attempt_cap: int = 10_000_000,
) -> CostEstimate:
    """Exact expected total cost of running the schedule on the model.

    Returns +infinity only on a support argument (no budget the schedule ever
    issues can complete a run); raises TailNotConvergent when the series
    cannot be certified within attempt_cap attempts.
    """
    if not eps_tail > 0.0:
        raise ValueError(f"eps_tail must be positive, got {eps_tail!r}")
    if eps_tail == math.inf:
        raise ValueError("eps_tail must be finite, got inf")
    if not (attempt_cap >= 0 and attempt_cap % 1 == 0):
        raise ValueError(f"attempt_cap must be a non-negative whole number, got {attempt_cap!r}")
    if schedule.cycle is not None:
        return _cyclic_cost(model, schedule, eps_tail, int(attempt_cap))
    return _scan_cost(model, schedule, eps_tail, int(attempt_cap))


def _cyclic_cost(model, schedule, eps_tail, attempt_cap) -> CostEstimate:
    cycle_attempts = sum(count for count, _ in schedule.cycle)
    if all(distx.success_impossible(model, budget) for _, budget in schedule.cycle):
        return CostEstimate(math.inf, 0.0, cycle_attempts)

    stats = functools.partial(runtime_stats, model)
    cycle_cost = 0.0  # expected cost accrued over one cycle started fresh
    survival = 1.0
    for count, budget in schedule.cycle:
        partial, factor = _group_terms(model, stats, count, budget)
        cycle_cost += survival * partial
        survival *= factor
    cycle_survival = survival
    if cycle_survival >= 1.0:
        raise TailNotConvergent(
            "cycle survival is numerically 1 although success has positive probability"
        )

    if cycle_survival <= 0.0:
        n_cycles = 1
    else:
        n_cycles = max(1, math.ceil(math.log(eps_tail) / math.log(cycle_survival)))
        n_cycles = min(n_cycles, max(1, attempt_cap // cycle_attempts))
    remaining = cycle_survival**n_cycles
    # total over k cycles is cycle_cost * (1 - Q**k) / (1 - Q); the remainder
    # after k cycles is exactly Q**k times the full total.
    full_total = cycle_cost / (1.0 - cycle_survival)
    partial = full_total * -math.expm1(n_cycles * math.log(cycle_survival)) if remaining else full_total
    tail = full_total * remaining
    return CostEstimate(partial, tail, n_cycles * cycle_attempts)


# A piece of an unbounded schedule is (ids, group, tail).  ids are the slots
# of its terms in the scan's tables; every term but the last is one attempt
# whose slot is filled.  group is the last term's (count, budget), evaluated
# into its slot when the scan reaches it.  tail(attempts, survival) bounds the
# rest of the series before a term, or gives None before every term of the
# piece; with tail None only exact zero survival is checked.


def _universal_tail(e, stats, attempts, survival):
    """Certificate before budget_block(e)."""
    q_close, _ = stats(2.0 * math.exp(e + 10.0))
    if q_close > 0.5:
        return None
    # Every later block for bound e' >= e has survival factor at most
    # q_close**2 (its two closing attempts, and q is nonincreasing in the
    # budget) and costs at most _BLOCK_COST_FACTOR * exp(e'), so the remainder
    # is a geometric series with ratio exp(1) * q_close**2 <= e/4.
    ratio = math.e * q_close * q_close
    return survival * _BLOCK_COST_FACTOR * math.exp(e) / (1.0 - ratio)


def _universal_pieces(stats):
    """One group per piece, kept in slot 0, from budget_block(e) for e = 5, 6,
    ..., MAX_BLOCK_PARAM; the rules are tried before a block's first group."""
    for e in range(5, int(MAX_BLOCK_PARAM) + 1):
        tail = functools.partial(_universal_tail, e, stats)
        for group in budget_block(float(e)):
            yield np.zeros(1, np.intp), group, tail
            tail = None


def _luby_tail(unit, stats, attempts, survival):
    """Certificate before the Luby term after the given number of attempts."""
    if attempts == 0:
        return None
    # Peaks of height >= the peak so far recur with index gaps at most twice
    # its multiplier, and a span between two of them costs at most
    # unit * position**2 with the position linear in their count.  Survival
    # shrinks by q_peak per peak: sum_k (k+1)^2 x^k = (1+x)/(1-x)^3 closes the
    # bound.
    mult = float(1 << ((attempts + 1).bit_length() - 2))
    q_peak, _ = stats(unit * mult)
    if q_peak > 0.5:
        return None
    span = attempts + 4.0 * mult
    return survival * unit * span * span * (1.0 + q_peak) / (1.0 - q_peak) ** 3


# A Luby piece is a run S_k whose levels are all evaluated, or a single term
# (schedules.luby_pieces); level k lives in slot k.  S_k is the first
# 2**k - 1 entries of _LUBY_LEVELS, the levels of S_12 (32 KB), built by
# S_{k+1} = S_k S_k 2**k.
_LUBY_DEPTH = 12
_LUBY_LEVELS = functools.reduce(
    lambda s, k: np.concatenate([s, s, [k]]), range(_LUBY_DEPTH), np.zeros(0, np.intp)
)


def _luby_pieces(unit, stats):
    """Luby pieces with the rules tried before every term; a piece passes no
    new highest peak, so the certificate's verdict holds over it."""
    tail = functools.partial(_luby_tail, unit, stats)
    for k, levels in luby_pieces(_LUBY_DEPTH):
        if k:
            yield _LUBY_LEVELS[: (1 << k) - 1], (1, unit * (1 << (k - 1))), tail
        for level in levels:
            yield np.array([level]), (1, unit * (1 << level)), tail


def _first(mask: np.ndarray) -> int:
    """Index of the first True in a nonempty mask, or its length if none."""
    i = int(mask.argmax())
    return i if mask[i] else len(mask)


def _scan_cost(model, schedule, eps_tail, attempt_cap) -> CostEstimate:
    """The unbounded kinds, "universal" and "luby", a piece at a time."""
    stats = functools.cache(lambda budget: runtime_stats(model, budget))  # for this call only
    if schedule.kind == "universal":
        pieces = _universal_pieces(stats)
    else:
        pieces = _luby_pieces(dict(schedule.params)["unit"], stats)
    # _group_terms per slot; Luby level 64 would first come after 2**65 attempts.
    partials, factors = np.zeros(64), np.zeros(64)
    survival, total, attempts = 1.0, 0.0, 0
    for ids, group, tail in pieces:
        # s[i], t[i]: survival and total before the piece's i-th term, from
        # survival *= factor and total += survival * partial; the last term is
        # summed after the checks.  accumulate runs left to right, so it
        # rounds as a per-term loop does (np.sum would not).
        n, head = len(ids), ids[:-1]
        s = np.multiply.accumulate(np.concatenate(([survival], factors[head])))
        t = np.add.accumulate(np.concatenate(([total], s[:-1] * partials[head])))
        # The first term that ends the scan.  Before a term: exact zero
        # survival left by the term before; then, where the piece has a
        # certificate, the certificate once survival <= eps_tail, and the
        # attempt cap.
        i_zero = _first(s <= 0.0)
        i_cert = i_cap = n
        if tail is not None:
            i_cert = _first(s <= eps_tail)
            i_cap = min(max(attempt_cap + 1 - attempts, 0), n)
        if i_cert < min(i_zero, i_cap + 1):
            bound = tail(attempts + i_cert, float(s[i_cert]))
            if bound is not None:
                return CostEstimate(float(t[i_cert]), bound, attempts + i_cert)
        if i_zero < n and i_zero <= i_cap:
            return CostEstimate(float(t[i_zero]), 0.0, attempts + i_zero)
        if i_cap < n:
            raise TailNotConvergent(
                f"no tail certificate after {attempts + i_cap} attempts of schedule {schedule.label}"
            )
        partial, factor = _group_terms(model, stats, *group)
        partials[ids[-1]], factors[ids[-1]] = partial, factor
        total = float(t[-1]) + float(s[-1]) * partial
        survival = float(s[-1]) * factor
        attempts += n - 1 + group[0]
        if survival <= 0.0:  # checked before the next piece is asked for
            return CostEstimate(total, 0.0, attempts)
    # Only universal runs out of pieces: budget_block refuses past MAX_BLOCK_PARAM.
    raise TailNotConvergent(
        f"no tail certificate after {attempts} attempts of schedule {schedule.label}, "
        f"whose blocks end at E = {MAX_BLOCK_PARAM:g}"
    )


def renewal_partial_cost(model: RuntimeModel, budgets) -> float:
    """Expected cost accrued over the given finite budget prefix.

    sum_i (prod_{j<i} q_j) * m_i; survivors of the last attempt pay their
    accrued cost, which matches exhaustive outcome-tree enumeration.
    """
    survival = 1.0
    total = 0.0
    for budget in budgets:
        q, m = runtime_stats(model, float(budget))
        total += survival * m
        survival *= q
    return total


def expected_runtime(model: RuntimeModel) -> float:
    """E[T], the expected cost of one untruncated fresh run."""
    return distx.expectation_exp(model.dist)


# ---------------------------------------------------------------------------
# Threshold-witness machinery.

def _threshold_candidates(dist: DistX, t_lo: float, t_hi: float) -> np.ndarray:
    """The ends of [t_lo, t_hi] and the just-above-atom (or support-edge)
    points inside it: t - ln Pr(X < t) takes its minimum over the interval at
    one of them.  Pr(X < t) is constant between atoms, so there the function
    rises with t; the density's t - ln(a * expm1(t)) falls up to t_max, and
    past t_max Pr(X < t) = 1."""
    delta = 1e-9 * (1.0 + expectation(dist))
    if dist.family == "adversarial_density":
        t_max = distx.support_max(dist)
        knots = np.array([t_lo, t_hi, delta, t_max - delta, t_max, t_max + delta])
    else:
        knots = np.array([t_lo, t_hi] + [x + delta for x, _ in dist.atoms])
    return np.unique(knots[(knots >= t_lo) & (knots <= t_hi)])


def _min_log_ratio(dist: DistX, t_lo: float, t_hi: float):
    """Minimize t - ln Pr(X < t) over the candidate set; None if Pr is 0 throughout."""
    ts = _threshold_candidates(dist, t_lo, t_hi)
    probs = cdf_strict(dist, ts)
    mask = probs > 0.0
    if not mask.any():
        return None
    log_ratio = ts[mask] - np.log(probs[mask])
    idx = int(np.argmin(log_ratio))
    return float(ts[mask][idx]), float(log_ratio[idx])


def find_threshold_witness(dist: DistX) -> LemmaVerdict:
    """Is there t in [0, E[X]+1] with exp(t)/Pr(X < t) <= exp(E[X]+1)?

    Checked in non-strict form; margin is the log-space slack
    (E[X]+1) - min_t (t - ln Pr(X < t)).
    """
    ex = expectation(dist)
    found = _min_log_ratio(dist, 0.0, ex + 1.0)
    if found is None:
        return LemmaVerdict("lemma3", False, None, -math.inf, "Pr(X < t) = 0 on the interval")
    witness, log_ratio = found
    margin = (ex + 1.0) - log_ratio
    return LemmaVerdict("lemma3", margin >= 0.0, witness, margin)


def min_threshold_ratio(dist: DistX, t_lo: float, t_hi: float) -> tuple[float, float]:
    """Minimum of exp(t)/Pr(X < t) over [t_lo, t_hi] and its witness t."""
    if not (t_lo < t_hi):
        raise ValueError(f"need t_lo < t_hi, got {t_lo!r} >= {t_hi!r}")
    found = _min_log_ratio(dist, float(t_lo), float(t_hi))
    if found is None:
        return float(t_lo), math.inf
    witness, log_ratio = found
    return witness, math.exp(log_ratio) if log_ratio < 709.0 else math.inf


def check_two_phase_coverage(dist: DistX) -> LemmaVerdict:
    """Either Pr(X <= m - ln m) > 1/(m+1) or Pr(X <= m + 2) > 1/(ln m + 2), m = E[X].

    Inner comparisons are non-strict (<=), outer ones strict (>), exactly as
    the two-threshold schedule's analysis needs them.
    """
    ex = expectation(dist)
    if ex < 1.0:
        raise ValueError(f"two-phase coverage needs E[X] >= 1, got {ex!r}")
    log_ex = math.log(ex)
    lhs_low = cdf(dist, ex - log_ex)
    rhs_low = 1.0 / (ex + 1.0)
    lhs_high = cdf(dist, ex + 2.0)
    rhs_high = 1.0 / (log_ex + 2.0)
    low_ok = lhs_low > rhs_low
    high_ok = lhs_high > rhs_high
    witness = "low" if low_ok else ("high" if high_ok else None)
    margin = max(lhs_low - rhs_low, lhs_high - rhs_high)
    return LemmaVerdict("lemma5", low_ok or high_ok, witness, margin)


def _require_upper_bound(dist: DistX, e: float) -> float:
    e = float(e)
    ex = expectation(dist)
    if e < 5.0 or e < ex - 1e-12:
        raise ValueError(f"need E >= max(E[X], 5) = {max(ex, 5.0)!r}, got {e!r}")
    return e


def check_block_coverage(dist: DistX, e: float) -> LemmaVerdict:
    """For a bound e >= max(E[X], 5): some shrink step k has
    Pr(X < e - v[k]) >= 1/((v[k-1]+2)^2 + 1), or else Pr(X < e + 10) >= 1/2.

    This holds for every valid input; a failed verdict indicates a bug and is
    treated as a hard error by the verify command.
    """
    e = _require_upper_bound(dist, e)
    values = starfn.shrink_trace(e).values
    # Pr(X < e - v[k]) for every step k, then Pr(X < e + 10), in one call.
    lhs = cdf_strict(dist, [e - v for v in values[1:]] + [e + 10.0]).tolist()
    for k in range(1, len(values)):
        rhs = 1.0 / ((values[k - 1] + 2.0) ** 2 + 1.0)
        if lhs[k - 1] >= rhs:
            return LemmaVerdict("lemma9", True, k, lhs[k - 1] - rhs)
    return LemmaVerdict("lemma9", lhs[-1] >= 0.5, "tail", lhs[-1] - 0.5)


def block_success_prob(model: RuntimeModel, e: float) -> float:
    """Probability that one escalation block for bound e completes a run."""
    e = _require_upper_bound(model.dist, e)
    log_fail = 0.0
    for count, budget in budget_block(e):
        q, _ = runtime_stats(model, budget)
        if q <= 0.0:
            return 1.0
        log_fail += count * math.log(q)
    return -math.expm1(log_fail)


def check_block_success(model: RuntimeModel, e: float) -> LemmaVerdict:
    """Corollary 10: for a bound e >= max(E[X], 5), one escalation block
    completes a run with probability at least COR10_SUCCESS_FLOOR."""
    prob = block_success_prob(model, e)
    return LemmaVerdict("cor10", prob >= COR10_SUCCESS_FLOOR, None, prob - COR10_SUCCESS_FLOOR)
