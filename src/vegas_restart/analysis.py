"""Exact expected-cost oracle for (model, schedule) pairs plus the checkers
behind the verification suite.

The oracle uses renewal summation over independent attempts: with
(q_i, m_i, _) = runtime_stats at budget i, expected total cost is
sum_i (prod_{j<i} q_j) * m_i.  Cyclic schedules are summed in closed form;
universal a block at a time, and Luby a run S_k at a time by the doubling
recursion, until a tail certificate closes the series or the survival hits
exact zero.  Expected-cost claims are reported as
[expected_cost, expected_cost + tail_bound] enclosures.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from . import distx, starfn
from .distx import DistX, RuntimeModel, cdf, cdf_strict, expectation, runtime_stats
from .schedules import _UNIVERSAL_ES, Schedule, budget_block

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
    """The oracle could not certify an expected cost: no tail certificate
    within the attempt cap, or a closed form it cannot trust."""


class CostEstimate(NamedTuple):
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


class LemmaVerdict(NamedTuple):
    """Outcome of one analytic check; margin is the slack of the inequality."""

    check: str
    holds: bool
    witness: object
    margin: float


# A segment (n, ln Q, C) is a run of n attempts: its survival e**ln Q and
# its expected cost C when started fresh.
_EMPTY = (0, 0.0, 0.0)


def _then(a, b):
    """Segment a followed by segment b, the one place a survival weighs a cost."""
    return a[0] + b[0], a[1] + b[1], a[2] + math.exp(a[1]) * b[2]


def _group_sum(count: int, q: float, m: float, p: float) -> tuple[int, float, float]:
    """The segment of count attempts at one budget with statistics (q, m, p):
    ln Q = count ln q and C = m * sum_{j<count} q**j = m * (-expm1(ln Q)) / p.
    ln q is log(q) for q <= 1/2 and log1p(-p) above, where p keeps the
    digits q loses; it is -inf only for q = 0.  p = 0 (no run can finish
    within the budget) charges m per attempt and keeps the survival."""
    if p <= 0.0:
        return count, 0.0, m * count
    if q <= 0.5:
        log_q = count * math.log(q) if q > 0.0 else -math.inf
    else:
        log_q = count * math.log1p(-p)
    return count, log_q, m * -math.expm1(log_q) / p


def _fold(stats, groups, seg=_EMPTY):
    """seg followed by the groups so far, after each (count, budget) group in
    turn, its statistics from stats(budget): lazily, one segment per group."""
    for count, budget in groups:
        seg = _then(seg, _group_sum(count, *stats(budget)))
        yield seg


def analytic_cost(
    model: RuntimeModel,
    schedule: Schedule,
    eps_tail: float = 1e-10,
    attempt_cap: int = 10_000_000,
) -> CostEstimate:
    """Exact expected total cost of running the schedule on the model.

    A cyclic schedule gets its closed form, a point; eps_tail and attempt_cap
    act only on the "universal" and "luby" scans.  Returns +infinity only
    when no budget of a cycle can complete a run (p = 0 at each); raises
    TailNotConvergent when a scan cannot certify its series within
    attempt_cap attempts, or a closed form cannot be trusted.  A Luby scan
    refuses after attempt_cap + 1 attempts; "universal" checks the cap at
    the start of each block, so it refuses after the first block that passes
    it.
    """
    if not eps_tail > 0.0:
        raise ValueError(f"eps_tail must be positive, got {eps_tail!r}")
    if eps_tail == math.inf:
        raise ValueError("eps_tail must be finite, got inf")
    if not (attempt_cap >= 0 and attempt_cap % 1 == 0):
        raise ValueError(f"attempt_cap must be a non-negative whole number, got {attempt_cap!r}")
    if schedule.cycle is not None:
        return _cyclic_cost(model, schedule)
    # The one scan loop.  Before each round a source yields the segment so far
    # and the certificate for the rest, survival -> tail bound or None.  Luby's
    # source is endless, and universal's raises when its blocks end.
    rounds = _luby_rounds if schedule.kind == "luby" else _universal_rounds
    for (attempts, log_q, cost), tail in rounds(model, schedule, int(attempt_cap)):
        survival = math.exp(log_q)
        if survival <= eps_tail and (bound := tail(survival)) is not None:
            return CostEstimate(cost, bound, attempts)
        if attempts > attempt_cap:
            raise TailNotConvergent(
                f"no tail certificate after {attempts} attempts of schedule {schedule.label}"
            )


def _cyclic_cost(model, schedule) -> CostEstimate:
    """C / (1 - Q) for the segment (n, ln Q, C) of one cycle: the renewal
    series summed in closed form, with 1 - Q = -expm1(ln Q) at full relative
    precision however small p is.  ln Q stays 0.0 only when p = 0 at every
    budget of the cycle, as any p > 0 makes it negative: no run can finish."""
    *_, (cycle_attempts, log_survival, cycle_cost) = _fold(
        functools.partial(runtime_stats, model), schedule.cycle)
    if log_survival == 0.0:
        return CostEstimate(math.inf, 0.0, cycle_attempts)
    cycle_success = -math.expm1(log_survival)
    cost = cycle_cost / cycle_success
    if cost == math.inf:
        raise TailNotConvergent(f"closed form cycle cost {cycle_cost!r} / cycle success "
                                f"probability {cycle_success!r} overflows double range")
    return CostEstimate(cost, 0.0, cycle_attempts)


def _universal_tail(e, stats, survival):
    """Certificate before budget_block(e), priced at the block's closing budget."""
    q_close, _, _ = stats(budget_block(e)[-1][1])
    if q_close > 0.5:
        return None
    # Every later block for bound e' >= e has survival factor at most
    # q_close**2 (its two closing attempts, and q is nonincreasing in the
    # budget) and costs at most _BLOCK_COST_FACTOR * exp(e'), so the remainder
    # is a geometric series with ratio exp(1) * q_close**2 <= e/4.
    ratio = math.e * q_close * q_close
    return survival * _BLOCK_COST_FACTOR * math.exp(e) / (1.0 - ratio)


def _luby_tail(unit, attempts, q_peak, survival):
    """Certificate before the Luby term after the given number of attempts,
    where the highest budget so far fails with probability q_peak."""
    if q_peak > 0.5:
        return None
    if survival == 0.0:  # whatever the span, which has no double past 2**1024 attempts
        return 0.0
    # Peaks of height >= the peak so far recur with index gaps at most twice
    # its multiplier, and a span between two of them costs at most
    # unit * position**2 with the position linear in their count.  Survival
    # shrinks by q_peak per peak: sum_k (k+1)^2 x^k = (1+x)/(1-x)^3 closes the
    # bound.
    mult = float(1 << ((attempts + 1).bit_length() - 2))
    span = attempts + 4.0 * mult
    return survival * unit * span * span * (1.0 + q_peak) / (1.0 - q_peak) ** 3


def _universal_rounds(model, schedule, attempt_cap):
    """The rounds of "universal": the blocks for e = 5, ..., 280, each after
    the certificate before it.  A survival e**ln Q of 0.0 after any group
    (q = 0, or an underflow) ends the scan with a tail of 0.0."""
    # For this call only: a certificate's budget is its block's closing pair.
    stats = functools.cache(lambda budget: runtime_stats(model, budget))
    seg = _EMPTY
    for e in _UNIVERSAL_ES:
        yield seg, functools.partial(_universal_tail, e, stats)
        for seg in _fold(stats, budget_block(e), seg):
            if math.exp(seg[1]) <= 0.0:
                yield seg, lambda survival: 0.0
    raise TailNotConvergent(
        f"no tail certificate after {seg[0]} attempts of schedule {schedule.label}, "
        f"whose blocks end at E = {_UNIVERSAL_ES[-1]}"
    )


def _luby_rounds(model, schedule, attempt_cap):
    """The rounds of Luby, the runs of the doubling recursion S_1 = (u),
    S_{k+1} = S_k S_k u*2**k (Luby, Sinclair and Zuckerman, IPL 47, 1993):
    S_{k+1} = _then(S_k, _then(S_k, peak)), the peak the segment of the
    attempt at u*2**k, so ln Q_{k+1} = ln Q_k + (ln Q_k + ln q).

    q never rises with the budget, so an exact zero survival means the
    peak's q is 0, and its certificate closes the scan with a tail of 0.0.
    A Q_k that underflows ends the scan on the certificate or the cap, as a
    survival stuck at a subnormal fixed point does in the per-term sum.
    Since survival and the peak's q never rise, a certificate that holds
    before some attempt holds before every later one: when the cap falls
    inside S_{k+1}, the last round is the first attempt_cap + 1 attempts,
    whose peak is S_k's.
    """
    unit = dict(schedule.params)["unit"]
    runs = []  # the segments S_1 ... S_k
    seg, q_peak = _EMPTY, 1.0  # S_k and the q at its peak u*2**(k-1)
    while True:
        yield seg, functools.partial(_luby_tail, unit, seg[0], q_peak)
        if 2 * seg[0] > attempt_cap:
            # Every prefix of the sequence is some S_j followed by a shorter
            # prefix, so the first attempt_cap + 1 attempts are S_k and whole
            # runs S_j, j <= k, largest first.
            while seg[0] <= attempt_cap:
                seg = _then(seg, runs[(attempt_cap + 2 - seg[0]).bit_length() - 2])
            continue
        q_peak, m, p = runtime_stats(model, math.ldexp(unit, len(runs)))
        seg = _then(seg, _then(seg, _group_sum(1, q_peak, m, p)))
        runs.append(seg)


def expected_runtime(model: RuntimeModel) -> float:
    """E[T], the expected cost of one untruncated fresh run."""
    return distx.expectation_exp(model.dist)


# ---------------------------------------------------------------------------
# Threshold-witness machinery.

def _threshold_candidates(dist: DistX, t_lo: float, t_hi: float) -> list[float]:
    """The ends of [t_lo, t_hi], the top of the support and the double just
    above each atom, those inside the interval, sorted: t - ln Pr(X < t)
    takes its minimum over the interval at one of them.  Pr(X < t) is
    constant between atoms, so there the function rises with t, and no
    double lies between an atom x and nextafter(x, inf), where Pr(X < t) is
    already Pr(X <= x).  The density's t - ln(a * expm1(t)) falls up to the
    top of its support, and past it Pr(X < t) = 1."""
    knots = [t_lo, t_hi, distx.support_max(dist)] + [
        math.nextafter(x, math.inf) for x, _ in dist.atoms]
    return sorted({t for t in knots if t_lo <= t <= t_hi})


def _min_log_ratio(dist: DistX, t_lo: float, t_hi: float):
    """Minimize t - ln Pr(X < t) over the candidate set; None if Pr is 0 throughout."""
    ts = _threshold_candidates(dist, t_lo, t_hi)
    ratios = [(t - math.log(p), t) for t in ts if (p := cdf_strict(dist, t)) > 0.0]
    if not ratios:
        return None
    log_ratio, witness = min(ratios, key=lambda r: r[0])  # the first minimum
    return float(witness), float(log_ratio)


def find_threshold_witness(dist: DistX) -> LemmaVerdict:
    """Is there t in [0, E[X]+1] with exp(t)/Pr(X < t) <= exp(E[X]+1)?

    Checked in non-strict form; margin is the log-space slack
    (E[X]+1) - min_t (t - ln Pr(X < t)).
    """
    ex = expectation(dist)
    # Never None: Pr(X < t) > 0 just above the smallest atom (<= E[X]) and at E[X] + 1 on the density.
    witness, log_ratio = _min_log_ratio(dist, 0.0, ex + 1.0)
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
    # Pr(X < e - v[k]) for every step k, then Pr(X < e + 10).
    lhs = [cdf_strict(dist, t) for t in [e - v for v in values[1:]] + [e + 10.0]]
    for k in range(1, len(values)):
        rhs = 1.0 / ((values[k - 1] + 2.0) ** 2 + 1.0)
        if lhs[k - 1] >= rhs:
            return LemmaVerdict("lemma9", True, k, lhs[k - 1] - rhs)
    return LemmaVerdict("lemma9", lhs[-1] >= 0.5, "tail", lhs[-1] - 0.5)


def block_success_prob(model: RuntimeModel, e: float) -> float:
    """Probability that one escalation block for bound e completes a run."""
    e = _require_upper_bound(model.dist, e)
    *_, (_, log_fail, _) = _fold(functools.partial(runtime_stats, model), budget_block(e))
    return -math.expm1(log_fail)


def check_block_success(model: RuntimeModel, e: float) -> LemmaVerdict:
    """Corollary 10: for a bound e >= max(E[X], 5), one escalation block
    completes a run with probability at least COR10_SUCCESS_FLOOR."""
    prob = block_success_prob(model, e)
    return LemmaVerdict("cor10", prob >= COR10_SUCCESS_FLOOR, None, prob - COR10_SUCCESS_FLOOR)
