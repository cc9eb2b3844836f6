"""Drives a simulated or resumable long-running randomized process through a
schedule of truncated attempts, with fresh randomness per attempt, and
estimates expected total cost by Monte Carlo.

Sampler processes use virtual-cost accounting: an attempt with budget b on a
run of total cost T charges min(T, b) without stepping, which keeps budgets
of size exp(290) tractable.  Resumable processes actually consume steps and
exist to prove the attempt interface against the sampler algebra.
"""

from __future__ import annotations

import math
from array import array
from functools import reduce
from operator import add
from typing import NamedTuple

from . import distx
from .distx import DistX, RuntimeModel
from .schedules import Schedule
from .streams import CounterStream, stream_key


class Caps(NamedTuple):
    """Safety limits for one schedule execution."""

    max_attempts: int = 10_000_000
    max_total_cost: float = 1e300


def default_caps(e_hint: float | None = None) -> Caps:
    """Default caps; with a hint e_hint on the largest value of X, such as
    distx.support_max(dist), the cost cap becomes exp(e_hint + 20)."""
    if e_hint is None:
        return Caps()
    exponent = float(e_hint) + 20.0
    return Caps(max_total_cost=1e300 if exponent >= 690.0 else math.exp(exponent))


class CapExceeded(RuntimeError):
    """An execution tripped a cap before finishing; .which names the cap."""

    def __init__(self, which: str, report: "ExecutionReport"):
        super().__init__(f"execution cap {which} exceeded after {report.attempts} attempts")
        self.which = which
        self.report = report


class AttemptOutcome(NamedTuple):
    """Result of one truncated attempt: completion flag and charged cost."""

    success: bool
    cost: float


class ExecutionReport(NamedTuple):
    """Outcome of driving one process through a schedule until first success."""

    success: bool
    total_cost: float
    attempts: int


class MCEstimate(NamedTuple):
    """Monte Carlo mean of total cost with its standard error."""

    mean: float
    std_error: float
    trials: int
    seed: int
    n_capped: int = 0


# ---------------------------------------------------------------------------
# Processes.


class SamplerProcess(NamedTuple):
    """Virtual process: each fresh attempt draws an independent run cost T."""

    model: RuntimeModel

    @property
    def label(self) -> str:
        return f"sampler[{self.model.label}]"


class ResumableProcess(NamedTuple):
    """Step-budgeted process: factory builds a fresh instance per attempt.

    An instance's advance(n) consumes up to n whole steps and returns
    (done, steps_consumed).
    """

    factory: object
    label: str = "resumable"


class GeometricCoinRun:
    """Stepped run that succeeds each step with probability exp(-X).

    X is drawn once per instance, so fresh instances realize the memoryless
    runtime law.  A step succeeds when its draw u is below p = exp(-X), with
    probability ceil(p * 2**53) / 2**53: p at the draw's resolution.
    """

    def __init__(self, dist: DistX, rng: CounterStream):
        self._hi = math.ceil(math.ldexp(math.exp(-distx.sample_x(dist, rng)), 53))
        self._rng = rng

    def advance(self, n: int) -> tuple[bool, int]:
        return self._rng.first_in(n, 0, self._hi)


def geometric_coin_process(dist: DistX) -> ResumableProcess:
    return ResumableProcess(
        factory=lambda rng: GeometricCoinRun(dist, rng),
        label=f"geometric_coin[{dist.label}]",
    )


class BitstringGuessRun:
    """Guesses a planted k-bit string uniformly once per step.

    A genuine always-correct randomized search; per-step success probability
    is 2**-k, so X is identically k*ln(2).  A guess is the top k of 53 bits.
    """

    def __init__(self, k: int, rng: CounterStream):
        shift = 53 - k
        self._lo = int(rng.random() * (1 << k)) << shift
        self._hi = self._lo + (1 << shift)
        self._rng = rng

    def advance(self, n: int) -> tuple[bool, int]:
        return self._rng.first_in(n, self._lo, self._hi)


def _guess_bits(k: int) -> int:
    if not 0 <= int(k) <= 53:
        raise ValueError(f"bitstring_guess needs k in 0..53, the bits of one draw, got {k!r}")
    return int(k)


def bitstring_guess_process(k: int) -> ResumableProcess:
    k = _guess_bits(k)
    return ResumableProcess(
        factory=lambda rng: BitstringGuessRun(k, rng),
        label=f"bitstring_guess[k={k}]",
    )


def bitstring_guess_model(k: int) -> RuntimeModel:
    """The runtime model matching bitstring_guess_process(k): X = k*ln(2)."""
    return RuntimeModel(distx.constant(_guess_bits(k) * math.log(2.0)), "geometric")


# ---------------------------------------------------------------------------
# Randomness plumbing: one stream per (seed, trial, attempt).


class TrialRng(NamedTuple):
    """Per-trial randomness: attempt j gets the stream keyed (seed, trial, j)."""

    seed: int
    trial: int = 0

    def attempt(self, index: int) -> CounterStream:
        return CounterStream(stream_key(self.seed, self.trial, index))


# ---------------------------------------------------------------------------
# Attempt and schedule execution.


def run_once_truncated(process, budget: float, rng: CounterStream) -> AttemptOutcome:
    """One truncated attempt with the given budget and its own randomness."""
    budget = float(budget)
    if not budget > 0.0:
        raise ValueError(f"budget must be positive, got {budget!r}")
    if isinstance(process, SamplerProcess):
        # A geometric T is whole, so T <= budget iff T <= floor(budget), the charge on failure.
        t_run = distx.sample_t(process.model, rng)
        if t_run <= budget:
            return AttemptOutcome(success=True, cost=t_run)
        whole = process.model.law == "geometric"
        return AttemptOutcome(success=False, cost=float(math.floor(budget)) if whole else budget)
    if isinstance(process, ResumableProcess):
        if budget == math.inf:
            raise ValueError("a stepped attempt needs a finite budget, got inf")
        instance = process.factory(rng)
        done, consumed = instance.advance(int(math.floor(budget)))
        return AttemptOutcome(success=done, cost=float(consumed))
    raise TypeError(f"unknown process type {type(process).__name__}")


def run_with_schedule(
    process,
    schedule: Schedule,
    rng: TrialRng,
    caps: Caps | None = None,
) -> ExecutionReport:
    """Run attempts at schedule budgets until first success or a cap trips.

    Attempt j draws from the stream keyed (rng.seed, rng.trial, j).  Raises
    CapExceeded (carrying the partial report) when a cap trips.
    """
    caps = caps or Caps()
    total = 0.0
    attempts = 0
    for budget in schedule.budgets():
        if attempts + 1 > caps.max_attempts:
            raise CapExceeded("max_attempts", ExecutionReport(False, total, attempts))
        attempts += 1
        outcome = run_once_truncated(process, budget, rng.attempt(attempts))
        total += outcome.cost
        if outcome.success:
            return ExecutionReport(True, total, attempts)
        if total > caps.max_total_cost:
            raise CapExceeded("max_total_cost", ExecutionReport(False, total, attempts))
    raise RuntimeError("unreachable: schedules are infinite")


def mc_expected_cost(
    process,
    schedule: Schedule,
    trials: int,
    seed: int,
    caps: Caps | None = None,
    on_cap: str = "raise",
) -> MCEstimate:
    """Monte Carlo estimate of expected total cost over independent trials.

    Trial i uses streams keyed (seed, i, attempt), so the result depends only
    on those keys and is bit-for-bit reproducible for a fixed seed.  With
    on_cap="count", trials that trip a cap contribute their accrued cost and
    are tallied in n_capped instead of raising.
    """
    trials = int(trials)
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    if on_cap not in ("raise", "count"):
        raise ValueError(f"on_cap must be 'raise' or 'count', got {on_cap!r}")
    caps = caps or Caps()
    costs = array("d")
    n_capped = 0
    for trial in range(trials):
        try:
            report = run_with_schedule(process, schedule, TrialRng(seed, trial), caps)
        except CapExceeded as exc:
            if on_cap == "raise":
                raise
            report = exc.report
            n_capped += 1
        costs.append(report.total_cost)
    mean, std_error = _mean_and_std_error(costs)
    return MCEstimate(mean, std_error, trials, int(seed), n_capped)


def _mean_and_std_error(costs: array) -> tuple[float, float]:
    """np.mean(costs) and np.std(costs, ddof=1) / sqrt(n), bit for bit, n >= 2."""
    n = len(costs)
    mean = _pairwise_sum(costs) / n
    return mean, math.sqrt(_pairwise_sum(costs, mean) / (n - 1)) / math.sqrt(n)


def _pairwise_sum(a: array, centre=None, lo: int = 0, hi: int | None = None) -> float:
    """Sum of a[lo:hi], or of its (c - centre) * (c - centre), which overflow
    to inf as numpy's squares do, in the order of numpy's float64 add.reduce,
    whose pairwise sums set the MC mean and SE bits, without loading numpy.

    Below 8 terms a left-to-right sum from 0.0; up to 128, eight strided
    accumulators combined pairwise, then the tail one by one; above 128, two
    halves split at a multiple of 8 and summed.  Neither sum() (compensated
    from Python 3.12 on) nor math.fsum (correctly rounded) gives these bits.
    """
    hi = len(a) if hi is None else hi
    n = hi - lo
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(a, centre, lo, lo + half) + _pairwise_sum(a, centre, lo + half, hi)
    leaf = a[lo:hi] if centre is None else [(c - centre) * (c - centre) for c in a[lo:hi]]
    if n < 8:
        return reduce(add, leaf, 0.0)
    end = n - n % 8
    r = [reduce(add, leaf[j:end:8]) for j in range(8)]
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return reduce(add, leaf[end:], res)
