"""Drives a simulated or resumable long-running randomized process through a
schedule of truncated attempts, with fresh randomness per attempt, and
estimates expected total cost by Monte Carlo.

Sampler processes use virtual-cost accounting: an attempt with budget b on a
run of total cost T charges min(T, b) without stepping, which keeps budgets
of size exp(290) tractable.  Resumable processes actually consume steps and
exist to prove the attempt interface against the sampler algebra.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import defaultdict
from functools import lru_cache, reduce
from operator import add
from typing import NamedTuple

from . import distx
from .distx import DistX, RuntimeModel
from .schedules import Schedule
from .streams import CounterStream, _add_word, stream_key


class Caps(NamedTuple):
    """Safety limits for one schedule execution."""

    max_attempts: int = 10_000_000
    max_total_cost: float = 1e300


def default_caps(e_hint: float | None = None) -> Caps:
    """Default caps; with a hint e_hint on the largest value of X, such as
    distx.support_max(dist), the cost cap becomes exp(e_hint + 20).

    X >= 0 for every distribution, so a NaN or negative hint is refused: NaN
    would give a cap that never trips, a negative one a cap below one attempt.
    """
    if e_hint is None:
        return Caps()
    if not float(e_hint) >= 0.0:
        raise ValueError(f"e_hint bounds X >= 0, so it must be >= 0, got {e_hint!r}")
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


class _SteppedRun:
    """A run whose step hits when its stream's next draw v = u * 2**53 is in [lo, hi)."""

    def __init__(self, rng: CounterStream, lo: int, hi: int):
        self._rng, self._lo, self._hi = rng, lo, hi

    def advance(self, n: int) -> tuple[bool, int]:
        return self._rng.first_in(n, self._lo, self._hi)


class GeometricCoinRun(_SteppedRun):
    """Stepped run that succeeds each step with probability exp(-X).

    X is drawn once per instance, so fresh instances realize the memoryless
    runtime law.  A step succeeds when its draw u is below p = exp(-X), with
    probability ceil(p * 2**53) / 2**53: p at the draw's resolution.
    """

    def __init__(self, dist: DistX, rng: CounterStream):
        super().__init__(rng, 0, math.ceil(math.ldexp(math.exp(-distx.sample_x(dist, rng)), 53)))


def geometric_coin_process(dist: DistX) -> ResumableProcess:
    return ResumableProcess(
        factory=lambda rng: GeometricCoinRun(dist, rng),
        label=f"geometric_coin[{dist.label}]",
    )


class BitstringGuessRun(_SteppedRun):
    """Guesses a planted k-bit string uniformly once per step.

    A genuine always-correct randomized search; per-step success probability
    is 2**-k, so X is identically k*ln(2).  A guess is the top k of 53 bits.
    """

    def __init__(self, k: int, rng: CounterStream):
        lo = int(rng.random() * (1 << k)) << (53 - k)
        super().__init__(rng, lo, lo + (1 << (53 - k)))


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
        return CounterStream(_add_word(_trial_key(self.seed, self.trial), 2, index))


@lru_cache(maxsize=1)  # the key of (seed, trial), shared by a trial's attempts
def _trial_key(seed: int, trial: int) -> int:
    return stream_key(seed, trial)


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
    CapExceeded, with the partial report, when a cap trips or the budgets end.
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
    raise CapExceeded("schedule_end", ExecutionReport(False, total, attempts))


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
    are tallied in n_capped instead of raising.  The costs are handed to a
    _TrialCosts 4096 at a time: one byte a trial while they take at most 256
    distinct values, eight from the first 257th value on; the mean and SE
    are the same bits in either form.
    """
    trials = int(trials)
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    if on_cap not in ("raise", "count"):
        raise ValueError(f"on_cap must be 'raise' or 'count', got {on_cap!r}")
    caps = caps or Caps()
    costs = _TrialCosts()
    n_capped = 0
    for start in range(0, trials, _BLOCK):
        block = array("d")
        for trial in range(start, min(start + _BLOCK, trials)):
            try:
                report = run_with_schedule(process, schedule, TrialRng(seed, trial), caps)
            except CapExceeded as exc:
                if on_cap == "raise":
                    raise
                report = exc.report
                n_capped += 1
            block.append(report.total_cost)
        costs.extend(block)
    mean, std_error = _mean_and_std_error(costs)
    return MCEstimate(mean, std_error, trials, int(seed), n_capped)


_BLOCK = 4096


class _TrialCosts:
    """The trial costs of one MC run, in trial order, read by len and slice.

    While the costs take at most 256 distinct values they are kept as one
    byte per trial, a code into the table of those values; on atom models a
    trial's cost is a partial sum of the schedule's failed budgets plus one
    run's cost, so costs repeat.  The first block that brings a 257th value
    decodes the codes so far, once, into a plain array('d'), which then takes
    every later cost.  A block is encoded by C-level calls: bytes() refuses
    the code 256, and that refusal is the switch.

    Keying the table by value is exact here: a trial's cost starts at 0.0 and
    adds non-negative charges, so it is never -0.0 (which would share the key
    of 0.0) or NaN (which equals no key), and equal keys are equal bits.
    """

    def __init__(self):
        self._code = defaultdict(itertools.count().__next__)
        self._table = ()
        self._codes = bytearray()
        self._costs = None

    def __len__(self) -> int:
        return len(self._codes) if self._costs is None else len(self._costs)

    def __getitem__(self, part: slice):
        if self._costs is None:
            table = self._table  # indexed in a comprehension: faster than map
            return [table[code] for code in self._codes[part]]
        return self._costs[part]

    def extend(self, block: array) -> None:
        if self._costs is None:
            try:
                self._codes += bytes(map(self._code.__getitem__, block))
                self._table = tuple(self._code)
                return
            except ValueError:
                self._costs = array("d", map(self._table.__getitem__, self._codes))
                self._code = self._table = self._codes = None
        self._costs.extend(block)


def _mean_and_std_error(costs) -> tuple[float, float]:
    """np.mean(costs) and np.std(costs, ddof=1) / sqrt(n), bit for bit, n >= 2."""
    n = len(costs)
    mean = _pairwise_sum(costs) / n
    return mean, math.sqrt(_pairwise_sum(costs, mean) / (n - 1)) / math.sqrt(n)


def _pairwise_sum(a, centre=None, lo: int = 0, hi: int | None = None) -> float:
    """Sum of a[lo:hi], or of its (c - centre) * (c - centre), which overflow
    to inf as numpy's squares do, in the order of numpy's float64 add.reduce,
    whose pairwise sums set the MC mean and SE bits, without loading numpy.
    a is an array('d') or a _TrialCosts; either is read only by len and by
    leaf slices of at most 128 costs in order, so a coded store yields the
    same doubles as the array would.

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
