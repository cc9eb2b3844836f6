"""Restart schedules: deterministic streams of positive step budgets.

Every schedule is a pure function of its parameters.  Budgets are kept as
real numbers; any integer rounding needed by integer-step runtime laws
happens at the engine boundary, never here.  Schedules expose a per-attempt
budget stream and the same stream run-length encoded as (count, budget)
groups.  The exact cost oracle reads a cycle from Schedule.cycle, the
universal blocks from budget_block, and Luby's runs from its unit.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, NamedTuple

from . import starfn

# Threshold guards keep every materialized budget a finite positive double.
MAX_SINGLE_THRESHOLD = 290.0
MAX_MEAN_PARAM = 280.0
MAX_BLOCK_PARAM = 280.0
_MIN_THRESHOLD = -700.0
_UNIVERSAL_ES = range(5, int(MAX_BLOCK_PARAM) + 1)  # the bounds E of "universal"'s blocks


class ScheduleRangeError(ValueError):
    """A schedule parameter or materialized budget fell outside the guards."""


class Schedule(NamedTuple):
    """Deterministic, lazily generated stream of positive budgets.

    cycle holds the repeating (count, budget) block for cyclic kinds and is
    None for the escalating kinds ("universal", "luby").
    """

    kind: str
    params: tuple[tuple[str, float], ...] = ()
    cycle: tuple[tuple[int, float], ...] | None = None

    @property
    def label(self) -> str:
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.kind}({inner})"

    def groups(self) -> Iterator[tuple[int, float]]:
        """Run-length encoded budget stream: (count, budget) pairs.

        The cycle, repeated, for the cyclic kinds; the block budget_block(e)
        for e = 5, 6, ..., 280 for "universal", which then ends; and one pair
        (1, unit * L_i) per term for "luby".
        """
        if self.cycle is not None:
            return itertools.chain.from_iterable(itertools.repeat(self.cycle))
        if self.kind == "universal":
            return itertools.chain.from_iterable(map(budget_block, _UNIVERSAL_ES))
        unit = dict(self.params)["unit"]
        return ((1, unit * luby_value(i)) for i in itertools.count(1))

    def budgets(self) -> Iterator[float]:
        for count, budget in self.groups():
            for _ in range(count):
                yield budget


def single_threshold_schedule(t: float) -> Schedule:
    """Constant stream of budgets 2*exp(t)."""
    t = float(t)
    if not math.isfinite(t) or t > MAX_SINGLE_THRESHOLD or t < _MIN_THRESHOLD:
        raise ScheduleRangeError(
            f"threshold must be finite and in [{_MIN_THRESHOLD}, {MAX_SINGLE_THRESHOLD}], got {t!r}"
        )
    return Schedule(kind="single_threshold", params=(("t", t),), cycle=((1, 2.0 * math.exp(t)),))


def fixed_schedule(ex: float) -> Schedule:
    """Constant stream of budgets 2*exp(ex + 1), the mean-plus-one threshold."""
    ex = float(ex)
    if not math.isfinite(ex) or ex + 1.0 > MAX_SINGLE_THRESHOLD or ex < 0.0:
        raise ScheduleRangeError(
            f"mean parameter must lie in [0, {MAX_SINGLE_THRESHOLD - 1}], got {ex!r}"
        )
    return Schedule(kind="fixed", params=(("EX", ex),), cycle=((1, 2.0 * math.exp(ex + 1.0)),))


def two_threshold_schedule(ex: float) -> Schedule:
    """Alternating rounds of a low and a high threshold keyed to the mean ex.

    Each cycle runs ceil(ex+1) budgets of 2*exp(ex - ln ex) followed by
    ceil(ln ex + 2) budgets of 2*exp(ex + 2).
    """
    ex = float(ex)
    if not math.isfinite(ex) or ex < 1.0 or ex > MAX_MEAN_PARAM:
        raise ScheduleRangeError(
            f"two_threshold requires 1 <= EX <= {MAX_MEAN_PARAM}, got {ex!r}"
        )
    log_ex = math.log(ex)
    cycle = (
        (math.ceil(ex + 1.0), 2.0 * math.exp(ex - log_ex)),
        (math.ceil(log_ex + 2.0), 2.0 * math.exp(ex + 2.0)),
    )
    return Schedule(kind="two_threshold", params=(("EX", ex),), cycle=cycle)


# The universal schedule rebuilds the block for e = 5, 6, ... on every pass
# over its budgets; the tuple is immutable, so one instance per e is shared.
# Exceptions are not cached, so an out-of-range e raises on every call.
@functools.lru_cache(maxsize=512)
def budget_block(e: float) -> tuple[tuple[int, float], ...]:
    """One escalation round for a known bound e >= 5 on the mean of X, as
    (count, budget) pairs.

    For each step k of the shrink trace of e the block runs
    2*ceil((v[k-1]+2)^2 + 1) budgets of 2*exp(e - v[k]), then finishes with
    two budgets of 2*exp(e + 10).
    """
    e = float(e)
    if not math.isfinite(e) or e < 5.0 or e > MAX_BLOCK_PARAM:
        raise ScheduleRangeError(f"budget_block requires 5 <= E <= {MAX_BLOCK_PARAM}, got {e!r}")
    values = starfn.shrink_trace(e).values
    entries = []
    for k in range(1, len(values)):
        count = 2 * math.ceil((values[k - 1] + 2.0) ** 2 + 1.0)
        entries.append((count, 2.0 * math.exp(e - values[k])))
    entries.append((2, 2.0 * math.exp(e + 10.0)))
    return tuple(entries)


def specific_e_schedule(e: float) -> Schedule:
    """Endless repetition of the budget block for a known bound e."""
    return Schedule(kind="specific_E", params=(("E", float(e)),), cycle=budget_block(e))


def universal_schedule() -> Schedule:
    """Distribution-free escalation: blocks for e = 5, 6, 7, ... concatenated.

    One block per integer e up to MAX_BLOCK_PARAM, no per-e repetition.
    """
    return Schedule(kind="universal")


def luby_value(i: int) -> int:
    """The i-th term (1-indexed) of the reluctant-doubling sequence 1,1,2,1,1,2,4,..."""
    i = int(i)
    if i < 1:
        raise ValueError(f"luby index is 1-based, got {i}")
    while True:
        if (i + 1) & i == 0:  # i == 2**k - 1
            return (i + 1) >> 1
        i = i - (1 << (i.bit_length() - 1)) + 1


def luby_schedule(unit: float) -> Schedule:
    """Budgets unit * L_i where L is the reluctant-doubling sequence."""
    unit = float(unit)
    if not (unit > 0.0 and math.isfinite(unit)):
        raise ScheduleRangeError(f"luby unit must be positive and finite, got {unit!r}")
    return Schedule(kind="luby", params=(("unit", unit),))


# Each spec kind: its constructor, the fields it takes in argument order, and
# for the kinds keyed to the mean the floor f of the default max(default_ex, f)
# that stands in for an omitted field (None: the field is required).
_SPEC_KINDS = {
    "single_threshold": (single_threshold_schedule, ("t",), None),
    "fixed": (fixed_schedule, ("EX",), -math.inf),
    "two_threshold": (two_threshold_schedule, ("EX",), -math.inf),
    "specific_E": (specific_e_schedule, ("E",), 5.0),
    "universal": (universal_schedule, (), None),
    "luby": (luby_schedule, ("unit",), None),
}


def build_schedule(spec: dict, default_ex: float | None = None) -> Schedule:
    """Build a schedule from a JSON-style spec dict.

    Kinds: single_threshold(t), fixed(EX), two_threshold(EX), specific_E(E),
    universal, luby(unit).  For the mean-keyed kinds the parameter may be
    omitted when default_ex (the configured distribution's expectation) is
    supplied; specific_E then defaults to max(default_ex, 5).  Unknown fields
    and values of the wrong type are rejected with ValueError.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"schedule spec must be a dict, got {type(spec).__name__}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}")
    make, names, floor = _SPEC_KINDS[kind]
    unknown = set(spec) - {"kind", *names}
    if unknown:
        raise ValueError(f"schedule kind {kind!r} does not take fields {sorted(unknown)}")
    args = []
    for name in names:
        if name in spec:
            args.append(spec[name])
        elif floor is None or default_ex is None:
            raise ValueError(f"schedule kind {kind!r} needs field {name!r}")
        else:
            args.append(max(default_ex, floor))
    try:
        return make(*args)
    except (TypeError, OverflowError) as exc:  # float([1]), float(10**400)
        raise ValueError(f"bad value for schedule kind {kind!r}: {exc}") from None
