"""Zoo-wide verification: every analytic guarantee checked over the built-in
distributions, under both runtime laws, with explicit margins.

Scopes mirror the CLI's --scope flag: starfn, lemma3, lemma5, lemma9, cor10,
bounds, or all.  Every check returns a row; a single failed row makes the
verify command exit nonzero.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import distx, schedules, starfn
from .analysis import (
    ALG1_BOUND_CONSTANT,
    ALG3_BOUND_CONSTANT,
    ALG4_BOUND_CONSTANT,
    ALG5_BOUND_CONSTANT,
    LemmaVerdict,
    analytic_cost,
    check_block_coverage,
    check_block_success,
    check_two_phase_coverage,
    expected_runtime,
    find_threshold_witness,
    min_threshold_ratio,
)
from .distx import RuntimeModel, expectation, zoo_distributions, zoo_models

SCOPES = ("all", "starfn", "lemma3", "lemma5", "lemma9", "cor10", "bounds")

_STARFN_GRID = (5.0, 6.0, 7.3, 16.0, 32.0, 410.0, 1e3, 1e4, 1e6, 1e9)

# Bound checks run over zoo members whose mean lies in this window, where
# every schedule's preconditions hold.
_BOUNDS_EX_RANGE = (1.0, 30.0)


class VerdictRow(NamedTuple):
    scope: str
    name: str
    holds: bool
    margin: float
    detail: str = ""


def _row(scope, name, holds, margin, detail=""):
    return VerdictRow(scope, name, bool(holds), float(margin), detail)


def verify_starfn() -> list[VerdictRow]:
    rows = []
    stars = []
    star_410 = starfn.shrink_star(410.0)
    for x in _STARFN_GRID:
        trace = starfn.shrink_trace(x)
        values = trace.values
        stars.append(trace.star)
        recip = math.fsum(1.0 / v for v in values)
        rows.append(_row("starfn", f"recip_sum<2 x={x:g}", recip < 2.0, 2.0 - recip))
        last = values[-1]
        rows.append(
            _row("starfn", f"last_in_(4,5] x={x:g}", 4.0 < last <= 5.0, min(last - 4.0, 5.0 - last))
        )
        rows.append(
            _row("starfn", f"earlier>5 x={x:g}", all(v > 5.0 for v in values[:-1]),
                 min((v - 5.0 for v in values[:-1]), default=math.inf))
        )
        if len(values) > 1:
            dev = max(
                abs(math.exp(-values[k]) * values[k - 1] ** 3 - 1.0)
                for k in range(1, len(values))
            )
            rows.append(_row("starfn", f"identity x={x:g}", dev <= 1e-9, 1e-9 - dev))
        if x >= 410.0:
            ls = starfn.log_star(math.ceil(x))
            ok = ls <= trace.star <= 2 * ls + star_410
            rows.append(
                _row("starfn", f"log_star_sandwich x={x:g}", ok,
                     min(trace.star - ls, 2 * ls + star_410 - trace.star))
            )
    rows.append(
        _row("starfn", "star_monotone_on_grid",
             all(a <= b for a, b in zip(stars, stars[1:])), 0.0)
    )
    tower_ok = [starfn.tower(n) for n in range(5)] == [1, 2, 4, 16, 65536]
    rows.append(_row("starfn", "tower_values", tower_ok, 0.0))
    ls_ok = (
        starfn.log_star(1) == 0
        and starfn.log_star(16) == 3
        and starfn.log_star(65536) == 4
        and starfn.log_star(65537) == 5
    )
    rows.append(_row("starfn", "log_star_values", ls_ok, 0.0))
    return rows


def verify_lemma3() -> list[VerdictRow]:
    rows = []
    for dist in zoo_distributions():
        verdict = find_threshold_witness(dist)
        rows.append(_row("lemma3", f"witness {dist.label}", verdict.holds, verdict.margin,
                         f"t={verdict.witness!r}"))
    for e in distx.ZOO_ADVERSARIAL_ES:
        dist = distx.adversarial_density(e)
        _, ratio = min_threshold_ratio(dist, 0.0, e + 2.0)
        floor_val = math.exp(e + 1.0) * (1.0 - 1e-9)
        rows.append(
            _row("lemma3", f"plus_one_needed E={e:g}", ratio >= floor_val,
                 ratio / math.exp(e + 1.0) - (1.0 - 1e-9))
        )
    return rows


def verify_lemma5() -> list[VerdictRow]:
    rows = []
    for dist in zoo_distributions():
        if expectation(dist) < 1.0:
            continue
        verdict = check_two_phase_coverage(dist)
        rows.append(_row("lemma5", f"coverage {dist.label}", verdict.holds, verdict.margin,
                         f"branch={verdict.witness}"))
    return rows


def verify_lemma9() -> list[VerdictRow]:
    rows = []
    for dist in zoo_distributions():
        ex = expectation(dist)
        bounds = {max(ex, 5.0), max(float(math.ceil(ex)) + 3.0, 5.0)}
        for e in sorted(bounds):
            verdict = check_block_coverage(dist, e)
            rows.append(
                _row("lemma9", f"coverage {dist.label} E={e:g}", verdict.holds, verdict.margin,
                     f"witness={verdict.witness}")
            )
    return rows


def verify_cor10() -> list[VerdictRow]:
    rows = []
    for model in zoo_models():
        verdict = check_block_success(model, max(expectation(model.dist), 5.0))
        rows.append(_row("cor10", f"block_success {model.label}", verdict.holds, verdict.margin))
    return rows


def model_verdicts(model: RuntimeModel) -> dict[str, LemmaVerdict | None]:
    """Lemma 3, 5, 9 and corollary 10 verdicts of one model at E = max(E[X], 5);
    None where the precondition fails (lemma 5 needs E[X] >= 1, corollary 10
    a block bound E <= MAX_BLOCK_PARAM)."""
    dist = model.dist
    ex = expectation(dist)
    e = max(ex, 5.0)
    return {
        "lemma3": find_threshold_witness(dist),
        "lemma5": check_two_phase_coverage(dist) if ex >= 1.0 else None,
        "lemma9": check_block_coverage(dist, e),
        "cor10": check_block_success(model, e) if e <= schedules.MAX_BLOCK_PARAM else None,
    }


def _bounds_zoo() -> list[RuntimeModel]:
    lo, hi = _BOUNDS_EX_RANGE
    return [m for m in zoo_models() if lo <= expectation(m.dist) <= hi]


def verify_bounds() -> list[VerdictRow]:
    rows = []
    for model in _bounds_zoo():
        ex = expectation(model.dist)
        e4 = max(ex, 5.0)
        universal = analytic_cost(model, schedules.universal_schedule())
        for name, est, bound in (
            ("fixed", analytic_cost(model, schedules.fixed_schedule(ex)),
             ALG1_BOUND_CONSTANT * math.exp(ex + 1.0) * (ex + 1.0)),
            ("two_threshold", analytic_cost(model, schedules.two_threshold_schedule(ex)),
             ALG3_BOUND_CONSTANT * math.exp(ex) * (math.log(ex) + 2.0)),
            ("specific_E", analytic_cost(model, schedules.specific_e_schedule(e4)),
             ALG4_BOUND_CONSTANT * math.exp(e4)),
            ("universal", universal, ALG5_BOUND_CONSTANT * math.exp(ex)),
            ("universal_vs_ET", universal, ALG5_BOUND_CONSTANT * expected_runtime(model)),
        ):
            rows.append(_row("bounds", f"{name} {model.label}", est.upper <= bound,
                             math.log(bound) - math.log(est.upper)))

    for e in (5.0, 10.0, 20.0):
        model = RuntimeModel(distx.constant(e), "deterministic")
        for t in (1.0, e - 5.0, e - 1.0):
            est = analytic_cost(model, schedules.single_threshold_schedule(t))
            rows.append(
                _row("bounds", f"diverges constant({e:g}) t={t:g}",
                     math.isinf(est.expected_cost), math.inf)
            )
        for t in (e, e + 1.0, e + 5.0, 2.0 * e):
            dist = distx.fixed_t_counterexample(e, t)
            model = RuntimeModel(dist, "deterministic")
            est = analytic_cost(model, schedules.single_threshold_schedule(t))
            floor_val = e * math.exp(e)
            rows.append(
                _row("bounds", f"lower_bound fixed_t(E={e:g},t={t:g})",
                     est.expected_cost >= floor_val,
                     math.log(est.expected_cost) - math.log(floor_val))
            )
    return rows


_SCOPE_FNS = {
    "starfn": verify_starfn,
    "lemma3": verify_lemma3,
    "lemma5": verify_lemma5,
    "lemma9": verify_lemma9,
    "cor10": verify_cor10,
    "bounds": verify_bounds,
}


def run_scope(scope: str) -> list[VerdictRow]:
    """All verdict rows for one scope ('all' runs every scope in order)."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose from {SCOPES}")
    if scope == "all":
        rows = []
        for name in SCOPES[1:]:
            rows.extend(_SCOPE_FNS[name]())
        return rows
    return _SCOPE_FNS[scope]()
