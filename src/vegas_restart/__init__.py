"""Restart schedules for Las Vegas algorithms.

Construct restart schedules (single threshold, two thresholds, escalating
blocks for a known bound, and the distribution-free escalating schedule),
compute their exact expected cost on runtime models where the expected run
cost conditioned on a variable X is exp(X), simulate them reproducibly, and
verify every analytic guarantee over a built-in adversarial zoo.
"""

from .analysis import (
    CostEstimate,
    LemmaVerdict,
    TailNotConvergent,
    analytic_cost,
    block_success_prob,
    check_block_coverage,
    check_block_success,
    check_two_phase_coverage,
    expected_runtime,
    find_threshold_witness,
    min_threshold_ratio,
)
from .distx import (
    DistX,
    RuntimeModel,
    adversarial_density,
    build_distribution,
    cdf,
    cdf_strict,
    constant,
    discrete,
    expectation,
    expectation_exp,
    fixed_t_counterexample,
    runtime_stats,
    sample_t,
    sample_x,
    two_point,
    variance_counterexample,
    zoo_distributions,
    zoo_models,
)
from .engine import (
    AttemptOutcome,
    CapExceeded,
    Caps,
    ExecutionReport,
    MCEstimate,
    ResumableProcess,
    SamplerProcess,
    TrialRng,
    bitstring_guess_process,
    default_caps,
    geometric_coin_process,
    mc_expected_cost,
    run_once_truncated,
    run_with_schedule,
)
from .schedules import (
    Schedule,
    ScheduleRangeError,
    budget_block,
    build_schedule,
    fixed_schedule,
    luby_schedule,
    luby_value,
    single_threshold_schedule,
    specific_e_schedule,
    two_threshold_schedule,
    universal_schedule,
)
from .starfn import (
    ShrinkTrace,
    log_star,
    shrink,
    shrink_iter,
    shrink_star,
    shrink_trace,
    tower,
)
from .streams import CounterStream, stream_key

__version__ = "0.1.0"
