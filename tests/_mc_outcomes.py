"""Outcome scan of Monte Carlo estimates, for checking that a change to
engine.mc_expected_cost keeps every bit of its results.

    PYTHONPATH=src python tests/_mc_outcomes.py OUT.json
    PYTHONPATH=src python tests/_mc_outcomes.py --compare A.json B.json

The first form runs every case below and writes the repr of each
MCEstimate as JSON.  The second counts the cases whose repr differs between
two such files, and exits 1 if any does.  Run the first form on each
commit, then compare.

Cases:
  - the benchmark's sampler pairs (SAMPLER_PAIRS below, copied from
    bench/workloads.py so that this file does not depend on bench/) with the
    caps and on_cap="count" that `simulate` uses, x 3 seeds x trial counts at
    the edges of the pairwise summation (below 8, one block of 8, 128, just
    past a split, and past a 4096-term half);
  - the benchmark's one long pair, variance_counterexample(5, 10) x
    specific_E(5), at its real 100 000 trials and seed 42, so that every
    level of the pairwise tree, up to a 49 152-term half, sums real costs;
  - runs whose costs cross engine's 256-value limit for one-byte costs, at
    seed 42 (SWITCH_CASES below): constant(3.5) x geometric x
    single_threshold(2), whose first 39 351 trials hold exactly 256 distinct
    costs and whose trial 39 351 brings the 257th, at 39 351 trials (ends
    coded), 39 352 (switches on its last trial) and 40 000 (switches in its
    tenth 4096-cost block); and two_point(4) x geometric x two_threshold(4)
    at 30 000 trials, 666 distinct costs, the 257th at trial 1 826, inside
    the first block;
  - a four-atom set, discrete 0.1, 0.2, 0.3, 0.4 at 0, 1, 2, 3, under both
    laws (FOUR_ATOM_PAIRS below) with the same seeds and trial counts, so
    that a draw past the third atom is checked: up to three atoms the
    atom draw cannot tell a running float sum from the prefix table;
  - two_point(4) x deterministic x single_threshold(0) at max_attempts 2, so
    that some trials trip the cap and are counted;
  - the two stepped processes, geometric_coin[constant(5)] and
    bitstring_guess[k=12], on their fixed schedules, and on single budgets
    of 1, 63, 65 and 4097 steps, so that an attempt ends before, at and past
    the edges of a vector of draws;
  - demo's two pairs: geometric_coin[constant(ln 2)] x single_threshold(ln 3)
    and bitstring_guess[k=8] x single_threshold(ln 300).

The leading underscore keeps pytest from collecting this file.
"""

import json
import math
import sys

from vegas_restart import distx, engine, schedules
from vegas_restart.distx import RuntimeModel

SAMPLER_PAIRS = (
    ({"kind": "two_point", "E": 4}, "deterministic", {"kind": "single_threshold", "t": 0}),
    ({"kind": "two_point", "E": 4}, "deterministic", {"kind": "fixed", "EX": 4}),
    ({"kind": "two_point", "E": 4}, "geometric", {"kind": "single_threshold", "t": 0}),
    ({"kind": "two_point", "E": 4}, "deterministic", {"kind": "two_threshold", "EX": 4}),
    ({"kind": "two_point", "E": 4}, "deterministic", {"kind": "universal"}),
    ({"kind": "two_point", "E": 4}, "geometric", {"kind": "universal"}),
    ({"kind": "constant", "c": 0}, "deterministic", {"kind": "universal"}),
    ({"kind": "constant", "c": 1}, "geometric", {"kind": "single_threshold", "t": 2}),
    ({"kind": "fixed_t_counterexample", "E": 5, "t": 10}, "deterministic",
     {"kind": "single_threshold", "t": 10}),
    ({"kind": "adversarial_density", "E": 5}, "deterministic", {"kind": "fixed"}),
    ({"kind": "adversarial_density", "E": 5}, "geometric", {"kind": "two_threshold"}),
    ({"kind": "variance_counterexample", "E": 5, "V": 10}, "deterministic",
     {"kind": "specific_E", "E": 5}),
    ({"kind": "two_point", "E": 16}, "deterministic", {"kind": "universal"}),
    ({"kind": "two_point", "E": 16}, "geometric", {"kind": "universal"}),
    ({"kind": "two_point", "E": 8}, "geometric", {"kind": "luby", "unit": 1}),
)
_FOUR_ATOMS = {"kind": "discrete", "atoms": [[0, 0.1], [1, 0.2], [2, 0.3], [3, 0.4]]}
FOUR_ATOM_PAIRS = tuple((_FOUR_ATOMS, law, {"kind": "universal"})
                        for law in ("deterministic", "geometric"))
SEEDS = (1, 42, 12345)
TRIALS = (2, 7, 8, 9, 128, 129, 257, 8193)
STEPPED_TRIALS = (2, 9, 129, 1000)
STEPPED_BUDGETS, BUDGET_TRIALS = (1, 63, 65, 4097), (2, 9, 129)
LONG_PAIR = SAMPLER_PAIRS[11]
LONG_TRIALS, LONG_SEED = 100_000, 42
SWITCH_CASES = (
    (({"kind": "constant", "c": 3.5}, "geometric", {"kind": "single_threshold", "t": 2}),
     (39_351, 39_352, 40_000)),
    (({"kind": "two_point", "E": 4}, "geometric", {"kind": "two_threshold", "EX": 4}),
     (30_000,)),
)


def outcome(process, schedule, trials, seed, caps=None, on_cap="raise"):
    return repr(engine.mc_expected_cost(process, schedule, trials=trials, seed=seed,
                                        caps=caps, on_cap=on_cap))


def sampler_cases(pair, seeds, trial_counts):
    """Cases of one SAMPLER_PAIRS entry, with the caps and on_cap of `simulate`."""
    dist_spec, law, sched_spec = pair
    dist = distx.build_distribution(dist_spec)
    sched = schedules.build_schedule(sched_spec, default_ex=distx.expectation(dist))
    process = engine.SamplerProcess(RuntimeModel(dist, law))
    caps = engine.default_caps(e_hint=distx.support_max(dist))
    for seed in seeds:
        for trials in trial_counts:
            key = f"{process.label} x {sched.label} x seed={seed} x trials={trials}"
            yield key, outcome(process, sched, trials, seed, caps, "count")


def cases():
    """(key, outcome) of every case, in a fixed order."""
    for pair in SAMPLER_PAIRS + FOUR_ATOM_PAIRS:
        yield from sampler_cases(pair, SEEDS, TRIALS)
    yield from sampler_cases(LONG_PAIR, (LONG_SEED,), (LONG_TRIALS,))
    for pair, trial_counts in SWITCH_CASES:
        yield from sampler_cases(pair, (LONG_SEED,), trial_counts)
    capped = engine.SamplerProcess(RuntimeModel(distx.two_point(4.0), "deterministic"))
    sched = schedules.single_threshold_schedule(0.0)
    for seed in SEEDS:
        key = f"{capped.label} x {sched.label} x max_attempts=2 x seed={seed}"
        yield key, outcome(capped, sched, 1000, seed, engine.Caps(max_attempts=2), "count")
    stepped = (
        (engine.geometric_coin_process(distx.constant(5.0)), 5.0),
        (engine.bitstring_guess_process(12), 12 * math.log(2.0)),
    )
    single_budgets = [(schedules.Schedule("budget", (("b", b),), ((1, float(b)),)), BUDGET_TRIALS)
                      for b in STEPPED_BUDGETS]
    demo = (
        (engine.geometric_coin_process(distx.constant(math.log(2.0))), math.log(3.0)),
        (engine.bitstring_guess_process(8), math.log(300.0)),
    )
    runs = [(process, [(schedules.fixed_schedule(ex), STEPPED_TRIALS)] + single_budgets)
            for process, ex in stepped]
    runs += [(process, [(schedules.single_threshold_schedule(t), STEPPED_TRIALS)])
             for process, t in demo]
    for process, scheds in runs:
        for sched, trial_counts in scheds:
            for seed in SEEDS:
                for trials in trial_counts:
                    key = f"{process.label} x {sched.label} x seed={seed} x trials={trials}"
                    yield key, outcome(process, sched, trials, seed)


def compare(old, new):
    differ = 0
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a != b:
            differ += 1
            print("differs:", key, a, b)
    print(f"cases: {len(old.keys() | new.keys())}")
    print(f"differences: {differ}")
    return differ


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        with open(argv[1]) as fa, open(argv[2]) as fb:
            return 1 if compare(json.load(fa), json.load(fb)) else 0
    if len(argv) == 1:
        with open(argv[0], "w") as f:
            json.dump(dict(cases()), f, indent=0)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
