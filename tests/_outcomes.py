"""Outcome gates of the exact cost oracle, Monte Carlo and the command line,
for checking that a change keeps their results.

    PYTHONPATH=src python tests/_outcomes.py OUT.json
    PYTHONPATH=src python tests/_outcomes.py --compare A.json B.json

The first form runs every case below and writes one JSON object with a
section for each gate: scan, mc and cli.  The second checks each section
between two such files and exits 1 if any section fails.  Run the first form
on each commit, then compare.

scan: analysis.analytic_cost.  An outcome is the enclosure (expected_cost,
tail_bound, attempts_summed), with the floats as repr strings, or the
refusal's type and text.  The section fails on a case in only one file, a
different outcome, refusal text or attempts_summed, or a moved enclosure that
fails test_analysis._enclosures_agree.  The report counts the enclosures whose
bits moved, by schedule kind, with the largest move in units in the last
place.  Cases:
  - the zoo and _TENTHS x {universal, luby(0.5), luby(1), luby(4)} at the
    default eps_tail and attempt_cap, at attempt_cap 4095 with eps_tail 1e-4,
    and at attempt_cap 20000;
  - 1500 seeded random 1-4-atom models x the same four scans at the default
    caps and at 4095 with 1e-4;
  - every model above x {fixed, specific_E, two_threshold, single_threshold
    at -1, 0, E[X], E[X] + 1 and at each atom}.  The threshold -1 gives the
    budget 2/e < 1, so under the geometric law no attempt gets a whole step
    and the cost is +inf.

mc: engine.mc_expected_cost.  An outcome is the repr of its MCEstimate.
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

cli: cli.main, in-process.  An outcome is the exit code, stdout, stderr and
the --out file if the case writes one, with the temporary directory replaced
by <tmp>.  An exception that escapes main is recorded by type and text.
Cases:
  - analyze, one config each, in mode "analyze": the zoo under both laws x
    {fixed, two_threshold (when E[X] >= 1), specific_E, universal, luby(1),
    single_threshold(1), single_threshold(-1)}, 348 distinct configs, as the
    zoo holds fixed_t_counterexample(5, 10) twice;
  - analyze and simulate on small configs: the exit-4, exit-3 and exit-5
    paths, a two-entry config list, the --seed/--trials overrides, jsonl;
  - analyze and simulate on each single-fault config probe (a bad field, a
    bad value of each numeric field, bad spec values, unreadable JSON);
  - README's two sweeps, luby and jsonl sweeps, and sweeps with bad
    arguments (fixed:7, luby:abc, single_threshold:zz, an unknown kind and
    family, --t on a family without t, --t E-1, bad ranges and steps);
  - verify --scope all (csv) and verify --scope bounds --format jsonl;
  - demo --trials 2000;
  - analyze, simulate, verify and sweep with --out in a missing directory;
  - the number and threshold-expression probes (PROBES_* below), whose
    outcome differs from a commit that read a boolean as a number, truncated
    a fraction in a whole-number field, or read "2E+1" as 20.

The mc and cli sections fail on any case whose record differs, and the report
prints the fields that differ.

The leading underscore keeps pytest from collecting this file.
"""

import contextlib
import io
import json
import math
import os
import random
import sys
import tempfile
from collections import Counter

from test_analysis import _TENTHS, _enclosures_agree

from vegas_restart import cli, distx, engine, schedules
from vegas_restart.analysis import TailNotConvergent, analytic_cost
from vegas_restart.distx import RuntimeModel, expectation
from vegas_restart.schedules import (
    ScheduleRangeError,
    fixed_schedule,
    luby_schedule,
    single_threshold_schedule,
    specific_e_schedule,
    two_threshold_schedule,
    universal_schedule,
)

# --- scan -------------------------------------------------------------------

RANDOM_MODELS = 1500
SEED = 20
DEFAULT_CAPS = (1e-10, 10_000_000)
ZOO_CAPS = (DEFAULT_CAPS, (1e-4, 4095), (1e-10, 20_000))
RANDOM_CAPS = (DEFAULT_CAPS, (1e-4, 4095))


def random_models(count=RANDOM_MODELS, seed=SEED):
    """1-4 atoms at distinct positions in [0, 8], weights in [0.01, 1]
    normalised, and a law, drawn from one seeded generator."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 4)
        xs = rng.sample(range(8001), n)
        weights = [rng.uniform(0.01, 1.0) for _ in range(n)]
        total = math.fsum(weights)
        atoms = [(x / 1000.0, w / total) for x, w in zip(xs, weights)]
        out.append((f"random[{len(out)}] {atoms!r}",
                    RuntimeModel(distx.discrete(atoms), rng.choice(distx.LAWS))))
    return out


def _scans():
    return (universal_schedule(), luby_schedule(0.5), luby_schedule(1.0), luby_schedule(4.0))


def _cyclic_specs(model):
    """(label, builder) of each cyclic schedule of a model; a builder may
    refuse its parameter."""
    ex = expectation(model.dist)
    yield f"fixed(EX={ex!r})", lambda: fixed_schedule(ex)
    yield f"specific_E(E={max(ex, 5.0)!r})", lambda: specific_e_schedule(max(ex, 5.0))
    yield f"two_threshold(EX={ex!r})", lambda: two_threshold_schedule(ex)
    thresholds = sorted({-1.0, 0.0, ex, ex + 1.0} | {x for x, _ in model.dist.atoms})
    for t in thresholds:
        yield f"single_threshold(t={t!r})", lambda t=t: single_threshold_schedule(t)


def scan_outcome(model, schedule, eps_tail, attempt_cap):
    try:
        est = analytic_cost(model, schedule, eps_tail=eps_tail, attempt_cap=attempt_cap)
    except TailNotConvergent as exc:
        return {"kind": schedule.kind, "refused": f"TailNotConvergent: {exc}"}
    return {"kind": schedule.kind, "cost": repr(est.expected_cost),
            "tail": repr(est.tail_bound), "attempts": est.attempts_summed}


def scan_cases():
    """(key, outcome) of every case, in a fixed order."""
    zoo = [(model.label, model) for model in distx.zoo_models()]
    zoo.append(("_TENTHS " + _TENTHS.label, _TENTHS))
    randoms = random_models()
    for models, caps in ((zoo, ZOO_CAPS), (randoms, RANDOM_CAPS)):
        for name, model in models:
            for schedule in _scans():
                for eps_tail, cap in caps:
                    key = f"{name} x {schedule.label} x eps={eps_tail:g},cap={cap}"
                    yield key, scan_outcome(model, schedule, eps_tail, cap)
    for name, model in zoo + randoms:
        for label, build in _cyclic_specs(model):
            key = f"{name} x {label}"
            try:
                schedule = build()
            except ScheduleRangeError as exc:
                yield key, {"kind": "build", "refused": f"ScheduleRangeError: {exc}"}
                continue
            yield key, scan_outcome(model, schedule, *DEFAULT_CAPS)


def _ulps(a, b):
    """Units in the last place between two finite doubles of one sign."""
    if a == b:
        return 0
    if math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def compare_scan(old, new):
    """Whether the scan section passes; prints its report."""
    counts = Counter()
    worst = Counter()
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            counts["only in one file"] += 1
            continue
        counts["cases"] += 1
        if ("refused" in a) != ("refused" in b):
            counts["outcome differs"] += 1
            print("outcome:", key, a, b)
            continue
        if "refused" in a:
            if a["refused"] != b["refused"]:
                counts["refusal text differs"] += 1
                print("refusal:", key, a["refused"], b["refused"])
            continue
        if a["attempts"] != b["attempts"]:
            counts["attempts_summed differs"] += 1
            print("attempts:", key, a["attempts"], b["attempts"])
        if (a["cost"], a["tail"]) == (b["cost"], b["tail"]):
            continue
        counts[f"moved {a['kind']}, {'random' if key.startswith('random') else 'zoo'}"] += 1
        ea = (float(a["cost"]), float(a["tail"]), a["attempts"])
        eb = (float(b["cost"]), float(b["tail"]), b["attempts"])
        worst[a["kind"]] = max(worst[a["kind"]], _ulps(ea[0], eb[0]))
        if not _enclosures_agree(ea, eb):
            counts["moved and not agreeing"] += 1
            print("disagree:", key, ea, eb)
    for name, count in sorted(counts.items()):
        print(f"{name}: {count}")
    for kind, ulps in sorted(worst.items()):
        print(f"largest move of expected_cost, {kind}: {ulps:g} ulp")
    bad = ("only in one file", "outcome differs", "refusal text differs",
           "attempts_summed differs", "moved and not agreeing")
    return not any(counts[name] for name in bad)


# --- mc ---------------------------------------------------------------------

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


def mc_outcome(process, schedule, trials, seed, caps=None, on_cap="raise"):
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
            yield key, mc_outcome(process, sched, trials, seed, caps, "count")


def mc_cases():
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
        yield key, mc_outcome(capped, sched, 1000, seed, engine.Caps(max_attempts=2), "count")
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
                    yield key, mc_outcome(process, sched, trials, seed)


# --- cli --------------------------------------------------------------------

BASIC = {
    "distribution": {"kind": "two_point", "E": 4},
    "law": "deterministic",
    "schedule": {"kind": "single_threshold", "t": 0},
    "trials": 500,
    "seed": 42,
}

FIELD_PROBES = (
    ("trials", "many"), ("trials", None), ("trials", 1), ("seed", None), ("seed", "x"),
    ("eps_tail", "tiny"), ("eps_tail", None), ("eps_tail", 0.0), ("eps_tail", -1e-10),
    ("eps_tail", math.inf), ("eps_tail", math.nan),
    ("cap_trip_threshold", "half"), ("cap_trip_threshold", math.nan),
    ("cap_trip_threshold", math.inf), ("cap_trip_threshold", -0.5),
    ("caps", {"max_attempts": "lots"}), ("caps", {"max_attempts": 0}),
    ("caps", {"max_attempts": -1}), ("caps", {"max_total_cost": None}),
    ("caps", {"max_total_cost": math.nan}), ("caps", {"max_total_cost": 0.0}),
    ("caps", {"bogus": 1}), ("caps", 5), ("mode", "fast"), ("law", "quantum"),
    ("bogus", 1),
    ("distribution", {"kind": "two_point", "E": None}),
    ("distribution", {"kind": "two_point", "E": 10**400}),
    ("distribution", {"kind": "discrete", "atoms": 5}),
    ("distribution", {"kind": "fixed_t_counterexample", "E": 5, "t": math.nan}),
    ("distribution", {"kind": "variance_counterexample", "E": 800, "V": 1}),
    # 2E^2 e^-E underflows to 0, so V = 0 passes V >= 2E^2 e^-E.
    ("distribution", {"kind": "variance_counterexample", "E": 1e-200, "V": 0}),
    # A weight that rounds to 0: 1 - 1/(1 + E), and E/(t + 1) underflowing.
    ("distribution", {"kind": "two_point", "E": 1e-17}),
    ("distribution", {"kind": "fixed_t_counterexample", "E": 5e-324, "t": 10}),
    ("distribution", {"kind": "cauchy"}),
    ("schedule", {"kind": "luby", "unit": [1]}), ("schedule", {"kind": ["fixed"]}),
    ("schedule", {"kind": "luby"}), ("schedule", {"kind": "single_threshold", "t": 500}),
    ("schedule", {"kind": "fixed", "param": 3}),
)

# Numeric fields given a boolean, whole-number fields given a fraction, and
# the forms that convert exactly.
PROBES_CONFIG = (
    ("seed", 1.5), ("seed", True), ("trials", 500.9), ("caps", {"max_attempts": 2.5}),
    ("eps_tail", True), ("trials", 1e3), ("seed", "7"),
)

SWEEP = ("sweep", "--e-start", "5", "--e-stop", "6")
SWEEPS = (
    ("sweep", "--family", "two_point", "--e-start", "5", "--e-stop", "30",
     "--schedules", "fixed,two_threshold,universal"),
    ("sweep", "--family", "fixed_t_counterexample", "--t", "2E", "--e-start", "5",
     "--e-stop", "20", "--schedules", "single_threshold:2E,universal"),
    ("sweep", "--family", "two_point", "--e-start", "1", "--e-stop", "9", "--e-step", "2",
     "--law", "geometric", "--schedules", "luby,luby:4,specific_E,single_threshold:E+1",
     "--format", "jsonl"),
    ("sweep", "--family", "constant", "--e-start", "0", "--e-stop", "3",
     "--schedules", "fixed,single_threshold:3.5,single_threshold:-5,single_threshold:1e1"),
    SWEEP + ("--family", "two_point", "--schedules", "fixed:7"),
    SWEEP + ("--family", "two_point", "--schedules", "luby:abc"),
    SWEEP + ("--family", "two_point", "--schedules", "single_threshold:zz"),
    SWEEP + ("--family", "two_point", "--schedules", "single_threshold:"),
    SWEEP + ("--family", "two_point", "--schedules", "bogus"),
    SWEEP + ("--family", "cauchy", "--schedules", "fixed"),
    SWEEP + ("--family", "two_point", "--t", "2E", "--schedules", "fixed"),
    SWEEP + ("--family", "fixed_t_counterexample", "--t", "E-1", "--schedules", "fixed"),
    SWEEP + ("--family", "fixed_t_counterexample", "--t", "nan", "--schedules", "fixed"),
    SWEEP + ("--family", "two_point", "--schedules", ""),
    SWEEP + ("--family", "two_point", "--schedules", "fixed", "--e-step", "0"),
    SWEEP + ("--family", "two_point", "--schedules", "fixed", "--e-step", "1e-20"),
    SWEEP + ("--family", "two_point", "--schedules", "fixed", "--e-step", "1e-15"),
    SWEEP + ("--family", "two_point", "--schedules", "fixed", "--eps-tail", "inf"),
    SWEEP + ("--family", "two_point", "--schedules", "fixed", "--e-start", "nan"),
    ("sweep", "--family", "two_point", "--e-start", "6", "--e-stop", "5",
     "--schedules", "fixed"),
    ("sweep", "--family", "two_point", "--e-start", "299", "--e-stop", "301",
     "--schedules", "fixed"),
)

# The threshold expressions of the form <factor>E<sign><offset>.
PROBES_SWEEP = (
    ("sweep", "--family", "fixed_t_counterexample", "--t", "2E+1", "--e-start", "5",
     "--e-stop", "5", "--schedules", "single_threshold:2E-1"),
    ("sweep", "--family", "fixed_t_counterexample", "--t", "0.5E+6", "--e-start", "5",
     "--e-stop", "5", "--schedules", "single_threshold:0.5E+2"),
)


def _zoo_spec(dist):
    return {"kind": dist.kind, **dict(dist.params)}


def analyze_configs():
    """(key, config) of each zoo analyze run."""
    for model in distx.zoo_models():
        ex = distx.expectation(model.dist)
        scheds = [{"kind": "fixed"}] + ([{"kind": "two_threshold"}] if ex >= 1.0 else [])
        scheds += [{"kind": "specific_E"}, {"kind": "universal"}, {"kind": "luby", "unit": 1},
                   {"kind": "single_threshold", "t": 1}, {"kind": "single_threshold", "t": -1}]
        for sched in scheds:  # keyed by the config, as labels round their parameters
            config = {"distribution": _zoo_spec(model.dist), "law": model.law,
                      "schedule": sched, "mode": "analyze"}
            yield f"analyze {json.dumps(config)}", config


def config_runs():
    """(key, config, extra argv) of each analyze and simulate run on a small config."""
    infinite = {"distribution": {"kind": "constant", "c": 10}, "law": "deterministic",
                "schedule": {"kind": "single_threshold", "t": 3}, "trials": 20}
    runs = [
        ("basic", BASIC, ()),
        ("basic jsonl", BASIC, ("--format", "jsonl")),
        ("basic overrides", BASIC, ("--seed", "7", "--trials", "300")),
        ("trials override 1", BASIC, ("--trials", "1")),
        ("list", [BASIC, {**BASIC, "law": "geometric", "schedule": {"kind": "universal"}}], ()),
        ("not a list of objects", [BASIC, 5], ()),
        ("infinite cost", {**infinite, "caps": {"max_attempts": 5}}, ()),
        ("degenerate universal", {**BASIC, "distribution": {"kind": "constant", "c": 0},
                                  "schedule": {"kind": "universal"}, "trials": 100}, ()),
        ("variance specific_E", {**BASIC, "distribution": {"kind": "variance_counterexample",
                                                           "E": 5, "V": 10},
                                 "schedule": {"kind": "specific_E", "E": 5}}, ()),
        # Under the default caps a simulate trial of this config runs to 10**7
        # attempts, about a minute, as none of its budgets can finish a run.
        ("uncoverable universal", {**BASIC, "distribution": {"kind": "constant", "c": 295},
                                   "schedule": {"kind": "universal"}, "mode": "analyze",
                                   "trials": 20, "caps": {"max_attempts": 100}}, ()),
        ("missing law", {"distribution": BASIC["distribution"],
                         "schedule": BASIC["schedule"]}, ()),
    ]
    runs += [(f"{field}={value!r}", {**BASIC, field: value}, ()) for field, value in FIELD_PROBES]
    return runs


def run(argv, tmp):
    """The outcome of one main(argv): exit code, stdout, stderr, --out file."""
    out, err = io.StringIO(), io.StringIO()
    record = {}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            record["exit"] = cli.main(list(argv))
        except SystemExit as exc:
            record["exit"] = exc.code
        except Exception as exc:  # a traceback, recorded by type and text
            record["raised"] = f"{type(exc).__name__}: {exc}"
    record["stdout"], record["stderr"] = out.getvalue(), err.getvalue()
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    if path and os.path.exists(path):
        with open(path, encoding="utf-8", newline="") as fh:
            record["out"] = fh.read()
        os.remove(path)
    return json.loads(json.dumps(record).replace(tmp, "<tmp>"))


def cli_cases():
    """(key, outcome) of every case, in a fixed order."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        out = os.path.join(tmp, "out.csv")

        def with_config(obj, argv):
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            return run(argv, tmp)

        for key, obj in analyze_configs():
            yield key, with_config(obj, ("analyze", "--config", config))
        for key, obj, extra in config_runs():
            for command in ("analyze", "simulate"):
                yield f"{command} {key}", with_config(obj, (command, "--config", config) + extra)
        with open(config, "w", encoding="utf-8") as fh:
            fh.write("{nope")
        for command in ("analyze", "simulate"):
            yield f"{command} broken json", run((command, "--config", config), tmp)
            yield f"{command} missing file", run((command, "--config", config + ".gone"), tmp)
        yield "analyze basic --out", with_config(
            BASIC, ("analyze", "--config", config, "--out", out))
        for argv in SWEEPS:
            yield " ".join(argv), run(argv, tmp)
        yield "sweep --out", run(SWEEPS[0] + ("--out", out), tmp)
        yield "verify all", run(("verify", "--scope", "all", "--out", out), tmp)
        yield "verify bounds jsonl", run(("verify", "--scope", "bounds", "--format", "jsonl"), tmp)
        yield "demo", run(("demo", "--trials", "2000"), tmp)
        unwritable = ("--out", os.path.join(tmp, "missing", "out.csv"))
        for command in ("analyze", "simulate"):
            yield f"{command} unwritable --out", with_config(
                BASIC, (command, "--config", config) + unwritable)
        yield "verify unwritable --out", run(("verify", "--scope", "starfn") + unwritable, tmp)
        yield "sweep unwritable --out", run(SWEEPS[0] + unwritable, tmp)
        for field, value in PROBES_CONFIG:
            for command in ("analyze", "simulate"):
                key = f"probe {command} {field}={value!r}"
                yield key, with_config({**BASIC, field: value}, (command, "--config", config))
        for argv in PROBES_SWEEP:
            yield "probe " + " ".join(argv), run(argv, tmp)


# --- the runner -------------------------------------------------------------

def compare_equal(old, new):
    """Whether every case has the same record in both; prints each that
    differs, field by field (an mc record is one field, its repr)."""
    differ = 0
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        differ += 1
        print("differs:", key)
        a, b = (r if isinstance(r, dict) else {"repr": r} for r in (a, b))
        for field in sorted(a.keys() | b.keys()):
            if a.get(field) != b.get(field):
                print(f"  {field}: {a.get(field)!r} -> {b.get(field)!r}")
    print(f"cases: {len(old.keys() | new.keys())}")
    print(f"differences: {differ}")
    return not differ


# Each section: its cases and the compare that gates it.
SECTIONS = {
    "scan": (scan_cases, compare_scan),
    "mc": (mc_cases, compare_equal),
    "cli": (cli_cases, compare_equal),
}


def compare(old, new):
    """Whether every section of two records passes; prints each report."""
    passed = True
    for name, (_, check) in SECTIONS.items():
        print(f"== {name}")
        passed &= check(old.get(name, {}), new.get(name, {}))
    return passed


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        with open(argv[1]) as fa, open(argv[2]) as fb:
            return 0 if compare(json.load(fa), json.load(fb)) else 1
    if len(argv) == 1:
        record = {name: dict(cases()) for name, (cases, _) in SECTIONS.items()}
        with open(argv[0], "w") as f:
            json.dump(record, f, indent=0)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
