"""Outcome scan of the command line, for checking that a change to cli keeps
every byte each command prints.

    PYTHONPATH=src python tests/_cli_outcomes.py OUT.json
    PYTHONPATH=src python tests/_cli_outcomes.py --compare A.json B.json

The first form runs cli.main in-process on every case below and writes, for
each, the exit code, stdout, stderr and the --out file if the case writes
one, with the temporary directory replaced by <tmp>.  An exception that
escapes main is recorded by type and text.  The second form counts the cases
whose record differs between two such files, and exits 1 if any does.  Run
the first form on each commit, then compare.

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

The leading underscore keeps pytest from collecting this file.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile

from vegas_restart import cli, distx

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


def cases(tmp):
    """(key, outcome) of every case, in a fixed order."""
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
    yield "analyze basic --out", with_config(BASIC, ("analyze", "--config", config, "--out", out))
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


def compare(old, new):
    differ = 0
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a != b:
            differ += 1
            print("differs:", key)
            for field in sorted((a or {}).keys() | (b or {}).keys()):
                if (a or {}).get(field) != (b or {}).get(field):
                    print(f"  {field}: {(a or {}).get(field)!r} -> {(b or {}).get(field)!r}")
    print(f"cases: {len(old.keys() | new.keys())}")
    print(f"differences: {differ}")
    return differ


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        with open(argv[1]) as fa, open(argv[2]) as fb:
            return 1 if compare(json.load(fa), json.load(fb)) else 0
    if len(argv) == 1:
        with tempfile.TemporaryDirectory() as tmp:
            outcomes = dict(cases(tmp))
        with open(argv[0], "w") as f:
            json.dump(outcomes, f, indent=0)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
