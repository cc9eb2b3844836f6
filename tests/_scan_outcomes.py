"""Outcome scan of the exact cost oracle, for checking that a change to
analysis.analytic_cost keeps its results.

    PYTHONPATH=src python tests/_scan_outcomes.py OUT.json
    PYTHONPATH=src python tests/_scan_outcomes.py --compare A.json B.json

The first form runs every case below and writes its outcome as JSON: the
enclosure (expected_cost, tail_bound, attempts_summed), with the floats as
repr strings, or the refusal's type and text.  The second counts, between
two such files, the differences in outcome, refusal text and
attempts_summed, the enclosures whose bits moved (by schedule kind, with the
largest move in units in the last place), and the moved enclosures that fail
test_analysis._enclosures_agree.  Run the first form on each commit, then
compare.

Cases:
  - the zoo and _TENTHS x {universal, luby(0.5), luby(1), luby(4)} at the
    default eps_tail and attempt_cap, at attempt_cap 4095 with eps_tail 1e-4,
    and at attempt_cap 20000;
  - 1500 seeded random 1-4-atom models x the same four scans at the default
    caps and at 4095 with 1e-4;
  - every model above x {fixed, specific_E, two_threshold, single_threshold
    at -1, 0, E[X], E[X] + 1 and at each atom}.  The threshold -1 gives the
    budget 2/e < 1, so under the geometric law no attempt gets a whole step
    and the cost is +inf.

The leading underscore keeps pytest from collecting this file.
"""

import json
import math
import random
import sys
from collections import Counter

from test_analysis import _TENTHS, _enclosures_agree

from vegas_restart import distx
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


def outcome(model, schedule, eps_tail, attempt_cap):
    try:
        est = analytic_cost(model, schedule, eps_tail=eps_tail, attempt_cap=attempt_cap)
    except TailNotConvergent as exc:
        return {"kind": schedule.kind, "refused": f"TailNotConvergent: {exc}"}
    return {"kind": schedule.kind, "cost": repr(est.expected_cost),
            "tail": repr(est.tail_bound), "attempts": est.attempts_summed}


def cases():
    """(key, outcome) of every case, in a fixed order."""
    zoo = [(model.label, model) for model in distx.zoo_models()]
    zoo.append(("_TENTHS " + _TENTHS.label, _TENTHS))
    randoms = random_models()
    for models, caps in ((zoo, ZOO_CAPS), (randoms, RANDOM_CAPS)):
        for name, model in models:
            for schedule in _scans():
                for eps_tail, cap in caps:
                    key = f"{name} x {schedule.label} x eps={eps_tail:g},cap={cap}"
                    yield key, outcome(model, schedule, eps_tail, cap)
    for name, model in zoo + randoms:
        for label, build in _cyclic_specs(model):
            key = f"{name} x {label}"
            try:
                schedule = build()
            except ScheduleRangeError as exc:
                yield key, {"kind": "build", "refused": f"ScheduleRangeError: {exc}"}
                continue
            yield key, outcome(model, schedule, *DEFAULT_CAPS)


def _ulps(a, b):
    """Units in the last place between two finite doubles of one sign."""
    if a == b:
        return 0
    if math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def compare(old, new):
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
    return counts


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        with open(argv[1]) as fa, open(argv[2]) as fb:
            counts = compare(json.load(fa), json.load(fb))
        bad = ("only in one file", "outcome differs", "refusal text differs",
               "attempts_summed differs", "moved and not agreeing")
        return 1 if any(counts[name] for name in bad) else 0
    if len(argv) == 1:
        with open(argv[0], "w") as f:
            json.dump(dict(cases()), f, indent=0)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
