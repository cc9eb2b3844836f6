"""Outcome gates of the exact cost oracle, Monte Carlo and the command line,
for checking that a change keeps their results.

    PYTHONPATH=src python tests/_outcomes.py OUT.json
    python tests/_outcomes.py --compare A.json B.json

The first form runs every case of _outcome_cases.py and writes one JSON
object with a section for each gate: scan, mc and cli.  The second checks
each section between two such files and exits 1 if any section fails; it
imports neither the package nor a test module, so it needs no PYTHONPATH.
Run the first form on each commit, then compare.

scan fails on a case in only one file, a different outcome, refusal text or
attempts_summed, or a moved enclosure that fails _enclosures_agree.  The
report counts the enclosures whose bits moved, by schedule kind, with the
largest move in units in the last place.

The mc and cli sections fail on any case whose record differs, and the report
prints the fields that differ.

The leading underscore keeps pytest from collecting this file.
"""

import itertools
import json
import math
import sys
from collections import Counter


def _enclosures_agree(a, b):
    """Two (expected_cost, tail_bound, attempts_summed) enclosures of the same
    cost overlap, up to the rounding of a sum over the larger attempt count:
    attempts_summed * 2**-53 relative, which is all two points can share."""
    slack = max(a[2], b[2]) * 2.0**-53 * max(abs(a[0]), abs(b[0]))
    return a[0] <= b[0] + b[1] + slack and b[0] <= a[0] + a[1] + slack


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


# Each section and the compare that gates it; _outcome_cases.py names its
# cases <section>_cases.
SECTIONS = {"scan": compare_scan, "mc": compare_equal, "cli": compare_equal}


def compare(old, new):
    """Whether every section of two records passes; prints each report."""
    passed = True
    for name, check in SECTIONS.items():
        print(f"== {name}")
        passed &= check(old.get(name, {}), new.get(name, {}))
    return passed


def record(limit=None):
    """The outcome of every case of each section, or of its first limit
    cases; the only path that imports the package."""
    import _outcome_cases

    return {name: dict(itertools.islice(getattr(_outcome_cases, f"{name}_cases")(), limit))
            for name in SECTIONS}


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        with open(argv[1]) as fa, open(argv[2]) as fb:
            return 0 if compare(json.load(fa), json.load(fb)) else 1
    if len(argv) == 1:
        with open(argv[0], "w") as f:
            json.dump(record(), f, indent=0)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
