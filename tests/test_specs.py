"""Every distribution and schedule spec kind, through its builder.

A full spec builds what the kind's constructor builds; a missing field, an
extra field and an unknown kind are refused with ValueError and exact text.
A distribution spec with an edge value in any numeric field is refused with
ValueError or builds a distribution with finite atoms and moments.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vegas_restart import distx, schedules
from vegas_restart.distx import build_distribution
from vegas_restart.schedules import build_schedule

SRC = Path(__file__).resolve().parent.parent / "src"

# (builder, full spec, what the constructor builds, the spec less a field or
# None, its message, the spec with extra fields, its message)
CASES = [
    pytest.param(
        build_distribution, {"kind": "two_point", "E": 4}, distx.two_point(4.0),
        {"kind": "two_point"},
        "distribution kind 'two_point' takes exactly fields ['E']; missing ['E'], unexpected []",
        {"kind": "two_point", "E": 4, "t": 2, "V": 3, "c": 1},
        "distribution kind 'two_point' takes exactly fields ['E']; "
        "missing [], unexpected ['V', 'c', 't']",
        id="two_point",
    ),
    pytest.param(
        build_distribution, {"kind": "fixed_t_counterexample", "E": 5, "t": 10},
        distx.fixed_t_counterexample(5.0, 10.0),
        {"kind": "fixed_t_counterexample", "E": 5},
        "distribution kind 'fixed_t_counterexample' takes exactly fields ['E', 't']; "
        "missing ['t'], unexpected []",
        {"kind": "fixed_t_counterexample", "t": 10, "atoms": [], "V": 1},
        "distribution kind 'fixed_t_counterexample' takes exactly fields ['E', 't']; "
        "missing ['E'], unexpected ['V', 'atoms']",
        id="fixed_t_counterexample",
    ),
    pytest.param(
        build_distribution, {"kind": "adversarial_density", "E": 5},
        distx.adversarial_density(5.0),
        {"kind": "adversarial_density"},
        "distribution kind 'adversarial_density' takes exactly fields ['E']; "
        "missing ['E'], unexpected []",
        {"kind": "adversarial_density", "E": 5, "c": 1},
        "distribution kind 'adversarial_density' takes exactly fields ['E']; "
        "missing [], unexpected ['c']",
        id="adversarial_density",
    ),
    pytest.param(
        build_distribution, {"kind": "variance_counterexample", "E": 5, "V": 10},
        distx.variance_counterexample(5.0, 10.0),
        {"kind": "variance_counterexample", "V": 10},
        "distribution kind 'variance_counterexample' takes exactly fields ['E', 'V']; "
        "missing ['E'], unexpected []",
        {"kind": "variance_counterexample", "E": 5, "V": 10, "t": 1},
        "distribution kind 'variance_counterexample' takes exactly fields ['E', 'V']; "
        "missing [], unexpected ['t']",
        id="variance_counterexample",
    ),
    pytest.param(
        build_distribution, {"kind": "constant", "c": 7}, distx.constant(7.0),
        {"kind": "constant"},
        "distribution kind 'constant' takes exactly fields ['c']; missing ['c'], unexpected []",
        {"kind": "constant", "c": 7, "E": 7},
        "distribution kind 'constant' takes exactly fields ['c']; missing [], unexpected ['E']",
        id="constant",
    ),
    pytest.param(
        build_distribution, {"kind": "discrete", "atoms": [[2, 0.25], [0, 0.75]]},
        distx.discrete([(0.0, 0.75), (2.0, 0.25)]),
        {"kind": "discrete"},
        "distribution kind 'discrete' takes exactly fields ['atoms']; "
        "missing ['atoms'], unexpected []",
        {"kind": "discrete", "atoms": [[0, 1]], "E": 0},
        "distribution kind 'discrete' takes exactly fields ['atoms']; "
        "missing [], unexpected ['E']",
        id="discrete",
    ),
    pytest.param(
        build_schedule, {"kind": "single_threshold", "t": 2},
        schedules.single_threshold_schedule(2.0),
        {"kind": "single_threshold"}, "schedule kind 'single_threshold' needs field 't'",
        {"kind": "single_threshold", "t": 2, "EX": 1, "E": 1},
        "schedule kind 'single_threshold' does not take fields ['E', 'EX']",
        id="single_threshold",
    ),
    pytest.param(
        build_schedule, {"kind": "fixed", "EX": 4}, schedules.fixed_schedule(4.0),
        {"kind": "fixed"}, "schedule kind 'fixed' needs field 'EX'",
        {"kind": "fixed", "EX": 4, "t": 1}, "schedule kind 'fixed' does not take fields ['t']",
        id="fixed",
    ),
    pytest.param(
        build_schedule, {"kind": "two_threshold", "EX": 4}, schedules.two_threshold_schedule(4.0),
        {"kind": "two_threshold"}, "schedule kind 'two_threshold' needs field 'EX'",
        {"kind": "two_threshold", "E": 4},
        "schedule kind 'two_threshold' does not take fields ['E']",
        id="two_threshold",
    ),
    pytest.param(
        build_schedule, {"kind": "specific_E", "E": 6}, schedules.specific_e_schedule(6.0),
        {"kind": "specific_E"}, "schedule kind 'specific_E' needs field 'E'",
        {"kind": "specific_E", "E": 6, "EX": 6},
        "schedule kind 'specific_E' does not take fields ['EX']",
        id="specific_E",
    ),
    pytest.param(
        build_schedule, {"kind": "universal"}, schedules.universal_schedule(),
        None, None,
        {"kind": "universal", "unit": 1}, "schedule kind 'universal' does not take fields ['unit']",
        id="universal",
    ),
    pytest.param(
        build_schedule, {"kind": "luby", "unit": 2}, schedules.luby_schedule(2.0),
        {"kind": "luby"}, "schedule kind 'luby' needs field 'unit'",
        {"kind": "luby", "unit": 2, "param": 1},
        "schedule kind 'luby' does not take fields ['param']",
        id="luby",
    ),
]


@pytest.mark.parametrize("build, spec, built, short, short_msg, long, long_msg", CASES)
def test_every_spec_kind_builds_its_constructor_and_refuses_bad_fields(
    build, spec, built, short, short_msg, long, long_msg
):
    # repr, not ==: repr also tells 1 from 1.0 and 0.0 from -0.0
    assert repr(build(spec)) == repr(built)
    if short is not None:
        with pytest.raises(ValueError) as exc:
            build(short)
        assert str(exc.value) == short_msg
    with pytest.raises(ValueError) as exc:
        build(long)
    assert str(exc.value) == long_msg
    what = "distribution" if build is build_distribution else "schedule"
    for kind in (spec["kind"].upper(), [spec["kind"]]):
        with pytest.raises(ValueError) as exc:
            build({**spec, "kind": kind})
        assert str(exc.value) == f"unknown {what} kind {kind!r}"


@pytest.mark.parametrize("build, what", [(build_distribution, "distribution"),
                                         (build_schedule, "schedule")])
def test_a_spec_that_is_not_a_dict_is_refused(build, what):
    with pytest.raises(ValueError) as exc:
        build([{"kind": "constant", "c": 1}])
    assert str(exc.value) == f"{what} spec must be a dict, got list"


def test_distribution_field_errors_do_not_depend_on_the_hash_seed():
    code = (
        "from vegas_restart.distx import build_distribution\n"
        "try:\n"
        "    build_distribution({'kind': 'two_point', 'E': 4, 't': 2, 'V': 3, 'c': 1})\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    texts = [
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("1", "2")
    ]
    assert texts == 2 * [
        "distribution kind 'two_point' takes exactly fields ['E']; "
        "missing [], unexpected ['V', 'c', 't']\n"
    ]


# A valid spec of each distribution kind.  Each numeric field is a key, or
# for discrete an (atom, slot) pair of the second atom's position and weight.
_BASE_SPECS = {
    "two_point": {"E": 4.0},
    "fixed_t_counterexample": {"E": 5.0, "t": 10.0},
    "adversarial_density": {"E": 5.0},
    "variance_counterexample": {"E": 5.0, "V": 10.0},
    "constant": {"c": 1.0},
    "discrete": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
}
_NUMERIC_FIELDS = [
    (kind, field)
    for kind, (_, names) in distx._SPEC_KINDS.items()
    for field in ([(1, 0), (1, 1)] if kind == "discrete" else names)
]
_EDGE_VALUES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, 5e-324, 1e-300,
                745.0, 800.0)


@pytest.mark.parametrize("value", _EDGE_VALUES, ids=repr)
@pytest.mark.parametrize("kind, field", _NUMERIC_FIELDS, ids=str)
def test_edge_values_are_refused_or_build_a_finite_distribution(kind, field, value):
    spec = {"kind": kind, **_BASE_SPECS[kind]}
    if kind == "discrete":
        atoms = [list(atom) for atom in spec["atoms"]]
        atoms[field[0]][field[1]] = value
        spec["atoms"] = atoms
    else:
        spec[field] = value
    try:
        dist = build_distribution(spec)
    except ValueError:
        return
    assert all(math.isfinite(x) for x, _ in dist.atoms), dist
    assert all(p > 0.0 for _, p in dist.atoms), dist
    assert math.isfinite(distx.support_max(dist)), dist
    assert math.isfinite(distx.expectation(dist)), dist
