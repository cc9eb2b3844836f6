import csv
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from vegas_restart import analysis, cli, distx, schedules, starfn, verify
from vegas_restart.cli import RESULT_COLUMNS, main

SRC = Path(__file__).resolve().parent.parent / "src"


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


BASIC = {
    "distribution": {"kind": "two_point", "E": 4},
    "law": "deterministic",
    "schedule": {"kind": "single_threshold", "t": 0},
    "trials": 5000,
    "seed": 42,
}


def test_analyze_basic_row(tmp_path, capsys):
    cfg = write_config(tmp_path, BASIC)
    assert main(["analyze", "--config", cfg]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(out.splitlines()))
    assert [c for c in rows[0]] == RESULT_COLUMNS
    row = rows[0]
    assert float(row["analytic_cost"]) == pytest.approx(9.0, abs=1e-8)
    assert float(row["EX"]) == 4.0
    assert float(row["ratio"]) == pytest.approx(9.0 / math.exp(4.0), rel=1e-6)
    assert row["verdicts"] == "lemma3:ok;lemma5:ok;lemma9:ok;cor10:ok"


def _zoo_spec(dist):
    params = dict(dist.params)
    if dist.kind == "constant":
        return {"kind": "constant", "c": params["c"]}
    return {"kind": dist.kind, **params}


def test_analyze_verdicts_agree_with_the_checkers(tmp_path, capsys):
    models = distx.zoo_models()
    configs = [
        {"distribution": _zoo_spec(m.dist), "law": m.law, "schedule": {"kind": "fixed"},
         "mode": "analyze"}
        for m in models
    ]
    assert main(["analyze", "--config", write_config(tmp_path, configs)]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    verdicts = {(row["distribution"], row["law"]): row["verdicts"] for row in rows}
    assert set(verdicts) == {(m.dist.label, m.law) for m in models}
    for model in models:
        dist = model.dist
        ex = distx.expectation(dist)
        e = max(ex, 5.0)
        expected = {
            "lemma3": analysis.find_threshold_witness(dist).holds,
            "lemma5": analysis.check_two_phase_coverage(dist).holds if ex >= 1.0 else None,
            "lemma9": analysis.check_block_coverage(dist, e).holds,
            "cor10": analysis.check_block_success(model, e).holds,
        }
        tokens = dict(t.split(":") for t in verdicts[(dist.label, model.law)].split(";"))
        assert list(tokens) == list(expected)
        for name, holds in expected.items():
            want = "skip" if holds is None else ("ok" if holds else "FAIL")
            assert tokens[name] == want, (model.label, name)
        assert (tokens["lemma5"] == "skip") == (ex < 1.0), model.label


def test_analyze_cor10_skips_past_the_block_guard(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "distribution": {"kind": "constant", "c": 285},
            "law": "deterministic",
            "schedule": {"kind": "single_threshold", "t": 286},
            "mode": "analyze",
        },
    )
    assert main(["analyze", "--config", cfg]) == 0
    row = list(csv.DictReader(capsys.readouterr().out.splitlines()))[0]
    assert float(row["analytic_cost"]) == pytest.approx(math.exp(285.0), rel=1e-12)
    assert row["verdicts"] == "lemma3:ok;lemma5:ok;lemma9:ok;cor10:skip"


def test_analyze_infinite_cost_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "distribution": {"kind": "constant", "c": 10},
            "law": "deterministic",
            "schedule": {"kind": "single_threshold", "t": 3},
        },
    )
    assert main(["analyze", "--config", cfg]) == 4
    captured = capsys.readouterr()
    assert "infinite expected cost" in captured.err
    row = list(csv.DictReader(captured.out.splitlines()))[0]
    assert row["analytic_cost"] == "inf"


def test_analyze_infinite_ok_in_pure_analyze_mode(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "distribution": {"kind": "constant", "c": 10},
            "law": "deterministic",
            "schedule": {"kind": "single_threshold", "t": 3},
            "mode": "analyze",
        },
    )
    assert main(["analyze", "--config", cfg]) == 0


def test_analyze_universal_row_has_ratio(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "distribution": {"kind": "two_point", "E": 4},
            "law": "deterministic",
            "schedule": {"kind": "universal"},
        },
    )
    assert main(["analyze", "--config", cfg]) == 0
    row = list(csv.DictReader(capsys.readouterr().out.splitlines()))[0]
    assert math.isfinite(float(row["analytic_cost"]))
    assert float(row["ratio"]) > 0.0


def test_config_validation_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, {**BASIC, "bogus": 1})
    assert main(["analyze", "--config", bad]) == 2
    bad = write_config(tmp_path, {"law": "deterministic"}, name="missing.json")
    assert main(["analyze", "--config", bad]) == 2
    notjson = tmp_path / "broken.json"
    notjson.write_text("{nope")
    assert main(["analyze", "--config", str(notjson)]) == 2
    bad = write_config(tmp_path, {**BASIC, "law": "quantum"}, name="badlaw.json")
    assert main(["analyze", "--config", bad]) == 2
    for field, value in [
        ("trials", "many"),
        ("trials", None),
        ("seed", None),
        ("seed", "x"),
        ("eps_tail", "tiny"),
        ("eps_tail", None),
        ("eps_tail", 0.0),
        ("eps_tail", -1e-10),
        ("eps_tail", math.inf),
        ("eps_tail", math.nan),
        ("cap_trip_threshold", "half"),
        ("cap_trip_threshold", math.nan),
        ("cap_trip_threshold", math.inf),
        ("cap_trip_threshold", -0.5),
        ("caps", {"max_attempts": "lots"}),
        ("caps", {"max_attempts": 0}),
        ("caps", {"max_attempts": -1}),
        ("caps", {"max_total_cost": None}),
        ("caps", {"max_total_cost": math.nan}),
        ("caps", {"max_total_cost": 0.0}),
        ("seed", 1.5),
        ("seed", True),
        ("trials", 500.9),
        ("caps", {"max_attempts": 2.5}),
        ("eps_tail", True),
        ("distribution", {"kind": "two_point", "E": True}),
        ("schedule", {"kind": "luby", "unit": True}),
        ("distribution", {"kind": "discrete", "atoms": [[True, 0.5], [0, 0.5]]}),
    ]:
        bad = write_config(tmp_path, {**BASIC, field: value}, name="badvalue.json")
        for command in ("analyze", "simulate"):
            assert main([command, "--config", bad]) == 2, (field, value, command)
    capsys.readouterr()
    caps_err = "caps takes fields ['max_attempts', 'max_total_cost']"
    for obj, err in [
        ([BASIC, 5], "config entries must be objects, got int"),
        ({**BASIC, "mode": "fast"},
         "mode must be one of ('analyze', 'simulate', 'both'), got 'fast'"),
        ({**BASIC, "caps": 5}, caps_err),
        ({**BASIC, "caps": {"max_tries": 1}}, caps_err),
        ({**BASIC, "distribution": {"kind": "discrete", "atoms": [[True, 0.5], [0, 0.5]]}},
         "distribution field 'atoms' holds a boolean, not a number"),
    ]:
        bad = write_config(tmp_path, obj, name="badentry.json")
        for command in ("analyze", "simulate"):
            assert main([command, "--config", bad]) == 2, (obj, command)
            assert capsys.readouterr().err == f"config error: {err}\n"
    bad = write_config(tmp_path, {**BASIC, "trials": 500.9}, name="badvalue.json")
    assert main(["simulate", "--config", bad]) == 2
    assert capsys.readouterr().err == "config error: trials must be a whole number, got 500.9\n"
    # A whole float and a numeric string convert exactly.
    for field, value in [("trials", 1e3), ("seed", "7")]:
        good = write_config(tmp_path, {**BASIC, field: value}, name="goodvalue.json")
        assert main(["analyze", "--config", good]) == 0, (field, value)
        row = next(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert row[field] == str(int(value))


@pytest.mark.parametrize(
    "field, spec, err",
    [
        ("distribution", {"kind": "two_point", "E": None},
         "bad value for distribution kind 'two_point': "),
        ("distribution", {"kind": "two_point", "E": 10**400},
         "bad value for distribution kind 'two_point': "),
        ("distribution", {"kind": "discrete", "atoms": 5},
         "bad value for distribution kind 'discrete': "),
        ("schedule", {"kind": "luby", "unit": [1]}, "bad value for schedule kind 'luby': "),
        ("schedule", {"kind": ["fixed"]}, "unknown schedule kind ['fixed']\n"),
    ],
)
def test_wrong_typed_spec_values_are_config_errors(tmp_path, capsys, field, spec, err):
    cfg = write_config(tmp_path, {**BASIC, field: spec})
    assert main(["analyze", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: " + err)


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_seed_and_trials_flags_override_the_config(tmp_path, capsys, command):
    cfg = write_config(tmp_path, BASIC)
    assert main([command, "--config", cfg, "--seed", "7", "--trials", "50"]) == 0
    row = next(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert (row["seed"], row["trials"]) == ("7", "50")


def test_numbers_reads_the_int_and_float_fields_of_each_record():
    assert cli._numbers({}, cli.ExperimentConfig) == {
        "trials": 100_000, "seed": 42, "eps_tail": 1e-10, "cap_trip_threshold": 0.0,
    }
    assert cli._numbers({}, cli.Caps) == {"max_attempts": 10_000_000, "max_total_cost": 1e300}
    read = cli._numbers({"trials": 7.0, "seed": "3", "eps_tail": 1, "cap_trip_threshold": 0},
                        cli.ExperimentConfig)
    assert [type(read[name]) for name in ("trials", "seed", "eps_tail", "cap_trip_threshold")] \
        == [int, int, float, float]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--config", "CONFIG"],
        ["simulate", "--config", "CONFIG", "--trials", "50"],
        ["verify", "--scope", "starfn"],
        ["sweep", "--family", "two_point", "--e-start", "5", "--e-stop", "6",
         "--schedules", "fixed"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_is_a_config_error(tmp_path, capsys, argv):
    argv = [write_config(tmp_path, BASIC) if a == "CONFIG" else a for a in argv]
    out = tmp_path / "missing" / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write {out}: ")
    assert "No such file or directory" in captured.err


def test_config_list_and_jsonl(tmp_path, capsys):
    cfg = write_config(tmp_path, [BASIC, {**BASIC, "law": "geometric"}])
    assert main(["analyze", "--config", cfg, "--format", "jsonl"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == 2
    assert {line["law"] for line in lines} == {"deterministic", "geometric"}


def test_analyze_and_verify_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BASIC)
    out1, out2 = str(tmp_path / "a1.csv"), str(tmp_path / "a2.csv")
    assert main(["analyze", "--config", cfg, "--out", out1]) == 0
    assert main(["analyze", "--config", cfg, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    v1, v2 = str(tmp_path / "v1.csv"), str(tmp_path / "v2.csv")
    assert main(["verify", "--scope", "lemma3", "--out", v1]) == 0
    assert main(["verify", "--scope", "lemma3", "--out", v2]) == 0
    assert open(v1, "rb").read() == open(v2, "rb").read()


def test_analyze_uncertifiable_tail_exit_code(tmp_path, capsys):
    # An atom with probability p = 1e-18 leaves the failure probability
    # 1 - p at exactly 1.  The oracle once refused this input ("cycle
    # survival is numerically 1") and the command exited with 3:
    #     assert main(["analyze", "--config", cfg]) == 3
    # The closed form takes p itself.  At budget 2 the atom at 0 finishes and
    # the one at 1 is charged 2, so the cost is (p + 2(1 - p)) / p.
    cfg = write_config(
        tmp_path,
        {
            "distribution": {"kind": "discrete", "atoms": [[0.0, 1e-18], [1.0, 1.0 - 1e-18]]},
            "law": "deterministic",
            "schedule": {"kind": "single_threshold", "t": 0},
        },
    )
    assert main(["analyze", "--config", cfg]) == 0
    row = next(csv.DictReader(capsys.readouterr().out.splitlines()))
    p = Fraction(1e-18)
    exact = (p + 2 * Fraction(1.0 - 1e-18)) / p
    assert abs(Fraction(row["analytic_cost"]) / exact - 1) <= 4 * 2.0**-53
    assert row["tail_bound"] == "0.0"


def test_simulate_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BASIC)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["simulate", "--config", cfg, "--out", out1]) == 0
    assert main(["simulate", "--config", cfg, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    row = read_rows(out1)[0]
    assert abs(float(row["mc_mean"]) - 9.0) <= 5.0 * float(row["mc_std_error"])


def test_simulate_worker_env_does_not_change_bytes(tmp_path, monkeypatch):
    # The bench harness still sets VEGAS_RESTART_THREADS; nothing reads it.
    cfg = write_config(tmp_path, BASIC)
    outputs = []
    for value in ("1", "4", "abc"):
        out = str(tmp_path / f"w{value}.csv")
        monkeypatch.setenv("VEGAS_RESTART_THREADS", value)
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        outputs.append(open(out, "rb").read())
    assert outputs[0] == outputs[1] == outputs[2]


def test_simulate_degenerate_process(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "distribution": {"kind": "constant", "c": 0},
            "law": "deterministic",
            "schedule": {"kind": "universal"},
            "trials": 100,
        },
    )
    out = str(tmp_path / "deg.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    row = read_rows(out)[0]
    assert float(row["mc_mean"]) == 1.0
    assert float(row["mc_std_error"]) == 0.0


def test_simulate_cap_trips_exit_five(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "distribution": {"kind": "constant", "c": 10},
            "law": "deterministic",
            "schedule": {"kind": "single_threshold", "t": 3},
            "trials": 20,
            "caps": {"max_attempts": 5},
            "mode": "simulate",
        },
    )
    assert main(["simulate", "--config", cfg]) == 5
    captured = capsys.readouterr()
    row = list(csv.DictReader(captured.out.splitlines()))[0]
    assert int(row["n_capped"]) == 20


# A trial that cannot finish stops at 1000 attempts, so that a command that
# runs such trials ends fast, with exit 5.
_FAST_CAPS = {"trials": 20, "caps": {"max_attempts": 1000}}
# Cycles none of whose budgets can finish a run: 2/e < 1 gives a geometric
# run no whole step, and 2 is below e and e^2.  At the default caps each
# trial would run to 10**7 attempts.
_INFINITE_CYCLES = [
    {"distribution": {"kind": "constant", "c": 1}, "law": "geometric",
     "schedule": {"kind": "single_threshold", "t": -1}},
    {"distribution": {"kind": "discrete", "atoms": [[1, 0.5], [2, 0.5]]},
     "law": "deterministic", "schedule": {"kind": "single_threshold", "t": 0}},
]


@pytest.mark.parametrize("config", _INFINITE_CYCLES)
def test_simulate_prices_an_infinite_cycle_before_its_trials(tmp_path, capsys, config):
    config = {**config, **_FAST_CAPS}
    cfg = write_config(tmp_path, config)
    assert main(["simulate", "--config", cfg]) == 4
    captured = capsys.readouterr()
    (row,) = csv.DictReader(captured.out.splitlines())
    assert [row[col] for col in ("mc_mean", "mc_std_error", "n_capped")] == ["", "", ""]
    assert captured.err == "error: infinite expected cost\n"
    # Mode "simulate" still runs the trials, each to its cap.
    cfg = write_config(tmp_path, {**config, "mode": "simulate"})
    assert main(["simulate", "--config", cfg]) == 5
    (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
    assert int(row["n_capped"]) == 20


def test_simulate_exit_four_wins_over_five_after_every_row(tmp_path, capsys):
    capped = {"distribution": {"kind": "constant", "c": 10}, "law": "deterministic",
              "schedule": {"kind": "single_threshold", "t": 3}, "trials": 20,
              "caps": {"max_attempts": 5}, "mode": "simulate"}
    cfg = write_config(tmp_path, [{**_INFINITE_CYCLES[1], **_FAST_CAPS}, capped])
    assert main(["simulate", "--config", cfg]) == 4
    captured = capsys.readouterr()
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert [(row["family"], row["n_capped"]) for row in rows] == [("constant", "20"),
                                                                  ("discrete", "")]
    assert captured.err == "error: infinite expected cost\n"


def test_simulate_refuses_an_untrusted_closed_form_before_its_trials(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"distribution": {"kind": "discrete", "atoms": [[0.0, 1e-310], [50.0, 1.0 - 1e-310]]},
         "law": "deterministic", "schedule": {"kind": "single_threshold", "t": 0}, **_FAST_CAPS},
    )
    assert main(["simulate", "--config", cfg]) == 3
    assert "overflows double range" in capsys.readouterr().err


def test_simulate_counts_trials_past_universals_last_block_as_capped(
    tmp_path, capsys, monkeypatch
):
    # Two blocks stand in for the 276 that take minutes a trial to run out.
    monkeypatch.setattr(schedules, "_UNIVERSAL_ES", range(5, 7))
    cfg = write_config(
        tmp_path,
        {
            "distribution": {"kind": "constant", "c": 295},
            "law": "deterministic",
            "schedule": {"kind": "universal"},
            "trials": 4,
            "caps": {"max_attempts": 20_000_000},
        },
    )
    assert main(["simulate", "--config", cfg]) == 5
    captured = capsys.readouterr()
    assert captured.err == "error: cap-trip fraction exceeded the configured threshold\n"
    assert int(next(csv.DictReader(captured.out.splitlines()))["n_capped"]) == 4


def test_verify_scopes_pass(tmp_path, capsys):
    for scope in ("starfn", "lemma3", "lemma5", "lemma9", "cor10"):
        assert main(["verify", "--scope", scope, "--out", str(tmp_path / f"{scope}.csv")]) == 0
        err = capsys.readouterr().err
        assert "checks hold" in err
    rows = read_rows(str(tmp_path / "lemma9.csv"))
    assert all(row["holds"] == "1" for row in rows)


@pytest.fixture
def fresh_budget_blocks():
    """Empty budget_block's cache, which is keyed on E alone, before and after."""
    schedules.budget_block.cache_clear()
    yield
    schedules.budget_block.cache_clear()


def test_verify_corrupted_shrink_constant_fails(fresh_budget_blocks, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(starfn, "SHRINK_FACTOR", 2.0)
    code = main(["verify", "--scope", "all", "--out", str(tmp_path / "bad.csv")])
    assert code == 1
    assert "FAILED" in capsys.readouterr().err


def test_verify_rejects_unknown_scope(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--scope", "everything"])
    capsys.readouterr()
    with pytest.raises(ValueError) as exc:
        verify.run_scope("bogus")
    assert str(exc.value) == f"unknown scope 'bogus'; choose from {verify.SCOPES}"


def test_sweep_two_point(tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert (
        main(
            [
                "sweep",
                "--family",
                "two_point",
                "--e-start",
                "5",
                "--e-stop",
                "8",
                "--schedules",
                "fixed,two_threshold,universal",
                "--out",
                out,
            ]
        )
        == 0
    )
    rows = read_rows(out)
    assert len(rows) == 12
    assert {row["schedule"].split("(")[0] for row in rows} == {
        "fixed",
        "two_threshold",
        "universal",
    }
    for row in rows:
        assert math.isfinite(float(row["excess_log_cost"]))


@pytest.mark.parametrize("family, start, stop, count", [("two_point", 5, 30, 2501),
                                                        ("constant", 0, 10, 1001)])
def test_sweep_grid_does_not_drift(capsys, family, start, stop, count):
    # E = start + k * step, not a running sum, which dropped E = 30 and
    # priced c = 9.999999999999831 as c = 10.
    assert main(["sweep", "--family", family, "--e-start", str(start), "--e-stop", str(stop),
                 "--e-step", "0.01", "--schedules", "fixed"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == count
    build = distx.two_point if family == "two_point" else distx.constant
    assert [float(row["EX"]) for row in rows] == [
        distx.expectation(build(start + k * 0.01)) for k in range(count)]
    assert float(rows[-1]["EX"]) == stop


def test_sweep_trap_family_with_threshold_expression(tmp_path):
    out = str(tmp_path / "trap.csv")
    assert (
        main(
            [
                "sweep",
                "--family",
                "fixed_t_counterexample",
                "--t",
                "2E",
                "--e-start",
                "20",
                "--e-stop",
                "20",
                "--schedules",
                "single_threshold:2E,universal",
                "--out",
                out,
            ]
        )
        == 0
    )
    rows = read_rows(out)
    costs = {row["schedule"].split("(")[0]: float(row["analytic_cost"]) for row in rows}
    assert costs["single_threshold"] / costs["universal"] > 1e9


@pytest.mark.parametrize(
    "t, threshold, dist_label, sched_label",
    [
        ("2E+1", "2E-1", "fixed_t_counterexample(E=5,t=11)", "single_threshold(t=9)"),
        ("2E", "0.5E+2", "fixed_t_counterexample(E=5,t=10)", "single_threshold(t=4.5)"),
        ("1e1", "-5", "fixed_t_counterexample(E=5,t=10)", "single_threshold(t=-5)"),
    ],
)
def test_sweep_threshold_expressions_with_a_factor_and_an_offset(
    capsys, t, threshold, dist_label, sched_label
):
    # "2E+1" fits the grammar in E (2 * 5 + 1), though float() reads it as 20.
    assert main(["sweep", "--family", "fixed_t_counterexample", "--t", t, "--e-start", "5",
                 "--e-stop", "5", "--schedules", f"single_threshold:{threshold}"]) == 0
    (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
    assert (row["distribution"], row["schedule"]) == (dist_label, sched_label)


def test_sweep_empty_schedules_is_config_error(capsys):
    assert (
        main(
            [
                "sweep",
                "--family",
                "two_point",
                "--e-start",
                "5",
                "--e-stop",
                "6",
                "--schedules",
                "",
            ]
        )
        == 2
    )
    capsys.readouterr()


@pytest.mark.parametrize(
    "extra, err",
    [
        (["--schedules", "fixed", "--e-step", "0"], "--e-step must be positive, got 0.0"),
        (["--schedules", "fixed", "--e-step=-1"], "--e-step must be positive, got -1.0"),
        (["--schedules", "fixed", "--eps-tail", "0"], "--eps-tail must be positive, got 0.0"),
        (["--schedules", "fixed", "--eps-tail=-1e-4"], "--eps-tail must be positive, got -0.0001"),
        (["--schedules", "fixed:7"], "schedule kind 'fixed' does not take fields ['param']"),
        (["--schedules", "fixed", "--e-start", "nan"], "sweep range must be finite, got nan to 6.0"),
        (["--schedules", "fixed", "--e-stop", "nan"], "sweep range must be finite, got 5.0 to nan"),
        (["--schedules", "fixed", "--eps-tail", "inf"], "--eps-tail must be finite, got inf"),
        (["--law", "geometric", "--schedules", "fixed", "--eps-tail", "inf"],
         "--eps-tail must be finite, got inf"),
        (["--schedules", "fixed", "--e-step", "1e-20"],
         "--e-step 1e-20 is too small to move E at 6.0"),
        (["--schedules", "single_threshold:2x"], "cannot parse threshold expression '2x'"),
        (["--schedules", "fixed", "--e-stop", "4"], "--e-stop must be >= --e-start"),
    ],
    ids=[f"extra{i}" for i in range(12)],
)
def test_sweep_bad_arguments_are_config_errors(extra, err, capsys):
    argv = ["sweep", "--family", "two_point", "--e-start", "5", "--e-stop", "6"]
    assert main(argv + extra) == 2
    assert capsys.readouterr().err == f"config error: {err}\n"


def test_sweep_luby_token_takes_an_optional_unit(capsys):
    argv = ["sweep", "--family", "two_point", "--e-start", "4", "--e-stop", "4"]
    assert main(argv + ["--schedules", "luby,luby:2", "--format", "jsonl"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["schedule"] for row in rows] == ["luby(unit=1)", "luby(unit=2)"]
    model = distx.RuntimeModel(distx.two_point(4.0), "deterministic")
    for row, unit in zip(rows, (1.0, 2.0)):
        est = analysis.analytic_cost(model, schedules.luby_schedule(unit))
        assert (row["analytic_cost"], row["tail_bound"]) == (est.expected_cost, est.tail_bound)


def test_sweep_refuses_too_many_points_before_any_work(capsys, monkeypatch):
    # 1e15 values of E: refused at once instead of running for hours.
    argv = ["sweep", "--family", "two_point", "--e-start", "5", "--e-stop", "6",
            "--schedules", "fixed"]
    start = time.perf_counter()
    assert main(argv + ["--e-step", "1e-15"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "more than 100000 values of E" in capsys.readouterr().err
    # floor((stop - start) / step) + 1 values: 3 pass at a cap of 3, 4 do not.
    monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 3)
    assert main(argv[:6] + ["7", "--schedules", "fixed"]) == 0
    assert main(argv[:6] + ["8", "--schedules", "fixed"]) == 2
    assert "more than 3 values of E" in capsys.readouterr().err


def test_sweep_range_guard_maps_to_config_error(capsys):
    assert (
        main(
            [
                "sweep",
                "--family",
                "two_point",
                "--e-start",
                "299",
                "--e-stop",
                "301",
                "--schedules",
                "fixed",
            ]
        )
        == 2
    )
    capsys.readouterr()


@pytest.mark.parametrize(
    "dist, law, t, reason",
    [
        ({"kind": "discrete", "atoms": [[0.0, 1e-310], [50.0, 1.0 - 1e-310]]}, "deterministic",
         0, "overflows double range"),
    ],
)
def test_analyze_untrusted_closed_form_exits_three(tmp_path, capsys, dist, law, t, reason):
    # A cyclic closed form past double range is refused by name.
    cfg = write_config(
        tmp_path,
        {"distribution": dist, "law": law, "schedule": {"kind": "single_threshold", "t": t}},
    )
    assert main(["analyze", "--config", cfg]) == 3
    assert reason in capsys.readouterr().err


def test_analyze_density_geometric_cycle_with_a_tiny_success_probability(tmp_path, capsys):
    # Its success probability is about 9.6e-25.  The oracle used to refuse it
    # with exit 3 ("numerical integration"), as 1 - q from a quadrature could
    # not resolve it; the closed form keeps p and prints the cost,
    # 5.19837778794628e24 by 50-digit mpmath.
    cfg = write_config(
        tmp_path,
        {"distribution": {"kind": "adversarial_density", "E": 60}, "law": "geometric",
         "schedule": {"kind": "single_threshold", "t": 1}, "mode": "analyze"},
    )
    out = tmp_path / "out.csv"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    (row,) = read_rows(out)
    assert float(row["tail_bound"]) == 0.0
    assert abs(float(row["analytic_cost"]) / 5.19837778794628e24 - 1.0) <= 4 * 2.0**-53


def test_analyze_uncoverable_universal_exits_three(tmp_path, capsys):
    # constant(295) needs escalation blocks past the range guard; the scan
    # exhausts its attempt budget first and reports an uncertifiable tail.
    cfg = write_config(
        tmp_path,
        {
            "distribution": {"kind": "constant", "c": 295},
            "law": "deterministic",
            "schedule": {"kind": "universal"},
            "mode": "analyze",
        },
    )
    assert main(["analyze", "--config", cfg]) == 3
    capsys.readouterr()


_NAN_T = {"kind": "fixed_t_counterexample", "E": 5, "t": math.nan}  # json.load parses NaN
_NAN_T_ERR = "config error: fixed_t_counterexample requires t >= E, got t=nan"


@pytest.mark.parametrize(
    "command, dist, err",
    [
        pytest.param("analyze", _NAN_T, _NAN_T_ERR, id="analyze-nan_t"),
        pytest.param("simulate", _NAN_T, _NAN_T_ERR, id="simulate-nan_t"),
        pytest.param("sweep", None, _NAN_T_ERR, id="sweep-nan_t"),
        pytest.param("analyze", {"kind": "variance_counterexample", "E": 800, "V": 1},
                     "config error: variance_counterexample requires E <= 150.0, got 800.0",
                     id="analyze-variance_E800"),
        pytest.param("analyze", {"kind": "variance_counterexample", "E": 1e-200, "V": 0},
                     "config error: variance_counterexample requires V > 0, got 0.0",
                     id="analyze-variance_V0"),
    ],
)
def test_distribution_parameters_past_their_guards_are_config_errors(
    tmp_path, capsys, command, dist, err
):
    # A NaN t would build atoms at NaN, E = 800 divide by an underflowed
    # E e^-E, and V = 0 at E = 1e-200 by V - E^2 e^-E = 0.  Runs on NaN
    # atoms never succeed, so the caps keep a simulation short should one
    # get past the guard.
    if command == "sweep":
        argv = ["sweep", "--family", "fixed_t_counterexample", "--e-start", "5",
                "--e-stop", "5", "--schedules", "fixed", "--t", "nan"]
    else:
        cfg = {**BASIC, "distribution": dist, "trials": 100, "caps": {"max_attempts": 100}}
        argv = [command, "--config", write_config(tmp_path, cfg)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(err)


def test_sweep_unknown_family(capsys):
    assert (
        main(
            [
                "sweep",
                "--family",
                "cauchy",
                "--e-start",
                "5",
                "--e-stop",
                "6",
                "--schedules",
                "fixed",
            ]
        )
        == 2
    )
    capsys.readouterr()


def test_simulate_trials_override_below_two_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASIC)
    assert main(["simulate", "--config", cfg, "--trials", "1"]) == 2
    assert "config error: trials must be >= 2, got 1" in capsys.readouterr().err
    bad = write_config(tmp_path, {**BASIC, "trials": 1}, name="one_trial.json")
    for command in ("analyze", "simulate"):
        assert main([command, "--config", bad]) == 2
    capsys.readouterr()


def test_demo_trials_below_two_is_a_config_error(capsys):
    assert main(["demo", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert "config error: trials must be >= 2, got 1" in captured.err
    assert captured.out == ""


def test_demo_passes(capsys):
    assert main(["demo", "--trials", "4000"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "vegas_restart", "verify", "--scope", "starfn"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0
    assert "47/47" in proc.stderr or "checks hold" in proc.stderr
