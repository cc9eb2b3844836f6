import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vegas_restart import analysis, cli, distx, schedules, starfn
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
        ("caps", {"max_total_cost": None}),
        ("caps", {"max_total_cost": math.nan}),
        ("caps", {"max_total_cost": 0.0}),
    ]:
        bad = write_config(tmp_path, {**BASIC, field: value}, name="badvalue.json")
        for command in ("analyze", "simulate"):
            assert main([command, "--config", bad]) == 2, (field, value, command)
    capsys.readouterr()


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
    # An atom with probability 1e-18 leaves the per-cycle survival product
    # numerically at 1 although success has positive probability; the oracle
    # refuses to guess and the command maps that to exit 3.
    cfg = write_config(
        tmp_path,
        {
            "distribution": {"kind": "discrete", "atoms": [[0.0, 1e-18], [1.0, 1.0 - 1e-18]]},
            "law": "deterministic",
            "schedule": {"kind": "single_threshold", "t": 0},
        },
    )
    assert main(["analyze", "--config", cfg]) == 3
    capsys.readouterr()


def test_simulate_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BASIC)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["simulate", "--config", cfg, "--out", out1]) == 0
    assert main(["simulate", "--config", cfg, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    row = read_rows(out1)[0]
    assert abs(float(row["mc_mean"]) - 9.0) <= 5.0 * float(row["mc_std_error"])


def test_simulate_worker_env_does_not_change_bytes(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, BASIC)
    out1, out2 = str(tmp_path / "w1.csv"), str(tmp_path / "w4.csv")
    monkeypatch.setenv("VEGAS_RESTART_THREADS", "1")
    assert main(["simulate", "--config", cfg, "--out", out1]) == 0
    monkeypatch.setenv("VEGAS_RESTART_THREADS", "4")
    assert main(["simulate", "--config", cfg, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_simulate_bad_worker_env_is_config_error(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, BASIC)
    monkeypatch.setenv("VEGAS_RESTART_THREADS", "abc")
    assert main(["simulate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and "VEGAS_RESTART_THREADS" in captured.err


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
        },
    )
    assert main(["simulate", "--config", cfg]) == 5
    captured = capsys.readouterr()
    row = list(csv.DictReader(captured.out.splitlines()))[0]
    assert int(row["n_capped"]) == 20


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
    "extra",
    [
        ["--schedules", "fixed", "--e-step", "0"],
        ["--schedules", "fixed", "--e-step=-1"],
        ["--schedules", "fixed", "--eps-tail", "0"],
        ["--schedules", "fixed", "--eps-tail=-1e-4"],
        ["--schedules", "fixed:7"],
        ["--schedules", "fixed", "--e-start", "nan"],
        ["--schedules", "fixed", "--e-stop", "nan"],
        ["--schedules", "fixed", "--eps-tail", "inf"],
        ["--law", "geometric", "--schedules", "fixed", "--eps-tail", "inf"],
    ],
)
def test_sweep_bad_arguments_are_config_errors(extra, capsys):
    argv = ["sweep", "--family", "two_point", "--e-start", "5", "--e-stop", "6"]
    assert main(argv + extra) == 2
    assert "config error" in capsys.readouterr().err


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
