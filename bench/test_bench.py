"""Tests of the benchmark itself.  Run with: python -m pytest bench"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from vegas_restart import analysis, cli, distx, engine, schedules  # noqa: E402
from vegas_restart.distx import RuntimeModel  # noqa: E402


def _library_calls():
    """Calls through every wrapped name, returning comparable results."""
    out = []
    model = RuntimeModel(distx.two_point(4.0), "geometric")
    out.append(analysis.analytic_cost(model, schedules.universal_schedule()))
    adv = RuntimeModel(distx.adversarial_density(6.0), "geometric")
    out.append(analysis.analytic_cost(adv, schedules.two_threshold_schedule(6.0)))
    out.append(analysis.block_success_prob(model, 5.0))
    out.append(engine.mc_expected_cost(engine.SamplerProcess(model), schedules.universal_schedule(),
                                       trials=200, seed=3))
    out.append(engine.mc_expected_cost(engine.bitstring_guess_process(6),
                                       schedules.fixed_schedule(6 * math.log(2.0)),
                                       trials=50, seed=4))
    try:
        analysis.analytic_cost(RuntimeModel(distx.two_point(16.0), "deterministic"),
                               schedules.luby_schedule(1.0), attempt_cap=2000)
    except analysis.TailNotConvergent as exc:
        out.append(("raised", type(exc), str(exc)))
    return out


def test_wrappers_are_transparent(tmp_path):
    originals = {
        "cli.main": cli.main,
        "engine.stream_key": engine.stream_key,
        "analysis.runtime_stats": analysis.runtime_stats,
        "distx.quad": distx.quad,
    }
    plain = _library_calls()
    res_plain = workloads.run_cli(["verify", "--scope", "lemma9"], str(tmp_path / "v.csv"))
    instr = tracing.Instrumentation(tracing.Tracer())
    with instr:
        assert cli.main is not originals["cli.main"]
        traced = _library_calls()
        res_traced = workloads.run_cli(["verify", "--scope", "lemma9"], str(tmp_path / "v.csv"))
    assert traced == plain
    assert res_traced == res_plain
    assert cli.main is originals["cli.main"]
    assert engine.stream_key is originals["engine.stream_key"]
    assert analysis.runtime_stats is originals["analysis.runtime_stats"]
    assert distx.quad is originals["distx.quad"]
    m = instr.metrics()
    assert m["distx.quad.calls"] > 0 and m["streams.stream_key.calls"] > 0
    assert m["engine.advance.steps"] > 0 and m["verify.rows"] > 0
    assert m["cli.main.calls"] == 1


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    inner = t.wrap("inner", lambda: sum(range(20000)))
    outer = t.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    self_t, incl = t.self_times(), t.inclusive_times()
    assert t.calls() == {"inner": 3, "outer": 1}
    assert 0.0 < self_t["outer"] < incl["outer"]
    assert self_t["outer"] + self_t["inner"] == pytest.approx(incl["outer"], rel=1e-9)


def test_seed_changes_mc_seeds_and_oracle_grid(tmp_path):
    built = {}
    for seed in (1, 2):
        for name in ("mc_sampler", "mc_stepped", "oracle"):
            d = tmp_path / f"{name}{seed}"
            d.mkdir()
            built[name, seed] = workloads.build(name, seed, str(d))
    for name in ("mc_sampler", "mc_stepped"):
        s1, s2 = built[name, 1].inputs["mc_seeds"], built[name, 2].inputs["mc_seeds"]
        assert len(s1) == len(s2) and set(s1).isdisjoint(s2)
    g1, g2 = built["oracle", 1].inputs["adversarial_E"], built["oracle", 2].inputs["adversarial_E"]
    assert len(g1) == len(g2) == workloads.ADV_CELLS
    assert all(a != b for a, b in zip(g1, g2))
    again = tmp_path / "again"
    again.mkdir()
    assert workloads.build("oracle", 1, str(again)).inputs == built["oracle", 1].inputs


def test_percentile_rule_leaves_ten_beyond_p95(tmp_path):
    assert worker.percentile(list(range(1, 101)), 95.0) == 95
    assert worker.beyond(list(range(1, 101)), 95.0) == 5
    wl = workloads.build("oracle", 7, str(tmp_path))
    n = sum(op.latency for op in wl.ops)
    assert worker.beyond([float(i) for i in range(n)], 95.0) >= 10


def _fake_op(name, verdict):
    return workloads.Op(name=name, group="other", call=lambda: name, check=lambda out: verdict)


def test_failed_op_counts_in_failed_frac():
    ops = [
        _fake_op("good", workloads.OK),
        _fake_op("refused", workloads.Verdict("refused", "no answer")),
        _fake_op("good2", workloads.OK),
        _fake_op("wrong", workloads.Verdict("wrong", "bad answer")),
    ]
    plain, traced, _ = worker.measure(ops[:3], 0.0)
    tally = worker.evaluate(ops[:3], plain, traced)
    assert (tally["attempted"], tally["failed"], tally["correct"]) == (3, 1, True)
    assert [f["op"] for f in tally["failures"]] == ["refused"]
    plain, traced, _ = worker.measure(ops, 0.0)
    tally = worker.evaluate(ops, plain, traced)
    assert (tally["attempted"], tally["failed"], tally["correct"]) == (4, 2, False)


def test_raising_op_is_failed_not_fatal():
    def boom():
        raise ValueError("boom")

    ops = [workloads.Op(name="boom", group="other", call=boom, check=lambda out: workloads.OK)]
    plain, traced, _ = worker.measure(ops, 0.0)
    tally = worker.evaluate(ops, plain, traced)
    assert tally["failed"] == 1 and tally["failures"][0]["kind"] == "refused"


def test_closed_form_tolerance_accepts_oracle_on_near_certain_failure():
    for p in (1e-6, 1e-10):
        dist = distx.discrete([(0.0, p), (50.0, 1.0 - p)])
        model = RuntimeModel(dist, "deterministic")
        sched = schedules.single_threshold_schedule(0.0)
        est = analysis.analytic_cost(model, sched)
        cf, p_succ = workloads.closed_form_single_budget(model, sched.cycle[0][1])
        assert cf == pytest.approx((2.0 - p) / p, rel=1e-12)
        assert workloads.check_closed_form(est.expected_cost, est.tail_bound, cf, p_succ).ok
        assert not workloads.check_closed_form(cf * 1.01, 0.0, cf, p_succ).ok


def test_benchmark_json_names_every_measured_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    instr = tracing.Instrumentation(tracing.Tracer())
    layer_names = set(instr.metrics()) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in names and names <= {"setup_s", "wall_s", "wall_best_s", "peak_rss_mb"}
