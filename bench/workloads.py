"""The benchmark's workloads: the ops each one runs and the check on each op.

Every workload is closed-loop with one client: ops run one after another,
each waiting for the previous one.  Inputs depend only on the workload seed.
An op has a timed ``call`` (the program call the user makes) and a ``check``
run afterwards on the call's result.  MC reference enclosures are computed
while the workload is built, so they count as set-up; the oracle checks call
the library after the timed phase.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from vegas_restart import analysis, cli, distx, engine, schedules, verify
from vegas_restart.distx import RuntimeModel

WORKLOADS = ("mc_sampler", "mc_stepped", "oracle")

# Criterion 8's oracle-vs-MC pairs (tests/test_acceptance.py, MC_PAIRS) as
# config specs, 1-5 attempts per trial; then the long-trial pairs: 11-17
# attempts with budget_block rebuilt on every trial, and about 9 attempts of
# the Luby sequence.  Each pair has the trial count at which the 5-SE check
# is reliable: variance_counterexample's mean is set by an atom of mass
# 1.15e-4 whose runs never finish, so it needs 1e5 trials (as in criterion 8)
# for that event to be seen at all; the others pass at 2000 trials with
# |z| < 3.5 over 40 seeds.
SAMPLER_PAIRS = (
    ({"kind": "two_point", "E": 4}, "deterministic", {"kind": "single_threshold", "t": 0}, 2000),
    ({"kind": "two_point", "E": 4}, "deterministic", {"kind": "fixed", "EX": 4}, 2000),
    ({"kind": "two_point", "E": 4}, "geometric", {"kind": "single_threshold", "t": 0}, 2000),
    ({"kind": "two_point", "E": 4}, "deterministic", {"kind": "two_threshold", "EX": 4}, 2000),
    ({"kind": "two_point", "E": 4}, "deterministic", {"kind": "universal"}, 2000),
    ({"kind": "two_point", "E": 4}, "geometric", {"kind": "universal"}, 2000),
    ({"kind": "constant", "c": 0}, "deterministic", {"kind": "universal"}, 2000),
    ({"kind": "constant", "c": 1}, "geometric", {"kind": "single_threshold", "t": 2}, 2000),
    ({"kind": "fixed_t_counterexample", "E": 5, "t": 10}, "deterministic",
     {"kind": "single_threshold", "t": 10}, 2000),
    ({"kind": "adversarial_density", "E": 5}, "deterministic", {"kind": "fixed"}, 2000),
    ({"kind": "adversarial_density", "E": 5}, "geometric", {"kind": "two_threshold"}, 2000),
    ({"kind": "variance_counterexample", "E": 5, "V": 10}, "deterministic",
     {"kind": "specific_E", "E": 5}, 100_000),
    ({"kind": "two_point", "E": 16}, "deterministic", {"kind": "universal"}, 2000),
    ({"kind": "two_point", "E": 16}, "geometric", {"kind": "universal"}, 2000),
    ({"kind": "two_point", "E": 8}, "geometric", {"kind": "luby", "unit": 1}, 2000),
)

STEPPED_DEMO_TRIALS = 3_000
STEPPED_COIN_TRIALS = 6_000
STEPPED_BITSTRING_TRIALS = 3_000

ORACLE_SCHEDULES = ("fixed", "two_threshold", "specific_E", "universal")
# Zoo models (index into distx.zoo_models()) whose luby(1) scan certifies
# within the default attempt_cap of 10**7 in under 0.5 s (up to 65535
# groups).  Left out: the scans that exhaust the cap (about a minute each);
# fixed_t_counterexample(E=10, t=15)|geometric, which certifies after 4.2
# million attempts (about 30 s); and the 0.7-4 s scans of
# fixed_t_counterexample(E=10, t=10 and 11) and adversarial_density(10),
# which would make one oracle pass 25-30 s long, so that a run holds a
# single pass (see README, "Timing on a shared host").
LUBY_CERTIFIED = (
    0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15, 16, 17, 18, 19,
    26, 27, 34, 35, 36, 37, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51,
)
LUBY_CAP_MODEL = ({"kind": "two_point", "E": 16}, "deterministic")
LUBY_SMALL_CAP = 100_000
# Adversarial-density grid: [ADV_LO, ADV_HI] cut into ADV_CELLS equal cells,
# one E drawn uniformly inside each cell from the seed.  The cell count sizes
# the quad-backed share of the oracle pass against the Luby scans.
ADV_LO, ADV_HI, ADV_CELLS = 5.0, 25.0, 50
NEAR_CERTAIN_PS = (1e-6, 1e-10, 1e-17)
EXPECTED_REFUSALS = (({"kind": "constant", "c": 295}, "deterministic", {"kind": "universal"}),)
# The README's two sweep commands, plus the first one under the geometric law.
SWEEPS = (
    ["--family", "two_point", "--e-start", "5", "--e-stop", "30",
     "--schedules", "fixed,two_threshold,universal"],
    ["--family", "fixed_t_counterexample", "--t", "2E", "--e-start", "5", "--e-stop", "20",
     "--schedules", "single_threshold:2E,universal"],
    ["--family", "two_point", "--e-start", "5", "--e-stop", "30",
     "--schedules", "fixed,two_threshold,universal", "--law", "geometric"],
)

# Criterion 8's float cushion for zero-variance pairs whose exact mean is
# irrational: the MC mean is a sum of up to 10**5 identical doubles.
MC_CUSHION_REL = 1e-9


@dataclass(frozen=True)
class Verdict:
    """Outcome of one op's check.  kind: ok, refused (no answer where one
    exists) or wrong (an answer that disagrees with the reference)."""

    kind: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


OK = Verdict("ok")


@dataclass
class Op:
    name: str
    group: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]
    trials: int = 0
    steps: Callable[[object], int] | None = None
    latency: bool = False  # counts toward the oracle_call_ms percentiles


@dataclass
class Workload:
    ops: list[Op] = field(default_factory=list)
    inputs: dict = field(default_factory=dict)  # the seed-generated inputs, for the record


# ---------------------------------------------------------------------------
# Program calls.


@dataclass(frozen=True)
class CliResult:
    rc: int
    out: str
    stdout: str
    stderr: str


def run_cli(argv: list[str], out_path: str | None = None) -> CliResult:
    """cli.main(argv) in-process with stdout and stderr captured."""
    if out_path is not None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(out_path)
        argv = argv + ["--out", out_path]
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        rc = cli.main(argv)
    out = ""
    if out_path is not None and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            out = fh.read()
    return CliResult(rc, out, so.getvalue(), se.getvalue())


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def resolve(dist_spec: dict, law: str, sched_spec: dict):
    dist = distx.build_distribution(dist_spec)
    sched = schedules.build_schedule(sched_spec, default_ex=distx.expectation(dist))
    return dist, RuntimeModel(dist, law), sched


def write_config(path: str, dist_spec: dict, law: str, sched_spec: dict, mode: str) -> None:
    cfg = {"distribution": dist_spec, "law": law, "schedule": sched_spec, "mode": mode}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)


# ---------------------------------------------------------------------------
# Checks.


def mc_verdict(mean: float, se: float, n_capped: int, enclosure) -> Verdict:
    """MC mean inside [lo, hi] +- (5 SE + criterion 8's float cushion)."""
    lo, hi = enclosure
    tol = 5.0 * se + MC_CUSHION_REL * (1.0 + abs(lo))
    if n_capped:
        return Verdict("wrong", f"{n_capped} trials tripped a cap")
    if not (lo - tol <= mean <= hi + tol):
        return Verdict("wrong", f"mc={mean!r} outside [{lo!r}, {hi!r}] +- {tol!r}")
    return OK


def same_float(text: str, value: float) -> bool:
    """The CLI writes floats with repr, so equal doubles give equal text."""
    return text == repr(float(value))


def closed_form_single_budget(model: RuntimeModel, budget: float) -> tuple[float, float]:
    """(E[min(T,b)] / Pr(T <= b), Pr(T <= b)) for atoms, summed independently
    of the oracle; the success probability is summed from the atoms that can
    succeed, so it keeps full relative precision however small it is."""
    terms_m, terms_p = [], []
    if model.law == "deterministic":
        for x, p in model.dist.atoms:
            t_run = math.exp(x)
            if t_run <= budget:
                terms_m.append(p * t_run)
                terms_p.append(p)
            else:
                terms_m.append(p * budget)
    else:
        n = math.floor(budget)
        for x, p in model.dist.atoms:
            pg = math.exp(-x)
            succ = 1.0 if pg >= 1.0 else -math.expm1(n * math.log1p(-pg))
            terms_p.append(p * succ)
            terms_m.append(p * (1.0 if pg >= 1.0 else succ / pg))
    p_succ = math.fsum(terms_p)
    return math.fsum(terms_m) / p_succ, p_succ


def closed_form_tolerance(p_succ: float) -> float:
    """Relative tolerance for the oracle against the closed form.

    The oracle works with the failure probability q = 1 - p in double
    precision, where q carries an absolute rounding error of up to 2**-53
    per summed atom; through 1 - q that is a relative error of about
    2**-53 / p in p, and the cost E[min(T,b)] / p inherits it.  The factor 8
    covers the few further roundings in the cycle algebra, and the 1e-12
    floor covers exp/log and fsum roundings when p is large.
    """
    return 1e-12 + 8.0 * 2.0**-53 / p_succ


def check_closed_form(est_cost: float, est_tail: float, cf: float, p_succ: float) -> Verdict:
    tol = closed_form_tolerance(p_succ) * cf
    if not (est_cost - tol <= cf <= est_cost + est_tail + tol):
        return Verdict(
            "wrong",
            f"closed form {cf!r} outside [{est_cost!r}, {est_cost + est_tail!r}] +- {tol!r}",
        )
    return OK


# ---------------------------------------------------------------------------
# Workload builders.


def build(name: str, seed: int, tmpdir: str) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    wl = Workload()
    builders = {"mc_sampler": _build_sampler, "mc_stepped": _build_stepped, "oracle": _build_oracle}
    builders[name](wl, rng, tmpdir)
    return wl


def mc_seed(wl: Workload, rng: random.Random) -> int:
    seed = rng.randrange(1, 2**31)
    wl.inputs.setdefault("mc_seeds", []).append(seed)
    return seed


def _build_sampler(wl: Workload, rng: random.Random, tmpdir: str) -> None:
    for i, (dist_spec, law, sched_spec, trials) in enumerate(SAMPLER_PAIRS):
        dist, model, sched = resolve(dist_spec, law, sched_spec)
        est = analysis.analytic_cost(model, sched)
        enclosure = (est.expected_cost, est.upper)
        seed = mc_seed(wl, rng)
        cfg = os.path.join(tmpdir, f"sim{i:02d}.json")
        out = os.path.join(tmpdir, f"sim{i:02d}.csv")
        write_config(cfg, dist_spec, law, sched_spec, "simulate")
        argv = ["simulate", "--config", cfg, "--trials", str(trials), "--seed", str(seed)]
        caps = engine.default_caps(e_hint=distx.support_max(dist))

        def check(res, model=model, sched=sched, trials=trials, seed=seed, caps=caps,
                  enclosure=enclosure):
            if res.rc != 0:
                return Verdict("refused", f"simulate exit {res.rc}: {res.stderr.strip()}")
            (row,) = csv_rows(res.out)
            mean, se = float(row["mc_mean"]), float(row["mc_std_error"])
            capped = int(row["n_capped"])
            lib = engine.mc_expected_cost(engine.SamplerProcess(model), sched, trials=trials,
                                          seed=seed, caps=caps, on_cap="count")
            if not (same_float(row["mc_mean"], lib.mean)
                    and same_float(row["mc_std_error"], lib.std_error)
                    and capped == lib.n_capped):
                return Verdict("wrong", f"CLI row {row['mc_mean']} differs from library {lib!r}")
            return mc_verdict(mean, se, capped, enclosure)

        wl.ops.append(Op(
            name=f"simulate {model.label}/{sched.label}",
            group="sampler",
            call=lambda argv=argv, out=out: run_cli(argv, out),
            check=check,
            trials=trials,
        ))


def _demo_numbers(stdout: str) -> list[tuple[float, float, float]]:
    nums = []
    for line in stdout.splitlines():
        fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok and "[" not in tok)
        nums.append((float(fields["mc"]), float(fields["se"]), float(fields["oracle"])))
    return nums


def _build_stepped(wl: Workload, rng: random.Random, tmpdir: str) -> None:
    demo_seed = mc_seed(wl, rng)
    demo_trials = STEPPED_DEMO_TRIALS

    def check_demo(res):
        if res.rc != 0:
            return Verdict("wrong", f"demo exit {res.rc}: {res.stdout.strip()}")
        lines = res.stdout.splitlines()
        if len(lines) != 2 or not all(line.endswith("-> PASS") for line in lines):
            return Verdict("wrong", f"demo output {res.stdout!r}")
        for mc, se, oracle in _demo_numbers(res.stdout):
            # printed to 4 decimals: allow the rounding of all three numbers
            if abs(mc - oracle) > 5.0 * se + 3e-4:
                return Verdict("wrong", f"demo mc={mc} oracle={oracle} se={se}")
        return OK

    def demo_steps(res):
        return sum(round(mc * demo_trials) for mc, _, _ in _demo_numbers(res.stdout))

    wl.ops.append(Op(
        name="demo",
        group="stepped",
        call=lambda: run_cli(["demo", "--trials", str(demo_trials), "--seed", str(demo_seed)]),
        check=check_demo,
        trials=2 * demo_trials,
        steps=demo_steps,
    ))

    stepped = (
        ("geometric_coin[constant(5)]", engine.geometric_coin_process(distx.constant(5.0)),
         RuntimeModel(distx.constant(5.0), "geometric"), 5.0, STEPPED_COIN_TRIALS),
        ("bitstring_guess[k=12]", engine.bitstring_guess_process(12),
         engine.bitstring_guess_model(12), 12 * math.log(2.0), STEPPED_BITSTRING_TRIALS),
    )
    for op_label, process, model, ex, trials in stepped:
        sched = schedules.fixed_schedule(ex)
        est = analysis.analytic_cost(model, sched)
        enclosure = (est.expected_cost, est.upper)
        seed = mc_seed(wl, rng)

        def call(process=process, sched=sched, trials=trials, seed=seed):
            return engine.mc_expected_cost(process, sched, trials=trials, seed=seed)

        def check(est, enclosure=enclosure):
            return mc_verdict(est.mean, est.std_error, est.n_capped, enclosure)

        wl.ops.append(Op(
            name=f"mc_expected_cost {op_label}/{sched.label}",
            group="stepped",
            call=call,
            check=check,
            trials=trials,
            steps=lambda est: round(est.mean * est.trials),
        ))


def adversarial_grid(rng: random.Random) -> list[float]:
    width = (ADV_HI - ADV_LO) / ADV_CELLS
    return [round(ADV_LO + width * (k + rng.random()), 6) for k in range(ADV_CELLS)]


def _analyze_op(wl, tmpdir, tag, group, dist_spec, law, sched_spec, expect="finite"):
    """One analyze call on a one-config file.  expect: finite, closed_form or refusal."""
    dist, model, sched = resolve(dist_spec, law, sched_spec)
    idx = len(wl.ops)
    cfg = os.path.join(tmpdir, f"an{idx:04d}.json")
    out = os.path.join(tmpdir, f"an{idx:04d}.csv")
    write_config(cfg, dist_spec, law, sched_spec, "analyze")
    argv = ["analyze", "--config", cfg]

    def check(res):
        if expect == "refusal":
            if res.rc != 3:
                return Verdict("wrong", f"expected exit 3 (tail not certifiable), got {res.rc}")
            try:
                analysis.analytic_cost(model, sched)
            except analysis.TailNotConvergent:
                return OK
            return Verdict("wrong", "library certified a tail the CLI refused")
        if res.rc != 0:
            return Verdict("refused", f"analyze exit {res.rc}: {res.stderr.strip()}")
        (row,) = csv_rows(res.out)
        if "FAIL" in row["verdicts"]:
            return Verdict("wrong", f"checker verdicts {row['verdicts']}")
        est = analysis.analytic_cost(model, sched)
        if not (same_float(row["analytic_cost"], est.expected_cost)
                and same_float(row["tail_bound"], est.tail_bound)):
            return Verdict("wrong", f"CLI row {row['analytic_cost']} differs from library {est!r}")
        if not math.isfinite(est.expected_cost):
            return Verdict("wrong", f"infinite cost {est!r}")
        if expect == "closed_form":
            cf, p_succ = closed_form_single_budget(model, sched.cycle[0][1])
            return check_closed_form(est.expected_cost, est.tail_bound, cf, p_succ)
        return OK

    wl.ops.append(Op(
        name=f"{tag} {model.label}/{sched.label}",
        group=group,
        call=lambda: run_cli(argv, out),
        check=check,
        latency=True,
    ))


def _single_budget_atoms(dist_spec: dict, sched_spec: dict) -> bool:
    return dist_spec["kind"] != "adversarial_density" and sched_spec["kind"] in (
        "fixed", "single_threshold")


def _zoo_spec(dist) -> dict:
    """The config spec of a zoo distribution: its kind and named parameters."""
    return {"kind": dist.kind, **dict(dist.params)}


def _build_oracle(wl: Workload, rng: random.Random, tmpdir: str) -> None:
    zoo = distx.zoo_models()
    for model in zoo:
        spec = _zoo_spec(model.dist)
        quad = spec["kind"] == "adversarial_density" and model.law == "geometric"
        for kind in ORACLE_SCHEDULES:
            if kind == "two_threshold" and distx.expectation(model.dist) < 1.0:
                continue  # two_threshold needs E[X] >= 1
            sched_spec = {"kind": kind}
            expect = "closed_form" if _single_budget_atoms(spec, sched_spec) else "finite"
            _analyze_op(wl, tmpdir, "zoo", "quad" if quad else "other", spec, model.law,
                        sched_spec, expect)
    for i in LUBY_CERTIFIED:
        model = zoo[i]
        _analyze_op(wl, tmpdir, "luby", "luby", _zoo_spec(model.dist), model.law,
                    {"kind": "luby", "unit": 1})
    wl.inputs["adversarial_E"] = adversarial_grid(rng)
    for e in wl.inputs["adversarial_E"]:
        for law in distx.LAWS:
            for kind in ORACLE_SCHEDULES:
                _analyze_op(wl, tmpdir, "adversarial", "quad" if law == "geometric" else "other",
                            {"kind": "adversarial_density", "E": e}, law, {"kind": kind})
    for p in NEAR_CERTAIN_PS:
        spec = {"kind": "discrete", "atoms": [[0.0, p], [50.0, 1.0 - p]]}
        _analyze_op(wl, tmpdir, f"near_certain_failure p={p:g}", "other", spec,
                    "deterministic", {"kind": "single_threshold", "t": 0}, "closed_form")
    for dist_spec, law, sched_spec in EXPECTED_REFUSALS:
        _analyze_op(wl, tmpdir, "refusal", "other", dist_spec, law, sched_spec, "refusal")

    dist_spec, law = LUBY_CAP_MODEL
    _, cap_model, luby = resolve(dist_spec, law, {"kind": "luby", "unit": 1})

    def call_luby_cap():
        try:
            return analysis.analytic_cost(cap_model, luby, attempt_cap=LUBY_SMALL_CAP)
        except analysis.TailNotConvergent as exc:
            return f"TailNotConvergent: {exc}"

    def check_luby_cap(res):
        if isinstance(res, str) and res.startswith("TailNotConvergent"):
            return OK
        return Verdict("wrong", f"expected TailNotConvergent, got {res!r}")

    wl.ops.append(Op(
        name=f"refusal {cap_model.label}/{luby.label} attempt_cap={LUBY_SMALL_CAP}",
        group="luby",
        call=call_luby_cap,
        check=check_luby_cap,
        latency=True,
    ))

    for i, args in enumerate(SWEEPS):
        out = os.path.join(tmpdir, f"sweep{i}.csv")
        wl.ops.append(Op(
            name="sweep " + " ".join(args),
            group="other",
            call=lambda args=args, out=out: run_cli(["sweep", *args], out),
            check=lambda res, args=args: check_sweep(res, args),
        ))

    out = os.path.join(tmpdir, "verify.csv")
    wl.ops.append(Op(
        name="verify --scope all",
        group="other",
        call=lambda: run_cli(["verify", "--scope", "all"], out),
        check=check_verify,
    ))


def _sweep_args(args: list[str]) -> dict:
    opts = {"law": "deterministic", "t": None}
    for key, value in zip(args[::2], args[1::2]):
        opts[key.lstrip("-").replace("-", "_")] = value
    return opts


def check_sweep(res: CliResult, args: list[str]) -> Verdict:
    """Each sweep row equals analytic_cost on the same distribution and schedule."""
    if res.rc != 0:
        return Verdict("refused", f"sweep exit {res.rc}: {res.stderr.strip()}")
    opts = _sweep_args(args)
    rows = csv_rows(res.out)
    expected = 0
    e = float(opts["e_start"])
    while e <= float(opts["e_stop"]) + 1e-12:
        if opts["family"] == "two_point":
            dist = distx.two_point(e)
        else:
            dist = distx.fixed_t_counterexample(e, 2.0 * e)
        ex = distx.expectation(dist)
        model = RuntimeModel(dist, opts["law"])
        for token in opts["schedules"].split(","):
            sched = {
                "fixed": lambda: schedules.fixed_schedule(ex),
                "two_threshold": lambda: schedules.two_threshold_schedule(ex),
                "universal": schedules.universal_schedule,
                "single_threshold:2E": lambda: schedules.single_threshold_schedule(2.0 * e),
            }[token]()
            est = analysis.analytic_cost(model, sched)
            match = [r for r in rows if r["distribution"] == dist.label
                     and r["schedule"] == sched.label]
            if len(match) != 1:
                return Verdict("wrong", f"no unique row for {dist.label}/{sched.label}")
            row = match[0]
            if not (same_float(row["analytic_cost"], est.expected_cost)
                    and same_float(row["tail_bound"], est.tail_bound)):
                return Verdict("wrong", f"sweep row {row} differs from library {est!r}")
            expected += 1
        e += 1.0
    if len(rows) != expected:
        return Verdict("wrong", f"{len(rows)} sweep rows, expected {expected}")
    return OK


def check_verify(res: CliResult) -> Verdict:
    """Every verify row holds and matches the library's verdict rows."""
    if res.rc != 0:
        return Verdict("wrong", f"verify exit {res.rc}: {res.stderr.strip()}")
    rows = csv_rows(res.out)
    lib = verify.run_scope("all")
    if len(rows) != len(lib):
        return Verdict("wrong", f"{len(rows)} verify rows, library has {len(lib)}")
    for row, v in zip(rows, lib):
        if row["holds"] != "1" or not v.holds:
            return Verdict("wrong", f"verify row fails: {row}")
        if row["name"] != v.name or not same_float(row["margin"], v.margin):
            return Verdict("wrong", f"verify row {row} differs from library {v!r}")
    return OK
