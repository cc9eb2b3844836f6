"""Batch front-end: JSON experiment configs in, CSV or JSON-lines results out.

Subcommands: analyze (exact oracle + checkers), simulate (Monte Carlo),
verify (zoo-wide guarantee suite), sweep (cost-vs-mean curves), demo
(resumable processes end to end).

Exit codes: 0 ok, 1 failed verify verdicts, 2 config/usage error, 3 an
expected cost the oracle cannot certify, 4 infinite expected cost where the
mode requires finite, 5 cap trips above the configured threshold.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from typing import NamedTuple

from . import analysis, distx, engine, schedules, verify
from .analysis import TailNotConvergent, analytic_cost
from .distx import RuntimeModel, build_distribution, expectation
from .engine import Caps, SamplerProcess, default_caps, mc_expected_cost
from .schedules import build_schedule

RESULT_COLUMNS = [
    "family",
    "distribution",
    "law",
    "schedule",
    "mode",
    "trials",
    "seed",
    "EX",
    "e_to_EX",
    "expected_T",
    "analytic_cost",
    "tail_bound",
    "log_cost",
    "ratio",
    "mc_mean",
    "mc_std_error",
    "n_capped",
    "verdicts",
]

SWEEP_COLUMNS = [
    "family",
    "distribution",
    "law",
    "schedule",
    "EX",
    "analytic_cost",
    "tail_bound",
    "log_cost",
    "excess_log_cost",
]

VERIFY_COLUMNS = list(verify.VerdictRow._fields)

# The most values of E one sweep may visit, floor((stop - start) / step) + 1.
# Rows are kept in memory until they are sorted.  At this cap a two_point
# sweep from E = 5 to 280 takes 98 s and 257 MB peak RSS over
# fixed,two_threshold,universal, and 3.8 s and 109 MB over fixed alone, on a
# 2-vCPU host.
MAX_SWEEP_POINTS = 100_000

_MODES = ("analyze", "simulate", "both")


class ConfigError(ValueError):
    pass


class ExperimentConfig(NamedTuple):
    distribution: dict
    law: str
    schedule: dict
    mode: str = "both"
    trials: int = 100_000
    seed: int = 42
    eps_tail: float = 1e-10
    caps: Caps | None = None
    cap_trip_threshold: float = 0.0


_CONFIG_FIELDS = set(ExperimentConfig._fields)
_CAPS_FIELDS = set(Caps._fields)


def _numbers(obj: dict, cls) -> dict:
    """Each field of the named tuple cls whose default is an int or a float,
    read from obj or that default and converted to the default's type.

    A boolean is not a number, and an int field refuses a fraction rather
    than truncate it.
    """
    numbers = {}
    for name, default in cls._field_defaults.items():
        kind = type(default)
        if kind not in (int, float):
            continue
        value = obj.get(name, default)
        try:
            number = kind(value)
        except (TypeError, ValueError, OverflowError):
            number = None
        if number is None or isinstance(value, bool):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        if kind is int and isinstance(value, float) and number != value:
            raise ConfigError(f"{name} must be a whole number, got {value!r}")
        numbers[name] = number
    return numbers


def _check_eps_tail(eps_tail: float, name: str) -> None:
    if not eps_tail > 0.0:
        raise ConfigError(f"{name} must be positive, got {eps_tail!r}")
    if eps_tail == math.inf:
        raise ConfigError(f"{name} must be finite, got inf")


def parse_config(obj) -> list[ExperimentConfig]:
    """Parse one config object or a list of them; unknown fields are rejected."""
    entries = obj if isinstance(obj, list) else [obj]
    configs = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ConfigError(f"config entries must be objects, got {type(entry).__name__}")
        unknown = set(entry) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for required in ("distribution", "law", "schedule"):
            if required not in entry:
                raise ConfigError(f"config is missing required field {required!r}")
        if entry["law"] not in distx.LAWS:
            raise ConfigError(f"law must be one of {distx.LAWS}, got {entry['law']!r}")
        mode = entry.get("mode", ExperimentConfig._field_defaults["mode"])
        if mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
        numbers = _numbers(entry, ExperimentConfig)
        _check_eps_tail(numbers["eps_tail"], "eps_tail")
        threshold = numbers["cap_trip_threshold"]
        if not 0.0 <= threshold < math.inf:
            raise ConfigError(
                f"cap_trip_threshold must be a finite number >= 0, got {threshold!r}"
            )
        caps = None
        if "caps" in entry:
            caps_obj = entry["caps"]
            if not isinstance(caps_obj, dict) or set(caps_obj) - _CAPS_FIELDS:
                raise ConfigError(f"caps takes fields {sorted(_CAPS_FIELDS)}")
            caps = Caps(**_numbers(caps_obj, Caps))
            # Below one attempt no trial can run; every one would count as capped.
            if caps.max_attempts < 1:
                raise ConfigError(f"max_attempts must be >= 1, got {caps.max_attempts!r}")
            # A NaN cost cap never trips, so a run that cannot succeed never ends.
            if not caps.max_total_cost > 0.0:
                raise ConfigError(f"max_total_cost must be positive, got {caps.max_total_cost!r}")
        configs.append(ExperimentConfig(**{**entry, **numbers, "caps": caps}))
    return configs


def _load_config_file(path: str) -> list[ExperimentConfig]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(obj)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(rows: list[dict], columns: list[str], fmt: str, out_path: str | None) -> None:
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in columns])
    else:  # jsonl
        for row in rows:
            buf.write(json.dumps({col: row.get(col) for col in columns}, sort_keys=True))
            buf.write("\n")
    text = buf.getvalue()
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _verdict_tokens(model) -> str:
    """The verdicts column: lemma3:ok;lemma5:skip;... from verify.model_verdicts."""
    return ";".join(
        f"{name}:{'skip' if v is None else 'ok' if v.holds else 'FAIL'}"
        for name, v in verify.model_verdicts(model).items()
    )


def _base_row(cfg: ExperimentConfig, dist, model, sched) -> dict:
    ex = expectation(dist)
    return {
        "family": dist.kind,
        "distribution": dist.label,
        "law": model.law,
        "schedule": sched.label,
        "mode": cfg.mode,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "EX": ex,
        "e_to_EX": math.exp(ex) if ex < 709.0 else math.inf,
        "expected_T": analysis.expected_runtime(model),
    }


def _priced(est, ex: float) -> dict:
    """The cost columns of an oracle estimate on a model of mean ex; each
    command's column list picks the ones it prints."""
    log_cost = math.log(est.expected_cost) if est.expected_cost > 0.0 else -math.inf
    return {
        "analytic_cost": est.expected_cost,
        "tail_bound": est.tail_bound,
        "log_cost": log_cost,
        "excess_log_cost": log_cost - ex,
    }


def _sort_rows(rows: list[dict]) -> list[dict]:
    return sorted(rows, key=lambda r: (r["family"], r["EX"], r["schedule"], r["law"]))


def _resolve(dist_spec, law: str, sched_specs: list):
    """The distribution, runtime model and schedules of one run's specs."""
    try:
        dist = build_distribution(dist_spec)
        model = RuntimeModel(dist, law)
        ex = expectation(dist)
        scheds = [build_schedule(spec, default_ex=ex) for spec in sched_specs]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return dist, model, scheds


def _check_trials(trials: int) -> None:
    if trials < 2:
        raise ConfigError(f"trials must be >= 2, got {trials}")


def _run_configs(args, fill, code: int, message: str) -> int:
    """Each config of --config, with --seed/--trials applied, as one row:
    fill(cfg, dist, model, sched, row) adds the command's columns to the base
    row and returns whether the config trips the command's exit code."""
    rows = []
    tripped = False
    for cfg in _load_config_file(args.config):
        if args.seed is not None:
            cfg = cfg._replace(seed=args.seed)
        if args.trials is not None:
            cfg = cfg._replace(trials=args.trials)
        _check_trials(cfg.trials)
        dist, model, (sched,) = _resolve(cfg.distribution, cfg.law, [cfg.schedule])
        row = _base_row(cfg, dist, model, sched)
        tripped |= fill(cfg, dist, model, sched, row)
        rows.append(row)
    _emit(_sort_rows(rows), RESULT_COLUMNS, args.format, args.out)
    if tripped:
        print(f"error: {message}", file=sys.stderr)
        return code
    return 0


def _analyze_row(cfg, dist, model, sched, row) -> bool:
    est = analytic_cost(model, sched, eps_tail=cfg.eps_tail)
    row.update(_priced(est, row["EX"]))
    row["ratio"] = math.exp(row["excess_log_cost"])
    row["verdicts"] = _verdict_tokens(model)
    return math.isinf(est.expected_cost) and cfg.mode != "analyze"


def _simulate_row(cfg, dist, model, sched, row) -> bool:
    caps = cfg.caps or default_caps(e_hint=distx.support_max(dist))
    estimate = mc_expected_cost(SamplerProcess(model), sched, trials=cfg.trials,
                                seed=cfg.seed, caps=caps, on_cap="count")
    row.update(mc_mean=estimate.mean, mc_std_error=estimate.std_error,
               n_capped=estimate.n_capped)
    return estimate.n_capped / cfg.trials > cfg.cap_trip_threshold


def cmd_analyze(args) -> int:
    return _run_configs(args, _analyze_row, 4, "infinite expected cost")


def cmd_simulate(args) -> int:
    return _run_configs(args, _simulate_row, 5,
                        "cap-trip fraction exceeded the configured threshold")


def cmd_verify(args) -> int:
    verdicts = verify.run_scope(args.scope)
    rows = [{**v._asdict(), "holds": int(v.holds)} for v in verdicts]
    _emit(rows, VERIFY_COLUMNS, args.format, args.out)
    failures = [v for v in verdicts if not v.holds]
    n = len(verdicts)
    print(f"verify[{args.scope}]: {n - len(failures)}/{n} checks hold", file=sys.stderr)
    for v in failures:
        print(f"FAILED {v.scope} {v.name} margin={v.margin!r} {v.detail}", file=sys.stderr)
    return 1 if failures else 0


_THRESH_RE = re.compile(r"^(\d+(?:\.\d+)?)?E([+-]\d+(?:\.\d+)?)?$")


def _parse_threshold_expr(expr: str, e: float) -> float:
    """Parse threshold expressions like '2E', 'E+5', '2E-1', 'E', or a plain
    number; a text that fits the grammar in E is read by it, so '2E+1' is
    2e + 1, not 20."""
    expr = expr.strip()
    match = _THRESH_RE.match(expr)
    if match:
        factor, offset = match.groups()
        return (float(factor) if factor else 1.0) * e + (float(offset) if offset else 0.0)
    try:
        return float(expr)
    except ValueError:
        raise ConfigError(f"cannot parse threshold expression {expr!r}") from None


def _sweep_schedule(token: str, e: float) -> dict:
    """The spec of one --schedules token: kind, or kind:param for
    single_threshold (t) and luby (unit, read by luby_schedule)."""
    kind, _, param = token.partition(":")
    spec = {"kind": kind}
    if kind == "luby":
        spec["unit"] = param or 1.0
    elif param:  # a kind other than single_threshold rejects the "param" field
        spec["t" if kind == "single_threshold" else "param"] = _parse_threshold_expr(param, e)
    return spec


def cmd_sweep(args) -> int:
    tokens = [t for t in (args.schedules or "").split(",") if t.strip()]
    if not tokens:
        raise ConfigError("sweep needs a non-empty --schedules list")
    if not (math.isfinite(args.e_start) and math.isfinite(args.e_stop)):
        raise ConfigError(f"sweep range must be finite, got {args.e_start!r} to {args.e_stop!r}")
    if args.e_stop < args.e_start:
        raise ConfigError("--e-stop must be >= --e-start")
    if not args.e_step > 0.0:
        raise ConfigError(f"--e-step must be positive, got {args.e_step!r}")
    # A step lost in rounding at the end of the range never moves E there.
    if args.e_stop + args.e_step == args.e_stop:
        raise ConfigError(f"--e-step {args.e_step!r} is too small to move E at {args.e_stop!r}")
    # floor(r) + 1 > MAX_SWEEP_POINTS iff r >= MAX_SWEEP_POINTS, an overflow to inf included.
    if (args.e_stop - args.e_start) / args.e_step >= MAX_SWEEP_POINTS:
        raise ConfigError(
            f"sweep range {args.e_start!r} to {args.e_stop!r} in steps of {args.e_step!r} "
            f"holds more than {MAX_SWEEP_POINTS} values of E"
        )
    _check_eps_tail(args.eps_tail, "--eps-tail")
    rows = []
    e = float(args.e_start)
    while e <= args.e_stop + 1e-12:
        dist_spec = {"kind": args.family, "c" if args.family == "constant" else "E": e}
        if args.t is not None:
            dist_spec["t"] = _parse_threshold_expr(args.t, e)
        sched_specs = [_sweep_schedule(token.strip(), e) for token in tokens]
        dist, model, scheds = _resolve(dist_spec, args.law, sched_specs)
        ex = expectation(dist)
        for sched in scheds:
            est = analytic_cost(model, sched, eps_tail=args.eps_tail)
            rows.append({"family": dist.kind, "distribution": dist.label, "law": args.law,
                         "schedule": sched.label, "EX": ex, **_priced(est, ex)})
        e += args.e_step
    rows.sort(key=lambda r: (r["EX"], r["schedule"]))
    _emit(rows, SWEEP_COLUMNS, args.format, args.out)
    return 0


def cmd_demo(args) -> int:
    _check_trials(args.trials)
    coin_dist = distx.constant(math.log(2.0))
    demos = (  # (name, stepped process, its runtime model, threshold)
        ("geometric_coin[c=ln2]", engine.geometric_coin_process(coin_dist),
         RuntimeModel(coin_dist, "geometric"), math.log(3.0)),
        ("bitstring_guess[k=8]", engine.bitstring_guess_process(8),
         engine.bitstring_guess_model(8), math.log(300.0)),
    )
    failures = 0
    for name, process, model, threshold in demos:
        sched = schedules.single_threshold_schedule(threshold)
        oracle = analytic_cost(model, sched)
        estimate = mc_expected_cost(process, sched, trials=args.trials, seed=args.seed)
        ok = abs(estimate.mean - oracle.expected_cost) <= 5.0 * estimate.std_error
        failures += 0 if ok else 1
        print(
            f"{name} vs oracle: mc={estimate.mean:.4f}"
            f" se={estimate.std_error:.4f} oracle={oracle.expected_cost:.4f}"
            f" -> {'PASS' if ok else 'FAIL'}"
        )
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vegas-restart",
        description="Restart schedules for Las Vegas algorithms: analyze, simulate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", default="csv", choices=("csv", "jsonl"))

    for name, fn, help_text in (
        ("analyze", cmd_analyze, "exact expected-cost oracle plus checkers"),
        ("simulate", cmd_simulate, "Monte Carlo expected cost"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        add_io(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("verify", help="zoo-wide verification suite")
    p.add_argument("--scope", default="all", choices=verify.SCOPES)
    add_io(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="cost-vs-mean curves for schedule families")
    p.add_argument("--family", required=True)
    p.add_argument("--e-start", type=float, required=True)
    p.add_argument("--e-stop", type=float, required=True)
    p.add_argument("--e-step", type=float, default=1.0)
    p.add_argument("--schedules", required=True, help="comma list, e.g. fixed,universal")
    p.add_argument("--law", default="deterministic", choices=distx.LAWS)
    p.add_argument("--t", default=None, help="threshold expression for fixed_t families, e.g. 2E")
    p.add_argument("--eps-tail", type=float, default=ExperimentConfig._field_defaults["eps_tail"])
    add_io(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("demo", help="resumable demo processes end to end")
    p.add_argument("--trials", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, schedules.ScheduleRangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TailNotConvergent as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())
