"""Batch front-end: JSON experiment configs in, CSV or JSON-lines results out.

Subcommands: analyze (exact oracle + checkers), simulate (Monte Carlo),
verify (zoo-wide guarantee suite), sweep (cost-vs-mean curves), demo
(resumable processes end to end).

Exit codes: 0 ok, 1 failed verify verdicts, 2 config/usage error, 3 tail not
convergent or integral not converged, 4 infinite expected cost where the mode
requires finite, 5 cap trips above the configured threshold.

The worker count env var VEGAS_RESTART_THREADS is validated (a non-integer is
a config error) but never affects results: trials run in order on one thread.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass

from . import analysis, distx, engine, schedules, verify
from .analysis import TailNotConvergent, analytic_cost
from .distx import IntegrationLimitError, RuntimeModel, build_distribution, expectation
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

VERIFY_COLUMNS = ["scope", "name", "holds", "margin", "detail"]

_CONFIG_FIELDS = {
    "distribution",
    "law",
    "schedule",
    "mode",
    "trials",
    "seed",
    "eps_tail",
    "caps",
    "cap_trip_threshold",
}
_CAPS_FIELDS = {"max_attempts", "max_total_cost"}
_MODES = ("analyze", "simulate", "both")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    distribution: dict
    law: str
    schedule: dict
    mode: str = "both"
    trials: int = 100_000
    seed: int = 42
    eps_tail: float = 1e-10
    caps: Caps | None = None
    cap_trip_threshold: float = 0.0


def _number(obj: dict, name: str, convert, default):
    try:
        return convert(obj.get(name, default))
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {obj.get(name)!r}") from None


def _check_eps_tail(eps_tail: float, name: str) -> float:
    if not eps_tail > 0.0:
        raise ConfigError(f"{name} must be positive, got {eps_tail!r}")
    if eps_tail == math.inf:
        raise ConfigError(f"{name} must be finite, got inf")
    return eps_tail


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
        mode = entry.get("mode", "both")
        if mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
        caps = None
        if "caps" in entry:
            caps_obj = entry["caps"]
            if not isinstance(caps_obj, dict) or set(caps_obj) - _CAPS_FIELDS:
                raise ConfigError(f"caps takes fields {sorted(_CAPS_FIELDS)}")
            caps = Caps(
                max_attempts=_number(caps_obj, "max_attempts", int, Caps.max_attempts),
                max_total_cost=_number(caps_obj, "max_total_cost", float, Caps.max_total_cost),
            )
            # A NaN cost cap never trips, so a run that cannot succeed never ends.
            if not caps.max_total_cost > 0.0:
                raise ConfigError(f"max_total_cost must be positive, got {caps.max_total_cost!r}")
        trials = _number(entry, "trials", int, 100_000)
        eps_tail = _check_eps_tail(_number(entry, "eps_tail", float, 1e-10), "eps_tail")
        cap_trip_threshold = _number(entry, "cap_trip_threshold", float, 0.0)
        if not 0.0 <= cap_trip_threshold < math.inf:
            raise ConfigError(
                f"cap_trip_threshold must be a finite number >= 0, got {cap_trip_threshold!r}"
            )
        configs.append(
            ExperimentConfig(
                distribution=entry["distribution"],
                law=entry["law"],
                schedule=entry["schedule"],
                mode=mode,
                trials=trials,
                seed=_number(entry, "seed", int, 42),
                eps_tail=eps_tail,
                caps=caps,
                cap_trip_threshold=cap_trip_threshold,
            )
        )
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
    elif fmt == "jsonl":
        for row in rows:
            buf.write(json.dumps({col: row.get(col) for col in columns}, sort_keys=True))
            buf.write("\n")
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
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


def _sort_rows(rows: list[dict]) -> list[dict]:
    return sorted(rows, key=lambda r: (r["family"], r["EX"], r["schedule"], r["law"]))


def _resolve(cfg: ExperimentConfig):
    try:
        dist = build_distribution(cfg.distribution)
        model = RuntimeModel(dist, cfg.law)
        sched = build_schedule(cfg.schedule, default_ex=expectation(dist))
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc
    return dist, model, sched


def _check_trials(trials: int) -> None:
    if trials < 2:
        raise ConfigError(f"trials must be >= 2, got {trials}")


def _resolved_configs(args):
    """Each config of --config with --seed/--trials applied, resolved in turn."""
    for cfg in _load_config_file(args.config):
        if args.seed is not None:
            cfg.seed = args.seed
        if args.trials is not None:
            cfg.trials = args.trials
        _check_trials(cfg.trials)
        yield (cfg, *_resolve(cfg))


def cmd_analyze(args) -> int:
    rows = []
    infinite_required_finite = False
    for cfg, dist, model, sched in _resolved_configs(args):
        est = analytic_cost(model, sched, eps_tail=cfg.eps_tail)
        row = _base_row(cfg, dist, model, sched)
        row["analytic_cost"] = est.expected_cost
        row["tail_bound"] = est.tail_bound
        if math.isinf(est.expected_cost):
            row["log_cost"] = math.inf
            row["ratio"] = math.inf
            if cfg.mode != "analyze":
                infinite_required_finite = True
        else:
            log_cost = math.log(est.expected_cost) if est.expected_cost > 0.0 else -math.inf
            row["log_cost"] = log_cost
            row["ratio"] = math.exp(log_cost - row["EX"])
        row["verdicts"] = _verdict_tokens(model)
        rows.append(row)
    _emit(_sort_rows(rows), RESULT_COLUMNS, args.format, args.out)
    if infinite_required_finite:
        print("error: infinite expected cost", file=sys.stderr)
        return 4
    return 0


def cmd_simulate(args) -> int:
    try:
        workers = engine.resolve_workers()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = []
    tripped = False
    for cfg, dist, model, sched in _resolved_configs(args):
        caps = cfg.caps or default_caps(e_hint=distx.support_max(dist))
        estimate = mc_expected_cost(
            SamplerProcess(model),
            sched,
            trials=cfg.trials,
            seed=cfg.seed,
            caps=caps,
            on_cap="count",
            workers=workers,
        )
        row = _base_row(cfg, dist, model, sched)
        row["mc_mean"] = estimate.mean
        row["mc_std_error"] = estimate.std_error
        row["n_capped"] = estimate.n_capped
        rows.append(row)
        if estimate.n_capped / cfg.trials > cfg.cap_trip_threshold:
            tripped = True
    _emit(_sort_rows(rows), RESULT_COLUMNS, args.format, args.out)
    if tripped:
        print("error: cap-trip fraction exceeded the configured threshold", file=sys.stderr)
        return 5
    return 0


def cmd_verify(args) -> int:
    try:
        verdicts = verify.run_scope(args.scope)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [
        {
            "scope": v.scope,
            "name": v.name,
            "holds": int(v.holds),
            "margin": v.margin,
            "detail": v.detail,
        }
        for v in verdicts
    ]
    _emit(rows, VERIFY_COLUMNS, args.format, args.out)
    failures = [v for v in verdicts if not v.holds]
    n = len(verdicts)
    print(f"verify[{args.scope}]: {n - len(failures)}/{n} checks hold", file=sys.stderr)
    for v in failures:
        print(f"FAILED {v.scope} {v.name} margin={v.margin!r} {v.detail}", file=sys.stderr)
    return 1 if failures else 0


_THRESH_RE = re.compile(r"^(?:(\d+(?:\.\d+)?)?E)?(?:([+-]\d+(?:\.\d+)?))?$")


def _parse_threshold_expr(expr: str, e: float) -> float:
    """Parse threshold expressions like '2E', 'E+5', 'E', or a plain number."""
    expr = expr.strip()
    try:
        return float(expr)
    except ValueError:
        pass
    match = _THRESH_RE.match(expr)
    if not match or (match.group(1) is None and "E" not in expr):
        raise ConfigError(f"cannot parse threshold expression {expr!r}")
    factor = float(match.group(1)) if match.group(1) else (1.0 if "E" in expr else 0.0)
    offset = float(match.group(2)) if match.group(2) else 0.0
    return factor * e + offset


def _sweep_schedule(token: str, ex: float, e: float):
    """Build one --schedules token: kind, or kind:param for single_threshold (t) and luby (unit)."""
    kind, _, param = token.partition(":")
    spec = {"kind": kind}
    if kind == "luby":
        spec["unit"] = float(param) if param else 1.0
    elif param:  # a kind other than single_threshold rejects the "param" field
        spec["t" if kind == "single_threshold" else "param"] = _parse_threshold_expr(param, e)
    return build_schedule(spec, default_ex=ex)


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
    _check_eps_tail(args.eps_tail, "--eps-tail")
    rows = []
    e = float(args.e_start)
    while e <= args.e_stop + 1e-12:
        try:
            spec = {"kind": args.family, "c" if args.family == "constant" else "E": e}
            if args.t is not None:
                spec["t"] = _parse_threshold_expr(args.t, e)
            dist = build_distribution(spec)
            ex = expectation(dist)
            model = RuntimeModel(dist, args.law)
            scheds = [_sweep_schedule(token.strip(), ex, e) for token in tokens]
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for sched in scheds:
            est = analytic_cost(model, sched, eps_tail=args.eps_tail)
            log_cost = (
                math.log(est.expected_cost) if 0.0 < est.expected_cost < math.inf else math.inf
            )
            rows.append(
                {
                    "family": dist.kind,
                    "distribution": dist.label,
                    "law": args.law,
                    "schedule": sched.label,
                    "EX": ex,
                    "analytic_cost": est.expected_cost,
                    "tail_bound": est.tail_bound,
                    "log_cost": log_cost,
                    "excess_log_cost": log_cost - ex,
                }
            )
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

    p = sub.add_parser("analyze", help="exact expected-cost oracle plus checkers")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    add_io(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo expected cost")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    add_io(p)
    p.set_defaults(fn=cmd_simulate)

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
    p.add_argument("--eps-tail", type=float, default=1e-10)
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
    except (TailNotConvergent, IntegrationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())
