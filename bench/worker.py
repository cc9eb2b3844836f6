"""One benchmark process: set up a workload, time it, check it, print one JSON line.

Started by run.py in a fresh interpreter, so that set-up time includes the
package import.  ``--phase setup`` stops after set-up; ``--phase run`` goes on
to the timed phase (and, with ``--trace 1``, alternates untraced and traced
passes), then checks every op's output and reports the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# workloads and tracing import vegas_restart, so they are imported inside the
# functions: set-up time starts before the package import.


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(samples: list[float], q: float) -> int:
    """How many samples lie strictly above the q-th percentile."""
    cut = percentile(samples, q)
    return sum(1 for s in samples if s > cut)


class OpError:
    """An op that raised instead of returning; kept as its output."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"OpError({self.text!r})"


@dataclass
class Pass:
    """One run over every op: wall seconds, per-op seconds, outputs."""

    wall: float
    times: list[float]
    outputs: list[object]
    digests: list[str] = field(default_factory=list)


def run_pass(ops) -> Pass:
    """Run every op once, in order."""
    times, outputs = [], []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = OpError(exc)
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    return Pass(time.perf_counter() - start, times, outputs,
                [hashlib.sha256(repr(o).encode()).hexdigest() for o in outputs])


def check_ops(ops, outputs):
    """Verdict per op, from its first-pass output."""
    from workloads import Verdict

    verdicts = []
    for op, out in zip(ops, outputs):
        if isinstance(out, OpError):
            verdicts.append(Verdict("refused", out.text))
            continue
        try:
            verdicts.append(op.check(out))
        except Exception as exc:  # a check that cannot parse the output fails the op
            verdicts.append(Verdict("wrong", f"check raised {type(exc).__name__}: {exc}"))
    return verdicts


def tail_rel(ops, outputs) -> list[float]:
    """min(1, tail_bound / expected_cost) of every certified analyze op."""
    from workloads import CliResult, csv_rows

    vals = []
    for op, out in zip(ops, outputs):
        if not (op.latency and isinstance(out, CliResult) and out.rc == 0):
            continue
        (row,) = csv_rows(out.out)
        cost, tail = float(row["analytic_cost"]), float(row["tail_bound"])
        if 0.0 < cost < math.inf:
            vals.append(min(1.0, tail / cost))
    return vals


def machine() -> dict:
    import os

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "VEGAS_RESTART_THREADS": os.environ.get("VEGAS_RESTART_THREADS"),
    }


def measure(ops, seconds: float, instr=None):
    """Timed phase: whole passes until the next one would end past ``seconds``.

    With instrumentation, untraced and traced passes alternate.  Returns
    (plain, traced, layers): the untraced and traced passes, and the
    per-layer metrics of each traced pass.  Only the first pass keeps its
    outputs, which the checks read; the others keep their digests.
    """
    plain, traced, layers = [], [], []
    begin = time.perf_counter()
    while True:
        plain.append(run_pass(ops))
        if instr is not None:
            instr.tracer.reset()
            with instr:
                traced.append(run_pass(ops))
            layers.append(instr.metrics())
        for p in plain[1:] + traced:
            p.outputs = None
        per_round = statistics.median(p.wall for p in plain)
        if traced:
            per_round += statistics.median(p.wall for p in traced)
        if time.perf_counter() - begin + per_round > seconds:
            return plain, traced, layers


def evaluate(ops, plain: list[Pass], traced: list[Pass]) -> dict:
    """Check every op and tally the outcome over all passes run.

    Outputs must repeat exactly in every pass, traced or not; an op whose
    check fails counts as failed in every pass.  ``correct`` is false when an
    op returned a wrong answer or an output changed between passes; an op
    that refused an answerable input is failed but not wrong.
    """
    verdicts = check_ops(ops, plain[0].outputs)
    reference = plain[0].digests
    unstable = sorted({
        ops[i].name
        for p in plain[1:] + traced
        for i, (a, b) in enumerate(zip(p.digests, reference))
        if a != b
    })
    failing = [(op, v) for op, v in zip(ops, verdicts) if not v.ok]
    n_passes = len(plain) + len(traced)
    wrong = [op.name for op, v in failing if v.kind == "wrong"]
    return {
        "attempted": len(ops) * n_passes,
        "failed": len(failing) * n_passes,
        "correct": not wrong and not unstable,
        "failures": [
            {"op": op.name, "kind": v.kind, "detail": v.detail[:500]} for op, v in failing
        ],
        "unstable_ops": unstable,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", choices=("setup", "run"), required=True)
    p.add_argument("--tmp", required=True, help="directory for config and output files")
    p.add_argument("--spans", default=None, help="write the last traced pass's spans here")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import vegas_restart

    if Path(vegas_restart.__file__).resolve().parent != ROOT / "src" / "vegas_restart":
        raise SystemExit(f"imported vegas_restart from {vegas_restart.__file__}, not from src/")
    import workloads

    wl = workloads.build(args.workload, args.seed, args.tmp)
    setup_s = time.perf_counter() - t0
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    instr = None
    if args.trace:
        import tracing

        instr = tracing.Instrumentation(tracing.Tracer())
    plain, traced, layers = measure(wl.ops, args.seconds, instr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if instr is not None and args.spans:
        instr.tracer.save(args.spans)
    tally = evaluate(wl.ops, plain, traced)
    metrics, extra = summarize(wl.ops, plain, tally)
    metrics["peak_rss_mb"] = peak_rss_mb
    extra["inputs"] = wl.inputs
    extra["traced_passes"] = len(traced)
    print(json.dumps({
        "setup_s": setup_s,
        "metrics": metrics,
        "per_layer": layer_summary(layers, traced, metrics["wall_s"]),
        **tally,
        "extra": extra,
        "machine": machine(),
    }))
    return 0


def summarize(ops, plain: list[Pass], tally: dict) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced passes, and the facts behind them."""
    walls = [p.wall for p in plain]
    first = plain[0].outputs
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_best_s": min(walls),
        "failed_frac": tally["failed"] / tally["attempted"],
    }
    extra = {"passes": len(plain), "pass_wall_s": walls, "ops_per_pass": len(ops)}
    trials = sum(op.trials for op in ops)
    if trials:
        metrics["mc_trials_per_s"] = statistics.median(trials / w for w in walls)
    if any(op.steps for op in ops):
        steps = sum(op.steps(out) for op, out in zip(ops, first) if op.steps)
        metrics["mc_steps_per_s"] = statistics.median(steps / w for w in walls)
    latency_ms = [t * 1e3 for p in plain for op, t in zip(ops, p.times) if op.latency]
    if latency_ms:
        metrics["oracle_call_ms_p50"] = statistics.median(latency_ms)
        metrics["oracle_call_ms_p95"] = percentile(latency_ms, 95.0)
        rel = tail_rel(ops, first)
        metrics["oracle_tail_rel_mean"] = math.fsum(rel) / len(rel)
        extra["latency_samples"] = len(latency_ms)
        extra["latency_beyond_p95"] = beyond(latency_ms, 95.0)
        extra["tail_rel_ops"] = len(rel)
    extra["group_share"] = {
        g: statistics.median(
            math.fsum(t for op, t in zip(ops, p.times) if op.group == g) / p.wall
            for p in plain
        )
        for g in sorted({op.group for op in ops})
    }
    extra["op_ms"] = {
        f"{i:04d} {op.name}": 1e3 * statistics.median(p.times[i] for p in plain)
        for i, op in enumerate(ops)
    }
    return metrics, extra


def layer_summary(layers: list[dict], traced: list[Pass], wall_s: float) -> dict:
    """Per-layer metrics: counts of the first traced pass (every pass repeats
    them), times and rates as the median over traced passes."""
    if not traced:
        return {}
    out = {}
    for key in layers[0]:
        if key.endswith("self_s") or key == "engine.attempts_per_s":
            out[key] = statistics.median(m[key] for m in layers)
        else:
            out[key] = layers[0][key]
    out["trace.overhead_frac"] = statistics.median(p.wall for p in traced) / wall_s - 1.0
    return out


if __name__ == "__main__":
    sys.exit(main())
