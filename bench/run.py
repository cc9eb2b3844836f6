"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Runs the workload in fresh single-threaded worker processes (see worker.py):
several that only set up, whose median is ``setup_s``, then one that also
runs the timed phase and checks every op.  Prints a table of every metric
with its unit, the machine record, and as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The full record is also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc_sampler", "mc_stepped", "oracle")
SETUP_RUNS = 5  # set-up measurements per run, the timed worker's own included
TIME_LIMIT_S = 170.0

# End-to-end metrics: name -> (unit, better).  BENCHMARK.json bounds the ones
# every workload reports, that are never 0 and that stay steady on a shared
# host (README, "Timing on a shared host").
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "wall_best_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_frac": ("ratio", "lower"),
    "mc_trials_per_s": ("1/s", "higher"),
    "mc_steps_per_s": ("1/s", "higher"),
    "oracle_call_ms_p50": ("ms", "lower"),
    "oracle_call_ms_p95": ("ms", "lower"),
    "oracle_tail_rel_mean": ("ratio", "lower"),
}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        VEGAS_RESTART_THREADS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, phase: str, tmp: Path, deadline: float, spans: Path | None) -> dict:
    cmd = [
        sys.executable, str(ROOT / "bench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--phase", phase, "--tmp", str(tmp),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the worker started")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{phase} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "vegas_restart" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'vegas_restart'}", file=sys.stderr)
        return 2
    spec = load_benchmark_spec()
    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # one spans file per workload, so repeated traced runs do not pile up
    spans = out_dir / f"spans-{args.workload}.npz" if args.trace else None
    try:
        # set-up samples before and after the timed worker, so that they
        # span the run rather than one moment of the host's speed
        setups = [run_worker(args, "setup", tmp, deadline, None)["setup_s"]
                  for _ in range(SETUP_RUNS // 2)]
        res = run_worker(args, "run", tmp, deadline, spans)
        setups += [run_worker(args, "setup", tmp, deadline, None)["setup_s"]
                   for _ in range(SETUP_RUNS - 1 - SETUP_RUNS // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()  # only when no other run is using it
    setups.append(res["setup_s"])
    metrics = dict(res["metrics"], setup_s=statistics.median(setups))

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("machine " + json.dumps(res["machine"], sort_keys=True))
    print(f"samples: setup {len(setups)}, passes {res['extra']['passes']}"
          f" (+{res['extra']['traced_passes']} traced),"
          f" ops/pass {res['extra']['ops_per_pass']}"
          + (f", analyze latencies {res['extra']['latency_samples']}"
             f" ({res['extra']['latency_beyond_p95']} beyond p95)"
             if "latency_samples" in res["extra"] else ""))
    print("group share of pass time " + json.dumps(res["extra"]["group_share"], sort_keys=True))
    print(f"{'metric':36s} {'value':>14s} {'unit':8s} better")
    for name, value in metrics.items():
        unit, better = END_TO_END[name]
        print(f"{name:36s} {fmt(value):>14s} {unit:8s} {better}")
    layer_units = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    for name, value in res["per_layer"].items():
        unit, better = layer_units.get(name, ("", ""))
        print(f"{name:36s} {fmt(value):>14s} {unit:8s} {better}")
    print(f"ops attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
    for f in res["failures"]:
        print(f"FAILED [{f['kind']}] {f['op']}: {f['detail']}")
    for name in res["unstable_ops"]:
        print(f"UNSTABLE output differs between passes: {name}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = res["per_layer"] if args.trace else metrics
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    line = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = dict(res, args=vars(args), setup_samples=setups, metrics=metrics, result=line)
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
