"""Library-level timings of the figures ROADMAP.md quotes, for BASELINE.md.

    python3 bench/roadmap_figures.py

Each figure is the median (and the fastest) of repeated calls in this one
process, without the CLI.  MC attempts are counted by wrapping
engine.run_once_truncated for one untimed run.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def timed_ms(fn, repeats: int) -> tuple[float, float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times), 1e3 * min(times)


def main() -> int:
    os.environ["VEGAS_RESTART_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from vegas_restart import analysis, distx, engine, schedules, verify
    from vegas_restart.distx import RuntimeModel

    adv = RuntimeModel(distx.adversarial_density(20.0), "geometric")
    atoms = RuntimeModel(distx.two_point(4.0), "deterministic")
    figures = {
        "analytic_cost universal adversarial_density(20)|geometric": (
            lambda: analysis.analytic_cost(adv, schedules.universal_schedule()), 30),
        "analytic_cost two_threshold adversarial_density(20)|geometric": (
            lambda: analysis.analytic_cost(
                adv, schedules.two_threshold_schedule(distx.expectation(adv.dist))), 30),
        "analytic_cost fixed two_point(4)|deterministic": (
            lambda: analysis.analytic_cost(atoms, schedules.fixed_schedule(4.0)), 300),
        "verify.run_scope('all')": (lambda: verify.run_scope("all"), 15),
    }
    for name, (fn, repeats) in figures.items():
        med, best = timed_ms(fn, repeats)
        print(f"{name:64s} median {med:9.4f} ms  best {best:9.4f} ms")

    model = RuntimeModel(distx.two_point(4.0), "geometric")
    sched = schedules.single_threshold_schedule(0.0)
    proc = engine.SamplerProcess(model)
    attempts = 0
    original = engine.run_once_truncated

    def counted(*args, **kwargs):
        nonlocal attempts
        attempts += 1
        return original(*args, **kwargs)

    engine.run_once_truncated = counted
    try:
        engine.mc_expected_cost(proc, sched, trials=20_000, seed=1)
    finally:
        engine.run_once_truncated = original
    med, best = timed_ms(lambda: engine.mc_expected_cost(proc, sched, trials=20_000, seed=1), 5)
    print(f"{'MC attempts/s, two_point(4)|geometric single_threshold(0)':64s}"
          f" median {attempts / med * 1e3:9.0f}     best {attempts / best * 1e3:9.0f}"
          f"  ({attempts} attempts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
