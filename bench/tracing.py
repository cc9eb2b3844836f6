"""In-memory span tracer that wraps the package's public functions from outside.

Each wrapper is installed at the name its callers look up (a module global or
a class attribute), records one span (name, start, end, parent span) around
the call, and updates counters at the same boundary.  Nothing under ``src/``
is edited: ``install`` rebinds the names and ``uninstall`` restores the
originals, so untraced passes run the unmodified program.

A span's self time is its duration minus the time covered by its direct
children; because the program runs on one thread and wrappers nest strictly,
the children of a span never overlap each other.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Checkers behind the analyze verdicts and the verify command.
CHECKERS = (
    "find_threshold_witness",
    "check_two_phase_coverage",
    "check_block_coverage",
    "block_success_prob",
    "min_threshold_ratio",
)


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {}
        self.max_values: dict[str, float] = {}
        self._by_value: dict = {}
        self._by_id: dict[int, tuple[int, object]] = {}

    def reset(self) -> None:
        """Drop the spans and counts of the previous pass; arrays are cleared
        in place because the wrappers hold their append methods."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self._stack.clear()
        self.counts.clear()
        self.distinct.clear()
        self.max_values.clear()
        self._by_value.clear()
        self._by_id.clear()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def value_id(self, obj) -> int:
        """Small integer naming obj's value; each object is hashed only once.

        The entry keeps obj alive, so its id() is not reused within the pass.
        """
        entry = self._by_id.get(id(obj))
        if entry is None:
            entry = self._by_id[id(obj)] = (
                self._by_value.setdefault(obj, len(self._by_value)), obj)
        return entry[0]

    def note_distinct(self, name: str, key) -> None:
        self.distinct.setdefault(name, set()).add(key)

    def note_max(self, name: str, value: float) -> None:
        if value > self.max_values.get(name, -math.inf):
            self.max_values[name] = value

    def calls(self) -> dict[str, int]:
        counts = np.bincount(
            np.frombuffer(self.span_name, dtype=np.int32), minlength=len(self.names)
        )
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def wrap(self, name: str, fn, on_call=None, on_return=None, on_raise=None):
        """Return fn wrapped in a span named name.

        on_call(args, kwargs) runs before the call; on_return(result, args,
        kwargs) after a normal return; on_raise(exc) when fn raises.  The
        wrapper returns fn's result and re-raises fn's exception unchanged.
        """
        nid = self.name_id(name)
        stack = self._stack
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end = self.span_start.append, self.span_end.append
        ends = self.span_end

        def traced(*args, **kwargs):
            sid = len(ends)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_end(math.nan)
            stack.append(sid)
            if on_call is not None:
                on_call(args, kwargs)
            add_start(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = perf_counter()
                stack.pop()
                if on_raise is not None:
                    on_raise(exc)
                raise
            ends[sid] = perf_counter()
            stack.pop()
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _spans(self):
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        return names, parents, dur

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct-child coverage."""
        names, parents, dur = self._spans()
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = np.bincount(names, weights=dur - covered, minlength=len(self.names))
        return {name: float(self_t[i]) for i, name in enumerate(self.names)}

    def inclusive_times(self) -> dict[str, float]:
        """Total duration per span name, counting only outermost spans of that name."""
        names, parents, dur = self._spans()
        parent_name = np.where(parents >= 0, names[np.maximum(parents, 0)], -1)
        outer = parent_name != names
        tot = np.bincount(names[outer], weights=dur[outer], minlength=len(self.names))
        return {name: float(tot[i]) for i, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        """Write the spans of the current pass as arrays to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


class Instrumentation:
    """The set of wrappers, one per (owner, attribute) call site, for a Tracer."""

    def __init__(self, tracer: Tracer):
        from vegas_restart import analysis, cli, distx, engine, schedules, starfn, streams, verify

        t = tracer
        self.tracer = t
        self._sites: list[tuple[object, str, object, object]] = []

        def site(owners, attr, name, **hooks):
            """Wrap owners[0].attr at every owner that binds the same object.

            owners[0] defines the function and the others import it by name.
            A name a later version no longer binds is skipped, so its layer
            reads 0 instead of stopping the run.
            """
            original = getattr(owners[0], attr, None)
            if original is None:
                return
            wrapped = t.wrap(name, original, **hooks)
            for owner in owners:
                if getattr(owner, attr, None) is original:
                    self._sites.append((owner, attr, original, wrapped))

        def on_random(args, kwargs):
            size = args[1] if len(args) > 1 else kwargs.get("size")
            if size is None:
                t.counts["streams.random.scalar_calls"] += 1
            else:
                t.counts["streams.random.vector_draws"] += int(size)

        def on_runtime_stats(result, args, kwargs):
            t.note_distinct("distx.runtime_stats", (t.value_id(args[0]), args[1]))

        def on_budget_block(result, args, kwargs):
            t.note_distinct("schedules.budget_block", args[0])

        def on_trial(result, args, kwargs):
            t.counts["engine.trials"] += 1
            t.counts["engine.trial_attempts"] += result.attempts
            t.note_max("engine.attempts_per_trial", result.attempts)

        def on_trial_capped(exc):
            if isinstance(exc, engine.CapExceeded):
                t.counts["engine.trials"] += 1
                t.counts["engine.n_capped"] += 1
                t.counts["engine.trial_attempts"] += exc.report.attempts
                t.note_max("engine.attempts_per_trial", exc.report.attempts)

        def on_advance(result, args, kwargs):
            t.counts["engine.advance.steps"] += int(result[1])

        def on_cost(result, args, kwargs):
            t.counts["analysis.attempts_summed"] += result.attempts_summed

        def on_rows(result, args, kwargs):
            t.counts["verify.rows"] += len(result)

        site([streams, engine], "stream_key", "streams.stream_key")
        site([streams.CounterStream], "random", "streams.random", on_call=on_random)
        site([distx], "sample_t", "distx.sample_t")
        site([distx, analysis], "runtime_stats", "distx.runtime_stats",
             on_return=on_runtime_stats)
        site([distx], "quad", "distx.quad")
        site([schedules, analysis], "budget_block", "schedules.budget_block",
             on_return=on_budget_block)
        site([starfn], "shrink_trace", "starfn.shrink_trace")
        site([engine, cli], "mc_expected_cost", "engine.mc_expected_cost")
        site([engine], "run_with_schedule", "engine.run_with_schedule",
             on_return=on_trial, on_raise=on_trial_capped)
        site([engine], "run_once_truncated", "engine.run_once_truncated")
        for cls in (engine.GeometricCoinRun, engine.BitstringGuessRun):
            site([cls], "advance", "engine.advance", on_return=on_advance)
        site([analysis, cli, verify], "analytic_cost", "analysis.analytic_cost",
             on_return=on_cost)
        for name in CHECKERS:
            site([analysis, verify], name, "analysis.checkers")
        site([verify], "run_scope", "verify.run_scope", on_return=on_rows)
        site([cli], "main", "cli.main")

    def install(self) -> None:
        for owner, attr, _original, wrapped in self._sites:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapped in reversed(self._sites):
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        return layer_metrics(self.tracer)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass, keyed by metric name."""
    c = tracer.counts
    calls = tracer.calls()
    self_t = tracer.self_times()
    incl = tracer.inclusive_times()
    out: dict[str, float] = {}
    for span in (
        "streams.stream_key",
        "distx.sample_t",
        "distx.runtime_stats",
        "distx.quad",
        "schedules.budget_block",
        "starfn.shrink_trace",
        "engine.mc_expected_cost",
        "engine.run_with_schedule",
        "engine.run_once_truncated",
        "engine.advance",
        "analysis.analytic_cost",
        "analysis.checkers",
        "cli.main",
    ):
        out[span + ".calls"] = float(calls.get(span, 0))
        out[span + ".self_s"] = self_t.get(span, 0.0)
    out["streams.random.scalar_calls"] = float(c["streams.random.scalar_calls"])
    out["streams.random.vector_draws"] = float(c["streams.random.vector_draws"])
    out["streams.random.self_s"] = self_t.get("streams.random", 0.0)
    for span in ("distx.runtime_stats", "schedules.budget_block"):
        n = calls.get(span, 0)
        out[span + ".distinct_frac"] = len(tracer.distinct.get(span, ())) / n if n else 0.0
    trials = c["engine.trials"]
    attempts = calls.get("engine.run_once_truncated", 0)
    engine_time = incl.get("engine.run_with_schedule", 0.0)
    out["engine.attempts_per_s"] = attempts / engine_time if engine_time > 0.0 else 0.0
    out["engine.attempts_per_trial.mean"] = c["engine.trial_attempts"] / trials if trials else 0.0
    out["engine.attempts_per_trial.max"] = float(
        tracer.max_values.get("engine.attempts_per_trial", 0)
    )
    out["engine.n_capped"] = float(c["engine.n_capped"])
    out["engine.advance.steps"] = float(c["engine.advance.steps"])
    draws = c["streams.random.vector_draws"]
    out["engine.advance.useful_frac"] = c["engine.advance.steps"] / draws if draws else 0.0
    out["analysis.attempts_summed"] = float(c["analysis.attempts_summed"])
    out["verify.run_scope.self_s"] = self_t.get("verify.run_scope", 0.0)
    out["verify.rows"] = float(c["verify.rows"])
    return out
