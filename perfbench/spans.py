"""Span tracing of the program's layers, installed from outside the program.

Each traced function is replaced, for the duration of a traced round, at the
name its caller looks up: a module attribute for module-level functions, a
class attribute for methods. Spans (name, start, end, parent) are kept in
compact arrays and aggregated into self times when the run ends; the self
time of a span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

# (module, owner attribute or None, function name, span name)
TRACED = [
    ("harness", None, "run_scenario", "harness.run_scenario"),
    ("harness", None, "emit_csv", "harness.emit_csv"),
    ("harness", None, "solve_are", "oracle.solve_are"),
    ("harness", None, "step_rk4", "dynamics.step_rk4"),
    ("dynamics", "TrackingScenario", "step_reference", "dynamics.step_reference"),
    ("param_estimator", "ThetaEstimator", "observe", "param_estimator.observe"),
    ("param_estimator", None, "accumulate_window",
     "param_estimator.accumulate_window"),
    ("param_estimator", "ThetaEstimator", "update", "param_estimator.update"),
    ("policy_estimator", "PolicyEstimator", "record_sample",
     "policy_estimator.record_sample"),
    ("policy_estimator", "PolicyEstimator", "update_weights",
     "policy_estimator.update_weights"),
    ("policy_estimator", "PolicyEstimator", "update_gain",
     "policy_estimator.update_gain"),
    ("irl_engine", "RewardEstimator", "generate_query", "irl_engine.generate_query"),
    ("irl_engine", "RewardEstimator", "collect_trajectory_sample",
     "irl_engine.collect_trajectory_sample"),
    ("irl_engine", None, "build_row_block", "irl_engine.build_row_block"),
    ("irl_engine", "RewardEstimator", "update_weights", "irl_engine.update_weights"),
    ("irl_engine", "RewardEstimator", "update_gain", "irl_engine.update_gain"),
    ("irl_engine", "RewardEstimator", "schedule_purge", "irl_engine.schedule_purge"),
    ("history", "HistoryStack", "try_insert", "history.try_insert"),
    ("param_estimator", None, "gain_step", "rls.gain_step"),
    ("policy_estimator", None, "gain_step", "rls.gain_step"),
    ("irl_engine", None, "gain_step", "rls.gain_step"),
]

# which stack an offer went to, from the span that made it
OFFER_SOURCES = {
    "param_estimator.observe": "theta",
    "policy_estimator.record_sample": "policy",
    "irl_engine.generate_query": "irl",
    "irl_engine.collect_trajectory_sample": "irl",
}

US_PER_STEP = [
    "dynamics.step_rk4", "dynamics.step_reference",
    "param_estimator.observe", "param_estimator.accumulate_window",
    "param_estimator.update",
    "policy_estimator.record_sample", "policy_estimator.update_weights",
    "policy_estimator.update_gain",
    "irl_engine.generate_query", "irl_engine.collect_trajectory_sample",
    "irl_engine.build_row_block", "irl_engine.update_weights",
    "irl_engine.update_gain", "irl_engine.schedule_purge",
    "history.try_insert", "rls.gain_step",
]
STACKS = ("theta", "policy", "irl")


class Tracer:
    """In-memory span recorder plus event counters at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self.missing: set[str] = set()
        # counters read from return values at the layer boundary
        self._after = {"history.try_insert": self._count_offer,
                       "rls.gain_step": self._count_reset,
                       "irl_engine.schedule_purge": self._count_purge}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)
        on_result = self._after.get(name)
        clock = time.perf_counter
        opened = self._open
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.span_start)
            parent = opened[-1] if opened else -1
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            opened.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                tracer.span_start[index] = start
                tracer.span_end[index] = end
            if on_result is not None:
                on_result(out, parent)
            return out

        return traced

    def _count_offer(self, admitted, parent):
        source = self.names[self.span_name[parent]] if parent >= 0 else ""
        stack = OFFER_SOURCES.get(source, "other")
        self.counts[f"offers.{stack}"] += 1
        self.counts[f"admitted.{stack}"] += int(bool(admitted))

    def _count_reset(self, out, parent):
        self.counts["gain_resets"] += int(bool(out[1]))

    def _count_purge(self, purged, parent):
        self.counts["purges"] += int(bool(purged))

    def count_calls(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self, oirl_modules: dict, numpy_module):
        """Swap every traced name for its wrapper; restore them on exit."""
        restore = []
        try:
            for module, owner, attr, name in TRACED:
                target = oirl_modules[module]
                if owner is not None:
                    target = getattr(target, owner, None)
                if target is None or attr not in vars(target):
                    self.missing.add(".".join(filter(None, (module, owner, attr))))
                    continue
                original = vars(target)[attr]
                restore.append((target, attr, original))
                setattr(target, attr, self.wrap(original, name))
            linalg = numpy_module.linalg
            restore.append((linalg, "eigvalsh", linalg.eigvalsh))
            linalg.eigvalsh = self.count_calls(linalg.eigvalsh, "eigvalsh")
            yield self
        finally:
            for target, attr, original in reversed(restore):
                setattr(target, attr, original)

    # -- aggregation -------------------------------------------------------------

    def aggregate(self) -> tuple[dict[str, float], dict[str, int]]:
        """(total self seconds, call count) per span name."""
        child = [0.0] * len(self.span_start)
        total = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        # a child span always has a larger index than its parent, so walking
        # backwards finishes every child before its parent is read
        for i in range(len(self.span_start) - 1, -1, -1):
            duration = self.span_end[i] - self.span_start[i]
            total[self.span_name[i]] += duration - child[i]
            calls[self.span_name[i]] += 1
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += duration
        return dict(zip(self.names, total)), dict(zip(self.names, calls))


def layer_metrics(tracer: Tracer, steps: int, rounds: int,
                  csv_bytes: int) -> dict[str, float]:
    """Per-layer figures: self µs per closed-loop step, counts per round."""
    self_s, calls = tracer.aggregate()
    out = {}
    for name in US_PER_STEP:
        out[f"{name}.us_per_step"] = 1e6 * self_s.get(name, 0.0) / steps
    out["harness.run_scenario.self_us_per_step"] = \
        1e6 * self_s.get("harness.run_scenario", 0.0) / steps
    out["param_estimator.accumulate_window.calls"] = \
        calls.get("param_estimator.accumulate_window", 0) / rounds
    out["rls.gain_step.calls"] = calls.get("rls.gain_step", 0) / rounds
    out["rls.gain_resets"] = tracer.counts["gain_resets"] / rounds
    out["irl_engine.purges"] = tracer.counts["purges"] / rounds
    for stack in STACKS:
        offers = tracer.counts[f"offers.{stack}"]
        out[f"history.offers.{stack}"] = offers / rounds
        out[f"history.accept_ratio.{stack}"] = \
            tracer.counts[f"admitted.{stack}"] / offers if offers else 0.0
    out["linalg.eigvalsh.per_step"] = tracer.counts["eigvalsh"] / steps
    out["harness.emit_csv.s"] = self_s.get("harness.emit_csv", 0.0) / rounds
    out["harness.emit_csv.bytes"] = float(csv_bytes)
    solves = calls.get("oracle.solve_are", 0)
    out["oracle.solve_are.ms"] = \
        1e3 * self_s.get("oracle.solve_are", 0.0) / solves if solves else 0.0
    return out
