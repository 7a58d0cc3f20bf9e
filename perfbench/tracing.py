"""Span tracing from outside the program: wrappers around lcasched's public functions.

``Tracer.installed()`` swaps each traced function for a timing wrapper in
every loaded ``lcasched`` module that binds it (the defining module, the
package namespace and the modules that imported it), and the two traced
``ScheduleSimulator`` methods on the class; leaving the block puts every
original back. Spans stay in memory as ``[name, start, end, parent, cell]``
lists, indexed by their position in ``Tracer.spans`` (start order); parent
is -1 at top level and cell is "algorithm/num_vms/seed" inside ``run_cell``.
Objective spans carry the returned value as a sixth element.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

from lcasched import ScheduleSimulator

# (defining module, public name, span name)
FUNCTIONS = (
    ("lcasched.bench", "run_cell", "bench.cell"),
    ("lcasched.bench", "summarize", "bench.summarize"),
    ("lcasched.bench", "write_results_csv", "bench.write_csv"),
    ("lcasched.bench", "write_summary_csv", "bench.write_csv"),
    ("lcasched.lca", "optimize", "lca.optimize"),
    ("lcasched.lca", "swot_update", "lca.swot_update"),
    ("lcasched.lca", "play_week", "lca.play_week"),
    ("lcasched.problem", "make_objective", "problem.make_objective"),
    ("lcasched.problem", "decode_random_key", "problem.decode"),
    ("lcasched.baselines", "fcfs_schedule", "baselines.fcfs"),
    ("lcasched.baselines", "ljf_schedule", "baselines.ljf"),
    ("lcasched.workload", "generate_workload", "workload.generate"),
    ("lcasched.workload", "generate_fleet", "workload.generate_fleet"),
    ("lcasched.workload", "read_jobs_csv", "workload.read_jobs_csv"),
)
METHODS = (
    (ScheduleSimulator, "__init__", "evaluator.simulator_init"),
    (ScheduleSimulator, "metrics", "evaluator.metrics"),
)
OBJECTIVE = "problem.objective"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._cell: str | None = None
        self.patched: list[tuple] = []

    def _wrap(self, name, fn, keep_value=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._cell]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if keep_value:
                span.append(value)
            return value

        return wrapper

    def _wrap_run_cell(self, fn):
        inner = self._wrap("bench.cell", fn)

        @functools.wraps(fn)
        def wrapper(config, algorithm, num_vms, seed):
            self._cell = f"{algorithm}/{num_vms}/{seed}"
            try:
                return inner(config, algorithm, num_vms, seed)
            finally:
                self._cell = None

        return wrapper

    def _wrap_make_objective(self, fn):
        inner = self._wrap("problem.make_objective", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._wrap(OBJECTIVE, inner(*args, **kwargs), keep_value=True)

        return wrapper

    @contextmanager
    def installed(self):
        """Trace every call into the listed public functions while the block runs."""
        patches = self.patched = []
        try:
            modules = [m for n, m in list(sys.modules.items()) if n == "lcasched" or n.startswith("lcasched.")]
            for module_name, attr, span_name in FUNCTIONS:
                original = getattr(sys.modules[module_name], attr)
                if attr == "run_cell":
                    wrapper = self._wrap_run_cell(original)
                elif attr == "make_objective":
                    wrapper = self._wrap_make_objective(original)
                else:
                    wrapper = self._wrap(span_name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, key, original))
                            setattr(module, key, wrapper)
            for cls, attr, span_name in METHODS:
                original = cls.__dict__[attr]
                patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(span_name, original))
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def restored(self) -> bool:
        """True when every binding the last ``installed()`` replaced holds its original again."""
        return all(vars(owner)[key] is original for owner, key, original in self.patched)

    def write(self, path, first: int = 0) -> None:
        """Write spans from index ``first`` on as gzipped JSON lines, ids relative to ``first``."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index in range(first, len(self.spans)):
                name, start, end, parent, cell = self.spans[index][:5]
                record = {
                    "id": index - first,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent - first if parent >= first else -1,
                    "cell": cell,
                }
                handle.write(json.dumps(record) + "\n")


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total milliseconds, and self milliseconds (total minus child spans)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for index, (name, start, end, *_) in enumerate(spans):
        entry = table.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["total_ms"] += (end - start) * 1e3
        entry["self_ms"] += (end - start - child_time[index]) * 1e3
    return table


BUILD = {
    "workload.generate",
    "workload.generate_fleet",
    "workload.read_jobs_csv",
    "evaluator.simulator_init",
    "problem.make_objective",
}
SCHEDULE = {"lca.optimize", "baselines.fcfs", "baselines.ljf"}


def layer_metrics(spans, sweeps: int) -> dict[str, float | None]:
    """Per-layer figures from the spans of ``sweeps`` traced sweeps.

    Means are per call (µs or ms as the name says) and counts per sweep.
    A mean is None where the workload made no such call.
    """
    children: list[list[int]] = [[] for _ in spans]
    by_name: dict[str, list[float]] = {}
    for index, (name, start, end, parent, *_) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
        by_name.setdefault(name, []).append(end - start)

    def mean(name, scale):
        values = by_name.get(name)
        return statistics.fmean(values) * scale if values else None

    def duration(index):
        return spans[index][2] - spans[index][1]

    evaluations = improving = 0
    overhead = 0.0
    for index, span in enumerate(spans):
        if span[0] != "lca.optimize":
            continue
        best = float("inf")
        drafting = False
        inside = 0.0
        for child in children[index]:
            name = spans[child][0]
            if name == "lca.play_week":
                drafting = True
            elif name == OBJECTIVE:
                value = spans[child][5]
                evaluations += 1
                inside += duration(child)
                if drafting and value < best:
                    improving += 1
                best = min(best, value)
        overhead += duration(index) - inside

    cells = [i for i, span in enumerate(spans) if span[0] == "bench.cell"]

    def per_cell_ms(names):
        if not cells:
            return None
        total = sum(duration(c) for cell in cells for c in children[cell] if spans[c][0] in names)
        return total / len(cells) * 1e3

    return {
        "lca.loop_overhead_us_per_eval": overhead / evaluations * 1e6 if evaluations else None,
        "lca.swot_update_us": mean("lca.swot_update", 1e6),
        "lca.play_week_us": mean("lca.play_week", 1e6),
        "lca.evaluations": evaluations / sweeps,
        "lca.weeks": len(by_name.get("lca.play_week", ())) / sweeps,
        "lca.improving_draft_ratio": improving / evaluations if evaluations else None,
        "problem.decode_us": mean("problem.decode", 1e6),
        "problem.objective_us": mean(OBJECTIVE, 1e6),
        "evaluator.replay_us": mean("evaluator.metrics", 1e6),
        "evaluator.simulator_init_ms": mean("evaluator.simulator_init", 1e3),
        "evaluator.simulators_per_cell": (
            len(by_name.get("evaluator.simulator_init", ())) / len(cells) if cells else None
        ),
        "baselines.fcfs_ms": mean("baselines.fcfs", 1e3),
        "baselines.ljf_ms": mean("baselines.ljf", 1e3),
        "workload.generate_ms": mean("workload.generate", 1e3),
        "workload.read_jobs_csv_ms": mean("workload.read_jobs_csv", 1e3),
        "workload.read_jobs_csv_calls": len(by_name.get("workload.read_jobs_csv", ())) / sweeps,
        "bench.cell_build_ms": per_cell_ms(BUILD),
        "bench.cell_schedule_ms": per_cell_ms(SCHEDULE),
        "bench.cell_score_ms": per_cell_ms({"evaluator.metrics"}),
        "bench.write_csv_ms": sum(by_name.get("bench.write_csv", ())) / sweeps * 1e3,
        "bench.summarize_ms": sum(by_name.get("bench.summarize", ())) / sweeps * 1e3,
    }
