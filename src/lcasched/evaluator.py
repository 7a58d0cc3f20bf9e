"""Non-preemptive schedule replay and its metrics.

Jobs queue per VM in arrival order (ties by job id). A job starts once its
VM is free and it has arrived, then runs for length/speed seconds without
interruption. Metrics: makespan is the last finish minus the earliest
arrival, average completion is the mean finish time, and average response
is the mean wait between arrival and service start.

``ScheduleSimulator`` unpacks an instance into arrays once so that many
assignments can be scored cheaply; ``brute_force_optimal`` enumerates every
assignment of a tiny instance as an exact reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .problem import Job, MetricWeights, Vm

__all__ = [
    "JobTimeline",
    "ScheduleMetrics",
    "ScheduleSimulator",
    "InstanceTooLargeError",
    "evaluate",
    "brute_force_optimal",
    "BRUTE_FORCE_CAP",
]

BRUTE_FORCE_CAP = 10_000_000


class InstanceTooLargeError(ValueError):
    """Raised when an instance exceeds the exhaustive-enumeration cap."""


@dataclass(frozen=True)
class ScheduleMetrics:
    makespan: float
    avg_completion: float
    avg_response: float


@dataclass(frozen=True, eq=False)
class JobTimeline:
    """Per-job service window, indexed by position in the job list."""

    start_times: np.ndarray
    finish_times: np.ndarray
    vm_ids: np.ndarray


class ScheduleSimulator:
    """Replay machine for one (jobs, vms) instance under many assignments.

    Queues are reconstructed per assignment fully vectorized: jobs are put
    in service order, stably grouped by VM, and each queue's start times
    follow from running prefix sums of the execution times (plus a running
    maximum of arrival slack when arrivals are staggered).

    The grouping sorts VM indices cast to the narrowest unsigned dtype that
    holds ``num_vms - 1`` (uint8 up to 256 VMs, uint16 up to 65536); on
    those numpy's stable argsort is a radix sort, and a stable sort yields the
    same permutation on any integer dtype. The per-queue running maximum is
    one ``np.maximum.accumulate`` over complex keys (queue number + slack·j),
    which numpy orders lexicographically, so it restarts at every queue head
    without a Python loop. Neither step rounds, so results are bit-identical
    to a per-queue replay with int64 keys.
    """

    def __init__(self, jobs: Sequence[Job], vms: Sequence[Vm]):
        if not jobs or not vms:
            raise ValueError("jobs and vms must be non-empty")
        self.num_jobs = len(jobs)
        self.num_vms = len(vms)
        self.arrivals = np.array([j.arrival_time for j in jobs], dtype=float)
        self.lengths = np.array([j.length for j in jobs], dtype=float)
        self.speeds = np.array([v.speed for v in vms], dtype=float)
        ids = np.array([j.id for j in jobs], dtype=np.int64)
        self._service_order = np.lexsort((ids, self.arrivals))
        self._arrivals_sorted = self.arrivals[self._service_order]
        self._lengths_sorted = self.lengths[self._service_order]
        self._batch = bool(np.all(self.arrivals == 0.0))
        self._min_arrival = float(self.arrivals.min())
        self._vm_key = np.min_scalar_type(self.num_vms - 1)

    def _replay(self, assignment: np.ndarray):
        assignment = np.asarray(assignment)
        if assignment.shape != (self.num_jobs,):
            raise ValueError("assignment must hold one VM index per job")
        if not np.issubdtype(assignment.dtype, np.integer):
            raise ValueError("assignment must hold integer VM indices")
        if int(assignment.min()) < 0 or int(assignment.max()) >= self.num_vms:
            raise ValueError("assignment refers to a VM that does not exist")
        vm_sorted = assignment[self._service_order].astype(self._vm_key)
        group = np.argsort(vm_sorted, kind="stable")
        grouped_vm = vm_sorted[group]
        exec_times = self._lengths_sorted[group] / self.speeds.take(grouped_vm)
        totals = np.cumsum(exec_times)
        before = totals - exec_times
        first = np.empty(grouped_vm.size, dtype=bool)
        first[0] = True
        first[1:] = grouped_vm[1:] != grouped_vm[:-1]
        if self._batch:
            queue_heads = np.flatnonzero(first)
            counts = np.diff(np.append(queue_heads, grouped_vm.size))
            offsets = np.repeat(before[queue_heads], counts)
            starts = np.maximum(before - offsets, 0.0)
            waits = starts
        else:
            arrivals = self._arrivals_sorted[group]
            slack = arrivals - before
            starts = np.maximum(before + _segmented_cummax(slack, first), arrivals)
            waits = starts - arrivals
        finishes = starts + exec_times
        metrics = ScheduleMetrics(
            makespan=float(finishes.max()) - self._min_arrival,
            avg_completion=float(finishes.mean()),
            avg_response=float(waits.mean()),
        )
        return group, starts, finishes, metrics

    def metrics(self, assignment: np.ndarray) -> ScheduleMetrics:
        """Score one assignment without materializing the timeline."""
        return self._replay(assignment)[3]

    def run(self, assignment: np.ndarray) -> tuple[JobTimeline, ScheduleMetrics]:
        """Replay one assignment, returning the per-job timeline and metrics."""
        group, starts, finishes, metrics = self._replay(assignment)
        positions = self._service_order[group]
        start_times = np.empty(self.num_jobs, dtype=float)
        finish_times = np.empty(self.num_jobs, dtype=float)
        start_times[positions] = starts
        finish_times[positions] = finishes
        timeline = JobTimeline(
            start_times=start_times,
            finish_times=finish_times,
            vm_ids=np.asarray(assignment, dtype=np.int64).copy(),
        )
        return timeline, metrics


def _segmented_cummax(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Running maximum restarted at every True in ``first``.

    Keys pair a queue number that grows at every head (real part) with the
    value (imaginary part); the lexicographic running maximum of the keys
    never carries a value across a head.
    """
    keys = np.empty(values.size, dtype=np.complex128)
    keys.real = np.cumsum(first)
    keys.imag = values
    return np.maximum.accumulate(keys).imag


def evaluate(
    jobs: Sequence[Job], vms: Sequence[Vm], assignment: np.ndarray
) -> tuple[JobTimeline, ScheduleMetrics]:
    """Replay ``assignment`` for (jobs, vms); see ``ScheduleSimulator``."""
    return ScheduleSimulator(jobs, vms).run(assignment)


def brute_force_optimal(
    jobs: Sequence[Job],
    vms: Sequence[Vm],
    weights: MetricWeights = MetricWeights(),
) -> tuple[np.ndarray, ScheduleMetrics]:
    """Exact minimizer of the weighted objective over every assignment.

    Enumerates all num_vms ** num_jobs assignments in lexicographic order
    and keeps the first strict improvement, so ties resolve to the
    lexicographically smallest vector. Guarded by ``BRUTE_FORCE_CAP``.
    """
    simulator = ScheduleSimulator(jobs, vms)
    if simulator.num_vms ** simulator.num_jobs > BRUTE_FORCE_CAP:
        raise InstanceTooLargeError(
            f"{simulator.num_vms}^{simulator.num_jobs} assignments exceed "
            f"the enumeration cap of {BRUTE_FORCE_CAP}"
        )
    best_assignment = None
    best_metrics = None
    best_score = np.inf
    for combo in itertools.product(range(simulator.num_vms), repeat=simulator.num_jobs):
        assignment = np.array(combo, dtype=np.int64)
        metrics = simulator.metrics(assignment)
        score = weights.score(metrics)
        if score < best_score:
            best_score = score
            best_assignment = assignment
            best_metrics = metrics
    return best_assignment, best_metrics
