"""Dispatch-rule schedulers used as comparison points.

Both walk the jobs in a fixed dispatch order and hand each to the VM whose
queue frees up earliest, accounting for the job's arrival. FCFS dispatches
in arrival order; LJF dispatches longest job first by default, or latest
arrival first in ``last-arrival`` mode. The VMs sit in a binary heap of
``(ready_time, vm_id)`` tuples, so a dispatch costs O(log m) instead of a
scan of all m queues, and tuple order sends ties to the lowest VM id.
The returned assignment is aligned with the input job list; service order
within a VM is decided by the evaluator, not by dispatch order.

The job columns and the (arrival, id) order FCFS dispatches in come from
``problem._job_columns``, shared with the evaluator, which reads a job
table's columns as they are.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from .problem import Job, Vm, _job_columns

__all__ = ["fcfs_schedule", "ljf_schedule", "LJF_MODES"]

LJF_MODES = ("longest", "last-arrival")


def _dispatch(jobs, vms, column: str | None) -> np.ndarray:
    """Hand out jobs in (arrival, id) order or by decreasing ``column``, ties by id and then by
    position (a stable lexsort), each to the VM that frees up earliest, at max(ready, arrival)."""
    if not jobs or not vms:
        raise ValueError("jobs and vms must be non-empty")
    columns = _job_columns(jobs)
    order = columns.service_order if column is None else np.lexsort((columns.ids, -getattr(columns, column)))
    arrivals, lengths, replace = columns.arrival_list, columns.length_list, heapq.heapreplace
    speeds = [vm.speed for vm in vms]
    heap = [(0.0, vm) for vm in range(len(vms))]  # sorted, hence a valid heap
    assignment = [0] * len(jobs)
    for position in order.tolist():
        ready, vm = heap[0]
        arrival = arrivals[position]
        replace(heap, ((arrival if arrival > ready else ready) + lengths[position] / speeds[vm], vm))
        assignment[position] = vm
    return np.array(assignment, dtype=np.int64)


def fcfs_schedule(jobs: Sequence[Job], vms: Sequence[Vm]) -> np.ndarray:
    """First come first served: dispatch by (arrival_time, id)."""
    return _dispatch(jobs, vms, None)


def ljf_schedule(jobs: Sequence[Job], vms: Sequence[Vm], mode: str = "longest") -> np.ndarray:
    """Longest job first: dispatch by decreasing length (ties by id).

    ``mode='last-arrival'`` dispatches by decreasing arrival time instead.
    """
    if mode not in LJF_MODES:
        raise ValueError(f"unknown ljf mode: {mode!r}")
    return _dispatch(jobs, vms, "lengths" if mode == "longest" else "arrivals")
