"""Dispatch-rule schedulers used as comparison points.

Both walk the jobs in a fixed dispatch order and hand each to the VM whose
queue frees up earliest, accounting for the job's arrival. FCFS dispatches
in arrival order; LJF dispatches longest job first by default, or latest
arrival first in ``last-arrival`` mode. The VMs sit in a binary heap of
``(ready_time, vm_id)`` tuples, so a dispatch costs O(log m) instead of a
scan of all m queues, and tuple order sends ties to the lowest VM id.
The returned assignment is aligned with the input job list; service order
within a VM is decided by the evaluator, not by dispatch order.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from .problem import Job, Vm

__all__ = ["fcfs_schedule", "ljf_schedule", "LJF_MODES"]

LJF_MODES = ("longest", "last-arrival")


def _dispatch(jobs, vms, field: str, descending: bool) -> np.ndarray:
    """Hand out jobs in order of ``field``, ties by id and then by position
    (a stable lexsort), each to the VM that frees up earliest."""
    if not jobs or not vms:
        raise ValueError("jobs and vms must be non-empty")
    ids = np.array([job.id for job in jobs], dtype=np.int64)
    values = np.array([getattr(job, field) for job in jobs], float if field == "arrival_time" else np.int64)
    speeds = [vm.speed for vm in vms]
    heap = [(0.0, vm) for vm in range(len(vms))]  # sorted, hence a valid heap
    assignment = [0] * len(jobs)
    for position in np.lexsort((ids, -values if descending else values)).tolist():
        job = jobs[position]
        ready, vm = heap[0]
        heapq.heapreplace(heap, (max(ready, job.arrival_time) + job.length / speeds[vm], vm))
        assignment[position] = vm
    return np.array(assignment, dtype=np.int64)


def fcfs_schedule(jobs: Sequence[Job], vms: Sequence[Vm]) -> np.ndarray:
    """First come first served: dispatch by (arrival_time, id)."""
    return _dispatch(jobs, vms, "arrival_time", descending=False)


def ljf_schedule(jobs: Sequence[Job], vms: Sequence[Vm], mode: str = "longest") -> np.ndarray:
    """Longest job first: dispatch by decreasing length (ties by id).

    ``mode='last-arrival'`` dispatches by decreasing arrival time instead.
    """
    if mode not in LJF_MODES:
        raise ValueError(f"unknown ljf mode: {mode!r}")
    return _dispatch(jobs, vms, "length" if mode == "longest" else "arrival_time", descending=True)
