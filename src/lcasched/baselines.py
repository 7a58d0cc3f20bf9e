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


def _greedy_earliest_ready(jobs, vms, dispatch_order) -> np.ndarray:
    speeds = [vm.speed for vm in vms]
    heap = [(0.0, vm) for vm in range(len(vms))]  # sorted, hence a valid heap
    assignment = [0] * len(jobs)
    for position in dispatch_order:
        job = jobs[position]
        ready, vm = heap[0]
        heapq.heapreplace(heap, (max(ready, job.arrival_time) + job.length / speeds[vm], vm))
        assignment[position] = vm
    return np.array(assignment, dtype=np.int64)


def _check_inputs(jobs, vms):
    if not jobs or not vms:
        raise ValueError("jobs and vms must be non-empty")


def fcfs_schedule(jobs: Sequence[Job], vms: Sequence[Vm]) -> np.ndarray:
    """First come first served: dispatch by (arrival_time, id)."""
    _check_inputs(jobs, vms)
    order = sorted(range(len(jobs)), key=lambda p: (jobs[p].arrival_time, jobs[p].id))
    return _greedy_earliest_ready(jobs, vms, order)


def ljf_schedule(jobs: Sequence[Job], vms: Sequence[Vm], mode: str = "longest") -> np.ndarray:
    """Longest job first: dispatch by decreasing length (ties by id).

    ``mode='last-arrival'`` dispatches by decreasing arrival time instead.
    """
    _check_inputs(jobs, vms)
    if mode == "longest":
        order = sorted(range(len(jobs)), key=lambda p: (-jobs[p].length, jobs[p].id))
    elif mode == "last-arrival":
        order = sorted(range(len(jobs)), key=lambda p: (-jobs[p].arrival_time, jobs[p].id))
    else:
        raise ValueError(f"unknown ljf mode: {mode!r}")
    return _greedy_earliest_ready(jobs, vms, order)
