"""Dispatch-rule schedulers used as comparison points.

Both walk the jobs in a fixed dispatch order and hand each to the VM whose
queue frees up earliest, accounting for the job's arrival. FCFS dispatches
in arrival order; LJF longest job first by default, or latest arrival first
in ``last-arrival`` mode (the paper's "Last Job First"). The VMs sit in a
binary heap of ``(ready_time, vm)`` tuples, ``vm`` being the VM's index in
``vms`` (``Vm.id`` is not read), so a dispatch costs O(log m) instead of a
scan of all m queues, and tuple order sends ties to the lowest index. The
returned assignment is aligned with the input job list; service order
within a VM is decided by the replay, not by dispatch order.

The heap is seeded: every VM is free at 0.0, and a job keeps its VM busy
past 0.0 (a length is at least 1 and a speed is finite), so job k < m of
the order goes to VM k without a heap step. The m entries are then
heapified; they are distinct tuples, so ``heap[0]`` is the same at every
later step whatever the layout, and the assignment is the unseeded one.

The job columns and both dispatch orders come from ``problem._job_columns``,
shared with the replay, which reads a job table as it is. A table sorts
each order once, on first use, and keeps it as a tuple, so the cells of one
table do not sort again. It also keeps its lengths as floats, cast as numpy
casts them, so each step divides a float by a float speed.
"""

from __future__ import annotations

import heapq
from itertools import islice
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
    order = iter(columns.dispatch_order(column))  # sorted once per table and kept
    arrivals, lengths, replace = columns.arrival_list, columns.float_lengths, heapq.heapreplace
    speeds = [vm.speed for vm in vms]
    assignment = [0] * len(jobs)
    heap = []  # seeded: job k < m of the order takes VM k (see the module docstring)
    for vm, position in enumerate(islice(order, len(speeds))):
        arrival = arrivals[position]
        heap.append(((arrival if arrival > 0.0 else 0.0) + lengths[position] / speeds[vm], vm))
        assignment[position] = vm
    heap += [(0.0, vm) for vm in range(len(heap), len(speeds))]
    heapq.heapify(heap)
    for position in order:
        ready, vm = heap[0]
        arrival = arrivals[position]
        replace(heap, ((arrival if arrival > ready else ready) + lengths[position] / speeds[vm], vm))
        assignment[position] = vm
    return np.fromiter(assignment, np.int64, len(assignment))


def fcfs_schedule(jobs: Sequence[Job], vms: Sequence[Vm]) -> np.ndarray:
    """First come first served: dispatch by (arrival_time, id)."""
    return _dispatch(jobs, vms, None)


def ljf_schedule(jobs: Sequence[Job], vms: Sequence[Vm], mode: str = "longest") -> np.ndarray:
    """LJF, longest job first: dispatch by decreasing length (ties by id).

    ``mode='last-arrival'`` dispatches by decreasing arrival time instead,
    the paper's "Last Job First"; on a batch instance that is FCFS's order.
    """
    if mode not in LJF_MODES:
        raise ValueError(f"unknown ljf mode: {mode!r}")
    return _dispatch(jobs, vms, "lengths" if mode == "longest" else "arrivals")
