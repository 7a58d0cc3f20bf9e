"""Non-preemptive schedule replay and its metrics.

Jobs queue per VM in arrival order (ties by job id). A job starts once its
VM is free and it has arrived, then runs for length/speed seconds without
interruption. Metrics: makespan is the last finish minus the earliest
arrival, average completion is the mean finish time, and average response
is the mean wait between arrival and service start.

``ScheduleSimulator`` unpacks an instance into arrays once so that many
assignments can be scored cheaply; ``BatchScorer`` is the exact objective
over random-key vectors for batch instances, scoring from integer sums and
rescoring a few moved jobs without a replay (``BatchDraft``);
``brute_force_optimal`` enumerates every assignment of a tiny instance as
an exact reference.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import sub, truediv
from typing import Sequence

import numpy as np

from .problem import Job, MetricWeights, Vm, decode_random_key

__all__ = [
    "JobTimeline",
    "ScheduleMetrics",
    "ScheduleSimulator",
    "InstanceTooLargeError",
    "evaluate",
    "brute_force_optimal",
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
    follow from running prefix sums of the execution times plus a running
    maximum of arrival slack. Batch instances (every arrival at zero) take
    the same formula: the slack's maximum is then the queue head's, so a
    start is the prefix sum of its own queue.

    The grouping sorts VM indices cast to the narrowest unsigned dtype that
    holds ``num_vms - 1`` (uint8 up to 256 VMs, uint16 up to 65536); on
    those numpy's stable argsort is a radix sort, and a stable sort yields the
    same permutation on any integer dtype. The per-queue running maximum is
    one ``np.maximum.accumulate`` over complex keys (VM index + slack·j),
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
        self._min_arrival = float(self.arrivals.min())
        self._vm_key = np.min_scalar_type(self.num_vms - 1)

    def _replay(self, assignment: np.ndarray):
        assignment = _checked_assignment(assignment, self.num_jobs, self.num_vms)
        vm_sorted = assignment[self._service_order].astype(self._vm_key)
        group = np.argsort(vm_sorted, kind="stable")
        grouped_vm = vm_sorted[group]
        exec_times = self._lengths_sorted[group] / self.speeds.take(grouped_vm)
        totals = np.cumsum(exec_times)
        before = totals - exec_times
        arrivals = self._arrivals_sorted[group]
        starts = np.maximum(before + _segmented_cummax(arrivals - before, grouped_vm), arrivals)
        waits = starts - arrivals
        finishes = starts + exec_times
        metrics = ScheduleMetrics(
            makespan=float(finishes.max()) - self._min_arrival,
            # the sum over the count is what ndarray.mean computes, without its dispatch overhead
            avg_completion=float(np.add.reduce(finishes) / self.num_jobs),
            avg_response=float(np.add.reduce(waits) / self.num_jobs),
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


def _checked_assignment(assignment, num_jobs: int, num_vms: int) -> np.ndarray:
    assignment = np.asarray(assignment)
    if assignment.shape != (num_jobs,):
        raise ValueError("assignment must hold one VM index per job")
    if not np.issubdtype(assignment.dtype, np.integer):
        raise ValueError("assignment must hold integer VM indices")
    if int(assignment.min()) < 0 or int(assignment.max()) >= num_vms:
        raise ValueError("assignment refers to a VM that does not exist")
    return assignment


class BatchScorer:
    """Exact weighted objective of a batch instance, over random-key vectors.

    With every arrival at zero, VM v serves its jobs in id order, so its
    k-th job finishes at (L_1 + ... + L_k) / s_v. Two integer sums per VM
    then give every metric: S_v = sum over v's jobs i of L_i times the
    number of v's jobs at or after i, and T_v = sum of v's lengths:

        avg_completion = sum_v S_v / s_v / n
        avg_response   = sum_v (S_v - T_v) / s_v / n
        makespan       = max_v T_v / s_v

    The sums are exact (integer lengths, and ``applies`` keeps n times the
    total length below 2**63), and the sums of VMs of equal speed are
    folded before dividing. ``_value`` is the one function from sums to
    score; it reduces with ``math.fsum``, so a score depends only on the
    integer sums, never on the order or layout they were computed in.
    A call scores key vector x as ``decode_random_key(x, num_vms)``;
    ``delta_scorer`` keeps one formation's per-VM state so that moving k
    jobs is rescored in O(k * jobs per VM + k**2) steps (see ``BatchDraft``),
    not O(n), giving the same float as a call on the moved keys.
    """

    def __init__(self, jobs: Sequence[Job], vms: Sequence[Vm], weights: MetricWeights = MetricWeights()):
        if not jobs or not vms:
            raise ValueError("jobs and vms must be non-empty")
        if not self.applies(jobs):
            raise ValueError("exact batch scoring needs zero arrivals and n * total length < 2**63")
        self.num_jobs = len(jobs)
        self.num_vms = len(vms)
        self.weights = weights
        ids = np.array([j.id for j in jobs], dtype=np.int64)
        lengths = np.array([j.length for j in jobs], dtype=np.int64)
        self._service_order = np.argsort(ids, kind="stable")
        self._lengths_by_rank = lengths[self._service_order]
        rank = np.empty(self.num_jobs, dtype=np.int64)
        rank[self._service_order] = np.arange(self.num_jobs)
        self._rank = rank.tolist()
        self._length = lengths.tolist()
        self._vm_key = np.min_scalar_type(self.num_vms - 1)
        self._speed = [v.speed for v in vms]
        self._class_speed = sorted(set(self._speed))
        self._class_of = [self._class_speed.index(s) for s in self._speed]
        self._by_class = np.argsort(self._class_of, kind="stable")
        self._class_heads = np.searchsorted(
            np.asarray(self._class_of)[self._by_class], np.arange(len(self._class_speed))
        )

    @staticmethod
    def applies(jobs: Sequence[Job]) -> bool:
        """True when every job arrives at zero and the sums fit in int64."""
        return bool(jobs) and all(j.arrival_time == 0.0 for j in jobs) and (
            len(jobs) * sum(int(j.length) for j in jobs) < 2**63
        )

    def _sums(self, assignment: np.ndarray):
        """Per-VM S and T of ``assignment``, plus its jobs' ranks grouped by
        VM (VM v's are ``group[starts[v]:ends[v]]``), which ``BatchDraft`` keeps."""
        assignment = _checked_assignment(assignment, self.num_jobs, self.num_vms)
        vm_by_rank = assignment[self._service_order]
        group = np.argsort(vm_by_rank.astype(self._vm_key), kind="stable")
        cum = np.zeros(self.num_jobs + 1, dtype=np.int64)
        np.cumsum(self._lengths_by_rank[group], out=cum[1:])
        cum_of_cum = np.zeros(self.num_jobs + 1, dtype=np.int64)
        np.cumsum(cum[1:], out=cum_of_cum[1:])
        counts = np.bincount(assignment, minlength=self.num_vms)
        ends = np.cumsum(counts)
        starts = ends - counts
        base = cum[starts]
        totals = cum[ends] - base
        weighted = cum_of_cum[ends] - cum_of_cum[starts] - counts * base
        return group, starts, ends, weighted, totals

    def _fold(self, per_vm: np.ndarray) -> list[int]:
        return np.add.reduceat(per_vm[self._by_class], self._class_heads).tolist()

    def _value(self, class_weighted: list[int], class_totals: list[int], totals: list[int]) -> float:
        """Score from the integer sums: S and T folded per speed class, and
        per-VM T (read only when makespan is weighted)."""
        speeds, weights = self._class_speed, self.weights
        # A metric with zero weight is left at 0.0, which scores the same.
        completion = response = makespan = 0.0
        if weights.completion:
            completion = math.fsum(map(truediv, class_weighted, speeds)) / self.num_jobs
        if weights.response:
            response = math.fsum(map(truediv, map(sub, class_weighted, class_totals), speeds)) / self.num_jobs
        if weights.makespan:
            makespan = max(map(truediv, totals, self._speed))
        # MetricWeights.score, inlined (a ScheduleMetrics costs a microsecond):
        # the same products summed in the same order.
        return weights.makespan * makespan + weights.completion * completion + weights.response * response

    def score(self, assignment: np.ndarray) -> float:
        """Weighted objective of ``assignment`` from scratch."""
        _, _, _, weighted, totals = self._sums(assignment)
        return self._value(self._fold(weighted), self._fold(totals), totals.tolist())

    def __call__(self, x: np.ndarray) -> float:
        return self.score(decode_random_key(x, self.num_vms))

    def delta_scorer(self, x: np.ndarray) -> "BatchDraft":
        """Draft scorer anchored at formation ``x`` (protocol in ``lca.optimize``).

        A class attribute on purpose: a wrapper made with ``functools.wraps``
        copies instance attributes only, so wrapped objectives take the
        plain call path.
        """
        return BatchDraft(self, decode_random_key(x, self.num_vms))


class BatchDraft:
    """One assignment's exact sums, and drafts that move a few of its jobs.

    Per VM it keeps the service ranks of its jobs (sorted) and their
    lengths in that order. With S_v written as T_v + sum over pairs of v's
    jobs of the earlier job's length, taking a job j off v lowers S_v by
    (lengths of v's jobs before j) + L_j * (v's jobs from j on), and
    putting it on v raises S_v by the same terms counted against v's jobs;
    ``bisect`` finds j's place and ``sum`` adds the lengths before it, so a
    commit only deletes and inserts list items. Moves that share a VM are
    corrected pairwise: two jobs leaving or joining the same VM give back
    the earlier one's length, and one leaving where the other joins takes
    it. ``draft`` decodes each moved job's key and scores the moved
    assignment without changing the anchor; ``commit`` moves the anchor to
    the last draft.
    """

    def __init__(self, scorer: BatchScorer, assignment: np.ndarray):
        group, starts, ends, weighted, totals = scorer._sums(assignment)
        self._scorer = scorer
        self._assignment = np.asarray(assignment).tolist()
        ranks, lengths = group.tolist(), scorer._lengths_by_rank[group].tolist()
        bounds = list(zip(starts.tolist(), ends.tolist()))
        self._ranks = [ranks[a:b] for a, b in bounds]
        self._lengths = [lengths[a:b] for a, b in bounds]
        self._totals = totals.tolist()
        self._class_weighted = scorer._fold(weighted)
        self._class_totals = scorer._fold(totals)
        self.fitness = scorer._value(self._class_weighted, self._class_totals, self._totals)
        self._pending = ((), self._class_weighted, self._class_totals, self.fitness)

    def draft(self, positions: Sequence[int], keys: Sequence[float]) -> float:
        """Score the anchor with job ``positions[i]`` on the VM key ``keys[i]``
        decodes to (``decode_random_key``, one key at a time); no position repeats."""
        if not all(map(math.isfinite, keys)):
            raise ValueError("keys must be finite")
        scorer = self._scorer
        rank, length, class_of, top = scorer._rank, scorer._length, scorer._class_of, scorer.num_vms - 1
        assignment, ranks, lengths = self._assignment, self._ranks, self._lengths
        weighted = self._class_weighted.copy()
        totals = self._class_totals.copy()
        moves = []
        for p, key in zip(positions, keys):
            a, b = assignment[p], min(max(math.floor(key), 0), top)
            if a == b:
                continue
            r, size = rank[p], length[p]
            here = ranks[a]
            i = bisect_left(here, r)
            c = class_of[a]
            weighted[c] -= sum(lengths[a][:i]) + size * (len(here) - i)
            totals[c] -= size
            here = ranks[b]
            i = bisect_left(here, r)
            c = class_of[b]
            weighted[c] += sum(lengths[b][:i]) + size * (len(here) - i + 1)
            totals[c] += size
            moves.append((p, a, b, r, size))
        for x in range(1, len(moves)):
            _, a, b, r, size = moves[x]
            for _, a2, b2, r2, size2 in moves[:x]:
                earlier = size if r < r2 else size2
                if a == a2:
                    weighted[class_of[a]] += earlier
                elif a == b2:
                    weighted[class_of[a]] -= earlier
                if b == b2:
                    weighted[class_of[b]] += earlier
                elif b == a2:
                    weighted[class_of[b]] -= earlier
        vm_totals = self._totals
        if scorer.weights.makespan:
            vm_totals = vm_totals.copy()
            for _, a, b, _, size in moves:
                vm_totals[a] -= size
                vm_totals[b] += size
        value = scorer._value(weighted, totals, vm_totals)
        self._pending = (moves, weighted, totals, value)
        return value

    def commit(self) -> None:
        """Make the last draft the anchor."""
        moves, weighted, totals, value = self._pending
        ranks, lengths, vm_totals = self._ranks, self._lengths, self._totals
        for p, a, b, r, size in moves:
            i = bisect_left(ranks[a], r)
            del ranks[a][i], lengths[a][i]
            i = bisect_left(ranks[b], r)
            ranks[b].insert(i, r)
            lengths[b].insert(i, size)
            vm_totals[a] -= size
            vm_totals[b] += size
            self._assignment[p] = b
        self._class_weighted, self._class_totals, self.fitness = weighted, totals, value
        self._pending = ((), weighted, totals, value)


def _segmented_cummax(values: np.ndarray, queue: np.ndarray) -> np.ndarray:
    """Running maximum restarted wherever the nondecreasing ``queue`` grows.

    Keys pair the queue number (real part) with the value (imaginary part);
    the lexicographic running maximum of the keys never carries a value
    across a queue head.
    """
    keys = np.empty(values.size, dtype=np.complex128)
    keys.real = queue
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
