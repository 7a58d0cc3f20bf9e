"""Non-preemptive schedule replay and its metrics.

Jobs queue per VM in arrival order (ties by job id). A job starts once its
VM is free and it has arrived, then runs for length/speed seconds without
interruption. Metrics: makespan is the last finish minus the earliest
arrival, average completion is the mean finish time, and average response
is the mean wait between arrival and service start.

``ScheduleSimulator`` unpacks an instance into arrays once so that many
assignments can be scored cheaply; the job arrays, the (arrival, id)
service order and its inverse come from ``problem._job_columns``, shared
with the scorers and the baselines, which reads a job table's columns as
they are. ``make_objective`` returns one of two
scorers over random-key vectors. Both are ``ScheduleSimulator``s that
decode keys into service order; the batch one scores by exact integer sums.
``_ReplayScorer``, for staggered instances, replays the keys, and its
drafts (``_ReplayDraft``, an ``lca._CopyDraft``) patch a copy of them and
replay it; its subclass ``BatchScorer`` rescores a few moved jobs without
a replay (``BatchDraft``).
``brute_force_optimal`` enumerates every assignment of a tiny instance as
an exact reference.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import sub, truediv
from typing import Sequence

import numpy as np

from .lca import _CopyDraft
from .problem import Job, MetricWeights, Vm, _job_columns, decode_random_key

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
        self._columns = columns = _job_columns(jobs)
        self._service_order = columns.service_order
        self.speeds = np.array([v.speed for v in vms], dtype=float)
        self._min_arrival = float(columns.arrivals.min())
        self._vm_key = np.min_scalar_type(self.num_vms - 1)

    @functools.cached_property
    def _arrivals_sorted(self) -> np.ndarray:  # built on a replay's first call; a BatchScorer never replays
        return self._columns.arrivals[self._service_order]

    @functools.cached_property
    def _lengths_sorted(self) -> np.ndarray:
        return self._columns.lengths[self._service_order].astype(float)

    def _sorted_keys(self, assignment) -> np.ndarray:
        """Each job's VM in service order, as ``_vm_key`` integers, once
        ``assignment`` is checked to hold one VM index per job."""
        assignment = np.asarray(assignment)
        if assignment.shape != (self.num_jobs,):
            raise ValueError("assignment must hold one VM index per job")
        if not np.issubdtype(assignment.dtype, np.integer):
            raise ValueError("assignment must hold integer VM indices")
        if int(assignment.min()) < 0 or int(assignment.max()) >= self.num_vms:
            raise ValueError("assignment refers to a VM that does not exist")
        return assignment[self._service_order].astype(self._vm_key)

    def _replay(self, assignment: np.ndarray):
        return self._replay_sorted(self._sorted_keys(assignment))

    def _replay_sorted(self, vm_sorted: np.ndarray, weights: MetricWeights | None = None):
        """Replay from each job's VM in service order, as ``_vm_key`` integers
        already known to lie in [0, num_vms). With ``weights``, a metric of
        zero weight is left at 0.0, which scores the same."""
        group = np.argsort(vm_sorted, kind="stable")
        grouped_vm = vm_sorted[group]
        exec_times = self._lengths_sorted[group] / self.speeds.take(grouped_vm)
        totals = np.cumsum(exec_times)
        before = totals - exec_times
        arrivals = self._arrivals_sorted[group]
        starts = np.maximum(before + _segmented_cummax(arrivals - before, grouped_vm), arrivals)
        finishes = starts + exec_times
        makespan = completion = response = 0.0
        if weights is None or weights.makespan:
            makespan = float(finishes.max()) - self._min_arrival
        # the sum over the count is what ndarray.mean computes, without its dispatch overhead
        if weights is None or weights.completion:
            completion = float(np.add.reduce(finishes) / self.num_jobs)
        if weights is None or weights.response:
            response = float(np.add.reduce(starts - arrivals) / self.num_jobs)
        return group, starts, finishes, ScheduleMetrics(makespan, completion, response)

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


class _ReplayScorer(ScheduleSimulator):
    """Weighted objective of a staggered instance, over random-key vectors.

    A call decodes the keys in the replay's service order, with no
    assignment check or gather (``_vm_keys``), and replays them (``_score``,
    which ``BatchScorer`` overrides); metrics of zero weight are not
    computed. ``delta_scorer`` keeps one formation's VM keys so that a draft
    patches only the moved jobs' keys and reruns the same replay, so a
    draft equals a call bit for bit.
    """

    def __init__(self, jobs: Sequence[Job], vms: Sequence[Vm], weights: MetricWeights = MetricWeights()):
        super().__init__(jobs, vms)
        self.weights = weights

    def _vm_keys(self, x: np.ndarray) -> np.ndarray:
        """Each job's VM in service order, as the replay's narrow VM keys."""
        x = np.asarray(x)
        if x.shape != (self.num_jobs,):
            raise ValueError("need one key per job")
        return decode_random_key(x.take(self._service_order), self.num_vms).astype(self._vm_key)

    def _score(self, vm_sorted: np.ndarray) -> float:
        return self.weights.score(self._replay_sorted(vm_sorted, self.weights)[3])

    def __call__(self, x: np.ndarray) -> float:
        return self._score(self._vm_keys(x))

    def delta_scorer(self, x: np.ndarray) -> "_ReplayDraft":
        """Draft scorer anchored at formation ``x`` (protocol in ``lca.optimize``).

        A class attribute on purpose: a wrapper made with ``functools.wraps``
        copies instance attributes only, so a wrapped objective's drafts
        call it on full vectors.
        """
        return _ReplayDraft(self, self._vm_keys(x))


class _ReplayDraft(_CopyDraft):
    """One formation's service-order VM keys; a draft patches the moved jobs'
    keys in a copy and replays it."""

    def __init__(self, scorer: _ReplayScorer, vm_sorted: np.ndarray):
        self._place, self._top = scorer._columns.place, scorer.num_vms - 1
        super().__init__(scorer._score, vm_sorted)

    def _write(self, vm_sorted: np.ndarray, positions: Sequence[int], keys: Sequence[float]) -> None:
        """Put job ``positions[i]`` on the VM key ``keys[i]`` decodes to
        (``decode_random_key``, one key at a time)."""
        if not all(map(math.isfinite, keys)) or min(positions, default=0) < 0:
            raise ValueError("keys must be finite and positions nonnegative")
        place, top = self._place, self._top
        for p, key in zip(positions, keys):
            vm_sorted[place[p]] = min(max(math.floor(key), 0), top)


class BatchScorer(_ReplayScorer):
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
    A call decodes the keys into service order as the base class does and
    scores their sums (``_score``) instead of replaying; ``delta_scorer``
    keeps one formation's per-VM state so that moving k jobs is rescored
    in O(k * jobs per VM) steps (see ``BatchDraft``), not O(n), giving the
    same float as a call on the moved keys.
    """

    def __init__(self, jobs: Sequence[Job], vms: Sequence[Vm], weights: MetricWeights = MetricWeights()):
        super().__init__(jobs, vms, weights)
        if not self.applies(jobs):
            raise ValueError("exact batch scoring needs zero arrivals and n * total length < 2**63")
        self._lengths_by_rank = self._columns.lengths[self._service_order]  # id order, as every arrival is zero
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
        return bool(jobs) and not (columns := _job_columns(jobs)).arrivals.any() and (
            len(jobs) * sum(columns.length_list) < 2**63
        )

    def _sums(self, vm_sorted: np.ndarray):
        """Per-VM S and T of the service-order VM keys ``vm_sorted``, plus its jobs' ranks
        grouped by VM (VM v's are ``group[starts[v]:ends[v]]``), which ``BatchDraft`` keeps."""
        group = np.argsort(vm_sorted, kind="stable")
        cum = np.zeros(self.num_jobs + 1, dtype=np.int64)
        np.cumsum(self._lengths_by_rank[group], out=cum[1:])
        cum_of_cum = np.zeros(self.num_jobs + 1, dtype=np.int64)
        np.cumsum(cum[1:], out=cum_of_cum[1:])
        counts = np.bincount(vm_sorted, minlength=self.num_vms)
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

    def _score(self, vm_sorted: np.ndarray) -> float:
        _, _, _, weighted, totals = self._sums(vm_sorted)
        return self._value(self._fold(weighted), self._fold(totals), totals.tolist())

    def score(self, assignment: np.ndarray) -> float:
        """Weighted objective of ``assignment`` from scratch."""
        return self._score(self._sorted_keys(assignment))

    def delta_scorer(self, x: np.ndarray) -> "BatchDraft":
        """Draft scorer anchored at formation ``x`` (see ``BatchDraft``)."""
        return BatchDraft(self, x)


class BatchDraft:
    """One formation's exact sums, and drafts that move a few of its jobs. The
    formation ``x`` is a key vector, decoded as a call decodes it: each key is
    floored and clamped into the VM range, so a VM index past the last VM is
    read as the last VM, not rejected as ``score`` rejects it.

    Per VM it keeps the service ranks of its jobs (sorted) and their
    lengths in that order. With S_v written as T_v + sum over pairs of v's
    jobs of the earlier job's length, taking a job j off v lowers S_v by
    (lengths of v's jobs before j) + L_j * (v's jobs from j on), and
    putting it on v raises S_v by the same terms counted against v's jobs.
    ``draft`` decodes each moved job's key and applies the moves in turn,
    deleting and inserting at ``bisect`` indices, so each move is scored
    against the lists as the earlier moves left them; it then undoes them
    in reverse order, also when a move raises, leaving the anchor exactly
    as it was. ``commit`` re-applies the moves at their recorded indices.
    No position may repeat in a draft: a repeated job would be looked up
    on a VM it has already left, corrupting the anchor's lists.
    """

    def __init__(self, scorer: BatchScorer, x: np.ndarray):
        vm_sorted = scorer._vm_keys(x)
        group, starts, ends, weighted, totals = scorer._sums(vm_sorted)
        self._place, self._length = scorer._columns.place, scorer._columns.length_list
        self._class_of, self._top = scorer._class_of, scorer.num_vms - 1
        self._makespan, self._value = scorer.weights.makespan, scorer._value
        self._vm_by_rank = vm_sorted.tolist()
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
        if not all(map(math.isfinite, keys)) or min(positions, default=0) < 0:  # before any list edit
            raise ValueError("keys must be finite and positions nonnegative")
        rank, length, class_of, top = self._place, self._length, self._class_of, self._top
        vm_by_rank, ranks, lengths = self._vm_by_rank, self._ranks, self._lengths
        weighted = self._class_weighted.copy()
        totals = self._class_totals.copy()
        moves = []
        try:
            for p, key in zip(positions, keys):
                r = rank[p]
                a, b = vm_by_rank[r], math.floor(key)
                b = 0 if b < 0 else top if b > top else b
                if a == b:
                    continue
                size = length[p]
                here, sizes = ranks[a], lengths[a]
                i = bisect_left(here, r)
                c = class_of[a]
                weighted[c] -= sum(sizes[:i]) + size * (len(here) - i)
                totals[c] -= size
                del here[i], sizes[i]
                here, sizes = ranks[b], lengths[b]
                j = bisect_left(here, r)
                c = class_of[b]
                weighted[c] += sum(sizes[:j]) + size * (len(here) - j + 1)
                totals[c] += size
                here.insert(j, r)
                sizes.insert(j, size)
                moves.append((a, i, b, j, r, size))
            vm_totals = self._totals
            if self._makespan:
                vm_totals = vm_totals.copy()
                for a, _, b, _, _, size in moves:
                    vm_totals[a] -= size
                    vm_totals[b] += size
            value = self._value(weighted, totals, vm_totals)
        finally:
            for a, i, b, j, r, size in reversed(moves):
                del ranks[b][j], lengths[b][j]
                ranks[a].insert(i, r)
                lengths[a].insert(i, size)
        self._pending = (moves, weighted, totals, value)
        return value

    def commit(self) -> None:
        """Make the last draft the anchor."""
        moves, weighted, totals, value = self._pending
        ranks, lengths, vm_totals = self._ranks, self._lengths, self._totals
        for a, i, b, j, r, size in moves:
            del ranks[a][i], lengths[a][i]
            ranks[b].insert(j, r)
            lengths[b].insert(j, size)
            vm_totals[a] -= size
            vm_totals[b] += size
            self._vm_by_rank[r] = b
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
