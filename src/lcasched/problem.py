"""The cloud scheduling problem: model, replay, objectives and oracle.

Jobs, virtual machines, the weighted schedule objective, and the
random-key bridge that lets a continuous optimizer search over discrete
job-to-VM assignments: component ``d`` of a search vector is floored into
the VM index for the job at position ``d``. A private job table holds a
job set as the checked, read-only columns that every layer shares.

The non-preemptive replay queues jobs per VM in arrival order (ties by
job id); a job starts once its VM is free and it has arrived, and runs
for length/speed seconds. Makespan is the last finish minus the earliest
arrival, average completion the mean finish time, and average response
the mean wait between arrival and service start.

``make_objective`` returns a ``ScheduleSimulator`` that scores random-key
vectors: its subclass ``BatchScorer`` by exact integer sums on batch
instances, else a plain ``ScheduleSimulator`` by replay. Their drafts
(``BatchDraft``, ``_ReplayDraft``) rescore the few keys the optimizer changed.
``brute_force_optimal`` enumerates every assignment of a tiny instance as
an exact reference.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from operator import sub, truediv

import numpy as np

from .lca import BoxDomain, Objective, _CopyDraft, _check_integer, _check_real

__all__ = [
    "Job",
    "Vm",
    "MetricWeights",
    "decode_random_key",
    "assignment_domain",
    "JobTimeline",
    "ScheduleMetrics",
    "ScheduleSimulator",
    "make_objective",
    "brute_force_optimal",
]


@dataclass(frozen=True)
class Job:
    """Unit of work: arrival time in seconds, length in machine instructions (MI)."""

    id: int
    arrival_time: float
    length: int

    def __post_init__(self):
        _check_integer("job id", self.id, 0)
        if self.id >= 2**63:  # the scorers sort ids and sum lengths as int64
            raise ValueError("job id must fit a 64-bit integer")
        _check_real("arrival_time", self.arrival_time)
        _check_integer("length", self.length, 1)
        if self.length >= 2**63:
            raise ValueError("job length must fit a 64-bit integer")


class _JobTable(Sequence):
    """Jobs as columns, which every layer reads; a ``Job`` is built only when one is read. Float ``arrivals``
    and int64 ``lengths`` are checked as ``Job`` checks them (int64 ``ids`` come from checked jobs or a range)
    and kept read-only, beside the dispatch loop's lists and ``place``, the inverse of ``service_order``.

    What depends on the jobs alone is built on first use and kept, read-only, as long as the table:
    the replay's ``service_jobs`` column, each ``dispatch_order``, the dispatch's ``float_lengths``, and
    for batch scoring the batch rule (``fits_batch``) and the ``rank_objects``."""

    def __init__(self, ids: np.ndarray, arrivals: np.ndarray, lengths: np.ndarray):
        bad = arrivals[~((0.0 <= arrivals) & (arrivals < math.inf))]  # NaN fails both comparisons
        if bad.size:
            raise ValueError(f"arrival_time must be finite and nonnegative, got {bad.tolist()[0]!r}")
        if (lengths <= 0).any():
            raise ValueError("length must be positive")
        self.service_order = order = np.lexsort((ids, arrivals))
        for array in (ids, arrivals, lengths, order):
            array.flags.writeable = False
        self.ids, self.arrivals, self.lengths = ids, arrivals, lengths
        self.arrival_list, self.length_list, self.place = arrivals.tolist(), lengths.tolist(), order.argsort().tolist()
        self._orders = {}

    @functools.cached_property
    def service_jobs(self) -> np.ndarray:  # built on a replay's first call; a BatchScorer never replays
        """Each job in service order as arrival + length·j, set part by part so every bit is kept."""
        jobs = np.empty(len(self), dtype=np.complex128)
        jobs.real = self.arrivals
        jobs.imag = self.lengths
        jobs = jobs[self.service_order]
        jobs.flags.writeable = False
        return jobs

    @functools.cached_property
    def fits_batch(self) -> bool:
        """The batch rule, stated here alone: ``make_objective`` scores by ``BatchScorer``'s exact integer
        sums only with every arrival at zero and n * total length < 2**63, so that the sums fit int64."""
        return not self.arrivals.any() and len(self) * sum(self.length_list) < 2**63

    @functools.cached_property
    def rank_objects(self) -> tuple[np.ndarray, np.ndarray]:  # built on a batch draft's first call
        """Service ranks, and lengths in rank order, as object arrays of ``place``'s and ``length_list``'s ints."""
        ranks = np.array(self.place, dtype=object)[self.service_order]  # the place of rank r's job is r
        lengths = np.array(self.length_list, dtype=object)[self.service_order]
        ranks.flags.writeable = lengths.flags.writeable = False
        return ranks, lengths

    @functools.cached_property
    def float_lengths(self) -> tuple[float, ...]:  # built on a dispatch's first call
        """Each length as numpy casts it to float, so the dispatch divides a float by a float speed."""
        return tuple(self.lengths.astype(float).tolist())

    def dispatch_order(self, column: str | None) -> tuple[int, ...]:
        """Positions in (arrival, id) order for ``None``, else by decreasing ``column`` ("lengths" or
        "arrivals"), ties by id and then by position: ``np.lexsort((ids, -column))``."""
        order = self._orders.get(column)
        if order is None:
            order = self.service_order if column is None else self._descending(column)
            order = self._orders[column] = tuple(order.tolist())
        return order

    def _descending(self, column: str) -> np.ndarray:
        """One stable argsort of the id-sorted positions by a key that rises as ``column`` falls. For
        lengths it is ``max - length`` in the narrowest unsigned dtype, which numpy radix-sorts up to
        16 bits (uint16 for lengths of 1000-20000 MI)."""
        by_id = self.ids.argsort(kind="stable")
        values = getattr(self, column)[by_id]
        if column == "lengths":
            top = int(values.max())
            key = (top - values).astype(np.min_scalar_type(top - int(values.min())))
        else:
            key = -values
        return by_id[key.argsort(kind="stable")]

    def __len__(self) -> int:
        return len(self.length_list)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(Job, self.ids[index].tolist(), self.arrival_list[index], self.length_list[index]))
        return Job(self.ids.item(index), self.arrival_list[index], self.length_list[index])


def _job_columns(jobs: Sequence[Job]) -> _JobTable:
    """``jobs`` as a job table: a table as it is, any other sequence unpacked afresh."""
    if type(jobs) is _JobTable:
        return jobs
    return _JobTable(
        np.array([j.id for j in jobs], dtype=np.int64),
        np.array([j.arrival_time for j in jobs], dtype=float),
        np.array([j.length for j in jobs], dtype=np.int64),
    )


@dataclass(frozen=True)
class Vm:
    """Processing resource running at ``speed`` machine instructions per second (MIPS), kept as a float."""

    id: int
    speed: float

    def __post_init__(self):
        _check_integer("vm id", self.id, 0)
        speed = _check_real("speed", self.speed, positive=True)
        object.__setattr__(self, "speed", speed)  # so every layer computes in float64, as the replay does


@dataclass(frozen=True)
class MetricWeights:
    """Mix of the three schedule metrics forming the scalar objective.

    Defaults to pure average completion time.
    """

    makespan: float = 0.0
    completion: float = 1.0
    response: float = 0.0

    def __post_init__(self):
        for name in ("makespan", "completion", "response"):
            _check_real(f"{name} weight", getattr(self, name))
        if self.makespan == 0.0 and self.completion == 0.0 and self.response == 0.0:
            raise ValueError("at least one weight must be positive")

    def score(self, metrics) -> float:
        return (
            self.makespan * metrics.makespan
            + self.completion * metrics.avg_completion
            + self.response * metrics.avg_response
        )


def decode_random_key(x: np.ndarray, num_vms: int) -> np.ndarray:
    """Floor each key into a VM index, clamping into [0, num_vms).

    A key exactly equal to ``num_vms`` maps to the last VM. Total on finite
    input and deterministic.
    """
    _check_integer("num_vms", num_vms, 1)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("keys must be finite")
    keys = np.floor(x)  # clamped before the cast, so keys beyond int64 clamp too
    np.maximum(keys, 0.0, out=keys)
    np.minimum(keys, num_vms - 1, out=keys)
    return keys.astype(np.int64)


def assignment_domain(num_jobs: int, num_vms: int) -> BoxDomain:
    """Search box for random-key assignment vectors: [0, num_vms] per job.

    The upper edge is reachable only by clamping and decodes to the last VM.
    """
    _check_integer("num_jobs", num_jobs, 1)
    _check_integer("num_vms", num_vms, 1)
    return BoxDomain.cube(num_jobs, 0.0, float(num_vms))


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

    A replay gathers each job's arrival and length in one ``take`` of the
    job table's read-only complex column (``_JobTable.service_jobs``, built
    on the first replay of any simulator on that table) and writes every
    step into per-simulator work arrays (``out=``), built on the first
    replay. So a simulator is not for concurrent use, and ``run`` returns
    copies. ``metrics`` and ``run`` ignore ``weights``.

    A call is the weighted objective of a staggered instance: it decodes
    random keys in service order, with no assignment check (``_vm_keys``),
    and replays them (``_score``, which ``BatchScorer`` overrides), skipping
    metrics of zero weight. A draft (``_ReplayDraft``) equals a call bit for
    bit, and one that moves no job is not replayed.
    """

    def __init__(self, jobs: Sequence[Job], vms: Sequence[Vm], weights: MetricWeights = MetricWeights()):
        if not jobs or not vms:
            raise ValueError("jobs and vms must be non-empty")
        self.num_jobs = len(jobs)
        self.num_vms = len(vms)
        self._columns = columns = _job_columns(jobs)
        self._service_order = columns.service_order
        self.speeds = np.array([v.speed for v in vms], dtype=float)
        self._min_arrival = float(columns.arrivals.min())
        self._vm_key = np.min_scalar_type(self.num_vms - 1)
        self.weights = weights

    @functools.cached_property
    def _work(self) -> tuple[np.ndarray, ...]:
        """The replay's work arrays: grouped VM keys, grouped jobs, queue keys,
        execution then finish times, start times, and waits."""
        n, vm_key, complex_ = self.num_jobs, self._vm_key, np.complex128
        return np.empty(n, vm_key), np.empty(n, complex_), np.empty(n, complex_), np.empty(n), np.empty(n), np.empty(n)

    def _replay_sorted(self, vm_sorted: np.ndarray, weights: MetricWeights | None = None):
        """Replay from each job's VM in service order, as ``_vm_key`` integers
        already known to lie in [0, num_vms), into the work arrays, leaving the
        grouping in ``_group``; return makespan, average completion and average
        response. With ``weights``, a metric of zero weight is left at 0.0,
        which scores the same."""
        grouped_vm, jobs, keys, finishes, starts, waits = self._work
        # Every index below is in range, and mode="clip" takes into ``out`` without a buffer.
        self._group = group = vm_sorted.argsort(kind="stable")
        vm_sorted.take(group, out=grouped_vm, mode="clip")
        self._columns.service_jobs.take(group, out=jobs, mode="clip")
        arrivals = jobs.real
        exec_times = self.speeds.take(grouped_vm, out=finishes, mode="clip")
        np.divide(jobs.imag, exec_times, out=exec_times)
        before = np.add.accumulate(exec_times, out=starts)  # np.cumsum, without its dispatch overhead
        np.subtract(before, exec_times, out=before)
        np.subtract(arrivals, before, out=waits)
        np.add(before, _segmented_cummax(waits, grouped_vm, keys), out=starts)
        np.maximum(starts, arrivals, out=starts)
        np.add(starts, exec_times, out=finishes)
        makespan = completion = response = 0.0
        if weights is None or weights.makespan:
            makespan = float(finishes.max()) - self._min_arrival
        # the sum over the count is what ndarray.mean computes, without its dispatch overhead
        if weights is None or weights.completion:
            completion = float(np.add.reduce(finishes) / self.num_jobs)
        if weights is None or weights.response:
            response = float(np.add.reduce(np.subtract(starts, arrivals, out=waits)) / self.num_jobs)
        return makespan, completion, response

    def metrics(self, assignment: np.ndarray) -> ScheduleMetrics:
        """Replay ``assignment`` once it is checked to hold one VM index per job, without materializing the
        timeline; raise ``ValueError`` unless every metric is finite."""
        assignment = np.asarray(assignment)
        if assignment.shape != (self.num_jobs,):
            raise ValueError("assignment must hold one VM index per job")
        if not np.issubdtype(assignment.dtype, np.integer):
            raise ValueError("assignment must hold integer VM indices")
        if int(assignment.min()) < 0 or int(assignment.max()) >= self.num_vms:
            raise ValueError("assignment refers to a VM that does not exist")
        values = self._replay_sorted(assignment[self._service_order].astype(self._vm_key))
        if not all(map(math.isfinite, values)):
            raise ValueError(f"the schedule's times overflow float64: makespan, completion and response are {values}")
        return ScheduleMetrics(*values)

    def run(self, assignment: np.ndarray) -> tuple[JobTimeline, ScheduleMetrics]:
        """Replay one assignment, checked as ``metrics`` checks it, returning the per-job timeline and metrics."""
        metrics = self.metrics(assignment)
        _, _, _, finishes, starts, _ = self._work
        positions = self._service_order[self._group]
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

    def _vm_keys(self, x: np.ndarray) -> np.ndarray:
        """Each job's VM in service order, as the replay's narrow VM keys."""
        x = np.asarray(x)
        if x.shape != (self.num_jobs,):
            raise ValueError("need one key per job")
        return decode_random_key(x.take(self._service_order), self.num_vms).astype(self._vm_key)

    def _score(self, vm_sorted: np.ndarray) -> float:
        weights = self.weights
        makespan, completion, response = self._replay_sorted(vm_sorted, weights)
        # MetricWeights.score, inlined as in BatchScorer._value
        return weights.makespan * makespan + weights.completion * completion + weights.response * response

    def __call__(self, x: np.ndarray) -> float:
        return self._score(self._vm_keys(x))

    def delta_scorer(self, x: np.ndarray) -> "_ReplayDraft":
        """Draft scorer anchored at formation ``x`` (protocol in ``lca.optimize``).

        A class attribute on purpose: a wrapper made with ``functools.wraps``
        copies instance attributes only, so a wrapped objective's drafts
        call it on full vectors.
        """
        return _ReplayDraft(self, self._vm_keys(x))


def _segmented_cummax(values: np.ndarray, queue: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Running maximum restarted wherever the nondecreasing ``queue`` grows,
    built in the complex work array ``keys`` and returned as a view of it.

    Keys pair the queue number (real part) with the value (imaginary part);
    the lexicographic running maximum of the keys never carries a value
    across a queue head.
    """
    keys.real = queue
    keys.imag = values
    return np.maximum.accumulate(keys, out=keys).imag


class _ReplayDraft(_CopyDraft):
    """One formation's service-order VM keys; a draft puts the moved jobs on
    their new VMs in a copy of them and replays it, unless no job moved."""

    def __init__(self, scorer: ScheduleSimulator, vm_sorted: np.ndarray):
        self._place, self._top = scorer._columns.place, scorer.num_vms - 1
        super().__init__(scorer._score, vm_sorted)

    def draft(self, keys: dict[int, float]) -> float:
        """Score the anchor with each job ``p`` on the VM ``keys[p]`` decodes to
        (``decode_random_key``, one key at a time), copying the anchor's VM keys
        at the first job that changes VM: a draft that moves none copies nothing."""
        if not all(map(math.isfinite, keys.values())) or min(keys, default=0) < 0:
            raise ValueError("keys must be finite and positions nonnegative")
        place, top = self._place, self._top
        anchor = vm_sorted = self._anchor
        for p, key in keys.items():
            r, vm = place[p], math.floor(key)
            vm = 0 if vm < 0 else top if vm > top else vm
            if vm_sorted.item(r) != vm:
                if vm_sorted is anchor:
                    vm_sorted = anchor.copy()
                vm_sorted[r] = vm
        self._pending = (anchor, self.fitness) if vm_sorted is anchor else (vm_sorted, self._objective(vm_sorted))
        return self._pending[1]


class BatchScorer(ScheduleSimulator):
    """Exact weighted objective of a batch instance, over random-key vectors.

    With every arrival at zero, VM v serves its jobs in id order, so its
    k-th job finishes at (L_1 + ... + L_k) / s_v. Two integer sums per VM
    then give every metric: S_v = sum over v's jobs i of L_i times the
    number of v's jobs at or after i, and T_v = sum of v's lengths:

        avg_completion = sum_v S_v / s_v / n
        avg_response   = sum_v (S_v - T_v) / s_v / n
        makespan       = max_v T_v / s_v

    The sums are exact (integer lengths, and the job table's batch rule,
    ``fits_batch``, keeps n times the total length below 2**63), and the
    sums of VMs of equal speed are folded before dividing. ``_value`` is the
    one function from sums to score; it reduces with ``math.fsum``, so a score
    depends only on the integer sums, never on the order or layout they were computed in.
    A call decodes the keys into service order as the base class does and
    scores their sums (``_score``) instead of replaying; ``delta_scorer``
    keeps one formation's per-VM state so that moving k jobs is rescored
    in O(k * jobs per VM) steps (see ``BatchDraft``), not O(n), giving the
    same float as a call on the moved keys.
    """

    def __init__(self, jobs: Sequence[Job], vms: Sequence[Vm], weights: MetricWeights = MetricWeights()):
        super().__init__(jobs, vms, weights)
        if not self._columns.fits_batch:
            raise ValueError("exact batch scoring needs zero arrivals and n * total length < 2**63 (fits_batch)")
        self._lengths_by_rank = self._columns.lengths[self._service_order]  # id order, as every arrival is zero
        self._speed = [v.speed for v in vms]
        self._class_speed = sorted(set(self._speed))
        self._class_of = [self._class_speed.index(s) for s in self._speed]
        self._by_class = np.argsort(self._class_of, kind="stable")
        self._class_heads = np.searchsorted(
            np.asarray(self._class_of)[self._by_class], np.arange(len(self._class_speed))
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

    def delta_scorer(self, x: np.ndarray) -> "BatchDraft":
        """Draft scorer anchored at formation ``x`` (see ``BatchDraft``)."""
        return BatchDraft(self, x)


class BatchDraft:
    """One formation's exact sums, and drafts that move a few of its jobs. The
    formation ``x`` is a key vector, decoded as a call decodes it: each key is
    floored and clamped into the VM range, so a VM index past the last VM is
    read as the last VM, not rejected as ``metrics`` rejects it.

    Per VM it keeps the service ranks of its jobs (sorted) and their
    lengths in that order. With S_v written as T_v + sum over pairs of v's
    jobs of the earlier job's length, taking a job j off v lowers S_v by
    (lengths of v's jobs before j) + L_j * (v's jobs from j on), and
    putting it on v raises S_v by the same terms counted against v's jobs.
    ``draft`` decodes each moved job's key and applies the moves in turn,
    deleting and inserting at ``bisect`` indices, so each move is scored
    against the lists as the earlier moves left them; it then undoes them
    in reverse order, also when a move raises, leaving the anchor exactly
    as it was. A draft that moves no job returns the anchor's fitness and
    copies nothing. ``commit`` re-applies the moves at their recorded indices.
    """

    def __init__(self, scorer: BatchScorer, x: np.ndarray):
        vm_sorted = scorer._vm_keys(x)
        group, starts, ends, weighted, totals = scorer._sums(vm_sorted)
        self._place, self._length = scorer._columns.place, scorer._columns.length_list
        self._class_of, self._top = scorer._class_of, scorer.num_vms - 1
        self._makespan, self._value = scorer.weights.makespan, scorer._value
        self._vm_by_rank = vm_sorted.tolist()
        ranks, lengths = (objects[group].tolist() for objects in scorer._columns.rank_objects)  # the table's ints
        bounds = list(zip(starts.tolist(), ends.tolist()))
        self._ranks = [ranks[a:b] for a, b in bounds]
        self._lengths = [lengths[a:b] for a, b in bounds]
        self._totals = totals.tolist()
        self._class_weighted = scorer._fold(weighted)
        self._class_totals = scorer._fold(totals)
        self.fitness = scorer._value(self._class_weighted, self._class_totals, self._totals)
        self._pending = ((), self._class_weighted, self._class_totals, self.fitness)

    def draft(self, keys: dict[int, float]) -> float:
        """Score the anchor with each job ``p`` on the VM ``keys[p]`` decodes to
        (``decode_random_key``, one key at a time)."""
        if not all(map(math.isfinite, keys.values())) or min(keys, default=0) < 0:  # before any list edit
            raise ValueError("keys must be finite and positions nonnegative")
        rank, length, class_of, top = self._place, self._length, self._class_of, self._top
        vm_by_rank, ranks, lengths = self._vm_by_rank, self._ranks, self._lengths
        weighted, totals = self._class_weighted, self._class_totals
        moves = []
        try:
            for p, key in keys.items():
                r = rank[p]
                a, b = vm_by_rank[r], math.floor(key)
                b = 0 if b < 0 else top if b > top else b
                if a == b:
                    continue
                if not moves:  # the first move: edit copies of the anchor's sums
                    weighted, totals = weighted.copy(), totals.copy()
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
            value = self.fitness
            if moves:
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


def make_objective(
    jobs: Sequence[Job],
    vms: Sequence[Vm],
    weights: MetricWeights = MetricWeights(),
) -> Objective:
    """Objective over random-key vectors for a fixed (jobs, vms) instance.

    Each call decodes the keys, scores the non-preemptive schedule, and
    returns the weighted mix of makespan, average completion time, and
    average response time. The jobs are unpacked into a table up front.

    Both objectives are ``ScheduleSimulator``s that decode keys into
    service order: batch instances (every arrival at zero) get a
    ``BatchScorer``, which scores by exact integer sums, other instances a
    plain ``ScheduleSimulator``, which replays the schedule. Both offer
    ``delta_scorer``: ``lca.optimize`` uses it to rescore a draft from the
    few keys it changed, giving the same float as a call. A batch draft
    rescores the moved jobs alone; a staggered one patches and replays.
    """
    jobs = _job_columns(jobs)  # unpacked once here; the scorer's layers share the table's columns
    if jobs.fits_batch:
        return BatchScorer(jobs, vms, weights)
    return ScheduleSimulator(jobs, vms, weights)


BRUTE_FORCE_CAP = 10_000_000


def brute_force_optimal(
    jobs: Sequence[Job],
    vms: Sequence[Vm],
    weights: MetricWeights = MetricWeights(),
) -> tuple[np.ndarray, ScheduleMetrics]:
    """Exact minimizer of the weighted objective over every assignment.

    Enumerates all num_vms ** num_jobs assignments in lexicographic order
    and keeps the first strict improvement, so ties resolve to the
    lexicographically smallest vector. Past ``BRUTE_FORCE_CAP`` assignments
    it raises ``ValueError``.
    """
    simulator = ScheduleSimulator(jobs, vms)
    if simulator.num_vms ** simulator.num_jobs > BRUTE_FORCE_CAP:
        raise ValueError(
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
