"""Cloud scheduling problem model.

Jobs, virtual machines, the weighted schedule objective, and the
random-key bridge that lets a continuous optimizer search over discrete
job-to-VM assignments: component ``d`` of a search vector is floored into
the VM index for the job at position ``d``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .lca import BoxDomain, Objective, _check_integer, _check_real

__all__ = [
    "Job",
    "Vm",
    "MetricWeights",
    "decode_random_key",
    "assignment_domain",
    "make_objective",
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
    service order, and the batch one scores by exact integer sums: batch
    instances (every arrival at zero) get a ``BatchScorer``, other
    instances a scorer that replays the schedule. Both offer ``delta_scorer``:
    ``lca.optimize`` uses it to rescore a draft from the few keys it
    changed, giving the same float as a call. A batch draft rescores the
    moved jobs alone; a staggered one patches their VM keys and replays.
    """
    from .evaluator import BatchScorer, _ReplayScorer

    jobs = _job_columns(jobs)  # unpacked once here; the scorer's layers share the table's columns
    if jobs.fits_batch:
        return BatchScorer(jobs, vms, weights)
    return _ReplayScorer(jobs, vms, weights)
