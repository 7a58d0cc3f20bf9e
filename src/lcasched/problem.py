"""Cloud scheduling problem model.

Jobs, virtual machines, the weighted schedule objective, and the
random-key bridge that lets a continuous optimizer search over discrete
job-to-VM assignments: component ``d`` of a search vector is floored into
the VM index for the job at position ``d``.
"""

from __future__ import annotations

import collections
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lca import BoxDomain, Objective

__all__ = [
    "Job",
    "Vm",
    "MetricWeights",
    "decode_random_key",
    "assignment_domain",
    "make_objective",
]


def _is_integer(value) -> bool:
    """An int or a numpy integer; not a bool, nor a float of integral value."""
    return type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral))


def _is_real(value) -> bool:
    """An int, a float or a numpy real; not a bool."""
    return type(value) is float or (not isinstance(value, bool) and isinstance(value, numbers.Real))


@dataclass(frozen=True)
class Job:
    """Unit of work: arrival time in seconds, length in machine instructions (MI)."""

    id: int
    arrival_time: float
    length: int

    def __post_init__(self):
        if not _is_integer(self.id):
            raise ValueError(f"job id must be an integer, got {self.id!r}")
        if self.id < 0:
            raise ValueError("job id must be nonnegative")
        if self.id >= 2**63:  # the scorers sort ids and sum lengths as int64
            raise ValueError("job id must fit a 64-bit integer")
        if not (_is_real(self.arrival_time) and 0.0 <= self.arrival_time < math.inf):
            raise ValueError(f"arrival_time must be finite and nonnegative (real, not bool), got {self.arrival_time!r}")
        if not _is_integer(self.length):
            raise ValueError(f"length must be an integer number of MI, got {self.length!r}")
        if self.length <= 0:
            raise ValueError("length must be positive")
        if self.length >= 2**63:
            raise ValueError("job length must fit a 64-bit integer")


_JobColumns = collections.namedtuple("_JobColumns", "ids arrivals lengths arrival_list length_list service_order place")
_remembered = [(None, None)]  # the last tuple of jobs unpacked, and its columns


def _job_columns(jobs: Sequence[Job]) -> _JobColumns:
    """Ids and lengths (int64) and arrivals (float) of ``jobs``, as arrays and as the lists the dispatch
    loop reads, the (arrival, id) service order, and ``place``, its inverse (job -> service position), as
    a list. The last tuple's columns are remembered by identity, with read-only arrays (the tuple is kept,
    so its id is not reused); a list never is."""
    last_jobs, last_columns = _remembered[0]  # one read: a thread storing a new pair cannot split it
    if jobs is last_jobs:
        return last_columns
    ids = np.array([j.id for j in jobs], dtype=np.int64)
    arrivals = np.array([j.arrival_time for j in jobs], dtype=float)
    lengths = np.array([j.length for j in jobs], dtype=np.int64)
    order = np.lexsort((ids, arrivals))
    columns = _JobColumns(ids, arrivals, lengths, arrivals.tolist(), lengths.tolist(), order, order.argsort().tolist())
    if type(jobs) is tuple:
        for array in (ids, arrivals, lengths, columns.service_order):
            array.flags.writeable = False
        _remembered[0] = (jobs, columns)
    return columns


@dataclass(frozen=True)
class Vm:
    """Processing resource running at ``speed`` machine instructions per second (MIPS)."""

    id: int
    speed: float

    def __post_init__(self):
        if not _is_integer(self.id):
            raise ValueError(f"vm id must be an integer, got {self.id!r}")
        if self.id < 0:
            raise ValueError("vm id must be nonnegative")
        if not (_is_real(self.speed) and 0.0 < self.speed < math.inf):
            raise ValueError(f"speed must be finite and positive (real, not bool), got {self.speed!r}")


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
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} weight must be finite and nonnegative, got {getattr(self, name)!r}")
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
    if num_vms < 1:
        raise ValueError("num_vms must be positive")
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
    if num_jobs < 1 or num_vms < 1:
        raise ValueError("num_jobs and num_vms must be positive")
    return BoxDomain.cube(num_jobs, 0.0, float(num_vms))


def make_objective(
    jobs: Sequence[Job],
    vms: Sequence[Vm],
    weights: MetricWeights = MetricWeights(),
) -> Objective:
    """Objective over random-key vectors for a fixed (jobs, vms) instance.

    Each call decodes the keys, scores the non-preemptive schedule, and
    returns the weighted mix of makespan, average completion time, and
    average response time. The instance is unpacked once up front.

    Both objectives are ``ScheduleSimulator``s that decode keys into
    service order, and the batch one scores by exact integer sums: batch
    instances (every arrival at zero) get a ``BatchScorer``, other
    instances a scorer that replays the schedule. Both offer ``delta_scorer``:
    ``lca.optimize`` uses it to rescore a draft from the few keys it
    changed, giving the same float as a call. A batch draft rescores the
    moved jobs alone; a staggered one patches their VM keys and replays.
    """
    from .evaluator import BatchScorer, _ReplayScorer

    jobs = tuple(jobs)  # _job_columns remembers the last tuple, so the scorer's layers unpack it once
    if BatchScorer.applies(jobs):
        return BatchScorer(jobs, vms, weights)
    return _ReplayScorer(jobs, vms, weights)
