"""Cloud scheduling problem model.

Jobs, virtual machines, the weighted schedule objective, and the
random-key bridge that lets a continuous optimizer search over discrete
job-to-VM assignments: component ``d`` of a search vector is floored into
the VM index for the job at position ``d``.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Job:
    """Unit of work: arrival time in seconds, length in machine instructions (MI)."""

    id: int
    arrival_time: float
    length: int

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("job id must be nonnegative")
        if self.id >= 2**63:  # the scorers sort ids and sum lengths as int64
            raise ValueError("job id must fit a 64-bit integer")
        if not 0.0 <= self.arrival_time < math.inf:
            raise ValueError("arrival_time must be finite and nonnegative")
        length = self.length
        if type(length) is not int and (isinstance(length, bool) or not isinstance(length, numbers.Integral)):
            raise ValueError(f"length must be an integer number of MI, got {length!r}")
        if length <= 0:
            raise ValueError("length must be positive")
        if length >= 2**63:
            raise ValueError("job length must fit a 64-bit integer")


@dataclass(frozen=True)
class Vm:
    """Processing resource running at ``speed`` machine instructions per second (MIPS)."""

    id: int
    speed: float

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("vm id must be nonnegative")
        if not 0.0 < self.speed < math.inf:
            raise ValueError("speed must be finite and positive")


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

    Batch instances (every arrival at zero) get a ``BatchScorer``, which
    scores from exact integer sums and also offers ``delta_scorer``:
    ``lca.optimize`` uses it to rescore a draft from the few keys it
    changed, giving the same float as a call. Other instances replay the
    schedule (``ScheduleSimulator``) on every call.
    """
    from .evaluator import BatchScorer, ScheduleSimulator

    if BatchScorer.applies(jobs):
        return BatchScorer(jobs, vms, weights)
    simulator = ScheduleSimulator(jobs, vms)
    num_vms = len(vms)

    def objective(x: np.ndarray) -> float:
        assignment = decode_random_key(x, num_vms)
        return weights.score(simulator.metrics(assignment))

    return objective

