"""Benchmark harness: one result row per (algorithm, VM count, seed).

A cell rebuilds its workload and fleet from the cell seed (three
sub-streams split off with ``numpy.random.SeedSequence``: workload, fleet,
optimizer), so every algorithm sees identical inputs for the same seed and
the whole sweep is reproducible. A process keeps the jobs of the last
source a cell asked for, a jobs file's path or a generated workload's
spec, as one table of job columns (``problem._JobTable``), until a cell
asks for another one. A sweep runs its cells seed-major (seed, then
algorithm, then VM count), so each seed's jobs are drawn straight into
columns once per process, building no ``Job``, and only the seed's first
cell counts the draw in its ``wall_ms``. A sweep over a jobs file reads it
afresh once, before any cell, and forked workers inherit its table. Rows
are always written sorted by (algorithm, num_vms, seed) no matter how
cells were executed, and all floats are serialized with full round-trip
precision, so the results CSV is byte-identical across runs and worker
counts once ``no_timing`` zeroes the wall-clock column.
"""

from __future__ import annotations

import functools
import math
import statistics
import tempfile
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import LJF_MODES, fcfs_schedule, ljf_schedule
from .evaluator import ScheduleSimulator
from .lca import LcaParams, optimize
from .problem import MetricWeights, _job_columns, _JobTable, assignment_domain, decode_random_key, make_objective
from .workload import (
    DEFAULT_LEN_MAX,
    DEFAULT_LEN_MIN,
    DEFAULT_SPEED_CHOICES,
    FleetSpec,
    WorkloadSpec,
    _drawn_jobs,
    generate_fleet,
    read_jobs_csv,
    _write_csv,
)

__all__ = [
    "ALGORITHMS",
    "DEFAULT_VM_COUNTS",
    "ExperimentConfig",
    "ResultRow",
    "SummaryRow",
    "run_cell",
    "run_sweep",
    "summarize",
]

ALGORITHMS = ("lca", "fcfs", "ljf")
DEFAULT_VM_COUNTS = (10, 30, 50, 70, 90, 110, 130)

@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep.

    Jobs come either from ``jobs_file`` or from a generated workload of
    ``num_jobs`` jobs; repetition seeds run from ``base_seed`` through
    ``base_seed + reps - 1``.
    """

    jobs_file: str | None = None
    num_jobs: int = 500
    len_min: int = DEFAULT_LEN_MIN
    len_max: int = DEFAULT_LEN_MAX
    arrival_rate: float | None = None
    vm_speeds: tuple[float, ...] = DEFAULT_SPEED_CHOICES
    vm_speed_mode: str = "cycle"
    vm_counts: tuple[int, ...] = DEFAULT_VM_COUNTS
    algorithms: tuple[str, ...] = ALGORITHMS
    reps: int = 10
    base_seed: int = 1
    lca: LcaParams = LcaParams()
    weights: MetricWeights = MetricWeights()
    ljf_mode: str = "longest"
    out: str = "results.csv"
    no_timing: bool = False
    workers: int = 1

    def __post_init__(self):
        if not self.vm_counts or any(m < 1 for m in self.vm_counts):
            raise ValueError("vm_counts must be non-empty with every count >= 1")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not self.algorithms:
            raise ValueError("algorithms must be non-empty")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("algorithms must not repeat")
        if self.ljf_mode not in LJF_MODES:
            raise ValueError(f"ljf_mode must be one of {LJF_MODES}")
        if self.jobs_file is None and self.num_jobs < 1:
            raise ValueError("num_jobs must be positive")
        if not 0 < self.len_min <= self.len_max:
            raise ValueError("need 0 < len_min <= len_max")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if not self.vm_speeds or not all(0.0 < s < math.inf for s in self.vm_speeds):
            raise ValueError(f"vm_speeds must be non-empty, finite and positive, got {self.vm_speeds!r}")


@dataclass(frozen=True)
class ResultRow:
    """One evaluated cell; metrics in seconds, wall_ms in milliseconds."""

    algorithm: str
    num_vms: int
    seed: int
    makespan: float
    avg_completion: float
    avg_response: float
    objective_value: float
    evaluations: int
    wall_ms: float

    def sort_key(self):
        return (self.algorithm, self.num_vms, self.seed)


@dataclass(frozen=True)
class SummaryRow:
    algorithm: str
    num_vms: int
    mean_makespan: float
    std_makespan: float
    mean_avg_completion: float
    std_avg_completion: float
    mean_avg_response: float
    std_avg_response: float
    mean_objective_value: float
    std_objective_value: float


def _csv_fields(row) -> list[str]:
    """A row's values in field order; floats keep full round-trip precision."""
    values = (getattr(row, f.name) for f in fields(row))
    return [repr(v) if isinstance(v, float) else str(v) for v in values]


RESULTS_CSV_HEADER = tuple(f.name for f in fields(ResultRow))
SUMMARY_CSV_HEADER = tuple(f.name for f in fields(SummaryRow))
# The metrics summarize averages: each mean_<name> column of SummaryRow.
_SUMMARY_METRICS = tuple(name.removeprefix("mean_") for name in SUMMARY_CSV_HEADER if name.startswith("mean_"))


@functools.lru_cache(maxsize=1)
def _jobs(source: str | WorkloadSpec) -> _JobTable:
    """The job table of a jobs-file path or of a workload spec, drawn with no ``Job`` built; kept until
    another source is asked for or a sweep over a jobs file starts."""
    if isinstance(source, WorkloadSpec):
        return _drawn_jobs(source)
    return _job_columns(read_jobs_csv(source))


def _cell_inputs(config: ExperimentConfig, num_vms: int, seed: int):
    workload_seed, fleet_seed, optimizer_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(3, np.uint64)
    )
    jobs = _jobs(
        config.jobs_file
        if config.jobs_file is not None
        else WorkloadSpec(
            job_count=config.num_jobs,
            len_min=config.len_min,
            len_max=config.len_max,
            arrival_rate=config.arrival_rate,
            seed=workload_seed,
        )
    )
    vms = generate_fleet(
        FleetSpec(
            vm_count=num_vms,
            speed_choices=config.vm_speeds,
            mode=config.vm_speed_mode,
            seed=fleet_seed,
        )
    )
    return jobs, vms, optimizer_seed


def run_cell(config: ExperimentConfig, algorithm: str, num_vms: int, seed: int) -> ResultRow:
    """Build the cell's instance, schedule it, and score the result.

    Deterministic per (config, seed) apart from ``wall_ms``, which
    ``config.no_timing`` pins to zero. Jobs come from the process's one
    cached job table, so a jobs file rewritten mid-sweep is not reread.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm: {algorithm!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    started = time.perf_counter()
    jobs, vms, optimizer_seed = _cell_inputs(config, num_vms, seed)
    simulator = ScheduleSimulator(jobs, vms)
    if algorithm == "lca":
        objective = make_objective(jobs, vms, config.weights)
        domain = assignment_domain(len(jobs), len(vms))
        result = optimize(objective, domain, replace(config.lca, seed=optimizer_seed))
        assignment = decode_random_key(result.best_formation, len(vms))
        evaluations = result.evaluations
    elif algorithm == "fcfs":
        assignment = fcfs_schedule(jobs, vms)
        evaluations = 1
    else:
        assignment = ljf_schedule(jobs, vms, mode=config.ljf_mode)
        evaluations = 1
    metrics = simulator.metrics(assignment)
    wall_ms = 0.0 if config.no_timing else (time.perf_counter() - started) * 1000.0
    return ResultRow(
        algorithm=algorithm,
        num_vms=num_vms,
        seed=seed,
        makespan=metrics.makespan,
        avg_completion=metrics.avg_completion,
        avg_response=metrics.avg_response,
        objective_value=config.weights.score(metrics),
        evaluations=evaluations,
        wall_ms=wall_ms,
    )


def run_sweep(config: ExperimentConfig) -> tuple[list[ResultRow], list[SummaryRow]]:
    """Run the full algorithms x vm_counts x reps grid and write both CSVs.

    Cells are independent and may run in parallel (``config.workers``); the
    output is sorted and therefore independent of execution order. Cells
    run seed-major, so consecutive cells share one generated workload, and
    a ``jobs_file`` is read afresh once, before any cell, so a bad trace
    fails early and every cell, forked workers included, shares it. The
    output directory is checked for writability before any cell runs
    (``OSError`` otherwise), and each CSV is replaced atomically, so a
    failed sweep never leaves a truncated one. Returns the sorted rows and
    the per-(algorithm, vm count) summary.
    """
    _check_writable(Path(config.out).parent)
    if config.jobs_file is not None:
        _jobs.cache_clear()
        _jobs(config.jobs_file)
    tasks = [
        (config, algorithm, num_vms, seed)
        for seed in range(config.base_seed, config.base_seed + config.reps)
        for algorithm in config.algorithms
        for num_vms in config.vm_counts
    ]
    if config.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # costs ~15 ms per import; serial runs skip it

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(run_cell, *zip(*tasks)))
    else:
        rows = list(map(run_cell, *zip(*tasks)))
    rows.sort(key=ResultRow.sort_key)
    summary = summarize(rows)
    write_results_csv(rows, config.out)
    write_summary_csv(summary, summary_path_for(config.out))
    return rows, summary


def summarize(rows: Sequence[ResultRow]) -> list[SummaryRow]:
    """Mean and population standard deviation of each metric per group."""
    groups: dict[tuple[str, int], list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.algorithm, row.num_vms), []).append(row)
    summary = []
    for (algorithm, num_vms) in sorted(groups):
        members = groups[(algorithm, num_vms)]
        stats = {}
        for name in _SUMMARY_METRICS:
            values = [getattr(r, name) for r in members]
            stats[f"mean_{name}"] = statistics.fmean(values)
            stats[f"std_{name}"] = statistics.pstdev(values)
        summary.append(SummaryRow(algorithm=algorithm, num_vms=num_vms, **stats))
    return summary


def summary_path_for(out) -> Path:
    out = Path(out)
    return out.with_name(out.stem + "_summary" + (out.suffix or ".csv"))


def write_results_csv(rows: Sequence[ResultRow], sink) -> None:
    _write_csv(RESULTS_CSV_HEADER, [_csv_fields(row) for row in rows], sink)


def write_summary_csv(summary: Sequence[SummaryRow], sink) -> None:
    _write_csv(SUMMARY_CSV_HEADER, [_csv_fields(row) for row in summary], sink)


def _check_writable(directory: Path) -> None:
    """Raise ``OSError`` unless a file can be created in ``directory``."""
    with tempfile.TemporaryFile(dir=directory):
        pass
