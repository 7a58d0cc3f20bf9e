"""Output checker: re-derives sweep rows through the public API and re-scores them.

The reference replay here is a plain per-VM queue walk, written apart from
``ScheduleSimulator`` on purpose: jobs join their VM's queue in
(arrival, id) order and each starts at max(VM free, arrival). Rows must
agree with it within ``REL_TOL``; errors are taken relative to the row's
makespan, the time scale of its schedule, so that an average response near
zero is not judged on its own rounding.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import replace

import numpy as np

from lcasched import (
    FleetSpec,
    ScheduleMetrics,
    WorkloadSpec,
    assignment_domain,
    decode_random_key,
    fcfs_schedule,
    generate_fleet,
    generate_workload,
    ljf_schedule,
    make_objective,
    optimize,
    read_jobs_csv,
)

REL_TOL = 1e-9
METRICS = ("makespan", "avg_completion", "avg_response")


def naive_metrics(jobs, vms, assignment) -> tuple[float, float, float]:
    """(makespan, avg_completion, avg_response) by walking each VM's queue in turn."""
    queues: dict[int, list[int]] = {}
    for position in sorted(range(len(jobs)), key=lambda p: (jobs[p].arrival_time, jobs[p].id)):
        queues.setdefault(int(assignment[position]), []).append(position)
    finishes, waits = [], []
    for vm, members in queues.items():
        free_at = 0.0
        for position in members:
            job = jobs[position]
            start = max(free_at, job.arrival_time)
            free_at = start + job.length / vms[vm].speed
            finishes.append(free_at)
            waits.append(start - job.arrival_time)
    earliest = min(job.arrival_time for job in jobs)
    return max(finishes) - earliest, math.fsum(finishes) / len(jobs), math.fsum(waits) / len(jobs)


def cell_inputs(config, num_vms: int, seed: int, trace_jobs=None):
    """Jobs, VMs and optimizer seed of one cell, from the seeding scheme ``lcasched.bench`` documents:
    three ``SeedSequence(seed)`` sub-streams for workload, fleet and optimizer."""
    workload_seed, fleet_seed, optimizer_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(3, np.uint64)
    )
    if trace_jobs is not None:
        jobs = trace_jobs
    else:
        jobs = generate_workload(
            WorkloadSpec(
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


def _close(a: float, b: float, scale: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL * abs(scale))


def _row_problems(row, expected: tuple[float, float, float], weights) -> list[str]:
    problems = []
    got = tuple(getattr(row, name) for name in METRICS)
    if not all(math.isfinite(v) for v in got + (row.objective_value,)):
        return [f"non-finite metric in {got + (row.objective_value,)}"]
    for name, value, want in zip(METRICS, got, expected):
        if not _close(value, want, expected[0]):
            problems.append(f"{name}={value!r}, reference replay gives {want!r}")
    objective = weights.score(ScheduleMetrics(*expected))
    if not _close(row.objective_value, objective, expected[0]):
        problems.append(f"objective_value={row.objective_value!r}, reference gives {objective!r}")
    return problems


def check_sweep(config, rows, summary) -> dict[tuple, list[str]]:
    """Problems found, keyed by cell (algorithm, num_vms, seed); empty when the sweep is right.

    Every FCFS and LJF row is re-derived and re-scored; the first LCA row is
    re-optimized from its seed and its returned formation re-scored. Every
    row must be finite, the grid complete and sorted, and the summary must
    match the rows.
    """
    failures: dict[tuple, list[str]] = {}
    seeds = range(config.base_seed, config.base_seed + config.reps)
    grid = sorted((a, m, s) for a in config.algorithms for m in config.vm_counts for s in seeds)
    keys = [(r.algorithm, r.num_vms, r.seed) for r in rows]
    if keys != grid:
        # Cells missing or extra are the culprits; a reordering or duplicate taints every cell.
        for key in set(grid) ^ set(keys) or grid:
            failures.setdefault(key, []).append("grid incomplete, duplicated or unsorted")
    trace_jobs = read_jobs_csv(config.jobs_file) if config.jobs_file is not None else None
    lca_rechecked = False
    for row in rows:
        key = (row.algorithm, row.num_vms, row.seed)
        if row.algorithm == "lca":
            if not all(math.isfinite(getattr(row, n)) for n in METRICS + ("objective_value",)):
                failures.setdefault(key, []).append("non-finite metric")
            if not 1 <= row.evaluations <= (config.lca.max_evaluations or row.evaluations):
                failures.setdefault(key, []).append(f"evaluations={row.evaluations} outside budget")
            if lca_rechecked:
                continue
            lca_rechecked = True
            jobs, vms, optimizer_seed = cell_inputs(config, row.num_vms, row.seed, trace_jobs)
            result = optimize(
                make_objective(jobs, vms, config.weights),
                assignment_domain(len(jobs), len(vms)),
                replace(config.lca, seed=optimizer_seed),
            )
            assignment = decode_random_key(result.best_formation, len(vms))
            problems = _row_problems(row, naive_metrics(jobs, vms, assignment), config.weights)
            if row.evaluations != result.evaluations:
                problems.append(f"evaluations={row.evaluations}, re-run spent {result.evaluations}")
            if not _close(row.objective_value, result.best_fitness, row.makespan):
                problems.append(f"objective_value={row.objective_value!r}, re-run best {result.best_fitness!r}")
        else:
            jobs, vms, _ = cell_inputs(config, row.num_vms, row.seed, trace_jobs)
            if row.algorithm == "fcfs":
                assignment = fcfs_schedule(jobs, vms)
            else:
                assignment = ljf_schedule(jobs, vms, mode=config.ljf_mode)
            problems = _row_problems(row, naive_metrics(jobs, vms, assignment), config.weights)
            if row.evaluations != 1:
                problems.append(f"evaluations={row.evaluations}, expected 1")
        if problems:
            failures.setdefault(key, []).extend(problems)
    for key, problems in _summary_problems(rows, summary).items():
        for cell in (k for k in keys if k[:2] == key):
            failures.setdefault(cell, []).extend(problems)
    return failures


def _summary_problems(rows, summary) -> dict[tuple, list[str]]:
    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault((row.algorithm, row.num_vms), []).append(row)
    problems: dict[tuple, list[str]] = {}
    if sorted(groups) != [(s.algorithm, s.num_vms) for s in summary]:
        return {key: ["summary groups do not match the rows"] for key in groups}
    for entry in summary:
        members = groups[(entry.algorithm, entry.num_vms)]
        for name in METRICS + ("objective_value",):
            values = [getattr(r, name) for r in members]
            for stat, want in (("mean", statistics.fmean(values)), ("std", statistics.pstdev(values))):
                got = getattr(entry, f"{stat}_{name}")
                if not _close(got, want, statistics.fmean(values)):
                    problems.setdefault((entry.algorithm, entry.num_vms), []).append(
                        f"summary {stat}_{name}={got!r}, rows give {want!r}"
                    )
    return problems


def completion_ratio_vs_fcfs(rows) -> float:
    """Mean over cells of LCA avg_completion / FCFS avg_completion for the same (num_vms, seed)."""
    fcfs = {(r.num_vms, r.seed): r.avg_completion for r in rows if r.algorithm == "fcfs"}
    ratios = [r.avg_completion / fcfs[(r.num_vms, r.seed)] for r in rows if r.algorithm == "lca"]
    return statistics.fmean(ratios)
