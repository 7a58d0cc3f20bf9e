"""Per-call microbenchmarks of lcasched's public functions at one problem shape.

Each function is timed in a loop long enough to take about ``TARGET_S``,
five times over, and the median per-call time is kept. The fleet is always
``MICRO_VMS`` VMs, the widest point of the workloads' sweeps.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from lcasched import (
    FleetSpec,
    LcaParams,
    ScheduleSimulator,
    Team,
    WorkloadSpec,
    assignment_domain,
    decode_random_key,
    fcfs_schedule,
    generate_fleet,
    generate_league_schedule,
    generate_workload,
    ljf_schedule,
    make_objective,
    play_week,
    read_jobs_csv,
    swot_update,
    write_jobs_csv,
)

MICRO_VMS = 130
TRACE_RATE = 5.0
TARGET_S = 0.01
REPEATS = 5

# name -> unit; "us" figures are per call in microseconds, "ms" in milliseconds.
UNITS = {
    "decode_us": "us",
    "replay_us": "us",
    "objective_us": "us",
    "swot_update_us": "us",
    "play_week_us": "us",
    "fcfs_ms": "ms",
    "ljf_ms": "ms",
    "generate_ms": "ms",
    "read_jobs_csv_ms": "ms",
}
SHAPES = ((500, False), (500, True), (5000, False), (5000, True))


def shape_name(num_jobs: int, staggered: bool) -> str:
    return f"n{num_jobs}.{'staggered' if staggered else 'batch'}"


def _per_call(fn) -> float:
    start = perf_counter()
    fn()
    loops = max(1, int(TARGET_S / max(perf_counter() - start, 1e-7)))
    samples = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(loops):
            fn()
        samples.append((perf_counter() - start) / loops)
    return statistics.median(samples)


def measure(num_jobs: int, staggered: bool, seed: int, work_dir: Path) -> dict[str, float]:
    """Per-call time of each function in ``UNITS`` at this shape, in the unit it names."""
    rng = np.random.default_rng(seed)
    spec = WorkloadSpec(job_count=num_jobs, arrival_rate=TRACE_RATE if staggered else None, seed=seed)
    jobs = generate_workload(spec)
    vms = generate_fleet(FleetSpec(vm_count=MICRO_VMS))
    jobs_file = work_dir / f"micro-{shape_name(num_jobs, staggered)}.csv"
    write_jobs_csv(jobs, jobs_file)
    simulator = ScheduleSimulator(jobs, vms)
    objective = make_objective(jobs, vms)
    domain = assignment_domain(num_jobs, MICRO_VMS)
    keys = rng.uniform(0.0, MICRO_VMS, size=(4, num_jobs))
    assignment = decode_random_key(keys[0], MICRO_VMS)
    team = Team(formation=keys[0], fitness=2.0, best_formation=keys[1], best_fitness=1.0)
    params = LcaParams(league_size=4)
    matches = generate_league_schedule(4).weeks[0]
    fitnesses = np.array([1.0, 1.5, 2.0, 2.5])
    ljf_mode = "last-arrival" if staggered else "longest"
    calls = {
        "decode_us": lambda: decode_random_key(keys[0], MICRO_VMS),
        "replay_us": lambda: simulator.metrics(assignment),
        "objective_us": lambda: objective(keys[0]),
        "swot_update_us": lambda: swot_update(team, keys[2], keys[3], True, False, params, domain, rng),
        "play_week_us": lambda: play_week(matches, fitnesses, 1.0, rng),
        "fcfs_ms": lambda: fcfs_schedule(jobs, vms),
        "ljf_ms": lambda: ljf_schedule(jobs, vms, mode=ljf_mode),
        "generate_ms": lambda: generate_workload(spec),
        "read_jobs_csv_ms": lambda: read_jobs_csv(jobs_file),
    }
    return {name: _per_call(call) * (1e6 if UNITS[name] == "us" else 1e3) for name, call in calls.items()}
