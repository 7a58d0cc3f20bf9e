"""The benchmark's workloads: each one is a single ``ExperimentConfig`` sweep.

Every workload runs all three algorithms through ``lcasched.bench.run_sweep``
(serial, ``no_timing=True``), so the quality ratio LCA/FCFS is defined on
every cell. The LCA budgets keep one sweep near a second on a 2-core x86
machine, so that a run of ten seconds holds several sweeps and their median
is steady.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from lcasched import ExperimentConfig, LcaParams, WorkloadSpec, generate_workload, write_jobs_csv

VM_SWEEP = (10, 30, 50, 70, 90, 110, 130)
LEAGUE_SIZE = 4


@dataclass(frozen=True)
class Workload:
    """One sweep shape.

    ``trace_rate`` set means the jobs come from a Poisson trace at that rate
    (jobs/s), generated and written once with ``write_jobs_csv`` during
    set-up and swept through ``jobs_file``; otherwise every cell generates
    its own batch-arrival workload.
    """

    name: str
    num_jobs: int
    vm_counts: tuple[int, ...]
    reps: int
    lca_budget: int
    trace_rate: float | None = None
    ljf_mode: str = "longest"

    @property
    def staggered(self) -> bool:
        return self.trace_rate is not None


WORKLOADS = {
    w.name: w
    for w in (
        # AC-1 grid shape: at n=500 the cost sits in the LCA week loop
        # (swot_update, play_week, per-call overhead) more than in the replay.
        Workload(
            name="desk_batch",
            num_jobs=500,
            vm_counts=VM_SWEEP,
            reps=1,
            lca_budget=1000,
        ),
        # Paper scale: the evaluator replay (int64 argsort) and the O(n)
        # swot_update draw dominate.
        Workload(
            name="paper_batch",
            num_jobs=5000,
            vm_counts=(130,),
            reps=2,
            lca_budget=600,
        ),
        # The only workload on the staggered replay branch, the CSV trace
        # reader and LJF's last-arrival mode. At 5 jobs/s the fleet is
        # overloaded at 10 VMs and idle-heavy at 130, so the sweep crosses
        # saturation.
        Workload(
            name="trace_staggered",
            num_jobs=2000,
            vm_counts=VM_SWEEP,
            reps=1,
            lca_budget=300,
            trace_rate=5.0,
            ljf_mode="last-arrival",
        ),
    )
}


def lca_params(budget: int) -> LcaParams:
    """League of ``LEAGUE_SIZE`` with enough seasons that ``budget`` is what stops the run."""
    weeks_per_season = LEAGUE_SIZE - 1
    seasons = budget // (LEAGUE_SIZE * weeks_per_season) + 1
    return LcaParams(league_size=LEAGUE_SIZE, seasons=seasons, max_evaluations=budget)


def build_config(workload: Workload, seed: int, work_dir: Path) -> ExperimentConfig:
    """Build the workload's inputs for ``seed`` under ``work_dir``; writes the trace file if any."""
    work_dir.mkdir(parents=True, exist_ok=True)
    jobs_file = None
    if workload.staggered:
        jobs = generate_workload(
            WorkloadSpec(job_count=workload.num_jobs, arrival_rate=workload.trace_rate, seed=seed)
        )
        jobs_file = str(work_dir / "jobs.csv")
        write_jobs_csv(jobs, jobs_file)
    return ExperimentConfig(
        jobs_file=jobs_file,
        num_jobs=workload.num_jobs,
        vm_counts=workload.vm_counts,
        algorithms=("lca", "fcfs", "ljf"),
        reps=workload.reps,
        base_seed=seed,
        lca=lca_params(workload.lca_budget),
        ljf_mode=workload.ljf_mode,
        out=str(work_dir / "results.csv"),
        no_timing=True,
        workers=1,
    )
