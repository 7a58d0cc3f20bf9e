"""Refactor gate: a small fixed sweep must keep its CSVs byte for byte.

Four ``run_sweep`` calls with ``no_timing=True`` cover batch arrivals at
60 jobs (all three algorithms), one batch LCA cell of 600 jobs under a
mix of all three metric weights, a staggered ``jobs_file`` trace with LJF
``last-arrival``, and FCFS and LJF on 5000 batch jobs at 10 and 130 VMs,
where the earliest-ready dispatch breaks many ties. The sha256 of each
results and summary CSV is pinned, so a refactor that moves any random
draw, float operation or CSV byte fails here.

A deliberate change to a random stream or to a result must update the
digests below and log the change in ``CHANGES.md``.
"""

import hashlib

import pytest

from lcasched import (
    ExperimentConfig,
    LcaParams,
    MetricWeights,
    WorkloadSpec,
    generate_workload,
    run_sweep,
    write_jobs_csv,
)
from lcasched.bench import summary_path_for

GATE_LCA = LcaParams(league_size=6, seasons=100, seed=0, max_evaluations=300)

SWEEPS = {
    "batch60": dict(num_jobs=60, vm_counts=(3, 10), reps=2),
    "batch600": dict(
        num_jobs=600,
        vm_counts=(20,),
        reps=1,
        algorithms=("lca",),
        weights=MetricWeights(makespan=0.5, completion=1.0, response=0.25),
    ),
    "trace": dict(vm_counts=(4,), reps=2, ljf_mode="last-arrival"),
    "baselines5000": dict(num_jobs=5000, vm_counts=(10, 130), reps=2, algorithms=("fcfs", "ljf")),
}

# Recorded before the refactor that introduced this gate, except where noted.
DIGESTS = {
    # Re-recorded when slots below 128 came to be drawn by Floyd's sampling
    # too, instead of a permutation prefix: a logged random-stream change.
    "batch60": (
        "e737e970b210eca6e333ea52874391368698d40441d4c23d8fb850e3b900b89f",
        "e3e8e31a393c126444e14618eaa00759480d162d1da6630c06eed37364ba1f6b",
    ),
    # Re-recorded when slots from 128 up came to be drawn by Floyd's
    # sampling instead of rng.choice: a logged random-stream change.
    "batch600": (
        "2582f8f2ab3c613b07dea76e98cc4e1d5009cf9cfbc6b3512a22d74d8cf2277c",
        "06844d8be80176e1f454cf95fb1c9f525d28eeb570fea239a043ba30b8f2e8bd",
    ),
    # Re-recorded with batch60, for the same random-stream change.
    "trace": (
        "a796dd70423a9ff5000526c80fde7a3bd0d690c9a5e028e3abf6d53f7165afde",
        "ca2f86b55d876e7e0e0e04fc621bf61cfb191ab4481a41aaa9c48ee603482f9f",
    ),
    # Recorded before the heap-ordered dispatch and the per-seed workload cache.
    "baselines5000": (
        "43f4fcc71608ff9046ff66bf368ca52e9420d8748fb0de894d1ccf3a03f89e32",
        "dede10259f543bfef3d83d8de452b692392e5bdbf8080c1fe6881984ab369e55",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csvs_are_byte_identical(tmp_path, name):
    options = dict(SWEEPS[name])
    if name == "trace":
        jobs_file = tmp_path / "jobs.csv"
        write_jobs_csv(generate_workload(WorkloadSpec(job_count=80, arrival_rate=2.0, seed=11)), jobs_file)
        options["jobs_file"] = str(jobs_file)
    out = tmp_path / "results.csv"
    run_sweep(ExperimentConfig(**options, lca=GATE_LCA, out=str(out), no_timing=True))
    assert (_sha256(out), _sha256(summary_path_for(out))) == DIGESTS[name]
