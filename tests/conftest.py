import numpy as np
import pytest

from lcasched import Job, Vm


def naive_timeline(jobs, vms, assignment):
    """Straight-line reference simulator: per-VM queues in (arrival, id)
    order, sequential start = max(vm ready, arrival). Returns (starts,
    finishes) aligned with the job list. Kept independent of the vectorized
    replay on purpose.
    """
    order = sorted(range(len(jobs)), key=lambda p: (jobs[p].arrival_time, jobs[p].id))
    ready = {v: 0.0 for v in range(len(vms))}
    starts = [0.0] * len(jobs)
    finishes = [0.0] * len(jobs)
    for p in order:
        vm = int(assignment[p])
        start = max(ready[vm], jobs[p].arrival_time)
        finish = start + jobs[p].length / vms[vm].speed
        ready[vm] = finish
        starts[p] = start
        finishes[p] = finish
    return starts, finishes


def naive_metrics(jobs, vms, assignment):
    starts, finishes = naive_timeline(jobs, vms, assignment)
    waits = [s - j.arrival_time for s, j in zip(starts, jobs)]
    return (
        max(finishes) - min(j.arrival_time for j in jobs),
        sum(finishes) / len(jobs),
        sum(waits) / len(jobs),
    )


def random_instance(rng, max_jobs=6, max_vms=3, staggered=False):
    """Tiny fuzz instance; ``staggered`` draws nonzero arrivals."""
    n = int(rng.integers(1, max_jobs + 1))
    m = int(rng.integers(1, max_vms + 1))
    jobs = []
    for i in range(n):
        arrival = float(rng.uniform(0.0, 30.0)) if staggered else 0.0
        jobs.append(Job(id=i, arrival_time=arrival, length=int(rng.integers(1, 100))))
    vms = [Vm(id=v, speed=float(rng.choice([0.5, 1.0, 2.0, 4.0]))) for v in range(m)]
    return jobs, vms


@pytest.fixture
def three_jobs_two_vms():
    jobs = [Job(0, 0.0, 10), Job(1, 0.0, 20), Job(2, 0.0, 30)]
    vms = [Vm(0, 1.0), Vm(1, 2.0)]
    return jobs, vms


@pytest.fixture
def jobs_built(monkeypatch):
    """A list that gains the id of every ``Job`` built from now on."""
    built = []
    post_init = Job.__post_init__

    def counting(job):
        built.append(job.id)
        post_init(job)

    monkeypatch.setattr(Job, "__post_init__", counting)
    return built
