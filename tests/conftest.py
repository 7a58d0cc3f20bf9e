from fractions import Fraction

import numpy as np
import pytest

import lcasched.bench
from lcasched import Job, Vm
from lcasched.problem import _JobTable


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


def exact_metrics(jobs, vms, assignment):
    """Makespan, average completion and average response as exact ``Fraction``s: a per-queue Lindley
    replay (start = max(VM ready, arrival)) in (arrival, id) order, with no rounding at any step."""
    order = sorted(range(len(jobs)), key=lambda p: (jobs[p].arrival_time, jobs[p].id))
    ready = [Fraction(0)] * len(vms)
    last = total_finish = total_wait = Fraction(0)
    for p in order:
        vm, arrival = int(assignment[p]), Fraction(jobs[p].arrival_time)
        start = max(ready[vm], arrival)
        ready[vm] = finish = start + Fraction(jobs[p].length) / Fraction(vms[vm].speed)
        last = max(last, finish)
        total_finish += finish
        total_wait += start - arrival
    first_arrival = min(Fraction(j.arrival_time) for j in jobs)
    return last - first_arrival, total_finish / len(jobs), total_wait / len(jobs)


def reference_greedy(jobs, vms, dispatch_order):
    """Naive dispatcher: each job in turn goes to the VM that is ready
    earliest (ties to the lowest index), which then runs it from
    max(ready, arrival) for length / speed seconds."""
    ready = [0.0] * len(vms)
    assignment = [None] * len(jobs)
    for p in dispatch_order:
        vm = min(range(len(vms)), key=lambda v: (ready[v], v))
        ready[vm] = max(ready[vm], jobs[p].arrival_time) + jobs[p].length / vms[vm].speed
        assignment[p] = vm
    return assignment


def fcfs_order(jobs):
    return sorted(range(len(jobs)), key=lambda p: (jobs[p].arrival_time, jobs[p].id))


def ljf_order(jobs):
    return sorted(range(len(jobs)), key=lambda p: (-jobs[p].length, jobs[p].id))


def last_arrival_order(jobs):
    return sorted(range(len(jobs)), key=lambda p: (-jobs[p].arrival_time, jobs[p].id))


def swot_formation(
    best,
    current,
    opponent_formation,
    rival_opponent_formation,
    won,
    rival_opponent_won,
    retreat_coeff,
    approach_coeff,
    gain_rival,
    gain_opponent,
):
    """Reference for the optimizer's weekly rebuild, anchored at ``best``,
    as a vector formula. Kept independent of ``lca._drafter``, which
    rebuilds one slot at a time, on purpose.

    The arguments hold the changed slots only, or one slot's floats. Two
    pulls act on them: one relative to the team that just played our next
    rival (approach it if it won, retreat if it lost) and one relative to
    this week's opponent (retreat from it if we beat it, approach it if it
    beat us). The four win/loss combinations cover the strength/weakness
    versus opportunity/threat cases.
    """
    if rival_opponent_won:
        rival_pull = approach_coeff * (rival_opponent_formation - current)
    else:
        rival_pull = retreat_coeff * (current - rival_opponent_formation)
    if won:
        opponent_pull = retreat_coeff * (current - opponent_formation)
    else:
        opponent_pull = approach_coeff * (opponent_formation - current)
    return best + (gain_rival * rival_pull + gain_opponent * opponent_pull)


def floyd_sample(rng, dimension, count):
    """Reference for the optimizer's slot draw: Floyd's sampling from one
    ``rng.random(count)`` draw, in draw order. Kept independent of
    ``lca._drafter`` on purpose."""
    slots = []
    for j, u in zip(range(dimension - count, dimension), rng.random(count)):
        t = int(u * (j + 1))
        slots.append(j if t in slots else t)
    return slots


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


@pytest.fixture
def vms_built(monkeypatch):
    """A list that gains the id of every ``Vm`` built from now on, with the
    sweep harness's fleet and sub-seed caches cleared first."""
    lcasched.bench._fleet.cache_clear()
    lcasched.bench._sub_seeds.cache_clear()
    built = []
    post_init = Vm.__post_init__

    def counting(vm):
        built.append(vm.id)
        post_init(vm)

    monkeypatch.setattr(Vm, "__post_init__", counting)
    return built


@pytest.fixture
def float_length_builds(monkeypatch):
    """A list that gains every job table whose ``float_lengths`` is built from now on."""
    built = []
    cached = vars(_JobTable)["float_lengths"]
    build = cached.func

    def counting(table):
        built.append(table)
        return build(table)

    monkeypatch.setattr(cached, "func", counting)
    return built
