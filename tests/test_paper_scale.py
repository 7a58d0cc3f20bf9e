"""Differential checks at the paper's scale: 5000 generated jobs, batch and
at 5 jobs/s, on 10 and 130 VMs.

The dispatchers are compared with the naive ``reference_greedy``, and a
long chain of drafts with full calls of the objective, so that errors that
grow with the instance or with the chain's length can show. The module
takes several seconds and stays off unless ``RUN_PAPER_SCALE=1`` is set, as
AC-2 does.
"""

import os

import numpy as np
import pytest

from lcasched import (
    FleetSpec,
    MetricWeights,
    WorkloadSpec,
    fcfs_schedule,
    generate_fleet,
    generate_workload,
    ljf_schedule,
    make_objective,
)

from conftest import fcfs_order, last_arrival_order, ljf_order, reference_greedy

pytestmark = [
    pytest.mark.paper_scale,
    pytest.mark.skipif(
        os.environ.get("RUN_PAPER_SCALE") != "1",
        reason="paper-scale differential checks (seconds); set RUN_PAPER_SCALE=1 to enable",
    ),
    pytest.mark.parametrize("num_vms", [10, 130]),
    pytest.mark.parametrize("arrival_rate", [None, 5.0], ids=["batch", "staggered"]),
]

DRAFTS = 10_000


def paper_instance(arrival_rate, num_vms):
    jobs = generate_workload(WorkloadSpec(job_count=5000, arrival_rate=arrival_rate, seed=1))
    return jobs, generate_fleet(FleetSpec(vm_count=num_vms))


@pytest.mark.parametrize(
    "scheduler,order",
    [
        (fcfs_schedule, fcfs_order),
        (ljf_schedule, ljf_order),
        (lambda jobs, vms: ljf_schedule(jobs, vms, mode="last-arrival"), last_arrival_order),
    ],
    ids=["fcfs", "ljf", "ljf-last-arrival"],
)
def test_dispatchers_match_the_reference(arrival_rate, num_vms, scheduler, order):
    jobs, vms = paper_instance(arrival_rate, num_vms)
    assert scheduler(jobs, vms).tolist() == reference_greedy(jobs, vms, order(jobs))


def test_draft_chain_equals_full_calls_bit_for_bit(arrival_rate, num_vms):
    # each draft moves 1-8 jobs to uniform keys, and half of the drafts are committed, so a
    # draft that leaves the anchor changed, or an anchor that drifts from its formation, shows
    jobs, vms = paper_instance(arrival_rate, num_vms)
    objective = make_objective(jobs, vms, MetricWeights(1.0, 1.0, 1.0))  # every metric, every branch
    rng = np.random.default_rng(num_vms)
    x = rng.uniform(0.0, num_vms, len(jobs))
    scorer = type(objective).delta_scorer(objective, x)
    assert scorer.fitness == objective(x)
    for _ in range(DRAFTS):
        count = int(rng.integers(1, 9))
        keys = dict(zip(rng.integers(0, len(jobs), count).tolist(), rng.uniform(0.0, num_vms, count).tolist()))
        value = scorer.draft(keys)
        if rng.random() < 0.5:
            scorer.commit()
            x = x.copy()
            x[list(keys)] = list(keys.values())
            assert value == scorer.fitness == objective(x)
