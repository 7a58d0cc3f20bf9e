import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcasched import Job, ScheduleSimulator, Vm, fcfs_schedule, ljf_schedule

from conftest import fcfs_order, last_arrival_order, ljf_order, random_instance, reference_greedy


class TestFcfs:
    def test_three_job_example(self, three_jobs_two_vms):
        jobs, vms = three_jobs_two_vms
        assignment = fcfs_schedule(jobs, vms)
        assert assignment.tolist() == [0, 1, 0]
        _, metrics = ScheduleSimulator(jobs, vms).run(assignment)
        assert metrics.makespan == 40.0

    def test_single_vm_takes_everything(self):
        jobs = [Job(i, float(i), 10) for i in range(5)]
        vms = [Vm(0, 1.0)]
        assert fcfs_schedule(jobs, vms).tolist() == [0] * 5

    def test_simultaneous_jobs_spread_in_id_order(self):
        jobs = [Job(i, 0.0, 10) for i in range(3)]
        vms = [Vm(v, 2.0) for v in range(5)]
        assert fcfs_schedule(jobs, vms).tolist() == [0, 1, 2]

    def test_dispatches_by_arrival_not_position(self):
        early = Job(7, 0.0, 50)
        late = Job(0, 1.0, 50)
        vms = [Vm(0, 1.0), Vm(1, 1.0)]
        # the early arrival grabs VM 0 even though it sits last in the list
        assert fcfs_schedule([late, early], vms).tolist() == [1, 0]

    def test_invariant_under_resorting(self):
        rng = np.random.default_rng(3)
        jobs, vms = random_instance(rng, max_jobs=6, max_vms=3, staggered=True)
        baseline = {job.id: vm for job, vm in zip(jobs, fcfs_schedule(jobs, vms))}
        for _ in range(5):
            perm = rng.permutation(len(jobs))
            shuffled = [jobs[p] for p in perm]
            remapped = {job.id: vm for job, vm in zip(shuffled, fcfs_schedule(shuffled, vms))}
            assert remapped == baseline

    def test_empty_inputs_rejected(self, three_jobs_two_vms):
        jobs, vms = three_jobs_two_vms
        with pytest.raises(ValueError):
            fcfs_schedule([], vms)
        with pytest.raises(ValueError):
            fcfs_schedule(jobs, [])


class TestLjf:
    def test_three_job_example(self, three_jobs_two_vms):
        # Dispatch order is longest first (J2, J1, J0), so the 30 MI job
        # takes VM 0 and the other two land on VM 1. Evaluation still
        # serves VM 1 in id order: job 0 runs 0..5, job 1 runs 5..15.
        jobs, vms = three_jobs_two_vms
        assignment = ljf_schedule(jobs, vms)
        assert assignment.tolist() == [1, 1, 0]
        _, metrics = ScheduleSimulator(jobs, vms).run(assignment)
        assert metrics.makespan == 30.0
        assert metrics.avg_completion == pytest.approx(50.0 / 3.0, rel=1e-15)
        assert metrics.avg_response == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_equal_lengths_match_fcfs(self):
        jobs = [Job(i, 0.0, 25) for i in range(6)]
        vms = [Vm(0, 1.0), Vm(1, 2.0), Vm(2, 1.0)]
        assert ljf_schedule(jobs, vms).tolist() == fcfs_schedule(jobs, vms).tolist()

    def test_single_job_matches_fcfs(self):
        jobs = [Job(0, 0.0, 40)]
        vms = [Vm(0, 1.0), Vm(1, 2.0)]
        assert ljf_schedule(jobs, vms).tolist() == fcfs_schedule(jobs, vms).tolist()

    def test_last_arrival_mode_dispatches_latest_first(self):
        jobs = [Job(0, 0.0, 10), Job(1, 5.0, 10), Job(2, 9.0, 10)]
        vms = [Vm(0, 1.0), Vm(1, 1.0), Vm(2, 1.0)]
        # latest arrival dispatched first, so it claims VM 0
        assert ljf_schedule(jobs, vms, mode="last-arrival").tolist() == [2, 1, 0]

    def test_single_precision_speeds_dispatch_as_floats(self):
        # ready times were once computed in float32 from such speeds: [2, 3, 0, 0, 3, 0, 3, 0, 1]
        jobs = [Job(i, 0.0, n) for i, n in enumerate([18, 4, 3, 3, 14, 19, 18, 13, 19])]
        speeds = [np.float32(s) for s in (3.7, 0.3, 0.3, 3.7)]
        as_floats = ljf_schedule(jobs, [Vm(v, float(s)) for v, s in enumerate(speeds)]).tolist()
        assert as_floats == [2, 0, 3, 3, 3, 0, 3, 0, 1]
        assert ljf_schedule(jobs, [Vm(v, s) for v, s in enumerate(speeds)]).tolist() == as_floats

    def test_unknown_mode_rejected(self, three_jobs_two_vms):
        jobs, vms = three_jobs_two_vms
        with pytest.raises(ValueError):
            ljf_schedule(jobs, vms, mode="shortest")

    def test_empty_inputs_rejected(self, three_jobs_two_vms):
        jobs, vms = three_jobs_two_vms
        with pytest.raises(ValueError):
            ljf_schedule([], vms)
        with pytest.raises(ValueError):
            ljf_schedule(jobs, [])


class TestCommonProperties:
    @pytest.mark.parametrize("scheduler", [fcfs_schedule, ljf_schedule])
    def test_valid_and_deterministic(self, scheduler):
        rng = np.random.default_rng(31)
        for _ in range(100):
            jobs, vms = random_instance(rng, max_jobs=8, max_vms=4, staggered=True)
            first = scheduler(jobs, vms)
            assert first.shape == (len(jobs),)
            assert first.min() >= 0 and first.max() < len(vms)
            assert np.array_equal(first, scheduler(jobs, vms))


@st.composite
def staggered_instances(draw):
    """Up to 40 jobs with ids listed out of order and arrivals drawn from a
    few values (ties are common, -0.0 among them) or from a range, on 1-300
    VMs: fewer jobs than VMs, as many, or more."""
    num_jobs = draw(st.integers(1, 40))
    ids = draw(st.permutations(range(num_jobs)))
    arrival = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, 40.0]), st.floats(0.0, 100.0))
    arrivals = draw(st.lists(arrival, min_size=num_jobs, max_size=num_jobs))
    lengths = draw(st.lists(st.integers(1, 200), min_size=num_jobs, max_size=num_jobs))
    speeds = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.7]), min_size=1, max_size=300))
    jobs = [Job(i, a, n) for i, a, n in zip(ids, arrivals, lengths)]
    return jobs, [Vm(v, s) for v, s in enumerate(speeds)]


@st.composite
def batch_instances(draw):
    """Batch arrivals on 1-300 VMs of one speed, lengths mostly from a few
    values: many VMs are ready at the same time, so ties are frequent."""
    num_jobs = draw(st.integers(1, 150))
    ids = draw(st.permutations(range(num_jobs)))
    length = st.one_of(st.sampled_from([10, 25, 40]), st.integers(1, 200))
    lengths = draw(st.lists(length, min_size=num_jobs, max_size=num_jobs))
    speed = draw(st.sampled_from([0.5, 1.0, 3.7]))
    jobs = [Job(i, 0.0, n) for i, n in zip(ids, lengths)]
    return jobs, [Vm(v, speed) for v in range(draw(st.integers(1, 300)))]


def ljf_last_arrival(jobs, vms):
    return ljf_schedule(jobs, vms, mode="last-arrival")


each_dispatcher = pytest.mark.parametrize(
    "scheduler,order",
    [(fcfs_schedule, fcfs_order), (ljf_schedule, ljf_order), (ljf_last_arrival, last_arrival_order)],
    ids=["fcfs", "ljf", "ljf-last-arrival"],
)


class TestDispatchDifferential:
    @settings(max_examples=150, deadline=None)
    @given(staggered_instances())
    def test_ljf_last_arrival_matches_reference(self, case):
        jobs, vms = case
        assert ljf_last_arrival(jobs, vms).tolist() == reference_greedy(jobs, vms, last_arrival_order(jobs))

    @settings(max_examples=150, deadline=None)
    @given(staggered_instances())
    def test_ljf_longest_matches_reference(self, case):
        jobs, vms = case
        assert ljf_schedule(jobs, vms).tolist() == reference_greedy(jobs, vms, ljf_order(jobs))

    @settings(max_examples=150, deadline=None)
    @given(staggered_instances())
    def test_fcfs_matches_reference(self, case):
        jobs, vms = case
        assert fcfs_schedule(jobs, vms).tolist() == reference_greedy(jobs, vms, fcfs_order(jobs))

    @each_dispatcher
    @settings(max_examples=60, deadline=None)
    @given(case=batch_instances())
    def test_batch_equal_speeds_match_reference(self, scheduler, order, case):
        jobs, vms = case
        assert scheduler(jobs, vms).tolist() == reference_greedy(jobs, vms, order(jobs))

    @each_dispatcher
    @pytest.mark.parametrize("num_jobs", [4, 5, 6], ids=["n=m-1", "n=m", "n=m+1"])
    def test_first_jobs_of_the_order_take_vms_in_id_order(self, scheduler, order, num_jobs):
        # staggered arrivals (-0.0 among them) on five VMs of mixed speeds: job k < m of the
        # order takes VM k, and job m, if any, goes to the VM that frees up first
        arrivals = [3.0, -0.0, 0.0, 7.5, 0.0, 2.0]
        lengths = [40, 5, 12, 1, 30, 8]
        jobs = [Job(i, a, n) for i, a, n in zip([5, 2, 0, 4, 1, 3], arrivals, lengths)][:num_jobs]
        vms = [Vm(v, s) for v, s in enumerate([2.0, 0.5, 1.0, 3.7, 1.0])]
        expected = reference_greedy(jobs, vms, order(jobs))
        assert [expected[p] for p in order(jobs)[: len(vms)]] == list(range(min(num_jobs, len(vms))))
        assert scheduler(jobs, vms).tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_repeated_ids_and_wide_lengths_keep_the_keyed_order(self, data):
        # ties on (key, id) fall back to list position, as in a stable keyed sort
        num_jobs = data.draw(st.integers(1, 30))
        column = lambda values: data.draw(st.lists(values, min_size=num_jobs, max_size=num_jobs))
        ids = column(st.integers(0, 3))
        arrivals = column(st.sampled_from([0.0, 1.0, 2.5]))
        lengths = column(st.sampled_from([1, 7, 2**62, 2**63 - 1]))
        speeds = data.draw(st.lists(st.sampled_from([0.5, 1.0, 3.7]), min_size=1, max_size=4))
        jobs = [Job(i, a, n) for i, a, n in zip(ids, arrivals, lengths)]
        vms = [Vm(v, s) for v, s in enumerate(speeds)]
        assert fcfs_schedule(jobs, vms).tolist() == reference_greedy(jobs, vms, fcfs_order(jobs))
        assert ljf_schedule(jobs, vms).tolist() == reference_greedy(jobs, vms, ljf_order(jobs))
        assert ljf_last_arrival(jobs, vms).tolist() == reference_greedy(jobs, vms, last_arrival_order(jobs))

    def test_keys_beyond_int64_fail_naming_the_field(self):
        # a Job that the dispatch could not sort in int64 is never built
        with pytest.raises(ValueError, match="job length must fit a 64-bit integer"):
            Job(0, 0.0, 2**63)
        with pytest.raises(ValueError, match="job id must fit a 64-bit integer"):
            Job(2**63, 0.0, 5)
