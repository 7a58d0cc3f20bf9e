import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lcasched import (
    FleetSpec,
    Job,
    MetricWeights,
    ScheduleSimulator,
    Vm,
    WorkloadSpec,
    brute_force_optimal,
    fcfs_schedule,
    generate_fleet,
    generate_workload,
    ljf_schedule,
    make_objective,
)
from lcasched import decode_random_key
from lcasched.problem import BatchDraft, BatchScorer, _job_columns, _segmented_cummax

from conftest import exact_metrics, naive_metrics, naive_timeline, random_instance

MAKESPAN_ONLY = MetricWeights(makespan=1.0, completion=0.0, response=0.0)


class TestEvaluate:
    def test_two_jobs_one_vm(self):
        jobs = [Job(0, 0.0, 10), Job(1, 0.0, 20)]
        vms = [Vm(0, 1.0)]
        timeline, metrics = ScheduleSimulator(jobs, vms).run(np.array([0, 0]))
        assert timeline.finish_times.tolist() == [10.0, 30.0]
        assert metrics.makespan == 30.0
        assert metrics.avg_completion == 20.0
        assert metrics.avg_response == 5.0

    def test_three_jobs_two_vms(self, three_jobs_two_vms):
        jobs, vms = three_jobs_two_vms
        timeline, metrics = ScheduleSimulator(jobs, vms).run(np.array([0, 1, 0]))
        assert timeline.finish_times.tolist() == [10.0, 10.0, 40.0]
        assert metrics.makespan == 40.0
        assert metrics.avg_completion == 20.0
        assert metrics.avg_response == pytest.approx(10.0 / 3.0, rel=1e-15)

    def test_single_job(self):
        jobs = [Job(0, 0.0, 30)]
        vms = [Vm(0, 4.0)]
        _, metrics = ScheduleSimulator(jobs, vms).run(np.array([0]))
        assert metrics.makespan == 7.5
        assert metrics.avg_response == 0.0

    def test_waits_for_arrival(self):
        jobs = [Job(0, 5.0, 10), Job(1, 0.0, 4)]
        vms = [Vm(0, 1.0)]
        timeline, metrics = ScheduleSimulator(jobs, vms).run(np.array([0, 0]))
        # job 1 arrives first and runs 0..4; job 0 arrives at 5 and runs 5..15
        assert timeline.start_times.tolist() == [5.0, 0.0]
        assert timeline.finish_times.tolist() == [15.0, 4.0]
        assert metrics.makespan == 15.0
        assert metrics.avg_response == 0.0

    def test_arrival_ties_served_by_id(self):
        jobs = [Job(1, 0.0, 10), Job(0, 0.0, 20)]  # listed out of id order
        vms = [Vm(0, 1.0)]
        timeline, _ = ScheduleSimulator(jobs, vms).run(np.array([0, 0]))
        # id 0 (length 20) goes first despite being second in the list
        assert timeline.start_times.tolist() == [20.0, 0.0]

    def test_out_of_range_assignment_rejected(self, three_jobs_two_vms):
        jobs, vms = three_jobs_two_vms
        with pytest.raises(ValueError):
            ScheduleSimulator(jobs, vms).run(np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            ScheduleSimulator(jobs, vms).run(np.array([0, -1, 0]))

    def test_wrong_length_assignment_rejected(self, three_jobs_two_vms):
        jobs, vms = three_jobs_two_vms
        with pytest.raises(ValueError):
            ScheduleSimulator(jobs, vms).run(np.array([0, 1]))

    def test_times_that_overflow_float64_are_refused(self):
        # a finite positive speed so small that length / speed overflows: the metrics would all be NaN
        simulator = ScheduleSimulator([Job(0, 0.0, 10**6)], [Vm(0, 1e-310)])
        for replay in (simulator.metrics, simulator.run):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="^the schedule's times overflow float64"):
                    replay(np.array([0]))

    @pytest.mark.parametrize("staggered", [False, True])
    def test_matches_naive_reference(self, staggered):
        rng = np.random.default_rng(42 if staggered else 43)
        for _ in range(400):
            jobs, vms = random_instance(rng, max_jobs=7, max_vms=3, staggered=staggered)
            assignment = rng.integers(0, len(vms), size=len(jobs))
            timeline, metrics = ScheduleSimulator(jobs, vms).run(assignment)
            ref_starts, ref_finishes = naive_timeline(jobs, vms, assignment)
            np.testing.assert_allclose(timeline.start_times, ref_starts, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(timeline.finish_times, ref_finishes, rtol=1e-12, atol=1e-12)
            ref = naive_metrics(jobs, vms, assignment)
            np.testing.assert_allclose(
                [metrics.makespan, metrics.avg_completion, metrics.avg_response],
                ref,
                rtol=1e-12,
                atol=1e-12,
            )

    @pytest.mark.parametrize("staggered", [False, True])
    def test_conservation_and_non_overlap(self, staggered):
        rng = np.random.default_rng(7 if staggered else 8)
        for _ in range(500):
            jobs, vms = random_instance(rng, staggered=staggered)
            assignment = rng.integers(0, len(vms), size=len(jobs))
            timeline, metrics = ScheduleSimulator(jobs, vms).run(assignment)
            check_conservation_and_non_overlap(jobs, vms, assignment, timeline)
            assert metrics.avg_response >= 0.0
            assert np.all(timeline.start_times >= [j.arrival_time for j in jobs])

    @pytest.mark.parametrize("staggered", [False, True])
    def test_timelines_outlive_later_replays(self, staggered):
        # a replay writes into the simulator's work arrays, so what run hands out must be copies
        jobs = [Job(i, 1.5 * i if staggered else 0.0, 10 + 7 * i % 13) for i in range(12)]
        vms = [Vm(0, 1.0), Vm(1, 2.5), Vm(2, 0.5)]
        simulator = ScheduleSimulator(jobs, vms)
        first = np.arange(12) % 3
        timeline, metrics = simulator.run(first)
        evaluated, _ = ScheduleSimulator(jobs, vms).run(first)
        held = [np.copy(a) for a in (timeline.start_times, timeline.finish_times, timeline.vm_ids)]
        for shift in (1, 2):
            later = (first + shift) % 3
            simulator.run(later)
            simulator.metrics(later)
        for array, copy in zip((timeline.start_times, timeline.finish_times, timeline.vm_ids), held):
            assert np.array_equal(array, copy)
        assert np.array_equal(evaluated.start_times, held[0])
        assert np.array_equal(evaluated.finish_times, held[1])
        assert simulator.metrics(first) == metrics

    def test_simulators_on_one_table_share_its_column_and_not_their_work(self):
        # the job table keeps one read-only service-order column; each simulator replays into its own arrays
        jobs = _job_columns([Job(11 - i, 0.75 * (i % 4), 10 + 7 * i % 13) for i in range(12)])
        vms = [Vm(0, 1.0), Vm(1, 2.5), Vm(2, 0.5)]
        first, second = ScheduleSimulator(jobs, vms), ScheduleSimulator(jobs, vms)
        assignment = np.arange(12) % 3
        timeline, metrics = first.run(assignment)
        held = [np.copy(a) for a in (timeline.start_times, timeline.finish_times)]
        second.run((assignment + 1) % 3)
        assert second._work is not first._work
        assert first._columns.service_jobs is second._columns.service_jobs
        for array, copy in zip((timeline.start_times, timeline.finish_times), held):
            assert np.array_equal(array, copy)
        assert first.metrics(assignment) == metrics == ScheduleSimulator(list(jobs), vms).run(assignment)[1]


@st.composite
def replay_cases(draw, staggered):
    """Instances up to 80 jobs with an assignment: fleets of 1-8 VMs or of
    250-300 (16-bit VM keys), most VMs left empty, sometimes every job on
    one VM, ids listed out of order, and arrival times drawn from a handful
    of values so that ties are common."""
    num_vms = draw(st.one_of(st.integers(1, 8), st.integers(250, 300)))
    num_jobs = draw(st.integers(1, 80))
    ids = draw(st.permutations(range(num_jobs)))
    lengths = draw(st.lists(st.integers(1, 100), min_size=num_jobs, max_size=num_jobs))
    if staggered:
        arrival = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 40.0]), st.floats(0.0, 100.0))
    else:
        arrival = st.just(0.0)
    arrivals = draw(st.lists(arrival, min_size=num_jobs, max_size=num_jobs))
    speeds = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0, 3.7]), min_size=1, max_size=5))
    vm = st.integers(0, num_vms - 1)
    assignment = draw(
        st.one_of(
            vm.map(lambda v: [v] * num_jobs),
            st.lists(vm, min_size=num_jobs, max_size=num_jobs),
        )
    )
    jobs = [Job(i, a, n) for i, a, n in zip(ids, arrivals, lengths)]
    vms = [Vm(v, speeds[v % len(speeds)]) for v in range(num_vms)]
    return jobs, vms, np.array(assignment, dtype=np.int64)


def assert_matches_naive(jobs, vms, assignment):
    simulator = ScheduleSimulator(jobs, vms)
    timeline, metrics = simulator.run(assignment)
    assert simulator.metrics(assignment) == metrics
    ref_starts, ref_finishes = naive_timeline(jobs, vms, assignment)
    scale = 1e-9 * max(1.0, max(ref_finishes))
    np.testing.assert_allclose(timeline.start_times, ref_starts, rtol=0.0, atol=scale)
    np.testing.assert_allclose(timeline.finish_times, ref_finishes, rtol=0.0, atol=scale)
    assert timeline.vm_ids.tolist() == assignment.tolist()
    np.testing.assert_allclose(
        [metrics.makespan, metrics.avg_completion, metrics.avg_response],
        naive_metrics(jobs, vms, assignment),
        rtol=0.0,
        atol=scale,
    )


class TestReplayDifferential:
    @settings(max_examples=150, deadline=None)
    @given(replay_cases(staggered=False))
    def test_batch_matches_naive(self, case):
        assert_matches_naive(*case)

    @settings(max_examples=150, deadline=None)
    @given(replay_cases(staggered=True))
    def test_staggered_matches_naive(self, case):
        assert_matches_naive(*case)

    @pytest.mark.parametrize("staggered", [False, True])
    @pytest.mark.parametrize("num_vms", [256, 257, 65537, 70_000])
    def test_vm_keys_do_not_wrap(self, num_vms, staggered):
        # VMs whose indices agree modulo 256 or 65536 must stay separate queues
        vms = [Vm(v, 1.0 + v % 3) for v in range(num_vms)]
        picks = sorted({0, 1, 255, num_vms - 1, (num_vms - 1) % 256, (num_vms - 1) % 65536})
        jobs = [
            Job(i, float(i % 4) if staggered else 0.0, 10 + i) for i in range(3 * len(picks))
        ]
        assignment = np.array([picks[i % len(picks)] for i in range(len(jobs))])
        assert_matches_naive(jobs, vms, assignment)


# The replay's float sums round, so it is pinned to the exact reference within this relative error. Seen at
# seed 1 (makespan, completion, response): batch 3.4e-15, 2.0e-15, 2.1e-15 on 10 VMs and 9.9e-15, 1.4e-15,
# 1.4e-15 on 130; at 5 jobs/s 3.4e-15, 2.0e-15, 2.7e-15 on 10 VMs and 2.3e-15, 5.0e-16, 2.5e-14 on 130.
REPLAY_EXACT_RTOL = 1e-13


class TestExactReferenceAtPaperScale:
    @pytest.mark.parametrize("num_vms", [10, 130])
    @pytest.mark.parametrize("arrival_rate", [None, 5.0], ids=["batch", "staggered"])
    def test_metrics_match_the_exact_replay(self, arrival_rate, num_vms):
        # errors that grow with the total busy time show only at the paper's 5000 jobs
        jobs = generate_workload(WorkloadSpec(job_count=5000, arrival_rate=arrival_rate, seed=1))
        vms = generate_fleet(FleetSpec(vm_count=num_vms))
        assignment = np.random.default_rng(num_vms).integers(0, num_vms, size=len(jobs))
        metrics = ScheduleSimulator(jobs, vms).metrics(assignment)
        exact = exact_metrics(jobs, vms, assignment)
        for value, reference in zip((metrics.makespan, metrics.avg_completion, metrics.avg_response), exact):
            assert abs(Fraction(value) - reference) <= REPLAY_EXACT_RTOL * reference


WEIGHT_MIXES = (
    MetricWeights(),
    MAKESPAN_ONLY,
    MetricWeights(makespan=0.0, completion=0.0, response=1.0),
    MetricWeights(1.0, 1.0, 1.0),
    MetricWeights(0.25, 0.5, 2.0),
)


@st.composite
def draft_cases(draw):
    """A batch instance, a weight mix, an anchor assignment, and a sequence of
    drafts, each a list of (position, new VM) moves with a commit flag. Moves
    often crowd onto three VMs, sometimes cover every job, and fleets are
    1 VM, 2-8 VMs, or 250-300 VMs (mostly empty, 16-bit keys)."""
    num_vms = draw(st.one_of(st.just(1), st.integers(2, 8), st.integers(250, 300)))
    num_jobs = draw(st.integers(1, 60))
    ids = draw(st.permutations(range(num_jobs)))
    lengths = draw(
        st.lists(st.one_of(st.integers(1, 100), st.integers(1, 10**9)), min_size=num_jobs, max_size=num_jobs)
    )
    speeds = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0, 3.7, 1000.0]), min_size=1, max_size=5))
    jobs = [Job(i, 0.0, n) for i, n in zip(ids, lengths)]
    vms = [Vm(v, speeds[v % len(speeds)]) for v in range(num_vms)]
    crowded = st.integers(0, min(num_vms, 3) - 1)
    vm = st.one_of(crowded, st.integers(0, num_vms - 1))
    anchor = draw(st.lists(vm, min_size=num_jobs, max_size=num_jobs))
    drafts = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            positions = list(range(num_jobs))
        else:
            positions = draw(st.lists(st.integers(0, num_jobs - 1), min_size=1, max_size=6, unique=True))
        targets = [draw(vm) for _ in positions]
        drafts.append((positions, targets, draw(st.booleans())))
    weights = draw(st.sampled_from(WEIGHT_MIXES))
    return jobs, vms, weights, np.array(anchor, dtype=np.int64), drafts


class TestBatchScorer:
    @settings(max_examples=200, deadline=None)
    @given(draft_cases())
    def test_drafts_equal_scores_from_scratch(self, case):
        jobs, vms, weights, assignment, drafts = case
        scorer = BatchScorer(jobs, vms, weights)
        simulator = ScheduleSimulator(jobs, vms)
        anchor = BatchDraft(scorer, assignment)
        assert anchor.fitness == scorer(assignment.astype(float))
        for positions, targets, commit in drafts:
            moved = assignment.copy()
            moved[positions] = targets
            value = anchor.draft(dict(zip(positions, targets)))
            assert value == scorer(moved.astype(float))
            # The replay's starts are a cumsum over all queues minus the queue's
            # offset, so its error scales with the total busy time, not the value.
            busy = sum(jobs[p].length / vms[v].speed for p, v in enumerate(moved))
            reference = weights.score(simulator.metrics(moved))
            assert value == pytest.approx(reference, rel=1e-12, abs=1e-12 * busy)
            naive = naive_metrics(jobs, vms, moved)
            naive_score = weights.makespan * naive[0] + weights.completion * naive[1] + weights.response * naive[2]
            assert value == pytest.approx(naive_score, rel=1e-12, abs=0.0)
            if commit:
                anchor.commit()
                assignment = moved
            assert anchor.fitness == scorer(assignment.astype(float))

    def test_hand_values(self):
        # VM 0 (speed 1) serves ids 0 and 2, VM 1 (speed 2) serves id 1
        jobs = [Job(0, 0.0, 10), Job(1, 0.0, 20), Job(2, 0.0, 30)]
        vms = [Vm(0, 1.0), Vm(1, 2.0)]
        scorer = BatchScorer(jobs, vms, MetricWeights(1.0, 1.0, 1.0))
        # finishes 10, 10, 40: makespan 40, completion 20, response 10/3
        assert scorer(np.array([0.0, 1.0, 0.0])) == pytest.approx(40.0 + 20.0 + 10.0 / 3.0, rel=1e-15)
        anchor = BatchDraft(scorer, np.array([0, 1, 0]))
        # swap jobs 0 and 1: VM 0 serves id 1 then id 2 (finish 20, 50), VM 1 serves id 0 (5)
        assert anchor.draft({0: 1, 1: 0}) == scorer(np.array([1.0, 0.0, 0.0]))
        assert anchor.fitness == scorer(np.array([0.0, 1.0, 0.0]))
        anchor.commit()
        assert anchor.fitness == pytest.approx(50.0 + 75.0 / 3.0 + 20.0 / 3.0, rel=1e-15)
        # a repeated commit without a new draft changes nothing
        anchor.commit()
        assert anchor.fitness == scorer(np.array([1.0, 0.0, 0.0]))

    def test_moves_to_the_same_vm_are_free(self):
        jobs = [Job(i, 0.0, 5 + i) for i in range(6)]
        scorer = BatchScorer(jobs, [Vm(0, 2.0)])
        anchor = BatchDraft(scorer, np.zeros(6, dtype=np.int64))
        assert anchor.draft(dict.fromkeys(range(6), 0)) == anchor.fitness

    def test_anchor_decodes_keys_like_a_call(self):
        # the anchor is a key vector, floored and clamped into the VM range as a
        # call decodes it; metrics instead rejects a VM index that does not exist
        jobs = [Job(i, 0.0, 10 + i) for i in range(3)]
        scorer = BatchScorer(jobs, [Vm(0, 1.0), Vm(1, 2.0)], MetricWeights(1.0, 1.0, 1.0))
        clamped = scorer(np.array([0.0, 1.0, 1.0]))
        for x in (np.array([0, 1, 2]), np.array([-0.5, 1.9, 7.0])):
            assert BatchDraft(scorer, x).fitness == scorer.delta_scorer(x).fitness == scorer(x) == clamped
        with pytest.raises(ValueError, match="does not exist"):
            scorer.metrics(np.array([0, 1, 2]))

    def test_applies_only_to_batch_instances_that_fit(self):
        vms = [Vm(0, 1.0)]
        assert type(make_objective([Job(0, 0.0, 10), Job(1, 0.0, 20)], vms)) is BatchScorer
        assert type(make_objective([Job(0, 0.0, 10), Job(1, 0.5, 20)], vms)) is ScheduleSimulator
        assert type(make_objective([Job(0, 0.0, 2**62), Job(1, 0.0, 1)], vms)) is ScheduleSimulator
        with pytest.raises(ValueError, match="^jobs and vms must be non-empty$"):
            make_objective([], vms)
        with pytest.raises(ValueError):
            BatchScorer([Job(0, 1.0, 10)], vms)
        with pytest.raises(ValueError):
            BatchScorer([Job(0, 0.0, 10)], [])

    def test_applies_at_the_int64_edge(self):
        # n times the total length must stay strictly below 2**63, also once the table keeps the check
        fits, too_big = [Job(0, 0.0, 2**63 - 1)], [Job(0, 0.0, 2**61), Job(1, 0.0, 2**61)]
        for jobs, expected, scorer in ((fits, True, BatchScorer), (too_big, False, ScheduleSimulator)):
            assert type(make_objective(jobs, [Vm(0, 1.0)])) is scorer
            table = _job_columns(jobs)
            assert table.fits_batch is expected
            assert type(make_objective(table, [Vm(0, 1.0)])) is scorer
        BatchScorer(fits, [Vm(0, 1.0)])
        with pytest.raises(ValueError, match="n \\* total length < 2\\*\\*63"):
            BatchScorer(_job_columns(too_big), [Vm(0, 1.0)])

    def test_drafts_keep_the_tables_int_objects(self):
        # the anchor's per-VM lists hold the very ints of the table's place and length lists
        # (300 jobs, so most ranks lie past the ints that CPython caches)
        table = _job_columns([Job(i, 0.0, 1000 + 7 * i) for i in range(300)])
        scorer = BatchScorer(table, [Vm(0, 1.0), Vm(1, 2.0), Vm(2, 2.0)])
        anchor = scorer.delta_scorer(np.random.default_rng(3).uniform(0.0, 3.0, 300))
        ranks = [r for vm in anchor._ranks for r in vm]
        lengths = [size for vm in anchor._lengths for size in vm]
        assert sorted(ranks) == list(range(300))
        by_rank = dict(zip(table.place, table.length_list))
        for r, size in zip(ranks, lengths):
            assert r is table.place[table.service_order[r]] and size is by_rank[r]

    def test_large_lengths_stay_exact(self):
        # sums beyond 2**53 are exact integers, and the score still matches the replay
        jobs = [Job(i, 0.0, 2**50 + i) for i in range(40)]
        vms = [Vm(0, 1.0), Vm(1, 3.0)]
        scorer = BatchScorer(jobs, vms, MetricWeights(1.0, 1.0, 1.0))
        rng = np.random.default_rng(3)
        assignment = rng.integers(0, 2, size=40)
        anchor = BatchDraft(scorer, assignment)
        for _ in range(50):
            positions = rng.choice(40, 3, replace=False).tolist()
            targets = rng.integers(0, 2, size=3).tolist()
            moved = assignment.copy()
            moved[positions] = targets
            assert anchor.draft(dict(zip(positions, targets))) == scorer(moved.astype(float))
            reference = scorer.weights.score(ScheduleSimulator(jobs, vms).metrics(moved))
            assert scorer(moved.astype(float)) == pytest.approx(reference, rel=1e-12)

    def test_raising_draft_leaves_the_anchor_as_it_was(self):
        jobs = [Job(i, 0.0, 10 + i) for i in range(4)]
        scorer = BatchScorer(jobs, [Vm(0, 1.0), Vm(1, 2.0)], MetricWeights(1.0, 1.0, 1.0))
        anchor = BatchDraft(scorer, np.array([0, 0, 1, 1]))
        fitness = anchor.fitness
        with pytest.raises(IndexError):
            anchor.draft({0: 1.5, 7: 0.5})  # job 0 moves to VM 1, then position 7 does not exist
        assert anchor._ranks == [[0, 1], [2, 3]]
        anchor.commit()  # the raising draft left nothing to commit
        assert anchor.fitness == fitness
        assert anchor.draft({0: 1.5, 3: 0.5}) == scorer(np.array([1.0, 0.0, 1.0, 0.0]))
        anchor.commit()
        assert anchor.fitness == scorer(np.array([1.0, 0.0, 1.0, 0.0]))
        assert anchor.draft({1: 1.0}) == scorer(np.array([1.0, 1.0, 1.0, 0.0]))

    def test_holds_no_replay_columns_until_a_replay_needs_them(self):
        jobs = [Job(i, 0.0, 10 + 7 * i) for i in range(12)]
        vms = [Vm(0, 1.0), Vm(1, 2.5), Vm(2, 0.5)]
        scorer = BatchScorer(jobs, vms, MetricWeights(1.0, 1.0, 1.0))
        anchor = scorer.delta_scorer(np.full(12, 1.5))
        anchor.draft({0: 0.5, 5: 2.5})
        anchor.commit()
        scorer(np.linspace(0.0, 3.0, 12))
        assert "_work" not in vars(scorer)
        assert "service_jobs" not in vars(scorer._columns)
        assignment = np.arange(12) % 3
        assert scorer.metrics(assignment) == ScheduleSimulator(jobs, vms).metrics(assignment)
        assert "_work" in vars(scorer)
        assert "service_jobs" in vars(scorer._columns)

    def test_bad_assignment_rejected(self, three_jobs_two_vms):
        scorer = BatchScorer(*three_jobs_two_vms)
        for bad in (np.array([0, 1, 2]), np.array([0, -1, 0]), np.array([0, 1]), np.array([0.0, 1.0, 0.0])):
            with pytest.raises(ValueError):
                scorer.metrics(bad)


@st.composite
def staggered_draft_cases(draw):
    """An instance with staggered, often tied arrivals, a weight mix, an
    anchor key vector, and a sequence of drafts, each a list of (position,
    key) moves with a commit flag. Keys reach beyond [0, num_vms] and up to
    +-1e300, and some repeat the anchor's key or one that floors to the same
    VM, so the job stays. Fleets are 1 VM, 2-8 VMs, or 250-300 VMs (16-bit
    VM keys)."""
    num_vms = draw(st.one_of(st.just(1), st.integers(2, 8), st.integers(250, 300)))
    num_jobs = draw(st.integers(1, 60))
    ids = draw(st.permutations(range(num_jobs)))
    lengths = draw(st.lists(st.one_of(st.integers(1, 100), st.integers(1, 10**9)), min_size=num_jobs, max_size=num_jobs))
    arrival = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 40.0]), st.floats(0.0, 100.0))
    arrivals = draw(st.lists(arrival, min_size=num_jobs, max_size=num_jobs))
    speeds = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0, 3.7, 1000.0]), min_size=1, max_size=5))
    jobs = [Job(i, a, n) for i, a, n in zip(ids, arrivals, lengths)]
    vms = [Vm(v, speeds[v % len(speeds)]) for v in range(num_vms)]
    crowded = st.floats(0.0, min(num_vms, 3), exclude_max=True)
    key = st.one_of(
        crowded,
        st.floats(-3.0, num_vms + 3.0),
        st.sampled_from([-1e300, -0.5, 0.0, float(num_vms), 1e300]),
    )
    anchor = np.array(draw(st.lists(key, min_size=num_jobs, max_size=num_jobs)))
    drafts = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            positions = list(range(num_jobs))
        else:
            positions = draw(st.lists(st.integers(0, num_jobs - 1), min_size=1, max_size=6, unique=True))
        keys = [draw(st.one_of(key, st.just(None), st.just("same VM"))) for _ in positions]
        drafts.append((positions, keys, draw(st.booleans())))
    weights = draw(st.sampled_from(WEIGHT_MIXES))
    return jobs, vms, weights, anchor, drafts


# Both objectives share one bad-input contract: BatchScorer on a batch
# instance, ScheduleSimulator on a staggered one (arrivals step * k).
SCORER_CLASSES = pytest.mark.parametrize(
    "scorer_class, step", [(BatchScorer, 0.0), (ScheduleSimulator, 1.0)], ids=["batch", "staggered"]
)


class TestReplayScorer:
    @settings(max_examples=200, deadline=None)
    @given(staggered_draft_cases())
    def test_drafts_equal_calls_from_scratch(self, case):
        jobs, vms, weights, x, drafts = case
        scorer = ScheduleSimulator(jobs, vms, weights)
        simulator = ScheduleSimulator(jobs, vms)

        def replayed(x):  # the objective's definition: decode, replay, weigh every metric
            return weights.score(simulator.metrics(decode_random_key(x, len(vms))))

        anchor = scorer.delta_scorer(x)
        assert anchor.fitness == scorer(x) == replayed(x)
        for positions, keys, commit in drafts:
            # None keeps the anchor's key; "same VM" moves it within its VM's unit interval
            keys = [
                x[p] if k is None else math.floor(min(max(x[p], 0.0), len(vms) - 1)) + 0.25 if k == "same VM" else k
                for p, k in zip(positions, keys)
            ]
            moved = x.copy()
            moved[positions] = keys
            value = anchor.draft(dict(zip(positions, keys)))
            assert value == scorer(moved) == replayed(moved)
            if commit:
                anchor.commit()
                x = moved
            assert anchor.fitness == scorer(x)

    @SCORER_CLASSES
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_keys_rejected(self, bad, scorer_class, step):
        jobs = [Job(i, step * (i % 3), 10 + i) for i in range(6)]
        scorer = scorer_class(jobs, [Vm(0, 1.0), Vm(1, 2.0)], MetricWeights(1.0, 1.0, 1.0))
        x = np.array([0.5, 1.5, 0.2, 1.9, 0.0, 2.0])
        anchor = scorer.delta_scorer(x)
        fitness = anchor.fitness
        with pytest.raises(ValueError, match="keys must be finite"):
            anchor.draft({0: 1.5, 3: bad})
        anchor.commit()  # the rejected draft left nothing to commit
        assert anchor.fitness == fitness == scorer(x)
        bad_x = x.copy()
        bad_x[4] = bad
        with pytest.raises(ValueError, match="keys must be finite"):
            scorer(bad_x)
        with pytest.raises(ValueError, match="keys must be finite"):
            scorer.delta_scorer(bad_x)

    @SCORER_CLASSES
    def test_wrong_length_rejected(self, scorer_class, step):
        scorer = scorer_class([Job(0, step, 5), Job(1, 0.0, 5)], [Vm(0, 1.0)])
        for bad in (np.zeros(1), np.zeros(3), np.zeros((2, 2))):
            with pytest.raises(ValueError, match="one key per job"):
                scorer(bad)
            with pytest.raises(ValueError, match="one key per job"):
                scorer.delta_scorer(bad)

    @SCORER_CLASSES
    def test_negative_position_rejected_before_any_edit(self, scorer_class, step):
        # a list would take -1 as the last job, and a later position fails only after earlier moves
        jobs = [Job(i, step * i, 10 + i) for i in range(4)]
        scorer = scorer_class(jobs, [Vm(0, 1.0), Vm(1, 2.0)], MetricWeights(1.0, 1.0, 1.0))
        x = np.array([0.0, 0.0, 1.0, 1.0])
        anchor = scorer.delta_scorer(x)
        fitness = anchor.fitness
        for positions in ([-1], [0, -1]):
            with pytest.raises(ValueError, match="positions nonnegative"):
                anchor.draft(dict.fromkeys(positions, 0.5))
        if scorer_class is BatchScorer:
            assert anchor._ranks == [[0, 1], [2, 3]]
        anchor.commit()  # the rejected drafts left nothing to commit
        assert anchor.fitness == fitness == scorer(x)
        assert anchor.draft({3: 0.5}) == scorer(np.array([0.0, 0.0, 1.0, 0.5]))


class TestDraftsThatMoveNoJob:
    """A draft whose every key decodes to its job's current VM returns the
    anchor's fitness without scoring anything."""

    def test_batch_draft_scores_nothing(self):
        jobs = [Job(i, 0.0, 10 + 7 * i) for i in range(8)]
        scorer = BatchScorer(jobs, [Vm(0, 1.0), Vm(1, 2.5), Vm(2, 0.5)], MetricWeights(1.0, 1.0, 1.0))
        x = np.array([0.5, 1.5, 2.5, 0.0, 1.0, 2.0, 0.9, 3.0])
        anchor = scorer.delta_scorer(x)

        def no_value(*sums):
            raise AssertionError("a draft that moves no job was scored")

        anchor._value = no_value
        # other keys on the same VMs, and keys past either end that clamp to them
        assert anchor.draft({0: 0.2, 2: 2.9, 7: 5.0, 3: -4.0}) == anchor.fitness
        anchor.commit()
        assert anchor.fitness == scorer(x)
        anchor._value = scorer._value
        moved = x.copy()
        moved[[0, 3]] = [0.2, 2.5]
        assert anchor.draft({0: 0.2, 3: 2.5}) == scorer(moved)

    def test_staggered_draft_is_not_replayed(self):
        jobs = [Job(i, 1.5 * i, 10 + 7 * i) for i in range(8)]
        scorer = ScheduleSimulator(jobs, [Vm(0, 1.0), Vm(1, 2.5), Vm(2, 0.5)], MetricWeights(1.0, 1.0, 1.0))
        x = np.array([0.5, 1.5, 2.5, 0.0, 1.0, 2.0, 0.9, 3.0])
        anchor = scorer.delta_scorer(x)
        replay = anchor._objective

        def no_replay(vm_sorted):
            raise AssertionError("a draft that moves no job was replayed")

        class NoCopy(np.ndarray):
            def copy(self, *args, **kwargs):
                raise AssertionError("a draft that moves no job copied the anchor")

        anchor._objective = no_replay
        anchor._anchor = vm_keys = anchor._anchor.view(NoCopy)
        # other keys on the same VMs, and keys past either end that clamp to them
        assert anchor.draft({0: 0.2, 2: 2.9, 7: 5.0, 3: -4.0}) == anchor.fitness
        assert anchor._pending[0] is vm_keys
        anchor.commit()
        assert anchor.fitness == scorer(x)
        assert anchor._anchor is vm_keys
        anchor._objective, anchor._anchor = replay, np.asarray(vm_keys)
        before = anchor._anchor.copy()
        moved = x.copy()
        moved[[0, 3]] = [0.2, 2.5]
        assert anchor.draft({0: 0.2, 3: 2.5}) == scorer(moved)
        # the moves went into a copy: the anchor's VM keys stay as they were until the commit
        assert np.array_equal(anchor._anchor, before)
        anchor.commit()
        assert anchor.fitness == scorer(moved)
        assert np.array_equal(anchor._anchor, scorer._vm_keys(moved))


def segmented_cummax_reference(values, first):
    """The per-queue loop the vectorized running maximum replaced."""
    out = np.empty_like(values)
    bounds = np.flatnonzero(first)
    for lo, hi in zip(bounds, np.append(bounds[1:], values.size)):
        out[lo:hi] = np.maximum.accumulate(values[lo:hi])
    return out


@st.composite
def segmented_values(draw):
    size = draw(st.integers(1, 120))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(allow_nan=False, allow_infinity=True),
    )
    values = draw(hnp.arrays(np.float64, size, elements=value))
    first = draw(hnp.arrays(np.bool_, size))
    first[0] = True
    # The replay passes sorted VM indices, which skip the empty VMs.
    gaps = draw(hnp.arrays(np.int64, size, elements=st.integers(1, 300)))
    queue = np.cumsum(np.where(first, gaps, 0)) - gaps[0]
    return values, first, queue


class TestSegmentedCummax:
    @settings(max_examples=200, deadline=None)
    @given(segmented_values())
    def test_equals_per_queue_loop(self, case):
        values, first, queue = case
        assert np.array_equal(
            _segmented_cummax(values, queue, np.empty(values.size, dtype=np.complex128)),
            segmented_cummax_reference(values, first),
        )


class TestNumpyFloor:
    """Tiny pins of the numpy behaviour the replay relies on, so that an older
    numpy (pyproject.toml allows 1.24) fails here with a precise message."""

    def test_ufunc_out_into_complex_views(self):
        column = np.empty(3, dtype=np.complex128)
        column.real = [2.0, -0.0, 5.0]
        column.imag = np.array([7, 1, 3], dtype=np.int64)
        jobs = np.empty(3, dtype=np.complex128)
        column.take(np.array([2, 0, 1]), out=jobs, mode="clip")
        times = np.empty(3)
        np.divide(jobs.imag, [2.0, 1.0, 4.0], out=times)
        np.subtract(jobs.real, times, out=jobs.imag)
        assert jobs.real.tolist() == [5.0, 2.0, -0.0] and np.signbit(jobs.real[2]), (
            "numpy must take a complex column into a complex out= array and keep -0.0"
        )
        assert jobs.imag.tolist() == [3.5, -5.0, -0.25] and times.tolist() == [1.5, 7.0, 0.25], (
            "numpy ufuncs must read from and write into the .real and .imag views of a complex array"
        )

    def test_in_place_complex_running_maximum(self):
        keys = np.array([0 + 3j, 0 + 1j, 0 + 5j, 2 - 1j, 2 + 0j, 7 - 4j])
        result = np.maximum.accumulate(keys, out=keys)
        assert result is keys and keys.tolist() == [3j, 3j, 5j, 2 - 1j, 2 + 0j, 7 - 4j], (
            "numpy's np.maximum.accumulate must run in place (out=) on a complex array "
            "and order complex numbers lexicographically"
        )


def check_conservation_and_non_overlap(jobs, vms, assignment, timeline):
    for vm_index in range(len(vms)):
        members = [p for p in range(len(jobs)) if assignment[p] == vm_index]
        if not members:
            continue
        busy = sum(timeline.finish_times[p] - timeline.start_times[p] for p in members)
        expected = sum(jobs[p].length / vms[vm_index].speed for p in members)
        assert busy == pytest.approx(expected, rel=1e-9)
        windows = sorted((timeline.start_times[p], timeline.finish_times[p]) for p in members)
        for (_, finish), (start, _) in zip(windows, windows[1:]):
            assert start >= finish - 1e-9 * max(1.0, finish)


class TestBruteForce:
    def test_single_job_picks_fastest_vm(self):
        jobs = [Job(0, 0.0, 12)]
        vms = [Vm(0, 1.0), Vm(1, 3.0), Vm(2, 3.0)]
        assignment, metrics = brute_force_optimal(jobs, vms, MAKESPAN_ONLY)
        assert assignment.tolist() == [1]  # speed tie resolved to the lower id
        assert metrics.makespan == 4.0

    def test_three_job_makespan_instance(self, three_jobs_two_vms):
        jobs, vms = three_jobs_two_vms
        assignment, metrics = brute_force_optimal(jobs, vms, MAKESPAN_ONLY)
        assert metrics.makespan == 20.0
        assert assignment.tolist() == [1, 0, 1]

    def test_dominates_heuristics(self):
        rng = np.random.default_rng(11)
        weights = MetricWeights()
        for _ in range(200):
            jobs, vms = random_instance(rng)
            _, optimal = brute_force_optimal(jobs, vms, weights)
            for heuristic in (fcfs_schedule, ljf_schedule):
                _, metrics = ScheduleSimulator(jobs, vms).run(heuristic(jobs, vms))
                assert weights.score(optimal) <= weights.score(metrics) + 1e-9

    def test_extra_vm_never_raises_optimal_makespan(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            jobs, vms = random_instance(rng, max_jobs=5, max_vms=2)
            _, smaller = brute_force_optimal(jobs, vms, MAKESPAN_ONLY)
            grown = vms + [Vm(id=len(vms), speed=1.0)]
            _, larger = brute_force_optimal(jobs, grown, MAKESPAN_ONLY)
            assert larger.makespan <= smaller.makespan + 1e-9

    def test_capacity_guard(self):
        jobs = [Job(i, 0.0, 10) for i in range(30)]
        vms = [Vm(0, 1.0), Vm(1, 2.0)]
        with pytest.raises(ValueError, match="exceed the enumeration cap"):
            brute_force_optimal(jobs, vms, MAKESPAN_ONLY)
