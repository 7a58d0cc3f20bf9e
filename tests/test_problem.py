import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcasched import (
    Job,
    MetricWeights,
    ScheduleSimulator,
    Vm,
    assignment_domain,
    decode_random_key,
    fcfs_schedule,
    generate_workload,
    ljf_schedule,
    make_objective,
    WorkloadSpec,
)
from lcasched.problem import _job_columns, _JobTable
from lcasched.workload import _drawn_jobs


class TestDecodeRandomKey:
    def test_floor_decoding(self):
        assert decode_random_key(np.array([0.4, 2.9, 1.0]), 3).tolist() == [0, 2, 1]

    def test_upper_boundary_clamps_to_last_vm(self):
        assert decode_random_key(np.array([3.0]), 3).tolist() == [2]

    def test_lower_boundary_clamps_to_first_vm(self):
        assert decode_random_key(np.array([-1.0]), 3).tolist() == [0]

    def test_keys_beyond_int64_clamp(self):
        keys = np.array([1e300, -1e300, 2.0**63, -(2.0**63), 2.0**70])
        assert decode_random_key(keys, 3).tolist() == [2, 0, 2, 0, 2]

    def test_no_vms_rejected(self):
        with pytest.raises(ValueError):
            decode_random_key(np.array([0.5]), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            decode_random_key(np.array([0.5, bad]), 3)

    def test_image_covers_every_vm(self):
        for num_vms in (1, 2, 5, 9):
            grid = np.arange(num_vms) + 0.5
            assert set(decode_random_key(grid, num_vms).tolist()) == set(range(num_vms))

    def test_total_on_a_dense_grid(self):
        grid = np.linspace(-3.0, 10.0, 2000)
        decoded = decode_random_key(grid, 4)
        assert decoded.min() >= 0 and decoded.max() <= 3


class TestAssignmentDomain:
    def test_bounds(self):
        domain = assignment_domain(5, 3)
        assert domain.dimension == 5
        assert np.all(domain.lower == 0.0)
        assert np.all(domain.upper == 3.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            assignment_domain(0, 3)
        with pytest.raises(ValueError):
            assignment_domain(3, 0)


class TestMakeObjective:
    def test_makespan_projection(self, three_jobs_two_vms):
        jobs, vms = three_jobs_two_vms
        objective = make_objective(jobs, vms, MetricWeights(makespan=1.0, completion=0.0, response=0.0))
        x = np.array([0.2, 1.7, 0.9])
        _, metrics = ScheduleSimulator(jobs, vms).run(decode_random_key(x, 2))
        assert objective(x) == metrics.makespan

    def test_completion_hand_value(self):
        jobs = [Job(0, 0.0, 10), Job(1, 0.0, 20)]
        vms = [Vm(0, 1.0)]
        objective = make_objective(jobs, vms, MetricWeights(makespan=0.0, completion=1.0, response=0.0))
        assert objective(np.array([0.3, 0.8])) == 20.0

    def test_weights_are_linear(self, three_jobs_two_vms):
        jobs, vms = three_jobs_two_vms
        x = np.array([1.3, 0.4, 1.9])
        parts = [
            make_objective(jobs, vms, MetricWeights(*w))(x)
            for w in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        ]
        combined = make_objective(jobs, vms, MetricWeights(1.0, 1.0, 1.0))(x)
        assert combined == pytest.approx(sum(parts), rel=1e-12)

    def test_relabeling_symmetry(self):
        rng = np.random.default_rng(17)
        jobs = [Job(id=i, arrival_time=0.0, length=int(rng.integers(1, 50))) for i in range(8)]
        vms = [Vm(0, 1.0), Vm(1, 3.0), Vm(2, 0.5)]
        x = rng.uniform(0.0, 3.0, 8)
        baseline = make_objective(jobs, vms)(x)
        for _ in range(10):
            perm = rng.permutation(8)
            shuffled_jobs = [jobs[p] for p in perm]
            assert make_objective(shuffled_jobs, vms)(x[perm]) == baseline

    def test_single_precision_speeds_score_as_floats(self):
        # the batch scorer once divided by float32 speeds: 101197.85 against 101197.85043107359
        jobs = generate_workload(WorkloadSpec(job_count=50, seed=1))
        speeds = [np.float32(s) for s in (0.3, 0.7, 1.1, 3.7)]
        x = np.random.default_rng(0).uniform(0, 4, 50)
        single = make_objective(jobs, [Vm(v, s) for v, s in enumerate(speeds)])(x)
        assert single == make_objective(jobs, [Vm(v, float(s)) for v, s in enumerate(speeds)])(x)

    def test_deterministic(self, three_jobs_two_vms):
        jobs, vms = three_jobs_two_vms
        objective = make_objective(jobs, vms)
        x = np.array([0.1, 1.1, 0.6])
        assert objective(x) == objective(x)

    @staticmethod
    def _batch_case():
        rng = np.random.default_rng(5)
        jobs = [Job(i, 0.0, int(rng.integers(1, 50))) for i in range(8)]
        vms = [Vm(0, 1.0), Vm(1, 3.0), Vm(2, 0.5)]
        return make_objective(jobs, vms, MetricWeights(1.0, 1.0, 1.0)), rng.uniform(0.0, 3.0, 8)

    def test_draft_keys_decode_like_the_full_vector(self):
        # the draft floors and clamps each key itself; every edge of the box and beyond
        objective, x = self._batch_case()
        keys = [-1e300, -0.5, 0.0, 3 - 1e-9, 3.0, 1e300]
        drafts = objective.delta_scorer(x)
        for slot in range(8):
            for key in keys:
                moved = x.copy()
                moved[slot] = key
                assert drafts.draft({slot: key}) == objective(moved)
        moved = x.copy()
        moved[[7, 0, 5, 2, 4, 1]] = keys
        assert drafts.draft(dict(zip([7, 0, 5, 2, 4, 1], keys))) == objective(moved)
        drafts.commit()
        assert drafts.fitness == objective(moved)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draft_keys_rejected(self, bad):
        objective, x = self._batch_case()
        drafts = objective.delta_scorer(x)
        fitness = drafts.fitness
        with pytest.raises(ValueError, match="keys must be finite"):
            drafts.draft({0: 2.5, 1: bad})
        drafts.commit()  # the rejected draft left nothing to commit
        assert drafts.fitness == fitness == objective(x)
        moved = x.copy()
        moved[[0, 1]] = [2.5, 0.5]
        assert drafts.draft({0: 2.5, 1: 0.5}) == objective(moved)

    def test_empty_inputs_rejected(self, three_jobs_two_vms):
        jobs, vms = three_jobs_two_vms
        with pytest.raises(ValueError):
            make_objective([], vms)
        with pytest.raises(ValueError):
            make_objective(jobs, [])


class TestDomainTypes:
    def test_job_validation(self):
        with pytest.raises(ValueError):
            Job(0, -1.0, 10)
        with pytest.raises(ValueError):
            Job(0, 0.0, 0)
        with pytest.raises(ValueError):
            Job(-1, 0.0, 10)

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, "7", np.float64(4.0), np.bool_(True), None])
    def test_job_length_must_be_integral(self, bad):
        with pytest.raises(ValueError, match="length"):
            Job(0, 0.0, bad)

    @pytest.mark.parametrize("length", [np.int64(5), np.int32(5), np.uint16(5), 5])
    def test_job_length_accepts_integers(self, length):
        assert Job(0, 0.0, length).length == 5

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_job_arrival_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="arrival_time"):
            Job(0, bad, 10)

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), "1", None, 1 + 0j])
    def test_job_arrival_must_be_a_real_number(self, bad):
        with pytest.raises(ValueError, match=r"^arrival_time must be finite and nonnegative \(real, not bool\), got "):
            Job(0, bad, 10)

    @pytest.mark.parametrize("bad", [1.5, 3.0, np.nan, True, np.float64(2.0), np.bool_(True), "7", None])
    def test_job_id_must_be_integral(self, bad):
        # 1.5 used to be truncated to 1 by the replay, tying it with job 1
        with pytest.raises(ValueError, match="^job id must be an integer, got "):
            Job(bad, 0.0, 10)

    @pytest.mark.parametrize("bad", [1.5, np.nan, True, np.float64(2.0), "7", None])
    def test_vm_id_must_be_integral(self, bad):
        with pytest.raises(ValueError, match="^vm id must be an integer, got "):
            Vm(bad, 1.0)

    @pytest.mark.parametrize("id_", [np.int64(5), np.int32(5), np.uint16(5), 5])
    def test_ids_accept_integers(self, id_):
        assert Job(id_, 0.0, 7).id == 5
        assert Vm(id_, 1.0).id == 5

    def test_vm_validation(self):
        with pytest.raises(ValueError):
            Vm(0, 0.0)
        with pytest.raises(ValueError):
            Vm(-1, 1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_vm_speed_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="speed"):
            Vm(0, bad)

    @pytest.mark.parametrize("bad", [True, np.bool_(True), "1", None, 1 + 0j])
    def test_vm_speed_must_be_a_real_number(self, bad):
        with pytest.raises(ValueError, match=r"^speed must be finite and positive \(real, not bool\), got "):
            Vm(0, bad)

    @pytest.mark.parametrize("bad", [np.longdouble("1e-4000"), 10**400], ids=["tiny_long_double", "huge_int"])
    def test_vm_speed_is_checked_as_the_float_it_is_stored_as(self, bad):
        # a long double this small is positive but rounds to 0.0, which replays as NaN metrics
        with pytest.raises(ValueError, match="^speed must be finite and positive"):
            Vm(0, bad)

    @pytest.mark.parametrize("value", [2, 2.0, np.float64(2.0), np.float32(2.0), np.int64(2)])
    def test_arrival_and_speed_accept_real_numbers(self, value):
        assert Job(0, value, 10).arrival_time == Vm(0, value).speed == 2.0
        assert type(Vm(0, value).speed) is float

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            MetricWeights(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            MetricWeights(-1.0, 1.0, 0.0)
        assert MetricWeights().completion == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["makespan", "completion", "response"])
    def test_weights_must_be_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} weight must be finite"):
            MetricWeights(**{name: bad})


def _results(jobs, vms):
    """Every result computed from a job sequence's columns, in comparable form."""
    x = np.linspace(0.0, len(vms), len(jobs), endpoint=False)[::-1].copy()
    timeline, metrics = ScheduleSimulator(jobs, vms).run(decode_random_key(x, len(vms)))
    return (
        fcfs_schedule(jobs, vms).tolist(),
        ljf_schedule(jobs, vms).tolist(),
        ljf_schedule(jobs, vms, mode="last-arrival").tolist(),
        timeline.start_times.tolist(),
        timeline.finish_times.tolist(),
        metrics,
        make_objective(jobs, vms, MetricWeights(1.0, 1.0, 1.0))(x),
    )


class TestJobColumns:
    """A job table hands out its columns as they are; any other sequence is unpacked afresh."""

    VMS = [Vm(0, 1.0), Vm(1, 2.5), Vm(2, 0.5)]

    def test_a_list_changed_between_calls_gets_its_new_results(self):
        jobs = [Job(i, float(i % 3), 10 + 7 * i) for i in range(9)]
        before = _results(jobs, self.VMS)
        jobs[4] = Job(4, 0.5, 900)
        jobs.reverse()
        after = _results(jobs, self.VMS)
        assert after == _results(tuple(jobs), self.VMS) == _results(_table(jobs), self.VMS) != before

    def test_tuples_with_the_same_ids_get_their_own_results(self):
        short = tuple(Job(i, 0.0, 10 + i) for i in range(6))
        long = tuple(Job(i, 0.0, 1000 - i) for i in range(6))
        expected = [_results(list(jobs), self.VMS) for jobs in (short, long)]
        for _ in range(2):
            assert [_results(jobs, self.VMS) for jobs in (short, long)] == expected
            assert [_results(_table(jobs), self.VMS) for jobs in (long, short)] == expected[::-1]

    def test_table_arrays_are_read_only(self):
        table = _table([Job(i, 0.5 * i, 10) for i in range(4)])
        assert _job_columns(table) is table
        for array in (table.ids, table.arrivals, table.lengths, table.service_order):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        listed = list(table)
        assert _job_columns(listed) is not _job_columns(listed)

    def test_table_reads_back_its_jobs(self):
        jobs = [Job(7, 1.5, 10), Job(2, 0.0, 2**63 - 1), Job(0, 0.25, 3)]
        table = _table(jobs)
        assert len(table) == 3 and list(table) == jobs and list(reversed(table)) == jobs[::-1]
        assert [table[i] for i in range(-3, 3)] == jobs + jobs
        assert table[::-2] == jobs[::-2] and table[5:] == []
        assert all(type(job.id) is int and type(job.length) is int for job in table)
        with pytest.raises(IndexError):
            table[3]

    @pytest.mark.parametrize(
        "ids, arrivals, lengths, field",
        [
            ([0, 1], [0.0, np.inf], [5, 5], "arrival_time"),
            ([0, 1], [np.nan, 0.0], [5, 5], "arrival_time"),
            ([0, 1], [0.0, -0.5], [5, 5], "arrival_time"),
            ([0, 1], [0.0, 0.0], [5, 0], "length"),
        ],
    )
    def test_columns_are_checked_as_a_job_is(self, ids, arrivals, lengths, field):
        with pytest.raises(ValueError, match=field):
            _JobTable(np.array(ids, dtype=np.int64), np.array(arrivals), np.array(lengths, dtype=np.int64))

    @pytest.mark.parametrize("arrival_rate", [None, 3.0])
    def test_make_objective_builds_no_job_from_a_table(self, arrival_rate, request):
        table = _drawn_jobs(WorkloadSpec(job_count=40, arrival_rate=arrival_rate, seed=2))
        expected = make_objective(list(table), self.VMS)(np.full(40, 1.5))
        built = request.getfixturevalue("jobs_built")
        assert make_objective(table, self.VMS)(np.full(40, 1.5)) == expected
        assert built == []

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_tuple_and_list_give_identical_results(self, data):
        # staggered and tied arrivals, ids out of position order
        num_jobs = data.draw(st.integers(1, 12))
        ids = data.draw(st.permutations(range(num_jobs)))
        arrivals = data.draw(st.lists(st.sampled_from([0.0, 0.0, 1.5, 2.0, 7.25]), min_size=num_jobs, max_size=num_jobs))
        lengths = data.draw(st.lists(st.integers(1, 50), min_size=num_jobs, max_size=num_jobs))
        speeds = data.draw(st.lists(st.sampled_from([0.5, 1.0, 3.7]), min_size=1, max_size=4))
        jobs = [Job(i, a, n) for i, a, n in zip(ids, arrivals, lengths)]
        vms = [Vm(v, s) for v, s in enumerate(speeds)]
        expected = _results(jobs, vms)
        assert _results(tuple(jobs), vms) == expected
        assert _results(_table(jobs), vms) == expected


class TestDispatchOrders:
    """A table's dispatch orders equal a two-key lexsort: decreasing column, ties by id, then by position."""

    @staticmethod
    def assert_orders_are_lexsorts(ids, arrivals, lengths):
        table = _JobTable(np.array(ids, dtype=np.int64), np.array(arrivals), np.array(lengths, dtype=np.int64))
        assert table.dispatch_order(None) == tuple(np.lexsort((table.ids, table.arrivals)).tolist())
        for column in ("lengths", "arrivals"):
            expected = tuple(np.lexsort((table.ids, -getattr(table, column))).tolist())
            assert table.dispatch_order(column) == expected
            assert table.dispatch_order(column) is table.dispatch_order(column)  # kept, not sorted again

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_orders_equal_lexsort(self, data):
        # ids out of position order, as in a CSV; tied lengths and arrivals, -0.0 beside 0.0; lengths
        # within 16 bits (radix-sorted keys) and beyond them, up to the int64 limit
        num_jobs = data.draw(st.integers(1, 30))
        ids = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=num_jobs, max_size=num_jobs, unique=True))
        arrivals = data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.5, 2.0, 7.25]), min_size=num_jobs, max_size=num_jobs))
        top = data.draw(st.sampled_from([3, 20000, 2**16 + 5, 2**40, 2**63 - 1]))
        lengths = data.draw(st.lists(st.integers(1, top), min_size=num_jobs, max_size=num_jobs))
        self.assert_orders_are_lexsorts(ids, arrivals, lengths)

    @pytest.mark.parametrize(
        "ids, arrivals, lengths",
        [
            ([4], [2.5], [7]),  # a single job
            ([3, 1, 2, 0], [0.0, -0.0, -0.0, 0.0], [5, 5, 5, 5]),  # every key tied
            ([9, 2, 5, 1, 7], [1.0, 1.0, 0.0, 3.0, 1.0], [1, 2**63 - 1, 2**17, 1, 2**17]),  # 63-bit span
            ([5, 3, 8, 1], [0.0] * 4, [2**16, 1, 2**16, 2**16 + 1]),  # a span of 2**16, just past uint16
        ],
    )
    def test_orders_of_edge_tables(self, ids, arrivals, lengths):
        self.assert_orders_are_lexsorts(ids, arrivals, lengths)

    def test_float_lengths_are_built_once_and_exact(self, float_length_builds):
        # lengths past 2**53 round to the nearest float, as both numpy's cast and float() do; 2**24 + 1
        # is exact in a double but not in a single
        lengths = [1, 2**24 + 1, 2**53 + 1, 2**53 + 3, 2**63 - 1]
        table = _table(Job(i, 0.0, n) for i, n in enumerate(lengths))
        vms = [Vm(0, 1.0), Vm(1, 3.7)]
        for _ in range(2):  # FCFS and both LJF modes share the one build
            fcfs_schedule(table, vms)
            ljf_schedule(table, vms)
            ljf_schedule(table, vms, mode="last-arrival")
        assert len(float_length_builds) == 1 and float_length_builds[0] is table
        assert table.float_lengths == tuple(float(n) for n in lengths)
        assert all(type(x) is float for x in table.float_lengths)

    def test_replay_column_is_read_only_and_bit_exact(self):
        jobs = [Job(3, 0.0, 10), Job(1, -0.0, 2**53 + 1), Job(2, 1.5, 7)]
        table = _table(jobs)
        assert "service_jobs" not in vars(table)
        column = table.service_jobs
        assert table.service_jobs is column
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1
        order = table.service_order.tolist()
        assert [math.copysign(1.0, a) for a in column.real] == [math.copysign(1.0, jobs[i].arrival_time) for i in order]
        assert column.imag.tolist() == [float(jobs[i].length) for i in order]


def _table(jobs):
    return _job_columns(list(jobs))
