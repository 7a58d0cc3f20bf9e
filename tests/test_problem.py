import numpy as np
import pytest

from lcasched import (
    Job,
    MetricWeights,
    Vm,
    assignment_domain,
    decode_random_key,
    evaluate,
    make_objective,
)


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
        _, metrics = evaluate(jobs, vms, decode_random_key(x, 2))
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

    def test_deterministic(self, three_jobs_two_vms):
        jobs, vms = three_jobs_two_vms
        objective = make_objective(jobs, vms)
        x = np.array([0.1, 1.1, 0.6])
        assert objective(x) == objective(x)

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

    def test_vm_validation(self):
        with pytest.raises(ValueError):
            Vm(0, 0.0)
        with pytest.raises(ValueError):
            Vm(-1, 1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_vm_speed_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="speed"):
            Vm(0, bad)

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
