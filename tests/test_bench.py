import io
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import lcasched.bench
import lcasched.workload
from lcasched import (
    BoxDomain,
    ExperimentConfig,
    FleetSpec,
    Job,
    LcaParams,
    MetricWeights,
    Vm,
    WorkloadSpec,
    assignment_domain,
    brute_force_optimal,
    decode_random_key,
    generate_fleet,
    generate_league_schedule,
    generate_workload,
    read_jobs_csv,
    run_cell,
    run_sweep,
    write_jobs_csv,
)
from lcasched.bench import (
    RESULTS_CSV_HEADER,
    ResultRow,
    summarize,
    summary_path_for,
    write_results_csv,
    write_summary_csv,
)
from lcasched.cli import main
from lcasched.problem import _JobTable

TINY_LCA = LcaParams(league_size=4, seasons=5, change_prob=0.4, seed=0, max_evaluations=60)


def tiny_config(**overrides):
    base = dict(
        num_jobs=24,
        vm_counts=(2, 3),
        reps=2,
        base_seed=1,
        lca=TINY_LCA,
        no_timing=True,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunCell:
    def test_fcfs_matches_hand_simulation(self, tmp_path, three_jobs_two_vms):
        jobs, _ = three_jobs_two_vms
        jobs_file = tmp_path / "jobs.csv"
        write_jobs_csv(jobs, jobs_file)
        config = ExperimentConfig(
            jobs_file=str(jobs_file), vm_speeds=(1.0, 2.0), vm_counts=(2,), no_timing=True
        )
        row = run_cell(config, "fcfs", 2, seed=1)
        assert row.makespan == 40.0
        assert row.avg_completion == 20.0
        assert row.objective_value == 20.0
        assert row.wall_ms == 0.0

    def test_lca_close_to_oracle_in_most_seeds(self, tmp_path):
        # 16 evaluations in a 4-team league do not enumerate the 16
        # assignments, so no single seed is sure to reach the optimum. Of
        # seeds 0-199, 131 reach it; at least half must.
        jobs = [Job(0, 0.0, 10), Job(1, 0.0, 20), Job(2, 0.0, 30), Job(3, 0.0, 40)]
        jobs_file = tmp_path / "jobs.csv"
        write_jobs_csv(jobs, jobs_file)
        vms = [Vm(0, 1.0), Vm(1, 2.0)]
        weights = MetricWeights()
        _, optimal = brute_force_optimal(jobs, vms, weights)
        config = ExperimentConfig(
            jobs_file=str(jobs_file),
            vm_speeds=(1.0, 2.0),
            vm_counts=(2,),
            lca=LcaParams(league_size=4, seasons=2, max_evaluations=2**4),
            weights=weights,
            no_timing=True,
        )
        rows = [run_cell(config, "lca", 2, seed=seed) for seed in range(200)]
        assert all(row.evaluations == 16 for row in rows)
        assert sum(row.objective_value <= weights.score(optimal) * 1.05 for row in rows) >= 100

    def test_deterministic_per_seed(self):
        config = tiny_config()
        assert run_cell(config, "lca", 2, seed=5) == run_cell(config, "lca", 2, seed=5)
        assert run_cell(config, "ljf", 3, seed=5) == run_cell(config, "ljf", 3, seed=5)

    def test_same_seed_same_workload_across_algorithms(self):
        config = tiny_config(reps=1)
        rows = {alg: run_cell(config, alg, 2, seed=9) for alg in ("lca", "fcfs", "ljf")}
        # baselines are deterministic given the instance; lca explores, but all
        # three scored the same jobs, so the objective scale must agree
        assert rows["fcfs"].evaluations == rows["ljf"].evaluations == 1
        assert rows["lca"].evaluations == TINY_LCA.max_evaluations
        spread = {alg: rows[alg].avg_completion for alg in rows}
        assert max(spread.values()) < 10 * min(spread.values())

    @pytest.mark.parametrize("arrival_rate", [None, 3.0])
    def test_cells_of_a_generated_workload_build_no_job(self, arrival_rate, jobs_built):
        config = tiny_config(arrival_rate=arrival_rate)
        for algorithm in ("lca", "fcfs"):
            lcasched.bench._jobs.cache_clear()  # the cell draws its workload afresh
            run_cell(config, algorithm, 3, seed=4)
        assert jobs_built == []

    def test_cell_fleet_is_a_tuple(self):
        _, vms, _ = lcasched.bench._cell_inputs(tiny_config(), 3, seed=1)
        assert type(vms) is tuple
        assert [vm.id for vm in vms] == [0, 1, 2]

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            run_cell(tiny_config(), "spt", 2, seed=1)

    def test_negative_seed_rejected_naming_it(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            run_cell(tiny_config(), "fcfs", 2, seed=-1)


class TestRunSweep:
    def test_grid_shape_and_order(self, tmp_path):
        out = tmp_path / "results.csv"
        config = tiny_config(out=str(out))
        rows, summary = run_sweep(config)
        assert len(rows) == 3 * 2 * 2
        assert [r.sort_key() for r in rows] == sorted(r.sort_key() for r in rows)
        assert len(summary) == 3 * 2
        text = out.read_text().splitlines()
        assert text[0] == ",".join(RESULTS_CSV_HEADER)
        assert len(text) == 1 + len(rows)
        assert summary_path_for(out).exists()

    def test_summary_matches_hand_means(self, tmp_path):
        config = tiny_config(out=str(tmp_path / "r.csv"))
        rows, summary = run_sweep(config)
        for entry in summary:
            members = [
                r for r in rows if r.algorithm == entry.algorithm and r.num_vms == entry.num_vms
            ]
            assert len(members) == config.reps
            values = [r.avg_completion for r in members]
            assert entry.mean_avg_completion == pytest.approx(sum(values) / len(values), rel=1e-12)
            variance = sum((v - entry.mean_avg_completion) ** 2 for v in values) / len(values)
            assert entry.std_avg_completion == pytest.approx(variance**0.5, rel=1e-9, abs=1e-12)

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        outputs = []
        for name, workers in [("a.csv", 1), ("b.csv", 1), ("c.csv", 2)]:
            out = tmp_path / name
            run_sweep(tiny_config(out=str(out), workers=workers))
            outputs.append((out.read_bytes(), summary_path_for(out).read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_jobs_file_read_once_per_sweep(self, tmp_path, monkeypatch, workers):
        jobs_file = tmp_path / "jobs.csv"
        write_jobs_csv(generate_workload(WorkloadSpec(job_count=20, arrival_rate=2.0, seed=4)), jobs_file)
        out = tmp_path / "sweep.csv"
        config = tiny_config(
            jobs_file=str(jobs_file), ljf_mode="last-arrival", out=str(out), workers=workers
        )
        # Reference: every cell run on its own; they share one cached read of
        # the trace, which the sweep then clears and reads afresh.
        rows = sorted(
            (
                run_cell(config, algorithm, num_vms, seed)
                for algorithm in config.algorithms
                for num_vms in config.vm_counts
                for seed in range(config.base_seed, config.base_seed + config.reps)
            ),
            key=ResultRow.sort_key,
        )
        expected_rows, expected_summary = io.StringIO(), io.StringIO()
        write_results_csv(rows, expected_rows)
        write_summary_csv(summarize(rows), expected_summary)

        reads = []

        def read_then_remove(path):
            # a second read, in this process or in a worker, finds no file
            reads.append(path)
            parsed = read_jobs_csv(path)
            os.remove(path)
            return parsed

        monkeypatch.setattr(lcasched.bench, "read_jobs_csv", read_then_remove)
        run_sweep(config)
        assert reads == [str(jobs_file)]
        assert out.read_bytes().decode() == expected_rows.getvalue()
        assert summary_path_for(out).read_bytes().decode() == expected_summary.getvalue()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rewritten_jobs_file_is_read_afresh_by_the_next_sweep(self, tmp_path, workers):
        trace_a = generate_workload(WorkloadSpec(job_count=20, arrival_rate=2.0, seed=4))
        trace_b = generate_workload(WorkloadSpec(job_count=20, arrival_rate=2.0, seed=5))
        reference_file = tmp_path / "b.csv"
        write_jobs_csv(trace_b, reference_file)
        reference = tiny_config(jobs_file=str(reference_file), out=str(tmp_path / "reference.csv"))
        rows = sorted(
            (
                run_cell(reference, algorithm, num_vms, seed)
                for algorithm in reference.algorithms
                for num_vms in reference.vm_counts
                for seed in range(reference.base_seed, reference.base_seed + reference.reps)
            ),
            key=ResultRow.sort_key,
        )
        expected_rows, expected_summary = io.StringIO(), io.StringIO()
        write_results_csv(rows, expected_rows)
        write_summary_csv(summarize(rows), expected_summary)

        jobs_file = tmp_path / "jobs.csv"
        out = tmp_path / "sweep.csv"
        config = tiny_config(jobs_file=str(jobs_file), out=str(out), workers=workers)
        write_jobs_csv(trace_a, jobs_file)
        run_sweep(config)
        first = out.read_bytes()
        write_jobs_csv(trace_b, jobs_file)
        run_sweep(config)
        assert out.read_bytes() != first
        assert out.read_bytes().decode() == expected_rows.getvalue()
        assert summary_path_for(out).read_bytes().decode() == expected_summary.getvalue()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_generated_sweep_matches_cells_run_in_reverse(self, tmp_path, workers):
        # Cells share a cached workload per seed; each cell, run on its own in
        # the opposite order, must still give the row the sweep wrote.
        config = tiny_config(reps=3, out=str(tmp_path / "sweep.csv"), workers=workers)
        rows, _ = run_sweep(config)
        cells = [
            (algorithm, num_vms, seed)
            for algorithm in config.algorithms
            for num_vms in config.vm_counts
            for seed in range(config.base_seed, config.base_seed + config.reps)
        ]
        expected = [run_cell(config, *cell) for cell in reversed(cells)]
        assert rows == sorted(expected, key=ResultRow.sort_key)
        # every seed scored its own workload, so FCFS rows differ across seeds
        fcfs = {(r.num_vms, r.avg_completion) for r in rows if r.algorithm == "fcfs"}
        assert len(fcfs) == len(config.vm_counts) * config.reps

    def test_sweep_builds_each_fleet_once(self, tmp_path, vms_built):
        run_sweep(tiny_config(out=str(tmp_path / "r.csv")))
        # (2 + 3) VMs for each of 2 seeds; the FCFS and LJF cells reuse the LCA cell's fleet
        assert len(vms_built) == 10

    @pytest.mark.parametrize("arrival_rate", [None, 3.0])
    def test_rows_do_not_depend_on_the_caches(self, tmp_path, monkeypatch, arrival_rate):
        config = tiny_config(arrival_rate=arrival_rate, out=str(tmp_path / "warm.csv"))
        warm, _ = run_sweep(config)
        warm_cell = lcasched.bench.run_cell

        def cold_cell(*args):
            for cache in (lcasched.bench._jobs, lcasched.bench._fleet, lcasched.bench._sub_seeds):
                cache.cache_clear()
            return warm_cell(*args)

        monkeypatch.setattr(lcasched.bench, "run_cell", cold_cell)
        cold, _ = run_sweep(tiny_config(arrival_rate=arrival_rate, out=str(tmp_path / "cold.csv")))
        assert cold == warm
        assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()

    @pytest.mark.parametrize(
        "overrides,column",
        [(dict(), "lengths"), (dict(arrival_rate=3.0, ljf_mode="last-arrival"), "arrivals")],
        ids=["longest", "last-arrival"],
    )
    @pytest.mark.parametrize("from_file", [False, True], ids=["generated", "jobs_file"])
    def test_ljf_cells_sort_once_per_table_and_column(
        self, tmp_path, monkeypatch, float_length_builds, overrides, column, from_file
    ):
        sorts = []
        descending = _JobTable._descending

        def counting(table, name):
            sorts.append((table, name))
            return descending(table, name)

        monkeypatch.setattr(_JobTable, "_descending", counting)
        lcasched.bench._jobs.cache_clear()  # no table of an earlier test keeps its orders
        config = tiny_config(algorithms=("fcfs", "ljf"), vm_counts=(2, 3, 5), out=str(tmp_path / "r.csv"), **overrides)
        if from_file:
            write_jobs_csv(generate_workload(WorkloadSpec(job_count=24, arrival_rate=overrides.get("arrival_rate"))),
                           tmp_path / "jobs.csv")
            config = replace(config, jobs_file=str(tmp_path / "jobs.csv"))
        rows, _ = run_sweep(config)
        # a generated workload is one table per seed; a jobs file is one table for the sweep
        tables = 1 if from_file else config.reps
        assert [name for _, name in sorts] == [column] * tables
        assert len({id(table) for table, _ in sorts}) == tables
        # FCFS and LJF cells share each table's float lengths
        assert sorted(map(id, float_length_builds)) == sorted(id(table) for table, _ in sorts)
        assert len(rows) == 2 * 3 * config.reps

    def test_vm_speeds_list_sweeps_as_the_tuple(self, tmp_path):
        speeds = [700.0, 1300, 2100.0]
        config = tiny_config(vm_speeds=speeds, out=str(tmp_path / "list.csv"))
        assert config.vm_speeds == (700.0, 1300.0, 2100.0)
        assert all(type(s) is float for s in config.vm_speeds)
        as_list = run_sweep(config)
        assert as_list == run_sweep(tiny_config(vm_speeds=tuple(speeds), out=str(tmp_path / "tuple.csv")))

    def test_summarize_groups_sorted(self):
        config = tiny_config(out="unused.csv")
        rows = [run_cell(config, alg, m, s) for alg in ("ljf", "fcfs") for m in (3, 2) for s in (1,)]
        summary = summarize(rows)
        assert [(e.algorithm, e.num_vms) for e in summary] == [
            ("fcfs", 2),
            ("fcfs", 3),
            ("ljf", 2),
            ("ljf", 3),
        ]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(vm_counts=()),
            dict(vm_counts=(0,)),
            dict(reps=0),
            dict(algorithms=()),
            dict(algorithms=("lca", "rr")),
            dict(algorithms=("lca", "lca")),
            dict(ljf_mode="latest"),
            dict(num_jobs=0),
            dict(len_min=0),
            dict(workers=0),
            dict(base_seed=-1),
            dict(vm_speeds=()),
            dict(vm_speeds=(0.0,)),
            dict(vm_speeds=(np.inf,)),
            dict(vm_speeds=(1000.0, np.nan)),
            dict(vm_counts=(2, 2)),
            dict(jobs_file="t.csv", num_jobs=-5),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "name,bounds",
        [("len_max", dict(len_min=1, len_max=2.5)), ("len_min", dict(len_min=1.0)), ("len_min", dict(len_min=True))],
    )
    def test_length_bounds_must_be_integers(self, name, bounds):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got "):
            ExperimentConfig(**bounds)

    @pytest.mark.parametrize("jobs_file", [None, "jobs.csv"])
    @pytest.mark.parametrize("rate", [-1.0, 0.0, float("nan"), True], ids=["negative", "zero", "nan", "bool"])
    def test_arrival_rate_is_refused_when_built(self, rate, jobs_file):
        # as WorkloadSpec refuses it, before any cell builds a spec, also when a jobs file makes it unused
        with pytest.raises(ValueError, match="^arrival_rate must be finite and positive"):
            ExperimentConfig(jobs_file=jobs_file, arrival_rate=rate)

    def test_len_max_must_fit_int64(self):
        with pytest.raises(ValueError, match="^len_max must fit a 64-bit integer$"):
            ExperimentConfig(len_max=2**63)
        assert ExperimentConfig(len_max=2**63 - 1).len_max == 2**63 - 1


COUNT_FIELDS = [
    (LcaParams, "league_size"),
    (LcaParams, "seasons"),
    (LcaParams, "seed"),
    (LcaParams, "max_evaluations"),
    (WorkloadSpec, "job_count"),
    (WorkloadSpec, "seed"),
    (FleetSpec, "vm_count"),
    (FleetSpec, "seed"),
    (ExperimentConfig, "num_jobs"),
    (ExperimentConfig, "reps"),
    (ExperimentConfig, "base_seed"),
    (ExperimentConfig, "workers"),
    (ExperimentConfig, "vm_counts"),
]
REQUIRED_FIELDS = {
    WorkloadSpec: dict(job_count=4),
    FleetSpec: dict(vm_count=2),
    Job: dict(id=0, arrival_time=0.0, length=5),
    Vm: dict(id=0, speed=1.0),
}


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("cls,field", COUNT_FIELDS, ids=lambda x: getattr(x, "__name__", x))
def test_count_fields_reject_floats_and_bools_naming_the_field(cls, field, value):
    kwargs = dict(REQUIRED_FIELDS.get(cls, {}))
    kwargs[field] = (value,) if field == "vm_counts" else value
    with pytest.raises(ValueError, match=rf"^{field}( entry)? must be an integer, got {re.escape(repr(value))}$"):
        cls(**kwargs)


REAL_FIELDS = [
    (MetricWeights, "makespan"),
    (MetricWeights, "completion"),
    (MetricWeights, "response"),
    (LcaParams, "change_prob"),
    (LcaParams, "retreat_coeff"),
    (LcaParams, "approach_coeff"),
    (WorkloadSpec, "arrival_rate"),
    (Job, "arrival_time"),
    (Vm, "speed"),
]


@pytest.mark.parametrize("value", [True, "1", 10**400], ids=["bool", "str", "past-float"])
@pytest.mark.parametrize("cls,field", REAL_FIELDS, ids=lambda x: getattr(x, "__name__", x))
def test_real_fields_reject_bools_strings_and_overflows_naming_the_field(cls, field, value):
    # an int past the float range is refused when built, not by an OverflowError when computed with
    kwargs = dict(REQUIRED_FIELDS.get(cls, {}))
    kwargs[field] = value
    with pytest.raises(ValueError, match=rf"^{field}( weight)? must be .*, got {re.escape(repr(value))}$"):
        cls(**kwargs)


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize(
    "name,call",
    [
        ("num_vms", lambda v: decode_random_key(np.zeros(3), v)),
        ("num_jobs", lambda v: assignment_domain(v, 2)),
        ("num_vms", lambda v: assignment_domain(3, v)),
        ("dimension", lambda v: BoxDomain.cube(v, 0.0, 1.0)),
        ("num_teams", generate_league_schedule),
        ("seed", lambda v: run_cell(tiny_config(), "fcfs", 2, seed=v)),
    ],
    ids=["decode_random_key", "assignment_domain-jobs", "assignment_domain-vms", "cube", "league", "run_cell"],
)
def test_count_arguments_reject_floats_and_bools_naming_the_argument(name, call, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
        call(value)


def test_fleet_seed_must_be_nonnegative():
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        FleetSpec(vm_count=2, seed=-1)


@pytest.mark.parametrize("cls,field", [(ExperimentConfig, "vm_speeds"), (FleetSpec, "speed_choices")],
                         ids=["ExperimentConfig", "FleetSpec"])
def test_speed_fields_refuse_an_empty_array_naming_the_field(cls, field):
    kwargs = dict(REQUIRED_FIELDS.get(cls, {}))
    kwargs[field] = np.array([])
    with pytest.raises(ValueError, match=rf"^{field} must be non-empty, finite and positive"):
        cls(**kwargs)


@pytest.mark.parametrize("speeds", [(True, 2), (1000.0, False), ("1000",), (1000.0, 2 + 0j)])
@pytest.mark.parametrize("cls,field", [(ExperimentConfig, "vm_speeds"), (FleetSpec, "speed_choices")],
                         ids=["ExperimentConfig", "FleetSpec"])
def test_speed_fields_reject_bools_and_non_reals_naming_the_field(cls, field, speeds):
    kwargs = dict(REQUIRED_FIELDS.get(cls, {}))
    kwargs[field] = speeds
    message = rf"^{field} must be non-empty, finite and positive \(real, not bool\), got {re.escape(repr(speeds))}$"
    with pytest.raises(ValueError, match=message):
        cls(**kwargs)


@pytest.mark.parametrize("speeds", [(np.longdouble("1e-4000"),), (1000.0, 10**400)], ids=["rounds-to-zero", "overflows"])
@pytest.mark.parametrize("cls,field", [(ExperimentConfig, "vm_speeds"), (FleetSpec, "speed_choices")],
                         ids=["ExperimentConfig", "FleetSpec"])
def test_speed_fields_check_the_float_a_vm_stores(cls, field, speeds):
    # a tiny long double rounds to a speed of 0.0 and a huge int overflows a float:
    # both fail when the config is built, naming the field, as Vm refuses them
    kwargs = dict(REQUIRED_FIELDS.get(cls, {}))
    kwargs[field] = speeds
    with pytest.raises(ValueError, match=rf"^{field} must be non-empty, finite and positive"):
        cls(**kwargs)


def test_speed_fields_take_numpy_reals():
    speeds = (np.float32(500.0), np.int64(1000), 2500)
    assert ExperimentConfig(vm_speeds=speeds).vm_speeds == (500.0, 1000.0, 2500.0)
    assert [vm.speed for vm in generate_fleet(FleetSpec(vm_count=3, speed_choices=speeds))] == [500.0, 1000.0, 2500.0]
    speeds = np.array([1000.0, 2000.0])  # an array has no truth value: its length says whether it is empty
    assert ExperimentConfig(vm_speeds=speeds).vm_speeds == (1000.0, 2000.0)
    assert [vm.speed for vm in generate_fleet(FleetSpec(vm_count=2, speed_choices=speeds))] == [1000.0, 2000.0]


def test_fleet_spec_keeps_its_checked_speeds_so_fleets_cache_by_spec():
    spec = FleetSpec(2, speed_choices=np.array([1000.0, 2000.0]))
    same = FleetSpec(2, speed_choices=(1000.0, 2000.0))
    assert spec.speed_choices == (1000.0, 2000.0)
    assert hash(spec) == hash(same) and spec == same
    assert lcasched.bench._fleet(spec) is lcasched.bench._fleet(same)


def test_count_fields_take_numpy_integers():
    assert LcaParams(league_size=np.int64(4), seasons=np.int32(2), seed=np.int64(3), max_evaluations=np.int64(8))
    assert WorkloadSpec(job_count=np.int64(4), seed=np.int64(1))
    assert FleetSpec(vm_count=np.int64(2), seed=np.int64(1))
    assert ExperimentConfig(
        num_jobs=np.int64(4), reps=np.int64(1), base_seed=np.int64(0), workers=np.int64(1), vm_counts=(np.int64(2),)
    )


class TestCli:
    def test_generate_run_oracle_roundtrip(self, tmp_path, capsys):
        jobs_out = tmp_path / "jobs.csv"
        rc = main(["generate", "--num-jobs", "12", "--seed", "4", "--jobs-out", str(jobs_out)])
        assert rc == 0
        assert read_jobs_csv(jobs_out) == generate_workload(WorkloadSpec(job_count=12, seed=4))

        rc = main(
            [
                "run",
                "--jobs-file", str(jobs_out),
                "--algorithm", "fcfs",
                "--num-vms", "3",
                "--no-timing",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        header = [line for line in out if line.startswith("algorithm")]
        assert header and header[0] == ",".join(RESULTS_CSV_HEADER)
        row = out[-1].split(",")
        assert row[0] == "fcfs" and row[1] == "3"

        # the oracle reads the same trace; no baseline row on its instance beats it
        flags = ["--jobs-file", str(jobs_out), "--num-vms", "2"]
        oracle = self._oracle(capsys, flags)
        expected, metrics = brute_force_optimal(read_jobs_csv(jobs_out), generate_fleet(FleetSpec(vm_count=2)))
        assert oracle == (expected.tolist(), MetricWeights().score(metrics))
        for algorithm in ("fcfs", "ljf"):
            assert oracle[1] <= self._run_objective(capsys, algorithm, flags)

    @staticmethod
    def _oracle(capsys, flags):
        """The assignment and objective value that ``oracle`` prints."""
        assert main(["oracle", *flags]) == 0
        printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        return [int(v) for v in printed["assignment"].split(",")], float(printed["objective_value"])

    @staticmethod
    def _run_objective(capsys, algorithm, flags):
        """The objective value of the row that ``run`` prints."""
        assert main(["run", "--algorithm", algorithm, *flags, "--no-timing"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        return float(dict(zip(header.split(","), row.split(",")))["objective_value"])

    @pytest.mark.parametrize(
        "seed,trace", [(1, False), (4, False), (7, False), (10, False), (1, True)],
        ids=["seed1", "seed4", "seed7", "seed10", "jobs-file"],
    )
    def test_oracle_solves_the_run_cell(self, tmp_path, capsys, seed, trace):
        # oracle and run derive one instance from the same flags and seed, so no baseline beats the optimum
        flags = ["--num-vms", "2", "--seed", str(seed)]
        if trace:
            jobs_file = str(tmp_path / "jobs.csv")
            write_jobs_csv(generate_workload(WorkloadSpec(job_count=6, arrival_rate=2.0, seed=3)), jobs_file)
            flags += ["--jobs-file", jobs_file]
            config = ExperimentConfig(jobs_file=jobs_file)
        else:
            flags += ["--num-jobs", "6"]
            config = ExperimentConfig(num_jobs=6)
        jobs, vms, _ = lcasched.bench._cell_inputs(config, 2, seed)
        expected, metrics = brute_force_optimal(jobs, vms)
        oracle = self._oracle(capsys, flags)
        assert oracle == (expected.tolist(), MetricWeights().score(metrics))
        for algorithm in ("fcfs", "ljf"):
            assert oracle[1] <= self._run_objective(capsys, algorithm, flags)

    def test_oracle_subcommand(self, capsys):
        rc = main(["oracle", "--num-jobs", "4", "--num-vms", "2", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "assignment:" in out and "objective_value:" in out

    def test_sweep_subcommand(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep",
                "--num-jobs", "16",
                "--vm-counts", "2,3",
                "--algorithms", "fcfs,ljf",
                "--reps", "2",
                "--seed", "1",
                "--out", str(out),
                "--no-timing",
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2
        assert summary_path_for(out).exists()

    def test_invalid_configuration_exits_2(self, capsys):
        assert main(["sweep", "--num-jobs", "0", "--vm-counts", "2"]) == 2
        capsys.readouterr()
        assert main(["run", "--algorithm", "fcfs", "--num-vms", "0"]) == 2
        assert capsys.readouterr().err == "error: --num-vms must be >= 1, got 0\n"
        assert main(["oracle", "--num-vms", "0"]) == 2
        assert capsys.readouterr().err == "error: --num-vms must be >= 1, got 0\n"
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--num-jobs", "5"])  # --jobs-out is required
        assert excinfo.value.code == 2

    def test_num_jobs_below_one_exits_2_also_with_a_jobs_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["sweep", "--jobs-file", str(tmp_path / "x.csv"), "--num-jobs", "0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: num_jobs must be >= 1, got 0\n"
        assert list(tmp_path.iterdir()) == []

    def test_generate_rejects_jobs_file(self, tmp_path, capsys):
        # generate writes a trace; it has no use for one to read
        jobs_out = tmp_path / "g.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--jobs-file", str(tmp_path / "nonexistent.csv"), "--num-jobs", "3", "--jobs-out", str(jobs_out)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --jobs-file" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--algorithm", "fcfs", "--num-vms", "2", "--out", "{tmp}/r.csv"],
            ["sweep", "--vm-counts", "2", "--reps", "1", "--out", "{tmp}/r.csv"],
            ["oracle", "--num-vms", "2"],
        ],
        ids=["run", "sweep", "oracle"],
    )
    @pytest.mark.parametrize(
        "row,field", [("99999999999999999999999,0.0,5", "id"), (f"2,0.0,{10**400}", "length")], ids=["id", "length"]
    )
    def test_jobs_beyond_int64_exit_2_naming_the_line(self, tmp_path, capsys, argv, row, field):
        jobs_file = tmp_path / "jobs.csv"
        jobs_file.write_text(f"job_id,arrival_time,length_mi\n1,0.0,5\n{row}\n")
        rc = main([arg.format(tmp=tmp_path) for arg in argv] + ["--jobs-file", str(jobs_file)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: line 3: job {field} must fit a 64-bit integer\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.csv"]

    @pytest.mark.parametrize(
        "row,message",
        [
            ("1_0,0.0,5", "line 3: non-integer field job_id: '1_0'"),
            (f"2,0.0,{'9' * 5000}", "line 3: job length must fit a 64-bit integer"),
        ],
        ids=["separator", "5000-digits"],
    )
    def test_malformed_integer_fields_exit_2(self, tmp_path, capsys, row, message):
        jobs_file = tmp_path / "jobs.csv"
        jobs_file.write_text(f"job_id,arrival_time,length_mi\n10,0.0,5\n{row}\n")
        out = tmp_path / "r.csv"
        rc = main(["run", "--algorithm", "fcfs", "--num-vms", "2", "--jobs-file", str(jobs_file), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_overflowing_schedule_exits_2_writing_no_row(self, tmp_path, capsys):
        # every argument is accepted, but the finish times overflow float64 on a slow VM
        jobs_file = tmp_path / "jobs.csv"
        jobs_file.write_text("job_id,arrival_time,length_mi\n0,1e308,1000000\n1,1.7e308,5\n")
        out = tmp_path / "r.csv"
        argv = ["run", "--algorithm", "fcfs", "--num-vms", "1", "--vm-speeds", "0.001", "--jobs-file", str(jobs_file)]
        with np.errstate(over="ignore"):
            rc = main(argv + ["--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: the schedule's times overflow float64")
        assert not out.exists()

    @pytest.mark.parametrize(
        "trace,argv",
        [
            ("0,1e308,1000000\n1,1.7e308,5\n", ["--vm-speeds", "0.001"]),  # the sum of finish times overflows
            (None, ["--num-jobs", "1", "--len-min", "1000000", "--len-max", "1000000", "--vm-speeds", "1e-310"]),
        ],
        ids=["overflow-in-reduce", "overflow-in-divide"],
    )
    def test_non_finite_schedule_prints_one_error_line_and_no_warning(self, tmp_path, capsys, trace, argv):
        if trace is not None:
            jobs_file = tmp_path / "jobs.csv"
            jobs_file.write_text("job_id,arrival_time,length_mi\n" + trace)
            argv = argv + ["--jobs-file", str(jobs_file)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["run", "--algorithm", "fcfs", "--num-vms", "1", *argv])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the schedule's times overflow float64") and err.count("\n") == 1

    def test_repeated_vm_count_exits_2_before_the_output_check(self, tmp_path, capsys):
        rc = main(["sweep", "--vm-counts", "2,2", "--out", str(tmp_path / "missing" / "r.csv")])
        assert rc == 2
        assert capsys.readouterr().err == "error: vm_counts must not repeat\n"

    def test_bad_arrival_rate_exits_2_before_the_output_check(self, tmp_path, capsys):
        rc = main(["sweep", "--arrival-rate", "-1", "--out", str(tmp_path / "missing" / "r.csv")])
        assert rc == 2
        assert capsys.readouterr().err == "error: arrival_rate must be finite and positive (real, not bool), got -1.0\n"

    def test_oracle_capacity_exits_2(self):
        assert main(["oracle", "--num-jobs", "30", "--num-vms", "3"]) == 2

    def test_unwritable_output_exits_3(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        rc = main(
            [
                "sweep",
                "--num-jobs", "8",
                "--vm-counts", "2",
                "--algorithms", "fcfs",
                "--reps", "1",
                "--out", str(missing),
            ]
        )
        assert rc == 3

    def test_bad_flag_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--vm-counts", "a,b"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("weights", ["nan,1,0", "inf,1,0", "0,1,nan"])
    def test_non_finite_weight_exits_2(self, capsys, weights):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--algorithm", "fcfs", "--num-vms", "3", "--num-jobs", "20", "--weights", weights, "--no-timing"])
        assert excinfo.value.code == 2
        assert "weight must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,field",
        [("--psi1", "nan", "retreat_coeff"), ("--psi2", "inf", "approach_coeff"), ("--arrival-rate", "inf", "arrival_rate")],
    )
    def test_non_finite_parameter_exits_2_naming_it(self, capsys, flag, value, field):
        rc = main(["run", "--algorithm", "lca", "--num-vms", "3", "--num-jobs", "20", flag, value, "--no-timing"])
        assert rc == 2
        assert f"error: {field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--algorithm", "fcfs", "--num-vms", "2", "--num-jobs", "3", "--len-max", str(2**63)],
             "error: len_max must fit a 64-bit integer\n"),
            (["--algorithm", "lca", "--num-vms", "5", "--num-jobs", "40", "--league-size", "4", "--max-evals", "400",
              "--psi1", "1e308", "--psi2", "1e308"],
             "error: retreat_coeff and approach_coeff times the widest span of the domain must be finite\n"),
        ],
        ids=["len-max", "psi"],
    )
    def test_run_past_a_bound_exits_2_naming_the_field(self, capsys, argv, message):
        assert main(["run", *argv, "--no-timing"]) == 2
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["run", "--algorithm", "fcfs", "--num-vms", "3", "--no-timing"], "seed"),
            (["sweep", "--vm-counts", "3", "--algorithms", "fcfs", "--reps", "1", "--out", "{tmp}/r.csv"], "base_seed"),
            (["generate", "--jobs-out", "{tmp}/jobs.csv"], "seed"),
            (["oracle", "--num-vms", "2"], "seed"),
        ],
    )
    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys, argv, field):
        rc = main([arg.format(tmp=tmp_path) for arg in argv] + ["--num-jobs", "5", "--seed", "-1"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {field} must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("speeds", ["inf", "nan", "1000,nan"])
    def test_non_finite_vm_speeds_exit_2_before_any_cell(self, tmp_path, capsys, monkeypatch, speeds):
        cells = []
        monkeypatch.setattr(lcasched.bench, "run_cell", lambda *args: cells.append(args))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--num-jobs", "20", "--vm-counts", "2", "--reps", "1", "--algorithms", "fcfs"]
        rc = main(argv + ["--vm-speeds", speeds, "--out", str(out)])
        assert rc == 2
        assert "error: vm_speeds must be non-empty, finite and positive" in capsys.readouterr().err
        assert cells == [] and not out.exists()

    def test_generate_non_finite_vm_speeds_exits_2_writing_nothing(self, tmp_path, capsys):
        # generate writes no fleet, so it no longer takes --vm-speeds at all
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--num-jobs", "5", "--vm-speeds", "nan", "--jobs-out", str(tmp_path / "jobs.csv")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --vm-speeds nan" in capsys.readouterr().err
        # oracle builds its config from the flag and rejects the speed, naming the config's field
        rc = main(["oracle", "--num-jobs", "5", "--num-vms", "2", "--vm-speeds", "nan"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error: vm_speeds must be non-empty, finite and positive" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_budget_below_league_size_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch):
        cells = []
        monkeypatch.setattr(lcasched.bench, "run_cell", lambda *args: cells.append(args))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--num-jobs", "20", "--vm-counts", "2", "--reps", "1", "--algorithms", "fcfs,lca"]
        rc = main(argv + ["--league-size", "4", "--max-evals", "2", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: max_evaluations must be at least league_size (4), got 2\n"
        assert cells == [] and list(tmp_path.iterdir()) == []

    def test_header_only_jobs_file_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch):
        cells = []
        monkeypatch.setattr(lcasched.bench, "run_cell", lambda *args: cells.append(args))
        jobs_file = tmp_path / "empty.csv"
        jobs_file.write_text("job_id,arrival_time,length_mi\n")
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--jobs-file", str(jobs_file), "--vm-counts", "2", "--reps", "1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: line 1: no jobs after the header\n"
        assert cells == [] and sorted(p.name for p in tmp_path.iterdir()) == ["empty.csv"]


def test_import_leaves_out_the_process_pool():
    # worker processes are only started by run_sweep(workers > 1), which imports the pool itself
    code = "import sys, lcasched; print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
    source_root = os.path.dirname(os.path.dirname(lcasched.bench.__file__))
    env = dict(os.environ, PYTHONPATH=source_root)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


class TestSweepOutputSafety:
    def test_missing_output_directory_fails_before_any_cell(self, tmp_path, monkeypatch):
        cells = []
        monkeypatch.setattr(lcasched.bench, "run_cell", lambda *args: cells.append(args))
        with pytest.raises(OSError):
            run_sweep(tiny_config(out=str(tmp_path / "missing" / "results.csv")))
        assert cells == []

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_truncated_csv(self, tmp_path, monkeypatch, existing):
        rows, _ = run_sweep(tiny_config(out=str(tmp_path / "first.csv")))
        path = tmp_path / "results.csv"
        if existing:
            write_results_csv(rows[:1], path)
        before = path.read_bytes() if existing else None
        real_writer = lcasched.workload.csv.writer

        class FailingWriter:
            def __init__(self, handle):
                self.inner = real_writer(handle)
                self.writerow = self.inner.writerow

            def writerows(self, field_rows):
                self.inner.writerow(field_rows[0])
                raise OSError("device full")

        monkeypatch.setattr(lcasched.workload.csv, "writer", FailingWriter)
        with pytest.raises(OSError, match="device full"):
            write_results_csv(rows, path)
        monkeypatch.undo()
        assert (path.read_bytes() if path.exists() else None) == before
        leftovers = sorted(p.name for p in tmp_path.iterdir())
        assert leftovers == sorted(["first.csv", "first_summary.csv"] + (["results.csv"] if existing else []))

    def test_path_and_stream_writes_give_the_same_bytes(self, tmp_path):
        rows, summary = run_sweep(tiny_config(out=str(tmp_path / "results.csv")))
        results, summary_sink = io.StringIO(newline=""), io.StringIO(newline="")
        write_results_csv(rows, results)
        write_summary_csv(summary, summary_sink)
        assert (tmp_path / "results.csv").read_bytes() == results.getvalue().encode("utf-8")
        assert (tmp_path / "results_summary.csv").read_bytes() == summary_sink.getvalue().encode("utf-8")
        assert results.getvalue().startswith(",".join(RESULTS_CSV_HEADER) + "\r\n")
