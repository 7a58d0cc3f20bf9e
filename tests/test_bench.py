import io
import os
import subprocess
import sys

import numpy as np
import pytest

import lcasched.bench
import lcasched.workload
from lcasched import (
    ExperimentConfig,
    Job,
    LcaParams,
    MetricWeights,
    Vm,
    WorkloadSpec,
    brute_force_optimal,
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

    def test_lca_close_to_oracle_with_exhaustive_budget(self, tmp_path):
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
        row = run_cell(config, "lca", 2, seed=3)
        assert row.evaluations == 16
        assert row.objective_value <= weights.score(optimal) * 1.05

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
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


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

    def test_invalid_configuration_exits_2(self):
        assert main(["sweep", "--num-jobs", "0", "--vm-counts", "2"]) == 2
        assert main(["run", "--algorithm", "fcfs", "--num-vms", "0"]) == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--num-jobs", "5"])  # --jobs-out is required
        assert excinfo.value.code == 2

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
        # oracle builds its fleet from the flag and rejects the speed, naming the field
        rc = main(["oracle", "--num-jobs", "5", "--num-vms", "2", "--vm-speeds", "nan"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error: speed_choices must be non-empty, finite and positive" in captured.err
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
