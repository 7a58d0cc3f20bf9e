import io
import os
import re
import stat
import threading

import numpy as np
import pytest

import lcasched.workload
from lcasched.workload import _drawn_jobs
from lcasched import (
    CsvFormatError,
    FleetSpec,
    Job,
    WorkloadSpec,
    generate_fleet,
    generate_workload,
    read_jobs_csv,
    write_jobs_csv,
)


class TestGenerateWorkload:
    def test_paper_scale_count_and_bounds(self):
        jobs = generate_workload(WorkloadSpec(job_count=5000, seed=1))
        assert len(jobs) == 5000
        assert [j.id for j in jobs] == list(range(5000))
        assert all(1000 <= j.length <= 20000 for j in jobs)
        assert all(j.arrival_time == 0.0 for j in jobs)

    def test_degenerate_range(self):
        jobs = generate_workload(WorkloadSpec(job_count=50, len_min=1000, len_max=1000, seed=2))
        assert all(j.length == 1000 for j in jobs)

    def test_seeded_determinism(self):
        spec = WorkloadSpec(job_count=200, seed=9)
        assert generate_workload(spec) == generate_workload(spec)

    def test_different_seeds_differ(self):
        a = generate_workload(WorkloadSpec(job_count=200, seed=1))
        b = generate_workload(WorkloadSpec(job_count=200, seed=2))
        assert a != b

    def test_uniform_lengths_mean(self):
        jobs = generate_workload(WorkloadSpec(job_count=100_000, seed=3))
        mean = np.mean([j.length for j in jobs])
        midpoint = (1000 + 20000) / 2
        assert abs(mean - midpoint) / midpoint < 0.01

    def test_poisson_arrivals(self):
        spec = WorkloadSpec(job_count=1000, arrival_rate=2.0, seed=4)
        jobs = generate_workload(spec)
        arrivals = np.array([j.arrival_time for j in jobs])
        assert np.all(arrivals > 0.0)
        assert np.all(np.diff(arrivals) >= 0.0)
        # mean gap should sit near 1/rate
        assert np.mean(np.diff(arrivals)) == pytest.approx(0.5, rel=0.2)
        assert generate_workload(spec) == jobs

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(job_count=0),
            dict(job_count=5, len_min=0),
            dict(job_count=5, len_min=10, len_max=5),
            dict(job_count=5, arrival_rate=0.0),
            dict(job_count=5, arrival_rate=-1.0),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_arrival_rate_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="arrival_rate must be finite"):
            WorkloadSpec(job_count=5, arrival_rate=bad)

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            WorkloadSpec(job_count=5, seed=-1)

    def test_values_are_python_numbers(self):
        jobs = generate_workload(WorkloadSpec(job_count=50, arrival_rate=2.0, seed=8))
        assert all(type(j.arrival_time) is float and type(j.length) is int for j in jobs)

    @pytest.mark.parametrize("arrival_rate", [None, 2.0])
    @pytest.mark.parametrize("seed", [0, 1, 17, 2**40])
    def test_drawn_table_equals_the_generated_jobs(self, arrival_rate, seed):
        spec = WorkloadSpec(job_count=60, len_min=5, len_max=900, arrival_rate=arrival_rate, seed=seed)
        jobs = generate_workload(spec)
        table = _drawn_jobs(spec)
        assert len(table) == len(jobs) and list(table) == jobs
        assert [table[i] for i in range(-60, 60)] == jobs + jobs
        for piece in (slice(None), slice(3, 17), slice(-5, None), slice(None, None, -7), slice(50, 5, -3)):
            assert table[piece] == jobs[piece]

    @pytest.mark.filterwarnings("ignore:overflow encountered in accumulate")
    def test_arrivals_overflowing_to_inf_are_rejected(self):
        spec = WorkloadSpec(job_count=50, arrival_rate=1e-308, seed=1)  # mean gap 1e308; the sum passes 1.8e308
        for draw in (generate_workload, _drawn_jobs):
            with pytest.raises(ValueError, match="arrival_time must be finite and nonnegative, got inf"):
                draw(spec)


class TestGenerateFleet:
    def test_uniform_single_choice(self):
        vms = generate_fleet(FleetSpec(vm_count=10, speed_choices=(1000.0,)))
        assert len(vms) == 10
        assert all(v.speed == 1000.0 for v in vms)

    def test_cycling(self):
        vms = generate_fleet(FleetSpec(vm_count=3, speed_choices=(500.0, 1000.0, 1500.0)))
        assert [v.speed for v in vms] == [500.0, 1000.0, 1500.0]
        longer = generate_fleet(FleetSpec(vm_count=7, speed_choices=(500.0, 1000.0, 1500.0)))
        assert [v.speed for v in longer] == [500.0, 1000.0, 1500.0, 500.0, 1000.0, 1500.0, 500.0]

    def test_paper_scale_fleet(self):
        vms = generate_fleet(FleetSpec(vm_count=130))
        assert len(vms) == 130
        assert [v.id for v in vms] == list(range(130))

    def test_sample_mode_is_seeded(self):
        spec = FleetSpec(vm_count=50, mode="sample", seed=6)
        first = generate_fleet(spec)
        assert generate_fleet(spec) == first
        assert {v.speed for v in first} <= set(FleetSpec(1).speed_choices)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(vm_count=0),
            dict(vm_count=3, speed_choices=()),
            dict(vm_count=3, speed_choices=(0.0,)),
            dict(vm_count=3, mode="shuffle"),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            FleetSpec(**kwargs)

    @pytest.mark.parametrize("speeds", [(np.inf,), (np.nan,), (1000.0, np.nan), (-np.inf, 500.0)])
    def test_speed_choices_must_be_finite_and_positive(self, speeds):
        with pytest.raises(ValueError, match="speed_choices must be non-empty, finite and positive"):
            FleetSpec(vm_count=3, speed_choices=speeds)


class TestJobsCsv:
    def test_single_row_mapping(self):
        source = io.StringIO("job_id,arrival_time,length_mi\n0,0,1000\n")
        assert read_jobs_csv(source) == [Job(0, 0.0, 1000)]

    def test_round_trip_small(self, tmp_path):
        jobs = [Job(0, 0.0, 10), Job(1, 2.5, 999), Job(2, 0.125, 1)]
        path = tmp_path / "jobs.csv"
        write_jobs_csv(jobs, path)
        assert read_jobs_csv(path) == jobs

    def test_a_path_is_parsed_in_one_call(self, tmp_path, monkeypatch):
        # a wrapper around the public function, as a tracer installs, sees one read per file
        calls = []
        real = lcasched.workload.read_jobs_csv
        monkeypatch.setattr(lcasched.workload, "read_jobs_csv", lambda source: calls.append(source) or real(source))
        path = tmp_path / "jobs.csv"
        write_jobs_csv([Job(0, 0.0, 10)], path)
        assert lcasched.workload.read_jobs_csv(path) == [Job(0, 0.0, 10)]
        assert calls == [path]

    def test_round_trip_generated_workload(self, tmp_path):
        jobs = generate_workload(WorkloadSpec(job_count=5000, arrival_rate=3.0, seed=21))
        path = tmp_path / "big.csv"
        write_jobs_csv(jobs, path)
        assert read_jobs_csv(path) == jobs

    def test_a_pipe_is_written_through(self, tmp_path):
        # a device or pipe such as /dev/stdout must not be renamed over
        jobs = [Job(0, 0.0, 10), Job(1, 2.5, 999)]
        fifo = tmp_path / "jobs.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_jobs_csv(jobs, fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.fifo"]
        sink = io.StringIO(newline="")
        write_jobs_csv(jobs, sink)
        assert received == [sink.getvalue().encode("utf-8")]

    def test_a_symlink_keeps_pointing_at_the_written_file(self, tmp_path):
        jobs = [Job(0, 0.0, 10), Job(1, 2.5, 999)]
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "jobs.csv"
        target.write_text("old\n")
        link = tmp_path / "jobs.csv"
        link.symlink_to(target)
        write_jobs_csv(jobs, link)
        assert link.is_symlink()
        assert read_jobs_csv(target) == jobs

    def test_writes_in_id_order(self):
        sink = io.StringIO()
        write_jobs_csv([Job(2, 0.0, 5), Job(0, 0.0, 7)], sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "job_id,arrival_time,length_mi"
        assert lines[1].startswith("0,") and lines[2].startswith("2,")

    def test_missing_header(self):
        with pytest.raises(CsvFormatError, match="line 1"):
            read_jobs_csv(io.StringIO("id,arrival,len\n0,0,10\n"))

    def test_empty_file(self):
        with pytest.raises(CsvFormatError, match="line 1"):
            read_jobs_csv(io.StringIO(""))

    @pytest.mark.parametrize("text", ["job_id,arrival_time,length_mi\n", "job_id,arrival_time,length_mi\n\n\n"])
    def test_header_only_file(self, tmp_path, text):
        with pytest.raises(CsvFormatError, match="^line 1: no jobs after the header$"):
            read_jobs_csv(io.StringIO(text))
        path = tmp_path / "jobs.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match="^line 1: no jobs after the header$"):
            read_jobs_csv(path)

    def test_duplicate_id(self):
        text = "job_id,arrival_time,length_mi\n0,0,10\n0,1,20\n"
        with pytest.raises(CsvFormatError, match="line 3.*duplicate"):
            read_jobs_csv(io.StringIO(text))

    def test_non_numeric_field(self):
        text = "job_id,arrival_time,length_mi\n0,zero,10\n"
        with pytest.raises(CsvFormatError, match="line 2.*non-numeric"):
            read_jobs_csv(io.StringIO(text))

    @pytest.mark.parametrize("bad", ["1_0", "\u0661", "\u0661.5", "0x10", "1 0", "", "+", ".", "1e", "1.2.3", "\u0131nf"])
    def test_arrival_takes_ascii_decimal_only(self, bad):
        # float() alone reads 1_0 as 10.0 and an Arabic-Indic one as 1.0
        text = f"job_id,arrival_time,length_mi\n0,0,7\n1,{bad},5\n"
        with pytest.raises(CsvFormatError, match=f"^line 3: non-numeric field arrival_time: {re.escape(repr(bad))}$"):
            read_jobs_csv(io.StringIO(text))

    @pytest.mark.parametrize("arrival", [1e-05, 5e-324, 1.7976931348623157e308, 0.1, 10.0, 0.0, 123456789.5])
    def test_every_written_arrival_reads_back(self, arrival):
        jobs = [Job(0, arrival, 5), Job(1, 0.0, 7)]
        sink = io.StringIO()
        write_jobs_csv(jobs, sink)
        assert read_jobs_csv(io.StringIO(sink.getvalue())) == jobs

    @pytest.mark.parametrize("text,value", [(" 2.5 ", 2.5), ("+3", 3.0), ("5.", 5.0), (".5", 0.5), ("1E2", 100.0)])
    def test_arrival_keeps_sign_padding_and_exponent(self, text, value):
        csv_text = f"job_id,arrival_time,length_mi\n0,{text},7\n"
        assert read_jobs_csv(io.StringIO(csv_text)) == [Job(0, value, 7)]

    @pytest.mark.parametrize("column", ["job_id", "length_mi"])
    @pytest.mark.parametrize("bad", ["1_0", "1__0", "\u0661\u0660", "0x10", "1 0", "", "+"])
    def test_integer_fields_take_plain_digits_only(self, column, bad):
        # int() alone reads 1_0 as 10 and Arabic-Indic digits as 10
        row = f"{bad},0.0,5" if column == "job_id" else f"1,0.0,{bad}"
        text = f"job_id,arrival_time,length_mi\n10,0,7\n{row}\n"
        with pytest.raises(CsvFormatError, match=f"^line 3: non-integer field {column}: "):
            read_jobs_csv(io.StringIO(text))

    def test_integer_fields_keep_sign_padding_and_leading_zeros(self):
        text = "job_id,arrival_time,length_mi\n +3 ,0.0, 0007\n"
        assert read_jobs_csv(io.StringIO(text)) == [Job(3, 0.0, 7)]

    @pytest.mark.parametrize("column,name", [("job_id", "job id"), ("length_mi", "job length")])
    @pytest.mark.parametrize("digits", [20, 5000])
    def test_overlong_integers_fail_naming_the_field(self, column, name, digits):
        # 5000 digits is past int()'s default digit limit, which raises ValueError
        big = "9" * digits
        row = f"{big},0.0,5" if column == "job_id" else f"1,0.0,{big}"
        text = f"job_id,arrival_time,length_mi\n0,0,7\n{row}\n"
        with pytest.raises(CsvFormatError, match=f"^line 3: {name} must fit a 64-bit integer$"):
            read_jobs_csv(io.StringIO(text))

    @pytest.mark.parametrize("bad", ["2.5", "1e3", "true"])
    def test_non_integral_length(self, bad):
        text = f"job_id,arrival_time,length_mi\n0,0,10\n1,0,{bad}\n"
        with pytest.raises(CsvFormatError, match="line 3"):
            read_jobs_csv(io.StringIO(text))

    def test_nonpositive_length(self):
        text = "job_id,arrival_time,length_mi\n0,0,0\n"
        with pytest.raises(CsvFormatError, match="line 2"):
            read_jobs_csv(io.StringIO(text))

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_arrival(self, bad):
        text = f"job_id,arrival_time,length_mi\n0,0,10\n1,{bad},10\n"
        with pytest.raises(CsvFormatError, match="line 3: arrival_time must be finite"):
            read_jobs_csv(io.StringIO(text))

    def test_wrong_field_count(self):
        text = "job_id,arrival_time,length_mi\n0,0\n"
        with pytest.raises(CsvFormatError, match="line 2.*fields"):
            read_jobs_csv(io.StringIO(text))
