"""The two kinds of benchmark run: end to end (untraced) and traced per layer.

Both build the workload's inputs from the seed, run one reference sweep
with ``no_timing=True`` (which also warms caches), hash its results and
summary CSVs, and check its rows with ``check.check_sweep``. Then:

* end to end: repeat the sweep until the run's seconds are spent, with
  ``no_timing=False`` so that the harness's own ``wall_ms`` column gives
  each cell's wall time without any wrapper; every repeat must reproduce
  the reference rows apart from ``wall_ms``. Set-up time comes from
  several fresh-interpreter probes (``setup_probe.py``). Every repeat and
  probe is preceded by the host-speed calibration kernel
  (``calibrate.py``), and each timing is reported over all repeats at the
  reference host's speed: raw seconds times ``REFERENCE_S`` over the mean
  calibration time. Raw figures stay in the record.
* traced: alternate untraced and traced sweeps until the seconds are spent,
  then two sweeps with ``workers=2``, then the microbenchmarks. Every one of
  these sweeps must write CSVs byte-identical to the reference.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import micro
from check import check_sweep, completion_ratio_vs_fcfs
from lcasched import run_sweep
from lcasched.bench import summary_path_for
from tracing import Tracer, layer_metrics, self_times
from workloads import build_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 12
MIN_SWEEPS = 3
PARALLEL_WORKERS = 2

END_TO_END_UNITS = {
    "sweep_s": "s",
    "lca_evals_per_s": "1/s",
    "baseline_cells_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lca_completion_vs_fcfs": "ratio",
}
LAYER_UNITS = {
    "lca.loop_overhead_us_per_eval": "us",
    "lca.swot_update_us": "us",
    "lca.play_week_us": "us",
    "lca.evaluations": "count",
    "lca.weeks": "count",
    "lca.improving_draft_ratio": "ratio",
    "problem.decode_us": "us",
    "problem.objective_us": "us",
    "evaluator.replay_batch_us": "us",
    "evaluator.replay_staggered_us": "us",
    "evaluator.simulator_init_ms": "ms",
    "evaluator.simulators_per_cell": "count",
    "baselines.fcfs_ms": "ms",
    "baselines.ljf_ms": "ms",
    "workload.generate_ms": "ms",
    "workload.read_jobs_csv_ms": "ms",
    "workload.read_jobs_csv_calls": "count",
    "bench.cell_build_ms": "ms",
    "bench.cell_schedule_ms": "ms",
    "bench.cell_score_ms": "ms",
    "bench.write_csv_ms": "ms",
    "bench.summarize_ms": "ms",
    "bench.parallel_speedup": "ratio",
    "bench.tracing_overhead_frac": "ratio",
}
for _n, _staggered in micro.SHAPES:
    for _name, _unit in micro.UNITS.items():
        LAYER_UNITS[f"micro.{micro.shape_name(_n, _staggered)}.{_name}"] = _unit

# Layer metrics a workload may never call; they fall back to the microbenchmark
# of the same function at the workload's size and arrival mode.
MICRO_FALLBACK = {
    "lca.swot_update_us": "swot_update_us",
    "lca.play_week_us": "play_week_us",
    "problem.decode_us": "decode_us",
    "problem.objective_us": "objective_us",
    "baselines.fcfs_ms": "fcfs_ms",
    "baselines.ljf_ms": "ljf_ms",
    "workload.generate_ms": "generate_ms",
    "workload.read_jobs_csv_ms": "read_jobs_csv_ms",
}


class Outcome:
    """What a run found: cells attempted and failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, cells: int, message: str) -> None:
        self.failed += cells
        self.problems.append(message)

    def add_check(self, failures: dict) -> None:
        for key, messages in sorted(failures.items()):
            self.fail(1, f"{'/'.join(map(str, key))}: {'; '.join(messages)}")


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown"


def csv_digests(out) -> dict[str, str]:
    return {
        "results_csv_sha256": hashlib.sha256(Path(out).read_bytes()).hexdigest(),
        "summary_csv_sha256": hashlib.sha256(summary_path_for(out).read_bytes()).hexdigest(),
    }


def timed_sweep(config):
    start = perf_counter()
    rows, summary = run_sweep(config)
    return rows, summary, perf_counter() - start


def _reference(workload, seed, work: Path, outcome: Outcome):
    config = build_config(workload, seed, work)
    rows, summary, _ = timed_sweep(config)
    outcome.attempted += len(rows)
    outcome.add_check(check_sweep(config, rows, summary))
    return config, rows, csv_digests(config.out)


def _probe_setup(workload, seed, work_dir: Path) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed), str(work_dir)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def end_to_end(workload, seed: int, seconds: float, work: Path, outcome: Outcome) -> dict:
    setup_s, setup_calibration = [], []
    for i in range(SETUP_PROBES):
        setup_calibration.append(calibrate.measure())
        setup_s.append(_probe_setup(workload, seed, work / f"probe{i}"))
    config, rows, digests = _reference(workload, seed, work, outcome)
    timed = replace(config, no_timing=False, out=str(work / "timed.csv"))
    samples = {name: [] for name in ("calibration_s", "sweep_s", "lca_evaluations", "lca_cell_s",
                                     "baseline_cells", "baseline_cell_s")}
    deadline = perf_counter() + seconds
    while len(samples["sweep_s"]) < MIN_SWEEPS or perf_counter() < deadline:
        samples["calibration_s"].append(calibrate.measure())
        again, _, elapsed = timed_sweep(timed)
        outcome.attempted += len(again)
        untimed = [replace(row, wall_ms=0.0) for row in again]
        differing = sum(a != b for a, b in zip(untimed, rows)) + abs(len(again) - len(rows))
        if differing:
            outcome.fail(differing, f"{differing} rows of a repeated sweep differ from the reference sweep")
        lca = [row for row in again if row.algorithm == "lca"]
        baseline = [row for row in again if row.algorithm != "lca"]
        samples["sweep_s"].append(elapsed)
        samples["lca_evaluations"].append(sum(r.evaluations for r in lca))
        samples["lca_cell_s"].append(sum(r.wall_ms for r in lca) / 1e3)
        samples["baseline_cells"].append(len(baseline))
        samples["baseline_cell_s"].append(sum(r.wall_ms for r in baseline) / 1e3)
    samples["setup_s"], samples["setup_calibration_s"] = setup_s, setup_calibration
    raw = {
        "sweep_s": statistics.fmean(samples["sweep_s"]),
        "lca_evals_per_s": sum(samples["lca_evaluations"]) / sum(samples["lca_cell_s"]),
        "baseline_cells_per_s": sum(samples["baseline_cells"]) / sum(samples["baseline_cell_s"]),
        "setup_s": statistics.fmean(setup_s),
    }
    # How much slower than the reference host this one ran while measuring.
    host = statistics.fmean(samples["calibration_s"]) / calibrate.REFERENCE_S
    setup_host = statistics.fmean(setup_calibration) / calibrate.REFERENCE_S
    metrics = {
        "sweep_s": raw["sweep_s"] / host,
        "lca_evals_per_s": raw["lca_evals_per_s"] * host,
        "baseline_cells_per_s": raw["baseline_cells_per_s"] * host,
        "setup_s": raw["setup_s"] / setup_host,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lca_completion_vs_fcfs": completion_ratio_vs_fcfs(rows),
    }
    return {"metrics": metrics, "raw": raw, "host_factor": host, "samples": samples, "digests": digests}


def traced(workload, seed: int, seconds: float, work: Path, outcome: Outcome) -> dict:
    config, _, digests = _reference(workload, seed, work, outcome)

    def sweep_checked(out_dir: str, **changes) -> float:
        variant = replace(config, out=str(work / out_dir / "results.csv"), **changes)
        Path(variant.out).parent.mkdir(exist_ok=True)
        rows, _, elapsed = timed_sweep(variant)
        outcome.attempted += len(rows)
        if csv_digests(variant.out) != digests:
            outcome.fail(len(rows), f"{out_dir} sweep CSVs are not byte-identical to the reference sweep")
        return elapsed

    tracer = Tracer()
    untraced_s, traced_s = [], []
    last_sweep_first_span = 0
    deadline = perf_counter() + seconds
    while len(traced_s) < MIN_SWEEPS or perf_counter() < deadline:
        untraced_s.append(sweep_checked("untraced"))
        last_sweep_first_span = len(tracer.spans)
        with tracer.installed():
            traced_s.append(sweep_checked("traced"))
        if not tracer.restored():
            outcome.fail(0, "a traced function was not restored after the traced sweep")
    parallel_s = [sweep_checked("parallel", workers=PARALLEL_WORKERS) for _ in range(2)]

    layers = layer_metrics(tracer.spans, len(traced_s))
    layers["bench.parallel_speedup"] = min(untraced_s) / min(parallel_s)
    # Adjacent pairs share the host's speed of the moment, so their ratio cancels most of it.
    layers["bench.tracing_overhead_frac"] = statistics.median(t / u for t, u in zip(traced_s, untraced_s)) - 1.0
    grid = {shape: micro.measure(*shape, seed, work) for shape in micro.SHAPES}
    for shape, figures in grid.items():
        for name, value in figures.items():
            layers[f"micro.{micro.shape_name(*shape)}.{name}"] = value

    def at_workload_size(staggered: bool) -> dict[str, float]:
        shape = (workload.num_jobs, staggered)
        if shape not in grid:
            grid[shape] = micro.measure(*shape, seed, work)
        return grid[shape]

    mode, other = ("staggered", "batch") if workload.staggered else ("batch", "staggered")
    layers[f"evaluator.replay_{mode}_us"] = layers.pop("evaluator.replay_us")
    layers[f"evaluator.replay_{other}_us"] = at_workload_size(not workload.staggered)["replay_us"]
    never_called = [name for name in MICRO_FALLBACK if layers[name] is None]
    for name in never_called:
        layers[name] = at_workload_size(workload.staggered)[MICRO_FALLBACK[name]]

    spans_file = work / "spans.jsonl.gz"
    tracer.write(spans_file, first=last_sweep_first_span)
    return {
        "metrics": layers,
        "samples": {"untraced_sweep_s": untraced_s, "traced_sweep_s": traced_s, "parallel_sweep_s": parallel_s},
        "digests": digests,
        "self_times_per_sweep": {
            name: {key: value / len(traced_s) for key, value in entry.items()}
            for name, entry in self_times(tracer.spans).items()
        },
        "microbenchmarks_at_workload_size": never_called + [f"evaluator.replay_{other}_us"],
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
