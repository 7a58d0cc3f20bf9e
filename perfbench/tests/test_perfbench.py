"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import lcasched  # noqa: E402
import lcasched.bench  # noqa: E402
import lcasched.lca  # noqa: E402
from check import check_sweep  # noqa: E402
from harness import END_TO_END_UNITS, LAYER_UNITS  # noqa: E402
from lcasched import ExperimentConfig, LcaParams, ScheduleSimulator, run_sweep  # noqa: E402
from tracing import FUNCTIONS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_config(tmp_path, **changes):
    config = ExperimentConfig(
        num_jobs=30,
        vm_counts=(2, 5),
        reps=2,
        lca=LcaParams(league_size=4, seasons=10, max_evaluations=40),
        out=str(tmp_path / "results.csv"),
        no_timing=True,
    )
    return replace(config, **changes)


def run_bench(*args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def copy_benchmark(directory, with_sources):
    """BENCHMARK.json and perfbench/ (plus src/ if asked) in ``directory``, so runs never touch
    the records saved under this checkout."""
    skip = shutil.ignore_patterns("__pycache__", ".perfbench-out")
    shutil.copy(ROOT / "BENCHMARK.json", directory)
    shutil.copytree(BENCH, directory / "perfbench", ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", directory / "src", ignore=skip)
    return directory


def test_declared_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, declared, tmp_path):
    checkout = copy_benchmark(tmp_path, with_sources=True)
    done = run_bench("--workload", "desk_batch", "--seed", "3", "--seconds", "1", "--trace", str(trace), cwd=checkout)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: e["unit"] for n, e in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[declared]}
    for name in result["metrics"]:
        assert any(line.startswith(f"perfbench desk_batch {name} ") for line in lines)
    assert any("failed_cells_frac 0 ratio" in line for line in lines)
    assert any(line.startswith("perfbench env: git_sha=") for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    bare = copy_benchmark(tmp_path, with_sources=False)
    done = run_bench("--workload", "desk_batch", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_checker_accepts_a_true_sweep_and_flags_a_perturbed_row(tmp_path):
    config = tiny_config(tmp_path)
    rows, summary = run_sweep(config)
    assert check_sweep(config, rows, summary) == {}

    target = next(i for i, r in enumerate(rows) if r.algorithm == "ljf")
    bad = list(rows)
    bad[target] = replace(rows[target], avg_completion=rows[target].avg_completion * (1 + 1e-6))
    failures = check_sweep(config, bad, summary)
    cell = (rows[target].algorithm, rows[target].num_vms, rows[target].seed)
    assert cell in failures
    assert any("avg_completion" in message for message in failures[cell])


def test_checker_rescoring_the_lca_row_catches_a_perturbation(tmp_path):
    config = tiny_config(tmp_path, arrival_rate=2.0, ljf_mode="last-arrival")
    rows, summary = run_sweep(config)
    assert check_sweep(config, rows, summary) == {}
    first_lca = next(i for i, r in enumerate(rows) if r.algorithm == "lca")
    bad = list(rows)
    bad[first_lca] = replace(rows[first_lca], avg_completion=rows[first_lca].avg_completion + 1.0)
    assert (rows[first_lca].algorithm, rows[first_lca].num_vms, rows[first_lca].seed) in check_sweep(
        config, bad, summary
    )


def test_tracing_restores_originals_and_never_changes_a_byte(tmp_path):
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in FUNCTIONS}
    methods = dict(vars(ScheduleSimulator))
    plain = tiny_config(tmp_path / "plain")
    (tmp_path / "plain").mkdir()
    run_sweep(plain)

    tracer = Tracer()
    traced = tiny_config(tmp_path / "traced")
    (tmp_path / "traced").mkdir()
    with tracer.installed():
        assert lcasched.bench.optimize is not originals[("lcasched.lca", "optimize")]
        assert lcasched.lca.swot_update is not originals[("lcasched.lca", "swot_update")]
        rows, _ = run_sweep(traced)

    assert tracer.restored()
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[module], attr) is fn
    assert lcasched.optimize is lcasched.lca.optimize is lcasched.bench.optimize
    assert vars(ScheduleSimulator)["metrics"] is methods["metrics"]
    assert vars(ScheduleSimulator)["__init__"] is methods["__init__"]
    for name in ("results.csv", "results_summary.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()

    cells = {span[4] for span in tracer.spans if span[0] == "bench.cell"}
    assert len(cells) == len(rows)
    layers = layer_metrics(tracer.spans, sweeps=1)
    assert layers["lca.evaluations"] == sum(r.evaluations for r in rows if r.algorithm == "lca")
    assert layers["evaluator.simulators_per_cell"] == pytest.approx(4 / 3)


def test_tracing_restores_originals_when_the_block_raises():
    original = lcasched.bench.run_cell
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert tracer.restored()
    assert lcasched.bench.run_cell is original
