#!/usr/bin/env python3
"""Summarize saved benchmark runs: per workload and metric, median, quartiles and spread.

    python3 perfbench/spread.py                      # table of every trace-0 run saved
    python3 perfbench/spread.py --write-baseline     # also write perfbench/baseline.json

Reads the runs of BENCHMARK.json's run_seconds that run.py saved under
.perfbench-out/results/. The spread is
(Q3 - Q1) / median over the saved seeds, with quartiles as
``statistics.quantiles(values, n=4)`` gives them, and is flagged when it
exceeds a third of the metric's bound in BENCHMARK.json. The baseline
records, per workload, those figures, each seed's values, raw timings,
host factor and CSV digests, and the per-layer metrics of any saved
traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench-out" / "results"


def load_runs(trace: int, seconds: float) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(RESULTS.glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["seconds"] == seconds:
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = load_runs(0, spec["run_seconds"])
    if not runs:
        print(f"no saved runs under {RESULTS}", file=sys.stderr)
        return 1
    steady = True
    baseline = {"workloads": {}}
    for workload, records in runs.items():
        entry = baseline["workloads"].setdefault(workload, {"seeds": [r["seed"] for r in records]})
        print(f"{workload}: {len(records)} seeds")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in records]
            stats = spread(values)
            flag = "" if stats["spread"] <= bound / 3 else "  <-- above bound/3"
            steady &= not flag or name == "setup_s"
            print(f"  {name:24s} median {stats['median']:.6g}  IQR/median {stats['spread']:.4f}"
                  f"  (bound {bound}){flag}")
            entry.setdefault("end_to_end", {})[name] = {
                "unit": records[0]["metrics"][name]["unit"], **stats, "values": values}
        entry["host_factor"] = [r["host_factor"] for r in records]
        entry["raw"] = {name: [r["raw"][name] for r in records] for name in records[0]["raw"]}
        entry["csv_sha256"] = {str(r["seed"]): r["digests"] for r in records}
        entry["failed"] = sum(len(r["problems"]) for r in records)
    for workload, records in load_runs(1, spec["run_seconds"]).items():
        first = records[0]
        baseline["workloads"].setdefault(workload, {})["per_layer"] = {
            "seed": first["seed"], "metrics": first["metrics"]}
    if args.write_baseline:
        baseline["env"] = next(iter(runs.values()))[0]["env"]
        path = Path(__file__).resolve().parent / "baseline.json"
        path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
