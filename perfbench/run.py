#!/usr/bin/env python3
"""lcasched benchmark: sweep workloads end to end, or traced layer by layer.

Run from the root of a source checkout (the package is imported from src/):

    python3 perfbench/run.py --workload desk_batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. Human-readable lines (environment stamp, CSV digests, every metric
with its unit) come first; the last line of standard output is one JSON
object with keys correct, attempted, failed and metrics. The full record,
raw samples included, goes to .perfbench-out/results/, and the traced
run's spans to .perfbench-out/work/. The exit code is 0 when every output
checked out, 1 when one did not, 2 when there is no source tree to
benchmark.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("desk_batch", "paper_batch", "trace_staggered")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    """Each workload in its own process, so that peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode not in (0, 1) or not lines:
            print(f"perfbench: {name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lcasched" / "__init__.py").is_file():
        print(f"perfbench: no lcasched sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / tag
    work.mkdir(parents=True, exist_ok=True)
    env = harness.environment()
    print("perfbench env: " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)

    outcome = harness.Outcome()
    if args.trace:
        record = harness.traced(workload, args.seed, args.seconds, work, outcome)
        units = harness.LAYER_UNITS
    else:
        record = harness.end_to_end(workload, args.seed, args.seconds, work, outcome)
        units = harness.END_TO_END_UNITS
    metrics = {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()}
    failed_frac = outcome.failed / outcome.attempted

    for key, digest in record["digests"].items():
        print(f"perfbench {args.workload} seed={args.seed} {key}={digest}")
    for problem in outcome.problems:
        print(f"perfbench {args.workload} CHECK FAILED: {problem}")
    if "raw" in record:
        print(f"perfbench {args.workload} host_factor {record['host_factor']:.4f}"
              f" over {len(record['samples']['sweep_s'])} sweeps (calibration time / reference)")
    for name, entry in metrics.items():
        raw = record.get("raw", {}).get(name)
        note = f" (raw {raw:.6g})" if raw is not None else ""
        print(f"perfbench {args.workload} {name} {entry['value']:.6g} {entry['unit']}{note}")
    print(f"perfbench {args.workload} failed_cells_frac {failed_frac:.6g} ratio"
          f" ({outcome.failed} of {outcome.attempted} cells)")

    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
            "env": env, **record, "metrics": metrics, "failed_cells_frac": failed_frac,
            "problems": outcome.problems}
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
