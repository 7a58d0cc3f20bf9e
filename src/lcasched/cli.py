"""Command-line front end.

Subcommands: ``generate`` writes a jobs CSV trace, ``run`` scores a
single (algorithm, VM count, seed) cell, ``sweep`` runs the full benchmark
grid, and ``oracle`` brute-forces a tiny instance: the one that ``run``
scores with the same flags and seed. Exit codes: 0 on success, 2 for an
invalid configuration, 3 for an I/O failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import (
    ALGORITHMS,
    DEFAULT_VM_COUNTS,
    ExperimentConfig,
    _cell_inputs,
    _refuse_directories,
    run_cell,
    run_sweep,
    summary_path_for,
    write_results_csv,
)
from .baselines import LJF_MODES
from .lca import LcaParams, _check_integer
from .problem import MetricWeights, brute_force_optimal
from .workload import DEFAULT_LEN_MAX, DEFAULT_LEN_MIN, DEFAULT_SPEED_CHOICES, WorkloadSpec, generate_workload, write_jobs_csv


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _comma_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _weights(text: str) -> MetricWeights:
    parts = _comma_floats(text)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three weights: w_makespan,w_completion,w_response")
    try:
        return MetricWeights(makespan=parts[0], completion=parts[1], response=parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _algorithms(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(","))


def _add_workload_options(parser):
    group = parser.add_argument_group("workload")
    group.add_argument("--num-jobs", type=int, default=500, help="generated workload size")
    group.add_argument("--len-min", type=int, default=DEFAULT_LEN_MIN, help="minimum job length (MI)")
    group.add_argument("--len-max", type=int, default=DEFAULT_LEN_MAX, help="maximum job length (MI)")
    group.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        help="Poisson arrival rate in jobs/second (default: all jobs arrive at t=0)",
    )


def _add_fleet_options(parser):
    group = parser.add_argument_group("fleet")
    group.add_argument(
        "--vm-speeds",
        type=_comma_floats,
        default=DEFAULT_SPEED_CHOICES,
        help="comma-separated MIPS choices, cycled over VM ids",
    )


def _add_lca_options(parser):
    group = parser.add_argument_group("optimizer")
    group.add_argument("--league-size", type=int, default=LcaParams.league_size)
    group.add_argument("--seasons", type=int, default=LcaParams.seasons)
    group.add_argument("--pc", type=float, default=LcaParams.change_prob, help="change probability")
    group.add_argument("--psi1", type=float, default=LcaParams.retreat_coeff, help="retreat coefficient")
    group.add_argument("--psi2", type=float, default=LcaParams.approach_coeff, help="approach coefficient")
    group.add_argument("--max-evals", type=int, default=None, help="objective evaluation budget")


def _add_weights_option(parser):
    parser.add_argument(
        "--weights",
        type=_weights,
        default=MetricWeights(),
        help="objective weights as w_makespan,w_completion,w_response (default 0,1,0)",
    )


def _add_scoring_options(parser):
    _add_weights_option(parser)
    parser.add_argument("--ljf-mode", choices=LJF_MODES, default="longest")


def _lca_params(args) -> LcaParams:
    return LcaParams(
        league_size=args.league_size,
        seasons=args.seasons,
        change_prob=args.pc,
        retreat_coeff=args.psi1,
        approach_coeff=args.psi2,
        max_evaluations=args.max_evals,
    )


def _experiment_config(args, **overrides) -> ExperimentConfig:
    return ExperimentConfig(
        jobs_file=args.jobs_file,
        num_jobs=args.num_jobs,
        len_min=args.len_min,
        len_max=args.len_max,
        arrival_rate=args.arrival_rate,
        vm_speeds=args.vm_speeds,
        weights=args.weights,
        **overrides,
    )


def _cmd_generate(args) -> int:
    spec = WorkloadSpec(
        job_count=args.num_jobs, len_min=args.len_min, len_max=args.len_max, arrival_rate=args.arrival_rate, seed=args.seed
    )
    jobs = generate_workload(spec)
    write_jobs_csv(jobs, args.jobs_out)
    print(f"wrote {len(jobs)} jobs to {args.jobs_out}")
    return 0


def _check_num_vms(args) -> None:
    """Checked here, as the config or the fleet spec would name its own field (vm_counts, vm_count)."""
    _check_integer("--num-vms", args.num_vms, 1)


def _cmd_run(args) -> int:
    _check_num_vms(args)
    config = _experiment_config(
        args, vm_counts=(args.num_vms,), lca=_lca_params(args), ljf_mode=args.ljf_mode, no_timing=args.no_timing
    )
    if args.out:
        _refuse_directories(args.out)
    row = run_cell(config, args.algorithm, args.num_vms, args.seed)
    if args.out:
        write_results_csv([row], args.out)
        print(f"wrote 1 row to {args.out}")
    else:
        write_results_csv([row], sys.stdout)
    return 0


def _cmd_sweep(args) -> int:
    config = _experiment_config(
        args,
        vm_counts=args.vm_counts,
        algorithms=args.algorithms,
        lca=_lca_params(args),
        ljf_mode=args.ljf_mode,
        reps=args.reps,
        base_seed=args.seed,
        out=args.out,
        no_timing=args.no_timing,
        workers=args.workers,
    )
    rows, summary = run_sweep(config)
    print(f"wrote {len(rows)} rows to {config.out}")
    print(f"wrote {len(summary)} summary rows to {summary_path_for(config.out)}")
    return 0


def _cmd_oracle(args) -> int:
    _check_num_vms(args)
    jobs, vms, _ = _cell_inputs(_experiment_config(args, vm_counts=(args.num_vms,)), args.num_vms, args.seed)
    assignment, metrics = brute_force_optimal(jobs, vms, args.weights)
    print("assignment:", ",".join(str(v) for v in assignment))
    print("makespan:", repr(metrics.makespan))
    print("avg_completion:", repr(metrics.avg_completion))
    print("avg_response:", repr(metrics.avg_response))
    print("objective_value:", repr(args.weights.score(metrics)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcasched",
        description="League-championship job scheduling benchmark for a simulated IaaS cloud",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="write a jobs CSV trace")
    _add_workload_options(generate)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--jobs-out", required=True, help="path for the jobs CSV")
    generate.set_defaults(func=_cmd_generate)

    run = commands.add_parser("run", help="run one (algorithm, vm count, seed) cell")
    _add_workload_options(run)
    _add_fleet_options(run)
    _add_lca_options(run)
    _add_scoring_options(run)
    run.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    run.add_argument("--num-vms", type=int, required=True)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--no-timing", action="store_true", help="report wall_ms as 0")
    run.add_argument("--out", help="write the row to this CSV instead of stdout")
    run.set_defaults(func=_cmd_run)

    sweep = commands.add_parser("sweep", help="run the full benchmark grid")
    _add_workload_options(sweep)
    _add_fleet_options(sweep)
    _add_lca_options(sweep)
    _add_scoring_options(sweep)
    sweep.add_argument("--vm-counts", type=_comma_ints, default=DEFAULT_VM_COUNTS)
    sweep.add_argument("--algorithms", type=_algorithms, default=ALGORITHMS)
    sweep.add_argument("--reps", type=int, default=10, help="repetitions per cell")
    sweep.add_argument("--seed", type=int, default=1, help="base seed; reps use seed..seed+reps-1")
    sweep.add_argument("--out", default="results.csv")
    sweep.add_argument("--no-timing", action="store_true", help="zero the wall_ms column")
    sweep.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    sweep.set_defaults(func=_cmd_sweep)

    oracle = commands.add_parser("oracle", help="brute-force a tiny instance")
    _add_workload_options(oracle)
    _add_fleet_options(oracle)
    oracle.set_defaults(num_jobs=6)
    oracle.add_argument("--num-vms", type=int, required=True)
    oracle.add_argument("--seed", type=int, default=1)
    _add_weights_option(oracle)
    oracle.set_defaults(func=_cmd_oracle)
    for command in (run, sweep, oracle):  # generate writes a trace and reads none
        command.add_argument("--jobs-file", help="read jobs from this CSV instead of generating them")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # every stage refuses a non-finite value itself
            return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
