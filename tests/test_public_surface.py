"""The package's public surface: ``lcasched.__all__`` is the union of the
modules' ``__all__`` lists, so this pins it, and a name added to or dropped
from a module's list shows up here."""

import lcasched

PUBLIC_NAMES = [
    # lca
    "BoxDomain",
    "LcaParams",
    "LeagueSchedule",
    "Objective",
    "OptimizeResult",
    "Team",
    "generate_league_schedule",
    "optimize",
    "play_week",
    "swot_update",
    "win_probability",
    # problem
    "Job",
    "JobTimeline",
    "MetricWeights",
    "ScheduleMetrics",
    "ScheduleSimulator",
    "Vm",
    "assignment_domain",
    "brute_force_optimal",
    "decode_random_key",
    "make_objective",
    # baselines
    "LJF_MODES",
    "fcfs_schedule",
    "ljf_schedule",
    # workload
    "CsvFormatError",
    "FleetSpec",
    "WorkloadSpec",
    "generate_fleet",
    "generate_workload",
    "read_jobs_csv",
    "write_jobs_csv",
    # bench
    "ALGORITHMS",
    "DEFAULT_VM_COUNTS",
    "ExperimentConfig",
    "ResultRow",
    "SummaryRow",
    "run_cell",
    "run_sweep",
    "summarize",
]

# Names that the README's library example and perfbench/*.py import from
# lcasched; dropping one breaks them.
IMPORTED_ELSEWHERE = {
    "ExperimentConfig",
    "FleetSpec",
    "LcaParams",
    "MetricWeights",
    "ScheduleMetrics",
    "ScheduleSimulator",
    "Team",
    "WorkloadSpec",
    "assignment_domain",
    "decode_random_key",
    "fcfs_schedule",
    "generate_fleet",
    "generate_league_schedule",
    "generate_workload",
    "ljf_schedule",
    "make_objective",
    "optimize",
    "play_week",
    "read_jobs_csv",
    "run_sweep",
    "swot_update",
    "write_jobs_csv",
}


def test_all_holds_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 39
    assert sorted(lcasched.__all__) == sorted(PUBLIC_NAMES)


def test_no_name_repeats():
    assert len(set(lcasched.__all__)) == len(lcasched.__all__)


def test_every_name_resolves_to_its_module_object():
    modules = (lcasched.lca, lcasched.problem, lcasched.baselines, lcasched.workload, lcasched.bench)
    owners = {name: module for module in modules for name in module.__all__}
    assert sorted(owners) == sorted(lcasched.__all__)
    for name, module in owners.items():
        assert getattr(lcasched, name) is getattr(module, name)


def test_names_imported_elsewhere_are_public():
    assert IMPORTED_ELSEWHERE <= set(lcasched.__all__)
