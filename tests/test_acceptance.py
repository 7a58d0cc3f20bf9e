"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The paper-scale sweep (AC-2) is long and stays off unless
``RUN_PAPER_SCALE=1`` is set.
"""

import os
from itertools import combinations

import numpy as np
import pytest

from lcasched import (
    ExperimentConfig,
    Job,
    LcaParams,
    MetricWeights,
    ScheduleSimulator,
    Vm,
    assignment_domain,
    brute_force_optimal,
    fcfs_schedule,
    generate_league_schedule,
    ljf_schedule,
    make_objective,
    optimize,
    play_week,
    run_sweep,
    swot_update,
    win_probability,
)
from lcasched.bench import summary_path_for
from lcasched.lca import BoxDomain, Team, _count_quantile

from conftest import floyd_sample, random_instance

VM_SWEEP = (10, 30, 50, 70, 90, 110, 130)

# Tuned sweep optimizer: a small league over many weeks spends the
# evaluation budget on refinement, which pays off in high dimensions.
SWEEP_LCA = LcaParams(league_size=4, seasons=1667, change_prob=0.3, max_evaluations=20_000)
PAPER_LCA = LcaParams(league_size=4, seasons=8334, change_prob=0.3, max_evaluations=100_000)


def _verdict(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name} failed: {detail}"


def _ordering_counts(summary, vm_counts):
    means = {(e.algorithm, e.num_vms): e.mean_avg_completion for e in summary}
    lca_beats_fcfs = 0
    ljf_is_max = 0
    for m in vm_counts:
        lca, fcfs, ljf = means[("lca", m)], means[("fcfs", m)], means[("ljf", m)]
        lca_beats_fcfs += lca < fcfs
        ljf_is_max += ljf >= max(lca, fcfs)
        print(
            f"  vms={m:4d}  lca={lca:10.3f}  fcfs={fcfs:10.3f}  ljf={ljf:10.3f}  "
            f"lca<fcfs={lca < fcfs}  ljf_max={ljf >= max(lca, fcfs)}"
        )
    return lca_beats_fcfs, ljf_is_max


def test_ac1_figure_ordering_desk_scale(tmp_path):
    config = ExperimentConfig(
        num_jobs=500,
        vm_counts=VM_SWEEP,
        algorithms=("lca", "fcfs", "ljf"),
        reps=10,
        base_seed=1,
        lca=SWEEP_LCA,
        weights=MetricWeights(),
        out=str(tmp_path / "ac1_results.csv"),
        no_timing=True,
    )
    rows, summary = run_sweep(config)
    assert len(rows) == 3 * len(VM_SWEEP) * 10
    lca_ok, ljf_ok = _ordering_counts(summary, VM_SWEEP)
    _verdict(
        "AC-1",
        lca_ok >= 6 and ljf_ok >= 6,
        f"mean avg_completion: lca<fcfs at {lca_ok}/7 vm counts, ljf max at {ljf_ok}/7",
    )


@pytest.mark.paper_scale
@pytest.mark.skipif(
    os.environ.get("RUN_PAPER_SCALE") != "1",
    reason="paper-scale sweep (1-2 min); set RUN_PAPER_SCALE=1 to enable",
)
def test_ac2_figure_ordering_paper_scale(tmp_path):
    config = ExperimentConfig(
        num_jobs=5000,
        vm_counts=VM_SWEEP,
        algorithms=("lca", "fcfs", "ljf"),
        reps=3,
        base_seed=1,
        lca=PAPER_LCA,
        weights=MetricWeights(),
        out=str(tmp_path / "ac2_results.csv"),
        no_timing=True,
    )
    rows, summary = run_sweep(config)
    assert len(rows) == 3 * len(VM_SWEEP) * 3
    lca_ok, ljf_ok = _ordering_counts(summary, VM_SWEEP)
    _verdict(
        "AC-2",
        lca_ok >= 6 and ljf_ok >= 6,
        f"mean avg_completion: lca<fcfs at {lca_ok}/7 vm counts, ljf max at {ljf_ok}/7",
    )


def test_ac3_oracle_gap():
    rng = np.random.default_rng(2027)
    weights = MetricWeights()
    speed_choices = np.array([500.0, 1000.0, 1500.0, 2000.0, 2500.0])
    within = 0
    worst_ratio = 1.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 4))
        jobs = [
            Job(id=j, arrival_time=0.0, length=int(rng.integers(1000, 20_001))) for j in range(n)
        ]
        vms = [Vm(id=v, speed=float(rng.choice(speed_choices))) for v in range(m)]
        _, optimal_metrics = brute_force_optimal(jobs, vms, weights)
        optimal = weights.score(optimal_metrics)
        for heuristic in (fcfs_schedule, ljf_schedule):
            _, metrics = ScheduleSimulator(jobs, vms).run(heuristic(jobs, vms))
            assert weights.score(metrics) >= optimal - 1e-9 * optimal
        budget = 10 * m**n
        league = 10
        params = LcaParams(
            league_size=league,
            seasons=budget // (league * (league - 1)) + 1,
            change_prob=0.3,
            seed=int(rng.integers(2**63)),
            max_evaluations=budget,
        )
        result = optimize(make_objective(jobs, vms, weights), assignment_domain(n, m), params)
        ratio = result.best_fitness / optimal
        worst_ratio = max(worst_ratio, ratio)
        within += ratio <= 1.05
    _verdict(
        "AC-3",
        within >= 95,
        f"lca within 5% of brute force on {within}/100 instances "
        f"(worst ratio {worst_ratio:.4f}); baselines never beat the oracle",
    )


def test_ac4_invariant_suites():
    # round-robin schedule properties for every even league size up to 32
    for num_teams in range(2, 34, 2):
        schedule = generate_league_schedule(num_teams)
        seen = set()
        for week in schedule.weeks:
            assert sorted(t for match in week for t in match) == list(range(num_teams))
            seen.update(week)
        assert seen == set(combinations(range(num_teams), 2))

    # win probability: normalization and translation invariance at 1e-12
    rng = np.random.default_rng(404)
    for _ in range(20_000):
        ideal = float(rng.uniform(-100.0, 100.0))
        gap_a = float(rng.choice([0.0, rng.uniform(0.5, 100.0)]))
        gap_b = float(rng.choice([0.0, rng.uniform(0.5, 100.0)]))
        shift = float(rng.uniform(-100.0, 100.0))
        p = win_probability(ideal + gap_a, ideal + gap_b, ideal)
        q = win_probability(ideal + gap_b, ideal + gap_a, ideal)
        assert abs(p + q - 1.0) < 1e-12
        shifted = win_probability(ideal + gap_a + shift, ideal + gap_b + shift, ideal + shift)
        assert abs(p - shifted) < 1e-12

    # change count: range over a million fuzzed draws, monotone in the quantile
    quantiles = np.sort(rng.random(1_000_000))
    for dimension, change_prob in [(1, 0.3), (7, 0.05), (40, 0.5), (500, 0.95)]:
        counts = np.array(list(map(_count_quantile(dimension, change_prob), quantiles.tolist())))
        assert counts.min() >= 1 and counts.max() <= dimension
        assert np.all(np.diff(counts) >= 0)

    # swot update: bit-exact carryover off the mask, clamped on it
    domain = BoxDomain.cube(10, -1.0, 1.0)
    params = LcaParams(league_size=4, seasons=1, change_prob=0.35, retreat_coeff=2.5, approach_coeff=1.5, seed=0)
    for trial in range(10_000):
        vectors = rng.uniform(-1.0, 1.0, size=(4, 10))
        team = Team(vectors[0], 1.0, vectors[1], 0.5)
        draw_rng = np.random.default_rng(trial)
        mirror = np.random.default_rng(trial)
        count = _count_quantile(10, params.change_prob)(mirror.random())
        mask = np.zeros(10, dtype=bool)
        mask[floyd_sample(mirror, 10, count)] = True
        new = swot_update(
            team, vectors[2], vectors[3], bool(trial & 1), bool(trial & 2), params, domain, draw_rng
        )
        assert np.array_equal(new[~mask], team.best_formation[~mask])
        assert np.all((domain.lower <= new) & (new <= domain.upper))

    # evaluator: busy-time conservation and non-overlap on fuzzed instances
    for _ in range(10_000):
        jobs, vms = random_instance(rng, max_jobs=6, max_vms=3, staggered=bool(rng.integers(2)))
        assignment = rng.integers(0, len(vms), size=len(jobs))
        timeline, _ = ScheduleSimulator(jobs, vms).run(assignment)
        for vm_index in range(len(vms)):
            members = [p for p in range(len(jobs)) if assignment[p] == vm_index]
            if not members:
                continue
            busy = sum(timeline.finish_times[p] - timeline.start_times[p] for p in members)
            expected = sum(jobs[p].length / vms[vm_index].speed for p in members)
            assert busy == pytest.approx(expected, rel=1e-9)
            windows = sorted((timeline.start_times[p], timeline.finish_times[p]) for p in members)
            for (_, finish), (start, _) in zip(windows, windows[1:]):
                assert start >= finish - 1e-9 * max(1.0, finish)

    _verdict(
        "AC-4",
        True,
        "schedule round-robin (L=2..32), win-probability normalization/translation (1e-12), "
        "change-count range/monotonicity (1e6 draws), swot exactness/clamping, "
        "evaluator conservation/non-overlap (1e4 instances)",
    )


def test_ac5_monotone_convergence():
    def rastrigin_like(x):
        return float(np.sum(x * x - 3.0 * np.cos(2.0 * x) + 3.0))

    checked = 0
    for seed in (0, 1, 2, 3, 4):
        for objective in (rastrigin_like, lambda x: float(np.sum(np.abs(x - 1.5)))):
            result = optimize(
                objective,
                BoxDomain.cube(6, -4.0, 4.0),
                LcaParams(league_size=6, seasons=20, seed=seed),
            )
            history = np.array(result.history)
            assert np.all(np.diff(history) <= 0.0)
            assert history[-1] == result.best_fitness
            checked += 1
    _verdict("AC-5", True, f"nonincreasing history ending at best fitness in {checked}/10 runs")


def test_ac6_sweep_determinism(tmp_path):
    def run(name, workers):
        out = tmp_path / name
        config = ExperimentConfig(
            num_jobs=40,
            vm_counts=(2, 4),
            algorithms=("lca", "fcfs", "ljf"),
            reps=2,
            base_seed=11,
            lca=LcaParams(league_size=4, seasons=17, change_prob=0.4, max_evaluations=200),
            out=str(out),
            no_timing=True,
            workers=workers,
        )
        run_sweep(config)
        return out.read_bytes(), summary_path_for(out).read_bytes()

    first = run("serial_a.csv", workers=1)
    second = run("serial_b.csv", workers=1)
    concurrent = run("parallel.csv", workers=2)
    _verdict(
        "AC-6",
        first == second == concurrent,
        "results and summary CSVs byte-identical across two serial runs and a 2-worker run",
    )


def test_ac7_match_play_monte_carlo():
    trials = 100_000
    cases = [
        (np.array([3.0, 3.0]), 1.0, 0.5),
        (np.array([2.0, 4.0]), 0.0, 2.0 / 3.0),
        (np.array([1.0, 4.0]), 1.0, 1.0),
    ]
    details = []
    for index, (fitnesses, ideal, expected) in enumerate(cases):
        rng = np.random.default_rng(9000 + index)
        assert win_probability(fitnesses[0], fitnesses[1], ideal) == pytest.approx(expected, abs=1e-15)
        wins = sum(play_week([(0, 1)], fitnesses, ideal, rng)[0] for _ in range(trials))
        frequency = wins / trials
        assert abs(frequency - expected) < 0.01
        details.append(f"p={expected:.4f} freq={frequency:.4f}")
    _verdict("AC-7", True, "; ".join(details))
