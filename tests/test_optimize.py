import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcasched import (
    BoxDomain,
    FleetSpec,
    Job,
    LcaParams,
    MetricWeights,
    ScheduleSimulator,
    Team,
    Vm,
    WorkloadSpec,
    assignment_domain,
    decode_random_key,
    generate_fleet,
    generate_league_schedule,
    generate_workload,
    make_objective,
    optimize,
    play_week,
    swot_update,
)

# Frozen from a reference run of the fixed-seed configuration below; any
# change to the draw sequence shows up here first.
SPHERE_PINNED_BEST = 1.886253566726134e-15


def sphere(x):
    return float(np.sum((x - 3.0) ** 2))


class CountingObjective:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def test_constant_objective():
    result = optimize(
        lambda x: 7.0,
        BoxDomain.cube(3, 0.0, 1.0),
        LcaParams(league_size=4, seasons=3, seed=5),
    )
    assert result.best_fitness == 7.0
    assert all(value == 7.0 for value in result.history)


def test_sphere_regression_and_random_search_dominance():
    domain = BoxDomain.cube(5, 0.0, 10.0)
    params = LcaParams(league_size=10, seasons=40, change_prob=0.3, seed=42)
    objective = CountingObjective(sphere)
    result = optimize(objective, domain, params)
    assert result.best_fitness < 0.5
    assert result.best_fitness == pytest.approx(SPHERE_PINNED_BEST, rel=1e-9)
    assert sphere(result.best_formation) == result.best_fitness
    # independent yardstick: uniform random search with the same budget
    rng = np.random.default_rng(12345)
    points = rng.uniform(0.0, 10.0, size=(objective.calls, 5))
    random_best = min(sphere(p) for p in points)
    assert result.best_fitness < random_best


@pytest.mark.parametrize("seed", [0, 1, 99])
def test_history_is_nonincreasing_and_ends_at_best(seed):
    result = optimize(
        sphere,
        BoxDomain.cube(4, -5.0, 5.0),
        LcaParams(league_size=6, seasons=10, seed=seed),
    )
    history = np.array(result.history)
    assert np.all(np.diff(history) <= 0)
    assert history[-1] == result.best_fitness


def test_bit_identical_reruns():
    domain = BoxDomain.cube(3, -1.0, 4.0)
    params = LcaParams(league_size=4, seasons=8, seed=77)
    first = optimize(sphere, domain, params)
    second = optimize(sphere, domain, params)
    assert np.array_equal(first.best_formation, second.best_formation)
    assert first.best_fitness == second.best_fitness
    assert first.history == second.history
    assert first.evaluations == second.evaluations


def test_evaluation_accounting_without_budget():
    objective = CountingObjective(sphere)
    params = LcaParams(league_size=4, seasons=5, seed=3)
    result = optimize(objective, BoxDomain.cube(2, 0.0, 1.0), params)
    full = params.league_size + params.seasons * (params.league_size - 1) * params.league_size
    assert objective.calls == result.evaluations == full
    assert len(result.history) == 1 + params.seasons * (params.league_size - 1)


@pytest.mark.parametrize("budget", [4, 5, 11, 30, 64])
def test_budget_is_respected_exactly_or_at_init(budget):
    objective = CountingObjective(sphere)
    params = LcaParams(league_size=4, seasons=100, seed=9, max_evaluations=budget)
    result = optimize(objective, BoxDomain.cube(2, 0.0, 1.0), params)
    assert objective.calls == result.evaluations <= budget
    # budget binds before the season limit here, and mid-week stops are exact
    assert result.evaluations == budget
    assert result.history[-1] == result.best_fitness


def test_budget_spent_mid_week_commits_the_drafts_already_scored():
    # under seed 4 an initial team keeps the lead; under seed 9 the last draft scored takes it
    for seed in (4, 9):
        values = []

        def spy(x):
            values.append(sphere(x))
            return values[-1]

        params = LcaParams(league_size=4, seasons=3, seed=seed, max_evaluations=6)
        result = optimize(spy, BoxDomain.cube(2, 0.0, 10.0), params)
        # four initial evaluations, then two of the first week's four drafts
        assert len(values) == result.evaluations == 6
        assert result.history == [min(values[:4]), min(values)]
        assert result.best_fitness == min(values)
        # the formation is the leader's best, written at week end although the week was cut short
        assert sphere(result.best_formation) == result.best_fitness


def test_budget_below_league_size_rejected():
    # rejected when the parameters are built, before any objective call
    with pytest.raises(ValueError, match=r"^max_evaluations must be at least league_size \(4\), got 3$"):
        LcaParams(league_size=4, seasons=1, seed=0, max_evaluations=3)
    LcaParams(league_size=4, seasons=1, seed=0, max_evaluations=4)


def test_formations_stay_inside_domain():
    domain = BoxDomain.cube(3, 2.0, 5.0)
    seen = []

    def spy(x):
        seen.append(x.copy())
        return sphere(x)

    optimize(spy, domain, LcaParams(league_size=4, seasons=6, seed=21))
    stacked = np.vstack(seen)
    assert np.all(stacked >= domain.lower) and np.all(stacked <= domain.upper)


@pytest.mark.parametrize("shape", ["assignment", "non-cube"])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_league_draw_is_rng_uniform_bit_for_bit(shape, seed):
    # the first league_size calls through _CopyDraft score the drawn league,
    # which must be numpy's uniform draw byte for byte on the optimizer's seed
    if shape == "assignment":
        domain = assignment_domain(37, 13)
    else:
        bounds = np.random.default_rng(seed + 100)
        domain = BoxDomain(-bounds.uniform(0.1, 3.0, 37), bounds.uniform(0.2, 9.0, 37))
    calls = []

    def recorded(x):
        calls.append(x.copy())
        return sphere(x)

    params = LcaParams(league_size=8, seasons=1, seed=seed, max_evaluations=8)
    optimize(recorded, domain, params)
    expected = np.random.default_rng(seed).uniform(domain.lower, domain.upper, size=(8, 37))
    assert np.array(calls).tobytes() == expected.tobytes()


def test_best_formation_matches_best_fitness():
    result = optimize(
        sphere,
        BoxDomain.cube(6, 0.0, 6.0),
        LcaParams(league_size=8, seasons=12, seed=13),
    )
    assert sphere(result.best_formation) == result.best_fitness


def assert_same_result(first, second):
    assert np.array_equal(first.best_formation, second.best_formation)
    assert first.best_fitness == second.best_fitness
    assert first.history == second.history
    assert first.evaluations == second.evaluations


@pytest.mark.parametrize(
    "num_jobs, num_vms, weights, seed",
    [
        (40, 1, MetricWeights(), 0),
        (60, 3, MetricWeights(1.0, 1.0, 1.0), 1),
        (120, 270, MetricWeights(0.5, 0.0, 2.0), 2),
        (600, 20, MetricWeights(), 3),  # the size of the refactor gate's batch600 cell
        (500, 130, MetricWeights(makespan=1.0, completion=0.0, response=0.0), 4),
    ],
)
def test_delta_scored_run_equals_plain_run(num_jobs, num_vms, weights, seed):
    jobs = generate_workload(WorkloadSpec(job_count=num_jobs, seed=seed))
    vms = generate_fleet(FleetSpec(vm_count=num_vms, mode="sample", seed=seed))
    objective = make_objective(jobs, vms, weights)
    assert hasattr(type(objective), "delta_scorer")
    domain = assignment_domain(num_jobs, num_vms)
    params = LcaParams(league_size=6, seasons=40, seed=seed, max_evaluations=400)
    delta = optimize(objective, domain, params)
    plain = optimize(lambda x: objective(x), domain, params)
    assert_same_result(delta, plain)
    # a wrapper made with functools.wraps copies no class attribute, so its drafts call it
    wrapped = optimize(functools.wraps(objective)(lambda x: objective(x)), domain, params)
    assert_same_result(delta, wrapped)


@settings(max_examples=25, deadline=None)
@given(
    num_jobs=st.integers(1, 40),
    num_vms=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    wide=st.booleans(),
)
def test_delta_scored_run_equals_plain_run_fuzzed(num_jobs, num_vms, seed, wide):
    rng = np.random.default_rng(seed)
    jobs = [Job(i, 0.0, int(rng.integers(1, 1000))) for i in rng.permutation(num_jobs)]
    vms = [Vm(v, float(rng.choice([0.5, 1.0, 2.0]))) for v in range(num_vms)]
    objective = make_objective(jobs, vms, MetricWeights(1.0, 1.0, 1.0))
    # a wide box drives keys far outside [0, num_vms], where decoding clamps
    domain = BoxDomain.cube(num_jobs, -1e30, 1e30) if wide else assignment_domain(num_jobs, num_vms)
    params = LcaParams(league_size=4, seasons=20, seed=seed, change_prob=0.2)
    assert_same_result(optimize(objective, domain, params), optimize(lambda x: objective(x), domain, params))


class BoxCheckedObjective:
    """A batch objective that asserts every formation it scores lies in ``domain``.

    Full vectors are checked on a call; drafts are checked slot by slot
    against that slot's own bounds, and drafted keys that sit on a bound
    are counted, to show that clamping took place.
    """

    def __init__(self, objective, domain):
        self.objective, self.domain = objective, domain
        self.keys_on_bound = 0

    def __call__(self, x):
        assert np.all((self.domain.lower <= x) & (x <= self.domain.upper))
        return self.objective(x)

    def delta_scorer(self, x):
        assert np.all((self.domain.lower <= x) & (x <= self.domain.upper))
        inner = self.objective.delta_scorer(x)
        outer = self

        class Drafts:
            commit = inner.commit

            @property
            def fitness(self):
                return inner.fitness

            def draft(self, keys):
                slots, values = list(keys), np.array(list(keys.values()))
                lower, upper = outer.domain.lower[slots], outer.domain.upper[slots]
                assert np.all(lower <= values) and np.all(values <= upper)
                outer.keys_on_bound += int(np.sum((values == lower) | (values == upper)))
                return inner.draft(keys)

        return Drafts()


@pytest.mark.parametrize("num_jobs", [50, 300])  # Floyd's sampling meets taken slots more often at 50
def test_per_slot_bounds_hold_and_delta_equals_plain(num_jobs):
    num_vms = 7
    rng = np.random.default_rng(num_jobs)
    # bounds differ per slot: a clamp against another slot's bound leaves the box
    lower = -rng.uniform(0.0, 4.0, num_jobs)
    upper = num_vms * rng.uniform(0.3, 1.5, num_jobs)
    domain = BoxDomain(lower, upper)
    objective = BoxCheckedObjective(
        make_objective(generate_workload(WorkloadSpec(job_count=num_jobs, seed=5)), generate_fleet(FleetSpec(num_vms))),
        domain,
    )
    params = LcaParams(league_size=6, seasons=30, retreat_coeff=3.0, approach_coeff=2.0, seed=1, max_evaluations=500)
    delta = optimize(objective, domain, params)
    assert objective.keys_on_bound > 0
    plain = optimize(lambda x: objective(x), domain, params)
    assert_same_result(delta, plain)
    assert np.all((domain.lower <= delta.best_formation) & (delta.best_formation <= domain.upper))


def test_staggered_delta_run_equals_plain_run():
    # staggered drafts patch the anchor's VM keys and replay; the run must not
    # depend on which path scored it. Cases: tied arrivals, 300 slots, 16-bit
    # VM keys, and a three-metric weight mix.
    tied = [Job(i, float(i // 7), 1 + (i * 37) % 50) for i in range(40)]
    for jobs, num_vms, weights, seed in (
        (tied, 3, MetricWeights(1.0, 1.0, 1.0), 0),
        (generate_workload(WorkloadSpec(job_count=300, arrival_rate=5.0, seed=1)), 20, MetricWeights(), 1),
        (generate_workload(WorkloadSpec(job_count=120, arrival_rate=2.0, seed=2)), 270, MetricWeights(0.5, 0.0, 2.0), 2),
    ):
        vms = generate_fleet(FleetSpec(vm_count=num_vms))
        objective = make_objective(jobs, vms, weights)
        assert hasattr(type(objective), "delta_scorer")
        domain = assignment_domain(len(jobs), num_vms)
        params = LcaParams(league_size=6, seasons=40, seed=seed, max_evaluations=400)
        delta = optimize(objective, domain, params)
        assert_same_result(delta, optimize(lambda x: objective(x), domain, params))
        # and both equal a replay of the decoded vector, the objective's definition
        simulator = ScheduleSimulator(jobs, vms)
        replayed = optimize(lambda x: weights.score(simulator.metrics(decode_random_key(x, num_vms))), domain, params)
        assert_same_result(delta, replayed)


# At 10 slots Floyd's sampling often meets a taken slot; at 2000 slots and
# change_prob 0.0005 a draft's 3 * count doubles can exceed the 1024 that
# optimize draws ahead at a time.
@pytest.mark.parametrize("num_slots, change_prob", [(10, 0.05), (300, 0.05), (2000, 0.0005)], ids=["10", "300", "2000"])
def test_optimize_drafts_with_the_public_operators(num_slots, change_prob):
    # a league run by hand with play_week and swot_update on one generator
    # must call the objective with the same vectors, bit for bit, as optimize
    bounds = np.random.default_rng(num_slots)
    domain = BoxDomain(-bounds.uniform(0.0, 2.0, num_slots), bounds.uniform(1.0, 5.0, num_slots))
    # a low change_prob draws many slots, so drafts often read an override
    params = LcaParams(
        league_size=6, seasons=2, change_prob=change_prob, retreat_coeff=1.5, approach_coeff=0.7, seed=11
    )
    calls = []

    def recorded(x):
        calls.append(x.copy())
        return sphere(x)

    optimize(recorded, domain, params)

    rng = np.random.default_rng(params.seed)
    current = rng.uniform(domain.lower, domain.upper, size=(params.league_size, num_slots))
    fitness = [sphere(x) for x in current]
    best, best_fitness = current.copy(), fitness.copy()
    ideal = min(fitness)
    expected = list(current.copy())
    schedule = generate_league_schedule(params.league_size)
    opponents = schedule.opponents()
    weeks = params.league_size - 1
    for week in range(params.seasons * weeks):
        this_week, next_week = opponents[week % weeks], opponents[(week + 1) % weeks]
        won = play_week(schedule.weeks[week % weeks], fitness, ideal, rng)
        drafts = []  # every team drafts from the state the week started with
        for i in range(params.league_size):
            opponent, rival_opponent = this_week[i], this_week[next_week[i]]
            team = Team(current[i], fitness[i], best[i], best_fitness[i])
            x = swot_update(
                team, current[opponent], current[rival_opponent], won[i], won[rival_opponent], params, domain, rng
            )
            drafts.append((i, x, sphere(x)))
        for i, x, f in drafts:
            expected.append(x)
            current[i], fitness[i] = x, f
            if f < best_fitness[i]:
                best[i], best_fitness[i] = x, f
            ideal = min(ideal, f)

    assert len(calls) == len(expected) == params.league_size * (1 + params.seasons * weeks)
    for call, x in zip(calls, expected):
        assert call.tobytes() == x.tobytes()


class TestCoefficientReach:
    """A pull coeff * (a - b) spans at most coeff times the domain's widest span: past the float
    range two pulls could sum to NaN, so such a run is refused before the league is drawn."""

    def test_overflowing_pull_is_refused_naming_both_coefficients(self):
        objective = CountingObjective(sphere)
        params = LcaParams(league_size=4, seasons=50, seed=1, retreat_coeff=1e308, approach_coeff=1e308)
        with pytest.raises(ValueError, match="^retreat_coeff and approach_coeff times the widest span"):
            optimize(objective, BoxDomain.cube(20, -50.0, 80.0), params)
        assert objective.calls == 0

    def test_large_finite_reach_still_runs(self):
        params = LcaParams(league_size=4, seasons=50, seed=1, retreat_coeff=1e306, approach_coeff=1e306)
        result = optimize(sphere, BoxDomain.cube(20, -50.0, 80.0), params)
        assert np.isfinite(result.best_fitness)


class TestNonFiniteFitness:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_at_first_evaluation(self, bad):
        with pytest.raises(ValueError, match="evaluation 1$"):
            optimize(lambda x: bad, BoxDomain.cube(3, 0.0, 1.0), LcaParams(league_size=4, seasons=2, seed=0))

    def test_nan_at_an_initial_evaluation_stops_the_run_there(self):
        objective = CountingObjective(lambda x: np.nan if objective.calls == 2 else sphere(x))
        with pytest.raises(ValueError, match="nan at evaluation 2$"):
            optimize(objective, BoxDomain.cube(3, 0.0, 1.0), LcaParams(league_size=4, seasons=5, seed=0))
        assert objective.calls == 2

    def test_one_nan_mid_run_names_its_evaluation(self):
        objective = CountingObjective(lambda x: np.nan if objective.calls == 7 else sphere(x))
        with pytest.raises(ValueError, match="nan at evaluation 7$"):
            optimize(objective, BoxDomain.cube(3, 0.0, 1.0), LcaParams(league_size=4, seasons=5, seed=0))
        assert objective.calls == 7

    @pytest.mark.parametrize("bad_draft", [1, 5])
    def test_delta_scores_are_checked_too(self, bad_draft):
        class Drafts:
            def __init__(self, x):
                self.anchor = self.last = x.copy()
                self.fitness = sphere(x)

            def draft(self, keys):
                Objective.drafts += 1
                self.last = self.anchor.copy()
                self.last[list(keys)] = list(keys.values())
                return np.inf if Objective.drafts == bad_draft else sphere(self.last)

            def commit(self):
                self.anchor = self.last

        class Objective:
            drafts = 0

            def __call__(self, x):
                raise AssertionError("the delta path never calls the objective")

            def delta_scorer(self, x):
                return Drafts(x)

        with pytest.raises(ValueError, match=f"inf at evaluation {4 + bad_draft}$"):
            optimize(Objective(), BoxDomain.cube(3, 0.0, 1.0), LcaParams(league_size=4, seasons=5, seed=0))
