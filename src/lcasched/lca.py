"""League Championship Algorithm for box-constrained continuous minimization.

A league of candidate solutions ("team formations") plays a fixed single
round-robin fixture list week after week. Match winners are drawn with odds
proportional to each side's distance from the best value seen so far, and
every team then rebuilds part of its formation around its personal best,
approaching teams that just won and retreating from teams that just lost.

All randomness flows through a single numpy PCG64 generator seeded from
``LcaParams.seed``, so a run repeats bit for bit for the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Objective",
    "BoxDomain",
    "LcaParams",
    "Team",
    "LeagueSchedule",
    "OptimizeResult",
    "generate_league_schedule",
    "win_probability",
    "play_week",
    "truncated_geometric",
    "change_count",
    "swot_formation",
    "swot_update",
    "optimize",
]

Objective = Callable[[np.ndarray], float]
"""Cost function over formation vectors; must be deterministic, lower is better."""


@dataclass(frozen=True, eq=False)
class BoxDomain:
    """Axis-aligned box of feasible formations."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size == 0:
            raise ValueError("bounds must be 1-d arrays of equal, nonzero length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("bounds must be finite")
        if not (lower < upper).all():
            raise ValueError("each lower bound must be strictly below its upper bound")

    @classmethod
    def cube(cls, dimension: int, lower: float, upper: float) -> "BoxDomain":
        """Box with the same bounds in every dimension."""
        if dimension < 1:
            raise ValueError("dimension must be positive")
        return cls(np.full(dimension, float(lower)), np.full(dimension, float(upper)))

    @property
    def dimension(self) -> int:
        return self.lower.size

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


@dataclass(frozen=True)
class LcaParams:
    """Control parameters for one optimizer run.

    ``league_size`` teams play ``seasons`` passes of the round-robin
    schedule. ``change_prob`` steers how many formation slots are rebuilt
    per week (geometric, truncated to the dimension). ``retreat_coeff``
    scales moves away from losers, ``approach_coeff`` moves toward winners.
    ``max_evaluations`` caps objective calls; the run stops early once it
    is spent.
    """

    league_size: int = 20
    seasons: int = 50
    change_prob: float = 0.3
    retreat_coeff: float = 1.0
    approach_coeff: float = 1.0
    seed: int = 0
    max_evaluations: int | None = None

    def __post_init__(self):
        if self.league_size < 4 or self.league_size % 2:
            raise ValueError("league_size must be an even integer >= 4")
        if self.seasons < 1:
            raise ValueError("seasons must be a positive integer")
        if not 0.0 < self.change_prob < 1.0:
            raise ValueError("change_prob must lie strictly between 0 and 1")
        for name in ("retreat_coeff", "approach_coeff"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {getattr(self, name)!r}")
        if self.retreat_coeff == 0.0 and self.approach_coeff == 0.0:
            raise ValueError("retreat_coeff and approach_coeff must not both be zero")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ValueError("max_evaluations must be positive when set")


@dataclass(eq=False)
class Team:
    """One league member: its current formation and the best it ever held."""

    formation: np.ndarray
    fitness: float
    best_formation: np.ndarray
    best_fitness: float


@dataclass(frozen=True, eq=False)
class LeagueSchedule:
    """Single round robin: num_teams - 1 weeks of num_teams / 2 pairings."""

    num_teams: int
    weeks: tuple[tuple[tuple[int, int], ...], ...]

    def opponents(self) -> np.ndarray:
        """Table of shape (weeks, teams); entry [w, i] is i's opponent in week w."""
        table = np.empty((len(self.weeks), self.num_teams), dtype=np.int64)
        for w, matches in enumerate(self.weeks):
            for a, b in matches:
                table[w, a] = b
                table[w, b] = a
        return table


def generate_league_schedule(num_teams: int) -> LeagueSchedule:
    """Round-robin fixtures via the circle method.

    Team ``num_teams - 1`` stays put while the others rotate one slot per
    week, so every unordered pair meets exactly once across the
    ``num_teams - 1`` weeks. Fully deterministic.
    """
    if num_teams < 2 or num_teams % 2:
        raise ValueError("num_teams must be an even integer >= 2")
    pivot = num_teams - 1
    ring = list(range(num_teams - 1))
    weeks = []
    for _ in range(num_teams - 1):
        matches = [(min(ring[0], pivot), max(ring[0], pivot))]
        for i in range(1, num_teams // 2):
            a, b = ring[i], ring[num_teams - 1 - i]
            matches.append((min(a, b), max(a, b)))
        weeks.append(tuple(matches))
        ring = [ring[-1]] + ring[:-1]
    return LeagueSchedule(num_teams, tuple(weeks))


def win_probability(fitness_a: float, fitness_b: float, ideal: float) -> float:
    """Chance that the side scoring ``fitness_a`` beats the one scoring ``fitness_b``.

    Odds are linear in each side's gap to ``ideal``: a side sitting exactly
    at the ideal value always wins, equal sides are even money, and the two
    orderings of the same match sum to one. Both fitnesses must be at or
    above ``ideal``.
    """
    gap_a = fitness_a - ideal
    gap_b = fitness_b - ideal
    if gap_a < 0.0 or gap_b < 0.0:
        raise ValueError("ideal must not exceed either fitness")
    denominator = gap_a + gap_b
    if denominator == 0.0:
        return 0.5
    return gap_b / denominator


def play_week(
    matches: Sequence[tuple[int, int]],
    fitnesses: np.ndarray,
    ideal: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one winner per match; the first listed team wins iff u < its odds.

    Returns a boolean array: entry i is True when team i won. Every team
    must appear in exactly one match. One uniform draw is consumed per
    match, in fixture order.
    """
    fitnesses = np.asarray(fitnesses, dtype=float)
    num_teams = fitnesses.size
    played = np.zeros(num_teams, dtype=bool)
    won = np.zeros(num_teams, dtype=bool)
    for a, b in matches:
        if a == b:
            raise ValueError("a team cannot play itself")
        if played[a] or played[b]:
            raise ValueError("a team appears in more than one match this week")
        played[a] = played[b] = True
        a_wins = rng.random() < win_probability(fitnesses[a], fitnesses[b], ideal)
        won[a] = a_wins
        won[b] = not a_wins
    if not played.all():
        raise ValueError("every team must play exactly once per week")
    return won


def truncated_geometric(r, dimension: int, change_prob: float):
    """Inverse-transform of a geometric law truncated to [1, dimension].

    Maps quantiles ``r`` in [0, 1) to counts; vectorized over ``r``. The
    count is nondecreasing in ``r``, hits 1 as ``r`` approaches 0 and
    ``dimension`` as ``r`` approaches 1.
    """
    if dimension < 1:
        raise ValueError("dimension must be positive")
    if not 0.0 < change_prob < 1.0:
        raise ValueError("change_prob must lie strictly between 0 and 1")
    log_keep = math.log1p(-change_prob)
    # total mass of the untruncated law on 1..dimension: 1 - (1 - p)^dimension
    if isinstance(r, (float, int)):
        r = float(r)
        if not 0.0 <= r < 1.0:
            raise ValueError("quantile must lie in [0, 1)")
        total = -math.expm1(dimension * log_keep)
        count = math.ceil(math.log1p(-r * total) / log_keep)
        return min(dimension, max(1, count))
    r = np.asarray(r, dtype=float)
    if np.any(~np.isfinite(r)) or np.any((r < 0.0) | (r >= 1.0)):
        raise ValueError("quantile must lie in [0, 1)")
    total = -np.expm1(dimension * log_keep)
    counts = np.ceil(np.log1p(-r * total) / log_keep)
    counts = np.clip(counts, 1, dimension).astype(np.int64)
    return counts if counts.ndim else int(counts)


def change_count(rng: np.random.Generator, dimension: int, change_prob: float) -> int:
    """Number of formation slots to rebuild this week; always in [1, dimension]."""
    return int(truncated_geometric(rng.random(), dimension, change_prob))


_PERMUTATION_DRAW_LIMIT = 512


def _change_indices(rng: np.random.Generator, dimension: int, count: int) -> np.ndarray:
    # rng.choice without replacement costs O(count) plus about 10 us of fixed
    # overhead; a full permutation costs O(dimension), and the two cross
    # between 450 and 512 slots (numpy 2.4: 4 us vs 12 at 9 slots, 22 vs 11
    # at 1024, 108 vs 12 at 5000). Both draw uniformly without replacement.
    if dimension < _PERMUTATION_DRAW_LIMIT:
        return rng.permutation(dimension)[:count]
    return rng.choice(dimension, count, replace=False)


def swot_formation(
    best: np.ndarray,
    current: np.ndarray,
    opponent_formation: np.ndarray,
    rival_opponent_formation: np.ndarray,
    won: bool,
    rival_opponent_won: bool,
    retreat_coeff: float,
    approach_coeff: float,
    gain_rival: np.ndarray,
    gain_opponent: np.ndarray,
) -> np.ndarray:
    """Deterministic core of the weekly rebuild, anchored at ``best``.

    The arguments hold the changed slots only. Two pulls act on them: one
    relative to the team that just played our next rival (approach it if it
    won, retreat if it lost) and one relative to this week's opponent
    (retreat from it if we beat it, approach it if it beat us). The four
    win/loss combinations cover the strength/weakness versus
    opportunity/threat cases.
    """
    if rival_opponent_won:
        rival_pull = approach_coeff * (rival_opponent_formation - current)
    else:
        rival_pull = retreat_coeff * (current - rival_opponent_formation)
    if won:
        opponent_pull = retreat_coeff * (current - opponent_formation)
    else:
        opponent_pull = approach_coeff * (opponent_formation - current)
    return best + (gain_rival * rival_pull + gain_opponent * opponent_pull)


def swot_update(
    team: Team,
    opponent_formation: np.ndarray,
    rival_opponent_formation: np.ndarray,
    won: bool,
    rival_opponent_won: bool,
    params: LcaParams,
    domain: BoxDomain,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the changed slots and their gains, then build the next formation.

    Draw order: one quantile for the change count, then the changed slots,
    then a (2, count) gain block whose columns pair with the slots in draw
    order. The slots are ``rng.choice(dimension, count, replace=False)``,
    which costs O(count), or ``rng.permutation(dimension)[:count]`` below
    512 slots, where that is cheaper. Changed slots are rebuilt by
    ``swot_formation`` and clamped into the domain; unchanged slots carry
    the team's best formation exactly.
    """
    n = domain.dimension
    for vec in (team.formation, team.best_formation, opponent_formation, rival_opponent_formation):
        if np.asarray(vec).shape != (n,):
            raise ValueError("formation length does not match the domain dimension")
    count = change_count(rng, n, params.change_prob)
    changed = _change_indices(rng, n, count)
    gains = rng.random((2, count))
    rebuilt = swot_formation(
        team.best_formation[changed],
        team.formation[changed],
        opponent_formation[changed],
        rival_opponent_formation[changed],
        won,
        rival_opponent_won,
        params.retreat_coeff,
        params.approach_coeff,
        gains[0],
        gains[1],
    )
    new = team.best_formation.copy()
    new[changed] = np.clip(rebuilt, domain.lower[changed], domain.upper[changed])
    return new


@dataclass(frozen=True, eq=False)
class OptimizeResult:
    """Best formation found, its fitness, the weekly best-so-far log, and
    the number of objective evaluations spent."""

    best_formation: np.ndarray
    best_fitness: float
    history: list[float]
    evaluations: int


def optimize(objective: Objective, domain: BoxDomain, params: LcaParams) -> OptimizeResult:
    """Minimize ``objective`` over ``domain`` with a league championship run.

    The league is scattered uniformly over the box and one fixture list is
    generated up front and reused every season. Each week the fixtures are
    played with current fitnesses, then every team drafts a replacement
    formation around its personal best, steered by its own result and by
    how its next opponent's match went. The draft always becomes the team's
    formation for the following week; personal bests and the league-wide
    ideal value only ever improve.

    ``history`` starts with the post-initialization ideal value and gains
    one entry per played week; it is nonincreasing and ends at the returned
    best fitness. Stops after seasons * (league_size - 1) weeks or when
    ``max_evaluations`` is spent, whichever comes first; a budget spent
    mid-week commits the drafts already scored.

    If the objective's class defines ``delta_scorer(x)``, each team keeps
    the scorer it returns, anchored at the team's personal best: its
    ``fitness`` is the objective at ``x``, ``draft(candidate, changed)``
    scores a candidate whose components differ from the anchor only at the
    indices ``changed`` (from ``np.flatnonzero(candidate != best)``), and
    ``commit()`` moves the anchor to the last draft, which happens whenever
    a draft becomes the team's best. The scorer must return exactly what
    the objective would, so the run is the same either way. Every fitness,
    from either path, must be finite: a NaN or infinite value raises
    ``ValueError`` naming the evaluation.
    """
    league = params.league_size
    n = domain.dimension
    budget = params.max_evaluations
    if budget is not None and budget < league:
        raise ValueError("max_evaluations must allow one evaluation per team")

    rng = np.random.default_rng(params.seed)
    formations = rng.uniform(domain.lower, domain.upper, size=(league, n))
    delta_scorer = getattr(type(objective), "delta_scorer", None)
    scorers = [delta_scorer(objective, x) for x in formations] if delta_scorer else None
    evaluations = 0

    def checked(value) -> float:
        nonlocal evaluations
        evaluations += 1
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"objective returned {value} at evaluation {evaluations}")
        return value

    teams = []
    for i in range(league):
        x = formations[i]
        f = checked(scorers[i].fitness if scorers else objective(x))
        teams.append(Team(formation=x, fitness=f, best_formation=x.copy(), best_fitness=f))
    best_index = min(range(league), key=lambda i: teams[i].fitness)
    ideal_fitness = teams[best_index].fitness
    best_formation = teams[best_index].formation.copy()
    history = [ideal_fitness]

    schedule = generate_league_schedule(league)
    opponents = schedule.opponents()
    weeks_per_season = league - 1
    total_weeks = params.seasons * weeks_per_season

    for week in range(total_weeks):
        if budget is not None and evaluations >= budget:
            break
        this_week = week % weeks_per_season
        next_week = (week + 1) % weeks_per_season
        fitnesses = np.array([t.fitness for t in teams])
        won = play_week(schedule.weeks[this_week], fitnesses, ideal_fitness, rng)
        # Drafts are built against this week's formations and committed together.
        snapshot = [t.formation for t in teams]
        drafts: list[tuple[np.ndarray, float]] = []
        for i, team in enumerate(teams):
            if budget is not None and evaluations >= budget:
                break
            rival = int(opponents[next_week, i])
            rival_opponent = int(opponents[this_week, rival])
            candidate = swot_update(
                team,
                snapshot[int(opponents[this_week, i])],
                snapshot[rival_opponent],
                bool(won[i]),
                bool(won[rival_opponent]),
                params,
                domain,
                rng,
            )
            if scorers:
                changed = np.flatnonzero(candidate != team.best_formation)
                f = checked(scorers[i].draft(candidate, changed))
            else:
                f = checked(objective(candidate))
            drafts.append((candidate, f))
            if f < team.best_fitness:
                team.best_formation = candidate.copy()
                team.best_fitness = f
                if scorers:
                    scorers[i].commit()
            if f < ideal_fitness:
                ideal_fitness = f
                best_formation = candidate.copy()
        for team, (x, f) in zip(teams, drafts):
            team.formation = x
            team.fitness = f
        history.append(ideal_fitness)

    return OptimizeResult(
        best_formation=best_formation,
        best_fitness=ideal_fitness,
        history=history,
        evaluations=evaluations,
    )
