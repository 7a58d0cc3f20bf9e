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
    fitnesses = np.asarray(fitnesses, dtype=float).tolist()
    won: list[bool | None] = [None] * len(fitnesses)  # None until the team has played
    for a, b in matches:
        if a == b:
            raise ValueError("a team cannot play itself")
        if won[a] is not None or won[b] is not None:
            raise ValueError("a team appears in more than one match this week")
        a_wins = rng.random() < win_probability(fitnesses[a], fitnesses[b], ideal)
        won[a] = a_wins
        won[b] = not a_wins
    if None in won:
        raise ValueError("every team must play exactly once per week")
    return np.array(won, dtype=bool)


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


def _change_indices(rng: np.random.Generator, dimension: int, count: int) -> list[int]:
    # Uniform subsets without replacement. Below 128 slots a permutation
    # prefix, which keeps the stream of small problems; from 128 up Floyd's
    # sampling (Bentley & Floyd, CACM 30(9), 1987): for j from dimension -
    # count to dimension - 1, take t = floor(u * (j + 1)), or j if t is already
    # chosen (u < 1 keeps t <= j in floats too). For 3 slots (numpy 2.4, 2-core
    # x86): permutation 6 us at 128 slots, 13 at 500 and 94 at 5000; Floyd
    # 3-4 us at any size; rng.choice, which it replaced from 512 up, 11 us.
    if dimension < 128:
        return rng.permutation(dimension)[:count].tolist()
    chosen: dict[int, None] = {}  # insertion-ordered set
    for j, u in zip(range(dimension - count, dimension), rng.random(count).tolist()):
        t = int(u * (j + 1))
        chosen[j if t in chosen else t] = None
    return list(chosen)


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

    The arguments hold the changed slots only, or one slot's floats. Two
    pulls act on them: one relative to the team that just played our next
    rival (approach it if it won, retreat if it lost) and one relative to
    this week's opponent (retreat from it if we beat it, approach it if it
    beat us). The four win/loss combinations cover the strength/weakness
    versus opportunity/threat cases.
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


def _draft(rng, params: LcaParams, dimension: int, won: bool, rival_opponent_won: bool, gather):
    """Draw the change count, the slots and their gains, in that order, and
    rebuild the slots, clamped as ``np.clip`` would: ``(slots, keys)``.
    ``gather(slots)`` yields one tuple per slot: the team's best and current
    keys there, its opponent's, its rival's opponent's, and the bounds."""
    count = change_count(rng, dimension, params.change_prob)
    slots = _change_indices(rng, dimension, count)
    gain_rival, gain_opponent = rng.random((2, count)).tolist()
    retreat, approach = params.retreat_coeff, params.approach_coeff
    keys = []
    for (best, current, opponent, rival_opponent, lo, hi), g_rival, g_opponent in zip(
        gather(slots), gain_rival, gain_opponent
    ):
        x = swot_formation(
            best, current, opponent, rival_opponent, won, rival_opponent_won, retreat, approach, g_rival, g_opponent
        )
        keys.append(lo if x < lo else hi if x > hi else x)
    return slots, keys


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
    order. Below 128 slots the slots are ``rng.permutation(dimension)[:count]``;
    from 128 up Floyd's sampling picks them from one ``rng.random(count)``
    draw in O(count). Changed slots are rebuilt by ``swot_formation`` and
    clamped into the domain; unchanged slots carry the team's best
    formation exactly. ``optimize`` drafts through the same draw.
    """
    vectors = (team.best_formation, team.formation, opponent_formation, rival_opponent_formation)
    if any(np.shape(vec) != (domain.dimension,) for vec in vectors):
        raise ValueError("formation length does not match the domain dimension")
    vectors += (domain.lower, domain.upper)
    slots, keys = _draft(
        rng, params, domain.dimension, won, rival_opponent_won,
        lambda slots: zip(*(np.asarray(vec, dtype=float)[slots].tolist() for vec in vectors)),
    )
    new = team.best_formation.copy()
    new[slots] = keys
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

    A draft rebuilds a few drawn slots (see ``swot_update``), so the league
    is sparse: dense personal bests, plus each team's last draft as slot
    overrides when it did not become the team's best. Drafts read this
    week's state at their slots; bests and overrides change at week end.

    If the objective's class defines ``delta_scorer(x)``, each team keeps
    the scorer it returns, anchored at the team's personal best: its
    ``fitness`` is the objective at ``x``, ``draft(slots, keys)`` scores the
    anchor with ``keys[i]`` at slot ``slots[i]`` (the drawn slots in draw
    order, never repeated; a key may equal the anchor's), and ``commit()``
    moves the anchor to the last draft, which happens whenever a draft
    becomes the team's best. The scorer must return exactly what the
    objective would, so the run is the same either way. Every fitness,
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

    fitness = [checked(scorers[i].fitness if scorers else objective(x)) for i, x in enumerate(formations)]
    best_fitness = fitness.copy()
    ideal_fitness = min(fitness)
    best_formation = formations[fitness.index(ideal_fitness)].copy()
    history = [ideal_fitness]
    bests = formations.copy()
    best_rows = [memoryview(row) for row in bests]  # scalar reads as Python floats
    overrides: list[dict[int, float]] = [{} for _ in range(league)]
    lower, upper = domain.lower.tolist(), domain.upper.tolist()

    def full(team: int, slots: list[int], keys: list[float]) -> np.ndarray:
        x = bests[team].copy()
        x[slots] = keys
        return x

    schedule = generate_league_schedule(league)
    opponents = schedule.opponents().tolist()
    weeks_per_season = league - 1

    for week in range(params.seasons * weeks_per_season):
        if budget is not None and evaluations >= budget:
            break
        this_week = opponents[week % weeks_per_season]
        next_week = opponents[(week + 1) % weeks_per_season]
        won = play_week(schedule.weeks[week % weeks_per_season], fitness, ideal_fitness, rng).tolist()
        drafts = []  # bests and overrides change at week end, once every draft has read them
        for i in range(league):
            if budget is not None and evaluations >= budget:
                break
            opponent, rival_opponent = this_week[i], this_week[next_week[i]]
            best, own = best_rows[i], overrides[i]
            row_o, over_o = best_rows[opponent], overrides[opponent]
            row_r, over_r = best_rows[rival_opponent], overrides[rival_opponent]
            slots, keys = _draft(rng, params, n, won[i], won[rival_opponent], lambda slots: (
                (best[s], own.get(s, best[s]), over_o.get(s, row_o[s]), over_r.get(s, row_r[s]), lower[s], upper[s])
                for s in slots
            ))
            candidate = None if scorers else full(i, slots, keys)
            f = checked(scorers[i].draft(slots, keys) if scorers else objective(candidate))
            if improved := f < best_fitness[i]:
                best_fitness[i] = f
                if scorers:
                    scorers[i].commit()
            if f < ideal_fitness:
                ideal_fitness = f
                best_formation = full(i, slots, keys) if candidate is None else candidate
            drafts.append((i, slots, keys, f, improved))
        for i, slots, keys, f, improved in drafts:
            fitness[i] = f
            overrides[i] = {} if improved else dict(zip(slots, keys))
            if improved:
                bests[i, slots] = keys
        history.append(ideal_fitness)

    return OptimizeResult(best_formation, ideal_fitness, history, evaluations)
