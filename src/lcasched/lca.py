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
import numbers
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
    "swot_update",
    "optimize",
]

Objective = Callable[[np.ndarray], float]
"""Cost function over formation vectors; must be deterministic, lower is better."""


def _check_integer(name: str, value, low: int | None = None) -> None:
    """Raise ``ValueError`` naming the field ``name`` unless ``value`` is an integer (an int or a numpy
    integer; not a bool, nor a float of integral value) and, given ``low``, at least ``low``."""
    if not (type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral))):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _real_float(value) -> float:
    """``value`` as the float it is computed as: NaN unless it is a real (an int, a float or a numpy
    real) and not a bool, inf past the float range."""
    if not (type(value) is float or (not isinstance(value, bool) and isinstance(value, numbers.Real))):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an integer or fraction past the float range
        return math.inf


def _check_real(name: str, value, positive: bool = False) -> float:
    """``value`` as a float; raise ``ValueError`` naming the field ``name`` unless it is a real, not a
    bool, whose float is finite and nonnegative, or positive if ``positive`` (a tiny long double is 0.0)."""
    x = _real_float(value)
    if not ((0.0 < x if positive else 0.0 <= x) and x < math.inf):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {sign} (real, not bool), got {value!r}")
    return x


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
        with np.errstate(over="ignore"):  # optimize draws lower + span * u: an infinite span is refused, unwarned
            if not (np.isfinite(lower).all() and np.isfinite(upper - lower).all()):
                raise ValueError("bounds and their spans must be finite")
        if not (lower < upper).all():
            raise ValueError("each lower bound must be strictly below its upper bound")

    @classmethod
    def cube(cls, dimension: int, lower: float, upper: float) -> "BoxDomain":
        """Box with the same bounds in every dimension."""
        _check_integer("dimension", dimension, 1)
        return cls(np.full(dimension, float(lower)), np.full(dimension, float(upper)))

    @property
    def dimension(self) -> int:
        return self.lower.size


@dataclass(frozen=True)
class LcaParams:
    """Control parameters for one optimizer run.

    ``league_size`` teams play ``seasons`` passes of the round-robin
    schedule. ``change_prob`` steers how many formation slots are rebuilt
    per week (geometric, truncated to the dimension). ``retreat_coeff``
    scales moves away from losers, ``approach_coeff`` moves toward winners.
    ``max_evaluations`` caps objective calls, at least one per team; the
    run stops early once it is spent.
    """

    league_size: int = 20
    seasons: int = 50
    change_prob: float = 0.3
    retreat_coeff: float = 1.0
    approach_coeff: float = 1.0
    seed: int = 0
    max_evaluations: int | None = None

    def __post_init__(self):
        _check_integer("league_size", self.league_size)
        _check_integer("seasons", self.seasons, 1)
        _check_integer("seed", self.seed, 0)
        if self.max_evaluations is not None:
            _check_integer("max_evaluations", self.max_evaluations)
        if self.league_size < 4 or self.league_size % 2:
            raise ValueError("league_size must be an even integer >= 4")
        if not 0.0 < _real_float(self.change_prob) < 1.0:
            raise ValueError(f"change_prob must be a real strictly between 0 and 1, got {self.change_prob!r}")
        _check_real("retreat_coeff", self.retreat_coeff)
        _check_real("approach_coeff", self.approach_coeff)
        if self.retreat_coeff == 0.0 and self.approach_coeff == 0.0:
            raise ValueError("retreat_coeff and approach_coeff must not both be zero")
        if self.seed >= 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if self.max_evaluations is not None and self.max_evaluations < self.league_size:
            raise ValueError(f"max_evaluations must be at least league_size ({self.league_size}), got {self.max_evaluations}")


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
    _check_integer("num_teams", num_teams)
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
    must appear in exactly one match. One uniform draw, ``rng.random()``,
    is consumed per match, in fixture order.
    """
    fitnesses = list(map(float, fitnesses))
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


def _count_quantile(dimension: int, change_prob: float):
    """The change count as a function of one quantile r in [0, 1): the inverse
    CDF of a geometric law truncated to [1, dimension], whose CDF is
    F(k) = (1 - (1 - p)^k) / (1 - (1 - p)^dimension) for p = ``change_prob``.
    It gives the least k with F(k) >= r, so it is nondecreasing in r, 1 at
    r = 0 and ``dimension`` as r approaches 1. Its constants are computed once."""
    log_keep = math.log1p(-change_prob)
    total = -math.expm1(dimension * log_keep)
    return lambda r: min(dimension, max(1, math.ceil(math.log1p(-r * total) / log_keep)))


def _drafter(params: LcaParams, lower, upper):
    """The weekly draft of one run within the bounds ``lower`` and ``upper``:
    ``draft(rng, won, rival_opponent_won, best, row, own, opponent, over_o,
    rival_opponent, over_r)`` draws the change count, the slots and their
    gains, in that order, and rebuilds each slot as ``best`` plus two pulls,
    clamped as ``np.clip`` would: ``{slot: key}`` in draw order. One pull is
    relative to the team that just played our next rival (approach it if it
    won, retreat if it lost), one to this week's opponent (retreat from it if
    we beat it, approach it if it beat us). Each side's formation is its row
    under its overrides (``own`` for the team). After the count's quantile,
    one ``rng.random(3 * count)`` gives Floyd's uniforms and then both gain
    rows, so every draw is a double and ``rng`` may read them from blocks."""
    dimension = len(lower)
    count_of = _count_quantile(dimension, params.change_prob)
    retreat, approach = params.retreat_coeff, params.approach_coeff

    def draft(rng, won: bool, rival_opponent_won: bool, best, row, own, opponent, over_o, rival_opponent, over_r):
        count = count_of(rng.random())
        last = range(dimension - count, dimension)
        # Floyd's sampling (Bentley & Floyd, CACM 30(9), 1987): for j in ``last``,
        # take t = floor(u * (j + 1)), or j if t is already taken (u < 1 keeps
        # t <= j in floats too).
        gains = rng.random(3 * count)
        picks = [int(u * (j + 1)) for j, u in zip(last, gains)]
        gains = gains[count:]
        rival_coeff = approach if rival_opponent_won else retreat
        opponent_coeff = retreat if won else approach
        keys: dict[int, float] = {}  # slot -> key, in draw order
        for j, t, g_rival, g_opponent in zip(last, picks, gains, gains[count:]):
            s = j if t in keys else t
            c, o, r = own.get(s, row[s]), over_o.get(s, opponent[s]), over_r.get(s, rival_opponent[s])
            # keep this order of products and sums: keys equal the vector formula bit for bit
            x = best[s] + (
                g_rival * (rival_coeff * (r - c if rival_opponent_won else c - r))
                + g_opponent * (opponent_coeff * (c - o if won else o - c))
            )
            lo, hi = lower[s], upper[s]
            keys[s] = lo if x < lo else hi if x > hi else x
        return keys

    return draft


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

    Draw order: one quantile for the change count, then one block of
    ``3 * count`` doubles: ``count`` uniforms from which Floyd's sampling
    picks the changed slots in O(count), then two gain rows whose columns
    pair with the slots in draw order. Changed slots are rebuilt by
    ``_drafter``'s two pulls and clamped into the domain; unchanged slots
    carry the team's best formation exactly. ``optimize`` drafts through
    the same draw and reads the same doubles from blocks.
    """
    vectors = (team.best_formation, team.formation, opponent_formation, rival_opponent_formation)
    if any(np.shape(vec) != (domain.dimension,) for vec in vectors):
        raise ValueError("formation length does not match the domain dimension")
    best, current, opponent, rival_opponent = (memoryview(np.asarray(vec, dtype=float)) for vec in vectors)
    draft = _drafter(params, memoryview(domain.lower), memoryview(domain.upper))
    keys = draft(rng, won, rival_opponent_won, best, current, {}, opponent, {}, rival_opponent, {})
    new = team.best_formation.copy()
    new[list(keys)] = list(keys.values())
    return new


class _Doubles:
    """``rng.random`` read from blocks of 1024 doubles or more: numpy draws each
    double from one 64-bit output, and every draw of ``optimize``'s week loop
    is a double, so these are the doubles that direct calls give, in the same
    order."""

    def __init__(self, rng: np.random.Generator):
        self._rng, self._doubles, self._next = rng, [], 0

    def random(self, count: int | None = None):
        """One double, or a list of ``count``."""
        start, stop = self._next, self._next + (1 if count is None else count)
        if stop > len(self._doubles):  # keep what is left and draw at least what is missing
            self._doubles = self._doubles[start:] + self._rng.random(max(1024, stop - len(self._doubles))).tolist()
            start, stop = 0, stop - start
        self._next = stop
        return self._doubles[start] if count is None else self._doubles[start:stop]


@dataclass(frozen=True, eq=False)
class OptimizeResult:
    """Best formation found, its fitness, the weekly best-so-far log, and
    the number of objective evaluations spent."""

    best_formation: np.ndarray
    best_fitness: float
    history: list[float]
    evaluations: int


class _CopyDraft:
    """Draft scorer over a plain objective, anchored at formation ``x`` (protocol
    in ``optimize``): a draft writes its keys into a copy of the anchor and scores
    the copy, and a commit keeps that copy."""

    def __init__(self, objective: Objective, x: np.ndarray):
        self._objective, self._anchor = objective, x
        self.fitness = objective(x)
        self._pending = (x, self.fitness)

    def draft(self, keys: dict[int, float]) -> float:
        copy = self._anchor.copy()
        copy[list(keys)] = list(keys.values())
        self._pending = (copy, self._objective(copy))
        return self._pending[1]

    def commit(self) -> None:
        self._anchor, self.fitness = self._pending


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

    A draft rebuilds a few drawn slots, so the league is sparse: dense
    personal bests, plus each team's last draft as slot overrides when it
    did not become the team's best. Drafts read this week's state at their
    slots; bests and overrides change at week end. The draws are those of
    ``play_week`` and ``swot_update`` on one generator, all doubles, read
    from blocks.

    Each team scores its drafts with a scorer anchored at its personal best:
    ``fitness`` is the objective there, ``draft(keys)`` scores the anchor
    with the drafter's ``{slot: key}`` dict written in (a key may equal the
    anchor's), and ``commit()`` moves the anchor to the last draft when it
    becomes the team's best. The scorer is ``delta_scorer(x)`` if the
    objective's class defines it, which must return exactly what the
    objective would; otherwise a draft calls the objective on a patched
    copy of the anchor. Every fitness must be finite: a NaN or infinite
    value raises ``ValueError`` naming the evaluation.
    """
    league = params.league_size
    n = domain.dimension
    budget = math.inf if params.max_evaluations is None else params.max_evaluations

    reach = max(params.retreat_coeff, params.approach_coeff) * float(np.max(domain.upper - domain.lower))
    if not math.isfinite(reach):  # with it finite no pull coeff * (a - b) is infinite, so no key is NaN
        raise ValueError("retreat_coeff and approach_coeff times the widest span of the domain must be finite")
    rng = np.random.default_rng(params.seed)
    formations = domain.lower + (domain.upper - domain.lower) * rng.random((league, n))  # = rng.uniform, bit for bit
    rng = _Doubles(rng)
    scorer_of = getattr(type(objective), "delta_scorer", _CopyDraft)
    scorers, fitness = [], []
    for evaluations, x in enumerate(formations, 1):
        scorers.append(scorer_of(objective, x))
        fitness.append(float(scorers[-1].fitness))
        if not math.isfinite(fitness[-1]):
            raise ValueError(f"objective returned {fitness[-1]} at evaluation {evaluations}")
    best_fitness = fitness.copy()
    ideal_fitness = min(fitness)
    leader = fitness.index(ideal_fitness)
    history = [ideal_fitness]
    best_rows = [memoryview(row) for row in formations.copy()]  # scalar reads and writes as Python floats
    overrides: list[dict[int, float]] = [{} for _ in range(league)]

    draft = _drafter(params, domain.lower.tolist(), domain.upper.tolist())
    schedule = generate_league_schedule(league)
    opponents = schedule.opponents().tolist()
    weeks_per_season = league - 1

    for week in range(params.seasons * weeks_per_season):
        if evaluations >= budget:
            break
        this_week = opponents[week % weeks_per_season]
        next_week = opponents[(week + 1) % weeks_per_season]
        won = play_week(schedule.weeks[week % weeks_per_season], fitness, ideal_fitness, rng).tolist()
        drafts = []  # bests and overrides change at week end, once every draft has read them
        for i in range(league):
            if evaluations >= budget:
                break
            opponent, rival_opponent = this_week[i], this_week[next_week[i]]
            best = best_rows[i]
            keys = draft(
                rng, won[i], won[rival_opponent], best, best, overrides[i],
                best_rows[opponent], overrides[opponent], best_rows[rival_opponent], overrides[rival_opponent],
            )
            f = float(scorers[i].draft(keys))
            evaluations += 1
            if not math.isfinite(f):
                raise ValueError(f"objective returned {f} at evaluation {evaluations}")
            if improved := f < best_fitness[i]:
                best_fitness[i] = f
                scorers[i].commit()
            if f < ideal_fitness:
                # a new ideal is also team i's new best, written into bests at week end
                ideal_fitness, leader = f, i
            drafts.append((i, keys, f, improved))
        for i, keys, f, improved in drafts:
            fitness[i] = f
            overrides[i] = {} if improved else keys
            if improved:
                for s, key in keys.items():
                    best_rows[i][s] = key
        history.append(ideal_fitness)

    return OptimizeResult(np.array(best_rows[leader]), ideal_fitness, history, evaluations)
