import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcasched import (
    BoxDomain,
    LcaParams,
    Team,
    play_week,
    swot_update,
    win_probability,
)
from lcasched.lca import _count_quantile, _Doubles, _drafter

from conftest import floyd_sample, swot_formation

# Gaps and shifts are kept well clear of the last few ulps so the 1e-12
# tolerances below are meaningful rather than vacuous.
gap = st.one_of(st.just(0.0), st.floats(0.5, 100.0))
base = st.floats(-100.0, 100.0)
shift = st.floats(-100.0, 100.0)


class TestWinProbability:
    def test_degenerate_denominator_is_even_money(self):
        assert win_probability(5.0, 5.0, 5.0) == 0.5

    def test_side_at_ideal_always_wins(self):
        assert win_probability(3.0, 7.0, 3.0) == 1.0
        assert win_probability(7.0, 3.0, 3.0) == 0.0

    def test_linear_odds_example(self):
        assert win_probability(2.0, 4.0, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_ideal_above_fitness_rejected(self):
        with pytest.raises(ValueError):
            win_probability(2.0, 4.0, 3.0)

    @given(base, gap, gap)
    def test_normalization_and_bounds(self, ideal, gap_a, gap_b):
        p = win_probability(ideal + gap_a, ideal + gap_b, ideal)
        q = win_probability(ideal + gap_b, ideal + gap_a, ideal)
        assert 0.0 <= p <= 1.0
        assert abs(p + q - 1.0) < 1e-12

    @given(base, gap, gap)
    def test_better_side_is_favored(self, ideal, gap_a, gap_b):
        f_a, f_b = ideal + min(gap_a, gap_b), ideal + max(gap_a, gap_b)
        assert win_probability(f_a, f_b, ideal) >= 0.5

    @given(base, gap, gap, shift)
    def test_translation_invariance(self, ideal, gap_a, gap_b, c):
        p = win_probability(ideal + gap_a, ideal + gap_b, ideal)
        p_shifted = win_probability(ideal + gap_a + c, ideal + gap_b + c, ideal + c)
        assert abs(p - p_shifted) < 1e-12


class TestPlayWeek:
    def test_side_at_ideal_always_wins(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            won = play_week([(0, 1)], np.array([1.0, 4.0]), 1.0, rng)
            assert won[0] and not won[1]

    def test_equal_fitnesses_are_even_money(self):
        rng = np.random.default_rng(7)
        wins = np.zeros(2)
        trials = 100_000
        for _ in range(trials):
            won = play_week([(0, 1), (2, 3)], np.ones(4), 1.0, rng)
            wins[0] += won[0]
            wins[1] += won[2]
        assert abs(wins[0] / trials - 0.5) < 0.02
        assert abs(wins[1] / trials - 0.5) < 0.02

    def test_two_thirds_odds(self):
        rng = np.random.default_rng(11)
        trials = 100_000
        wins = sum(
            play_week([(0, 1)], np.array([2.0, 4.0]), 0.0, rng)[0] for _ in range(trials)
        )
        assert abs(wins / trials - 2.0 / 3.0) < 0.01

    def test_one_winner_per_match(self):
        rng = np.random.default_rng(3)
        won = play_week([(0, 2), (1, 3)], np.array([1.0, 2.0, 3.0, 4.0]), 0.5, rng)
        assert won.dtype == bool and won.shape == (4,)
        assert won[0] != won[2]
        assert won[1] != won[3]

    def test_team_in_two_matches_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            play_week([(0, 1), (1, 2)], np.ones(4), 1.0, rng)

    def test_missing_team_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            play_week([(0, 1)], np.ones(4), 1.0, rng)

    def test_self_match_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            play_week([(0, 0), (1, 2)], np.ones(4), 1.0, rng)


class TestChangeCount:
    def test_quantile_half(self):
        # ceil(ln(1 - 0.5 * 0.9375) / ln(0.5)) = ceil(0.9125...) = 1
        assert _count_quantile(4, 0.5)(0.5) == 1

    def test_quantile_point_nine(self):
        # ceil(ln(1 - 0.9 * 0.9375) / ln(0.5)) = ceil(2.678...) = 3
        assert _count_quantile(4, 0.5)(0.9) == 3

    def test_zero_quantile_floor(self):
        assert _count_quantile(10, 0.3)(0.0) == 1

    def test_near_one_quantile_hits_dimension(self):
        assert _count_quantile(6, 0.3)(float(np.nextafter(1.0, 0.0))) == 6

    @pytest.mark.parametrize("dimension", [1, 7, 40, 500])
    @pytest.mark.parametrize("change_prob", [0.01, 0.05, 0.3, 0.5, 0.9])
    def test_steps_at_the_analytic_cdf(self, dimension, change_prob):
        # The count is the least k with F(k) >= r, for the truncated geometric
        # CDF F(k) = (1 - (1 - p)^k) / (1 - (1 - p)^d): a quantile just below
        # F(k) gives k, one just above gives k + 1. "Just" is a thousandth of
        # the step, and steps below 1e-9 are skipped, as floats cannot place a
        # quantile inside them.
        count_of = _count_quantile(dimension, change_prob)
        keep = 1.0 - change_prob
        cdf = [(1.0 - keep**k) / (1.0 - keep**dimension) for k in range(dimension + 1)]
        checked = 0
        for k in range(1, dimension + 1):
            step = cdf[k] - cdf[k - 1]
            if step < 1e-9:
                continue
            assert count_of(cdf[k] - step / 1000) == k
            if k < dimension and cdf[k + 1] - cdf[k] >= 1e-9:
                assert count_of(cdf[k] + (cdf[k + 1] - cdf[k]) / 1000) == k + 1
            checked += 1
        assert checked >= min(dimension, 8)

    def test_range_and_monotonicity_fuzz(self):
        rng = np.random.default_rng(123)
        for dimension, change_prob in [(1, 0.5), (3, 0.1), (10, 0.3), (500, 0.9)]:
            r = np.sort(rng.random(250_000))
            q = np.array(list(map(_count_quantile(dimension, change_prob), r.tolist())))
            assert q.min() >= 1 and q.max() <= dimension
            assert np.all(np.diff(q) >= 0)

    def test_drawn_counts_stay_in_range(self):
        rng = np.random.default_rng(5)
        counts = {_count_quantile(4, 0.4)(rng.random()) for _ in range(2000)}
        assert counts <= {1, 2, 3, 4}
        assert 1 in counts


def changed_slots(dimension, change_prob, calls):
    """For each of ``calls`` successive ``swot_update`` calls, the slots it
    changes and the change count that a mirror of its first draw gives.
    Every pull is nonzero, so each changed slot moves off the best
    formation (which is all zeros)."""
    domain = BoxDomain.cube(dimension, -10.0, 10.0)
    params = LcaParams(league_size=4, seasons=1, change_prob=change_prob, seed=0)
    team = Team(np.ones(dimension), 1.0, np.zeros(dimension), 0.5)
    opponent, rival_opponent = np.full(dimension, 2.0), np.full(dimension, 3.0)
    rng, mirror = np.random.default_rng(2), np.random.default_rng()
    for _ in range(calls):
        mirror.bit_generator.state = rng.bit_generator.state
        new = swot_update(team, opponent, rival_opponent, True, False, params, domain, rng)
        yield new != 0.0, _count_quantile(dimension, change_prob)(mirror.random())


class TestChangedSlots:
    def test_full_mask(self):
        full = 0
        for mask, count in changed_slots(5, 0.05, 400):
            if count == 5:
                full += 1
                assert mask.all()
        assert full > 20

    def test_popcount(self):
        for mask, count in changed_slots(10, 0.3, 300):
            assert mask.sum() == count

    def test_uniform_selection(self):
        trials = 40_000
        hits = np.zeros(5)
        changes = 0
        for mask, count in changed_slots(5, 0.5, trials):
            hits += mask
            changes += count
        # each slot is changed with probability E[count] / 5
        assert np.all(np.abs(hits / trials - changes / (5 * trials)) < 0.01)

    # At change_prob 0.01 on 200 slots a draw changes about 70 of them, so the
    # uniformity check below is far from vacuous, and Floyd's sampling meets
    # taken slots often.
    def test_popcount_at_200_slots(self):
        for mask, count in changed_slots(200, 0.01, 300):
            assert mask.sum() == count

    def test_slots_never_repeat_at_200_slots(self):
        # the week loop's draft at 200 slots, with the change count's quantile
        # scripted and every other double from rng
        class Scripted:
            def __init__(self, quantile, rng):
                self.quantile, self.rng = quantile, rng

            def random(self, size=None):
                return self.quantile if size is None else self.rng.random(size)

        zeros = [0.0] * 200
        params = LcaParams(league_size=4, seasons=1, change_prob=0.01, seed=0)
        draft = _drafter(params, [-10.0] * 200, [10.0] * 200)
        total = 1.0 - 0.99**200
        rng = np.random.default_rng(8)
        for count in (1, 2, 50, 199, 200):
            quantile = (1.0 - 0.99 ** (count - 0.5)) / total  # inside count's step of the inverse
            assert _count_quantile(200, params.change_prob)(quantile) == count
            for _ in range(50):
                mirror = np.random.default_rng()
                mirror.bit_generator.state = rng.bit_generator.state
                slots = list(draft(Scripted(quantile, rng), True, False, zeros, zeros, {}, zeros, {}, zeros, {}))
                assert len(set(slots)) == len(slots) == count
                assert all(0 <= s < 200 for s in slots)
                assert slots == floyd_sample(mirror, 200, count)

    def test_uniform_selection_at_200_slots(self):
        trials = 20_000
        hits = np.zeros(200)
        changes = 0
        for mask, count in changed_slots(200, 0.01, trials):
            hits += mask
            changes += count
        assert changes / trials > 50
        assert np.all(np.abs(hits / trials - changes / (200 * trials)) < 0.01)


class TestSwotUpdate:
    def test_hand_case_won_against_loser_side(self):
        new = swot_formation(
            best=np.array([1.0]),
            current=np.array([2.0]),
            opponent_formation=np.array([0.0]),
            rival_opponent_formation=np.array([4.0]),
            won=True,
            rival_opponent_won=False,
            retreat_coeff=1.0,
            approach_coeff=1.0,
            gain_rival=np.array([1.0]),
            gain_opponent=np.array([0.5]),
        )
        assert new.tolist() == [0.0]

    def test_hand_case_lost_against_winner_side(self):
        new = swot_formation(
            best=np.array([1.0]),
            current=np.array([2.0]),
            opponent_formation=np.array([0.0]),
            rival_opponent_formation=np.array([4.0]),
            won=False,
            rival_opponent_won=True,
            retreat_coeff=1.0,
            approach_coeff=1.0,
            gain_rival=np.array([0.5]),
            gain_opponent=np.array([0.5]),
        )
        assert new.tolist() == [1.0]

    def test_zero_gains_collapse_to_best(self):
        best = np.array([0.25, 3.0])
        new = swot_formation(
            best=best,
            current=np.array([1.0, 1.0]),
            opponent_formation=np.array([2.0, 5.0]),
            rival_opponent_formation=np.array([-1.0, 0.5]),
            won=True,
            rival_opponent_won=True,
            retreat_coeff=1.0,
            approach_coeff=1.0,
            gain_rival=np.zeros(2),
            gain_opponent=np.zeros(2),
        )
        assert np.array_equal(new, best)

    def test_unmasked_slots_carry_best_exactly_and_masked_stay_in_domain(self):
        setup_rng = np.random.default_rng(99)
        domain = BoxDomain.cube(12, -2.0, 2.0)
        params = LcaParams(league_size=4, seasons=1, change_prob=0.4, retreat_coeff=2.0, approach_coeff=3.0, seed=0)
        for trial in range(500):
            vectors = setup_rng.uniform(-2.0, 2.0, size=(4, 12))
            team = Team(
                formation=vectors[0],
                fitness=1.0,
                best_formation=vectors[1],
                best_fitness=0.5,
            )
            # Mirror the documented draw order (count, mask, gains) to
            # recover the mask the update will use.
            rng = np.random.default_rng(1000 + trial)
            mirror = np.random.default_rng(1000 + trial)
            count = _count_quantile(12, params.change_prob)(mirror.random())
            mask = np.zeros(12, dtype=bool)
            mask[floyd_sample(mirror, 12, count)] = True
            new = swot_update(
                team,
                vectors[2],
                vectors[3],
                won=bool(trial % 2),
                rival_opponent_won=bool(trial % 3),
                params=params,
                domain=domain,
                rng=rng,
            )
            # bit-exact carryover outside the mask
            assert np.array_equal(new[~mask], team.best_formation[~mask])
            assert np.all((domain.lower <= new) & (new <= domain.upper))

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        domain = BoxDomain.cube(3, 0.0, 1.0)
        params = LcaParams(league_size=4, seasons=1, change_prob=0.5, seed=0)
        team = Team(np.zeros(3), 0.0, np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            swot_update(team, np.zeros(2), np.zeros(3), True, True, params, domain, rng)

    def test_update_agrees_with_full_vector_formula(self):
        # swot_update rebuilds only the changed slots; scattering the same
        # draws into full-length vectors and applying the formula everywhere
        # must give the identical result. At 9 slots Floyd's sampling often
        # meets a taken slot; at 600 it rarely does.
        setup_rng = np.random.default_rng(55)
        for dimension, trials in ((9, 200), (600, 100)):
            domain = BoxDomain.cube(dimension, -3.0, 3.0)
            params = LcaParams(league_size=4, seasons=1, change_prob=0.3, seed=0)
            for trial in range(trials):
                vectors = setup_rng.uniform(-3.0, 3.0, size=(4, dimension))
                team = Team(vectors[0], 1.0, vectors[1], 0.5)
                won, rival_won = bool(trial & 1), bool(trial & 2)
                rng = np.random.default_rng(5000 + trial)
                mirror = np.random.default_rng(5000 + trial)
                count = _count_quantile(dimension, params.change_prob)(mirror.random())
                changed = floyd_sample(mirror, dimension, count)  # in draw order
                mask = np.zeros(dimension, dtype=bool)
                mask[changed] = True
                gains = mirror.random((2, count))
                # scatter the block gains onto the drawn slots, in draw order
                gain_rival = np.zeros(dimension)
                gain_opponent = np.zeros(dimension)
                gain_rival[changed] = gains[0]
                gain_opponent[changed] = gains[1]
                expected = np.where(
                    mask,
                    np.clip(
                        swot_formation(
                            team.best_formation,
                            team.formation,
                            vectors[2],
                            vectors[3],
                            won,
                            rival_won,
                            params.retreat_coeff,
                            params.approach_coeff,
                            gain_rival,
                            gain_opponent,
                        ),
                        domain.lower,
                        domain.upper,
                    ),
                    team.best_formation,
                )
                actual = swot_update(team, vectors[2], vectors[3], won, rival_won, params, domain, rng)
                assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("won", [False, True])
    @pytest.mark.parametrize("rival_opponent_won", [False, True])
    @pytest.mark.parametrize("retreat, approach", [(1.5, 0.7), (0.0, 0.7), (1.5, 0.0)])
    # Floyd's sampling meets taken slots more often at 9
    @pytest.mark.parametrize("dimension, zeros", [(9, False), (600, False), (9, True)])
    def test_drafter_equals_swot_formation_and_clip(self, dimension, zeros, retreat, approach, won, rival_opponent_won):
        # optimize's draft rebuilds each slot inline; its keys must equal the
        # reference formula clamped by np.clip, bit for bit, with every side read
        # as its row under its overrides
        setup = np.random.default_rng(dimension)
        if not zeros:
            lower, upper = -setup.uniform(0.5, 2.0, dimension), setup.uniform(1.0, 3.0, dimension)
            draw = lambda slots: setup.uniform(-4.0, 5.0, len(slots))  # outside the box too, so keys clamp
        else:
            # every side holds the slot's value from {-0.0, 0.0, 0.5}, a zero with its sign
            # drawn per side, so every pull is a zero; the box leaves zeros as they are, so
            # keys show their signs
            lower, upper = np.full(dimension, -1.0), np.full(dimension, 1.0)
            held = setup.choice((-0.0, 0.0, 0.5), dimension)
            draw = lambda slots: np.where(held[slots] == 0.0, setup.choice((-0.0, 0.0), len(slots)), held[slots])
        rows = np.array([draw(range(dimension)) for _ in range(3)])
        half = dimension // 2
        overrides = []
        for _ in rows:
            slots = setup.permutation(dimension)[:half]
            overrides.append(dict(zip(slots.tolist(), draw(slots).tolist())))
        dense = rows.copy()
        for formation, override in zip(dense, overrides):
            formation[list(override)] = list(override.values())
        params = LcaParams(league_size=4, seasons=1, change_prob=0.05, retreat_coeff=retreat, approach_coeff=approach)
        draft = _drafter(params, lower.tolist(), upper.tolist())
        rng, mirror = np.random.default_rng(7), np.random.default_rng(7)
        source = _Doubles(rng)  # as optimize reads them
        best = rows[0].tolist()
        for _ in range(60):
            drafted = draft(source, won, rival_opponent_won, best, best, overrides[0], rows[1].tolist(),
                            overrides[1], rows[2].tolist(), overrides[2])
            slots, keys = list(drafted), list(drafted.values())
            count = _count_quantile(dimension, params.change_prob)(mirror.random())
            assert slots == floyd_sample(mirror, dimension, count)
            gains = mirror.random((2, count))
            expected = np.clip(
                swot_formation(rows[0][slots], *dense[:, slots], won, rival_opponent_won, retreat, approach, *gains),
                lower[slots],
                upper[slots],
            )
            assert np.array(keys).tobytes() == expected.tobytes()

    def test_draws_are_reproducible(self):
        domain = BoxDomain.cube(6, 0.0, 1.0)
        params = LcaParams(league_size=4, seasons=1, change_prob=0.3, seed=0)
        team = Team(np.full(6, 0.5), 1.0, np.full(6, 0.25), 0.5)
        out = []
        for _ in range(2):
            rng = np.random.default_rng(2024)
            out.append(
                swot_update(team, np.zeros(6), np.ones(6), True, False, params, domain, rng)
            )
        assert np.array_equal(out[0], out[1])


class TestLcaParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(league_size=3),
            dict(league_size=2),
            dict(league_size=5),
            dict(seasons=0),
            dict(change_prob=0.0),
            dict(change_prob=1.0),
            dict(retreat_coeff=-1.0),
            dict(retreat_coeff=0.0, approach_coeff=0.0),
            dict(seed=-1),
            dict(max_evaluations=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LcaParams(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["retreat_coeff", "approach_coeff"])
    def test_coefficients_must_be_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LcaParams(**{name: bad})

    def test_defaults_are_valid(self):
        params = LcaParams()
        assert params.league_size == 20
        assert params.seasons == 50
        assert params.change_prob == 0.3


class TestBoxDomain:
    def test_cube(self):
        domain = BoxDomain.cube(3, -1.0, 2.0)
        assert domain.dimension == 3
        assert domain.lower.tolist() == [-1.0] * 3 and domain.upper.tolist() == [2.0] * 3

    def test_clip(self):
        domain = BoxDomain.cube(2, 0.0, 1.0)
        assert np.clip(np.array([-5.0, 0.5]), domain.lower, domain.upper).tolist() == [0.0, 0.5]

    @pytest.mark.parametrize(
        "lower,upper",
        [([0.0, 0.0], [1.0, 0.0]), ([0.0], [0.0]), ([1.0], [0.0]), ([np.nan], [1.0])],
    )
    def test_invalid_bounds(self, lower, upper):
        with pytest.raises(ValueError):
            BoxDomain(np.array(lower), np.array(upper))

    def test_span_must_be_finite(self):
        # optimize draws the league as lower + span * random(), so a span past the float range is refused
        with pytest.raises(ValueError, match="bounds and their spans must be finite"):
            BoxDomain(np.array([0.0, -1e308]), np.array([1.0, 1e308]))
