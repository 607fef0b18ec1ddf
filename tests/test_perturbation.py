import math
import re
import warnings
from itertools import product
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqtracer import (
    BUDGET,
    CHANNELS,
    SUPPLY,
    UTILITY,
    CesMarket,
    PerturbationSchedule,
    ScheduleColumn,
    calibrate_c_prime,
    coefficient_share_floor,
    delta_cpf_budget,
    delta_cpf_supply,
    delta_cpf_utility,
    delta_ms_budget,
    delta_ms_supply,
    delta_ms_utility,
    delta_prd_utility,
    demand,
    extremize_shares,
    generate_schedule,
    share_deviation,
    run_tatonnement_trace,
    solve_equilibrium,
)
from eqtracer import tatonnement
from eqtracer.instances import random_market, uniform_prices
from eqtracer.perturbation import apply_row
from eqtracer.tatonnement import TatonnementConfig, default_step_size, jump_cap


FIELDS = ("budgets", "supplies", "rho", "coefficients")


def event(channel, payload, round_=1):
    """A one-row `ScheduleColumn`."""
    return ScheduleColumn(channel, [round_], np.asarray(payload, dtype=float)[None])


def applied(market, column):
    """`market` moved by the first row of `column`."""
    return apply_row(market, column.channel, column.rows(market)[0])


class TestEvents:
    def test_zero_supply_event_is_identity(self):
        market = random_market(0, 2, 3)
        out = applied(market, event(SUPPLY, np.zeros(3)))
        assert np.array_equal(out.supplies, market.supplies)

    def test_supply_addition(self):
        market = random_market(1, 2, 2).replace(supplies=np.array([1.0, 1.0]))
        out = applied(market, event(SUPPLY, [0.1, 0.0]))
        assert out.supplies == pytest.approx([1.1, 1.0])
        assert market.supplies == pytest.approx([1.0, 1.0])  # original untouched

    def test_uniform_utility_factor(self):
        market = random_market(2, 2, 2)
        factors = np.full((2, 2), math.exp(0.01))
        out = applied(market, event(UTILITY, factors))
        assert np.allclose(out.coefficients, market.coefficients * math.exp(0.01))

    def test_invalid_supply_rejected(self):
        market = random_market(3, 2, 2).replace(supplies=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="non-positive"):
            applied(market, event(SUPPLY, [0.0, -0.5]))

    def test_wrong_channel_payload_shape(self):
        with pytest.raises(ValueError, match="payload"):
            event(UTILITY, [1.0, 2.0])

    def test_nonpositive_utility_factor_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            event(UTILITY, [[1.0, -2.0]])

    @pytest.mark.parametrize("channel, field", [(SUPPLY, "supplies"), (BUDGET, "budgets")])
    def test_additive_overflow_rejected(self, channel, field):
        market = random_market(4, 2, 2).replace(**{field: np.array([1e308, 1.0])})
        with pytest.raises(ValueError, match="infinity"):
            applied(market, event(channel, [1e308, 0.0]))

    def test_utility_underflow_of_a_whole_row_rejected(self):
        market = random_market(5, 2, 2).replace(
            coefficients=np.array([[1e-200, 1e-200], [1.0, 1.0]])
        )
        factors = np.array([[1e-200, 1e-200], [1.0, 1.0]])
        with pytest.raises(ValueError, match="no positive coefficient"):
            applied(market, event(UTILITY, factors))

    def test_utility_overflow_rejected(self):
        market = random_market(6, 2, 2).replace(
            coefficients=np.array([[1e200, 1.0], [1.0, 1.0]])
        )
        factors = np.array([[1e200, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="infinity"):
            applied(market, event(UTILITY, factors))

    @pytest.mark.parametrize("channel", [SUPPLY, BUDGET, UTILITY])
    def test_new_market_read_only_and_original_untouched(self, channel):
        market = random_market(7, 3, 4)
        before = {f: getattr(market, f).copy() for f in FIELDS}
        shape = {SUPPLY: (4,), BUDGET: (3,), UTILITY: (3, 4)}[channel]
        payload = np.full(shape, 1.01 if channel == UTILITY else 0.01)
        out = applied(market, event(channel, payload))
        for f in FIELDS:
            assert not getattr(out, f).flags.writeable
            assert np.array_equal(getattr(market, f), before[f])
        with pytest.raises(ValueError):
            out.coefficients[0, 0] = 2.0

    def test_weight_base_cache_tracks_coefficients(self):
        # 20x20 takes the closed-form row shift, whose cache holds B as well.
        market = random_market(8, 20, 20)
        cached, log_a = market._weight_base, market.log_coefficients
        shifted = applied(market, event(SUPPLY, np.full(20, 0.01)))
        assert shifted._weight_base is cached
        assert shifted.log_coefficients is log_a
        factors = np.exp(np.linspace(-0.05, 0.05, 400)).reshape(20, 20)
        out = applied(market, event(UTILITY, factors))
        assert np.array_equal(out.log_coefficients, np.log(out.coefficients))
        assert not np.array_equal(out.log_coefficients, log_a)
        c = out.demand_exponent
        full = (1.0 - c[:, None]) * np.log(out.coefficients)
        bound = full.max(axis=1)
        base, got_bound, max_spread = out._weight_base
        assert np.array_equal(base, full - bound[:, None])
        assert np.array_equal(got_bound, bound)
        assert max_spread == cached[2]  # rho is kept
        assert not np.array_equal(base, cached[0])
        assert not np.array_equal(got_bound, cached[1])


def rows_of(schedule):
    """(round, payload row) of a one-column schedule, in round order."""
    (column,) = schedule.columns
    return list(zip(column.rounds.tolist(), column.payload))


class TestSchedules:
    def test_duplicate_round_channel_rejected(self):
        events = ((1, SUPPLY, [0.1, 0.0]), (1, SUPPLY, [0.0, 0.1]))
        message = "duplicate event for round 1, channel supply-additive"
        with pytest.raises(ValueError, match=message):
            PerturbationSchedule.from_events(events)

    def test_column_rounds_must_increase_and_start_at_one(self):
        with pytest.raises(ValueError, match="1-based and increase"):
            ScheduleColumn(SUPPLY, [3, 2], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="1-based"):
            ScheduleColumn(SUPPLY, [0, 2], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="row per round"):
            ScheduleColumn(SUPPLY, [1, 2, 3], np.zeros((2, 2)))

    def test_fractional_rounds_rejected(self):
        with pytest.raises(ValueError, match="whole numbers"):
            ScheduleColumn(SUPPLY, [1.5, 2.7], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="whole numbers"):
            PerturbationSchedule.from_events([(2.5, SUPPLY, [0.1, 0.0])])
        assert ScheduleColumn(SUPPLY, [1.0, 2.0], np.zeros((2, 2))).rounds.tolist() == [1, 2]
        for rounds in ([math.nan], [math.inf], np.array([math.nan]), [1e20]):
            with pytest.raises(ValueError, match="event rounds must be whole numbers"):
                ScheduleColumn(SUPPLY, rounds, np.zeros((1, 2)))

    @pytest.mark.parametrize(
        "field, whole, rounds", [("start_round", 2.0, [2, 3, 4, 5, 6]), ("every", 2.0, [1, 3, 5])]
    )
    def test_fractional_generator_rounds_rejected(self, field, whole, rounds):
        market = random_market(7, 3, 4)
        with pytest.raises(ValueError, match="whole numbers"):
            generate_schedule(market, 6, SUPPLY, 0.01, 5, **{field: 1.5})
        schedule = generate_schedule(market, 6, SUPPLY, 0.01, 5, **{field: whole})
        assert [r for r, _ in rows_of(schedule)] == rounds

    def test_ragged_payloads_name_channel_round_and_shape(self):
        events = [(2, SUPPLY, [0.1, 0.0]), (1, SUPPLY, [0.1, 0.0, 0.0])]
        message = "supply-additive event for round 2 has payload shape (2,); expected (3,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            PerturbationSchedule.from_events(events)
        # A single bad event is named too, before numpy would reject it.
        for event, message in (
            ((3, UTILITY, [[1.0, 1.0], [1.0]]), "utility-multiplicative event for round 3 has a"),
            ((10**20, SUPPLY, [0.1, 0.0]), f"supply-additive event for round {10**20}: rounds"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                PerturbationSchedule.from_events([event])

    def test_column_payload_checked_once_and_frozen_in_place(self):
        payload = np.full((3, 2, 2), 1.01)
        column = ScheduleColumn(UTILITY, [1, 2, 3], payload)
        assert column.payload is payload and not payload.flags.writeable
        for bad, message in (
            (np.full((3, 2), 1.0), "2-d"),
            (np.full((3, 2, 2), -1.0), "positive"),
            (np.full((3, 2, 2), np.inf), "finite"),
        ):
            with pytest.raises(ValueError, match=message):
                ScheduleColumn(UTILITY, [1, 2, 3], bad)

    def test_generator_reproducible(self):
        market = random_market(4, 3, 4)
        a = generate_schedule(market, 50, channel=SUPPLY, magnitude=0.05, seed=11)
        b = generate_schedule(market, 50, channel=SUPPLY, magnitude=0.05, seed=11)
        assert len(rows_of(a)) == len(rows_of(b)) == 50
        for (ra, pa), (rb, pb) in zip(rows_of(a), rows_of(b)):
            assert ra == rb and np.array_equal(pa, pb)

    def test_generator_respects_magnitude_and_validity(self):
        market = random_market(5, 3, 4)
        schedule = generate_schedule(market, 500, channel=SUPPLY, magnitude=0.05, seed=12)
        supplies = market.supplies.copy()
        for _, payload in rows_of(schedule):
            assert np.abs(payload).sum() <= 0.05 + 1e-12
            supplies = supplies + payload
            assert np.all(supplies > 0)

    def test_utility_generator_bounds_log_factors(self):
        market = random_market(6, 2, 3)
        schedule = generate_schedule(market, 100, channel=UTILITY, magnitude=0.01, seed=13)
        assert np.all(np.abs(np.log(schedule.columns[0].payload)) <= 0.01 + 1e-12)

    @pytest.mark.parametrize("channel", [SUPPLY, BUDGET, UTILITY])
    def test_events_fall_on_start_round_then_every(self, channel):
        market = random_market(7, 3, 4)
        schedule = generate_schedule(market, 20, channel, 0.01, seed=14, start_round=3, every=4)
        assert [r for r, _ in rows_of(schedule)] == [3, 7, 11, 15, 19]

    def test_schedule_without_rounds_has_no_channels(self):
        market = random_market(7, 3, 4)
        schedule = generate_schedule(market, 8, SUPPLY, 0.01, seed=14, start_round=9)
        assert schedule.columns == () and schedule.channels() == set()
        assert schedule.by_round(market, 8) == ({}, [[]] * 9)

    def test_by_round_reads_each_column_once_and_lists_each_rounds_rows(self, monkeypatch):
        market = random_market(7, 3, 4)
        supply = generate_schedule(market, 9, SUPPLY, 0.01, seed=14, every=2)
        utility = generate_schedule(market, 9, UTILITY, 0.01, seed=15, every=3)
        schedule = PerturbationSchedule(utility.columns + supply.columns)
        reads = []
        rows_of_column = ScheduleColumn.rows
        monkeypatch.setattr(
            ScheduleColumn, "rows", lambda c, m: reads.append(c.channel) or rows_of_column(c, m)
        )
        rows, due = schedule.by_round(market, 10)
        assert sorted(reads) == [SUPPLY, UTILITY] and rows.keys() == {SUPPLY, UTILITY}
        assert np.array_equal(rows[SUPPLY], rows_of_column(supply.columns[0], market))
        assert len(due) == 11 and due[0] == due[2] == due[10] == []
        assert [c for c, _ in due[1]] == [SUPPLY, UTILITY] and [c for c, _ in due[4]] == [UTILITY]
        assert np.array_equal(due[3][0][1], rows[SUPPLY][1])
        assert np.array_equal(due[4][0][1], rows[UTILITY][1])
        with pytest.raises(ValueError, match="horizon must be non-negative"):
            schedule.by_round(market, -1)
        with pytest.raises(ValueError, match="beyond the horizon"):
            schedule.by_round(market, 8)

    @pytest.mark.parametrize("channel", [SUPPLY, BUDGET, UTILITY])
    def test_gaussian_payloads_respect_magnitude(self, channel):
        # Draws have standard deviation magnitude/2 and are clipped at the
        # magnitude, so over 200 events some draws reach the clip.
        market = random_market(8, 3, 4)
        schedule = generate_schedule(market, 200, channel, 0.05, seed=15, distribution="gaussian")
        payload = schedule.columns[0].payload
        if channel == UTILITY:
            draws = np.abs(np.log(payload))
        else:
            # Additive components are draws over the payload size.
            assert np.abs(payload).sum(axis=1).max() <= 0.05 * (1 + 1e-12)
            draws = np.abs(payload) * payload.shape[1]
        assert draws.max() <= 0.05 * (1 + 1e-12)
        assert draws.max() == pytest.approx(0.05, rel=1e-12)

    @pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
    def test_one_seed_gives_one_schedule(self, distribution):
        market = random_market(9, 3, 4)

        def payloads(seed):
            schedule = generate_schedule(
                market, 30, UTILITY, 0.05, seed, distribution=distribution, every=2
            )
            return [payload for _, payload in rows_of(schedule)]

        same, again, other = payloads(16), payloads(16), payloads(17)
        assert all(np.array_equal(x, y) for x, y in zip(same, again, strict=True))
        assert not any(np.array_equal(x, y) for x, y in zip(same, other))


class TestJumpCaps:
    def test_supply_cap_plugin(self):
        assert delta_ms_supply(event(SUPPLY, [0.1, 0.0]), price_cap=10.0)[0] == pytest.approx(1.0)
        assert delta_ms_supply(event(SUPPLY, [0.0, 0.0]), price_cap=10.0)[0] == 0.0

    def test_budget_cap_plugin(self):
        assert delta_ms_budget(event(BUDGET, [0.05, -0.05]))[0] == pytest.approx(0.1)

    def test_utility_cap_of_three_equals_budget(self):
        # worst factor 3 moves 2(3-1)/(3+1) = half the budget twice over.
        market = CesMarket(
            budgets=[1.0, 1.0],
            supplies=[1.0],
            rho=[0.5, 0.5],
            coefficients=[[1.0], [1.0]],
        )
        factors = np.full((2, 1), 3.0 ** (1.0 - 0.5))  # gamma^(1/(1-rho)) = 3
        cap = delta_ms_utility(event(UTILITY, factors), market.rho, market.total_budget)
        assert cap[0] == pytest.approx(market.total_budget, rel=1e-12)

    def test_identity_utility_event_is_free(self):
        market = random_market(7, 2, 3)
        identity = event(UTILITY, np.ones((2, 3)))
        assert delta_ms_utility(identity, market.rho, market.total_budget)[0] == 0.0
        assert delta_cpf_utility(identity, market.rho, market.total_budget)[0] == 0.0

    def test_cpf_supply_cap_plugin(self):
        cap = delta_cpf_supply(event(SUPPLY, [0.1, 0.0]), 10.0, 5.0)
        assert cap[0] == pytest.approx((10.0 + 5.0) * 0.1)

    def test_cpf_budget_cap_plugin(self):
        assert delta_cpf_budget(event(BUDGET, [0.1]), c_prime=2.0)[0] == pytest.approx(0.2)

    def test_cpf_utility_single_buyer(self):
        market = CesMarket(budgets=[1.0], supplies=[1.0], rho=[0.5], coefficients=[[1.0]])
        factors = np.full((1, 1), math.exp(0.05))
        cap = delta_cpf_utility(event(UTILITY, factors), market.rho, market.total_budget)
        assert cap[0] == pytest.approx(0.2 * market.total_budget, rel=1e-12)

    def test_nan_constants_rejected(self):
        market = random_market(9, 2, 2)
        supply, budget = event(SUPPLY, [0.1, 0.0]), event(BUDGET, [0.1, 0.0])
        for call, name in (
            (lambda: TatonnementConfig(lam=0.1, price_cap=math.nan), "price_cap"),
            (lambda: delta_ms_supply(supply, math.nan), "price_cap"),
            (lambda: delta_cpf_supply(supply, math.nan, market.total_budget), "price_cap"),
            (lambda: delta_cpf_budget(budget, math.nan), "c_prime"),
            (lambda: generate_schedule(market, 5, SUPPLY, math.nan, 1), "magnitude"),
            (lambda: delta_prd_utility(market, np.ones(2), math.nan), "epsilon"),
        ):
            with pytest.raises(ValueError, match=name):
                call()

    def test_wrong_channel_raises(self):
        with pytest.raises(ValueError, match="expected"):
            delta_ms_supply(event(BUDGET, [0.1]), 1.0)


def prd_cap(market, eps):
    return delta_prd_utility(market, coefficient_share_floor(market), eps)


class TestBidPotentialCap:
    def test_zero_drift_is_free(self):
        market = random_market(9, 2, 3, unit_supplies=True)
        assert prd_cap(market, 0.0) == 0.0

    def test_single_buyer_closed_form(self):
        # rho = 1/2 gives c = -1, min c = -1, and drift exponent
        # kappa = 2 eps (1 - (-1)(3 - 2(-1))) = 12 eps.  With b = B the
        # budget-ratio term vanishes and only the share floor remains:
        # (e^kappa - 1) |ln(min share)| / (1 - rho) + 2 eps / rho.
        market = CesMarket(
            budgets=[1.0], supplies=[1.0, 1.0], rho=[0.5], coefficients=[[3.0, 1.0]]
        )
        eps = 0.01
        kappa = 12.0 * eps
        min_share = 0.25
        expected = math.expm1(kappa) * abs(math.log(min_share)) / 0.5 + 2 * eps / 0.5
        assert coefficient_share_floor(market).tolist() == [min_share]
        assert prd_cap(market, eps) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_drift(self):
        market = random_market(10, 3, 3, unit_supplies=True)
        values = [prd_cap(market, eps) for eps in (0.0, 0.005, 0.01, 0.05)]
        assert all(b > a or (a == b == 0) for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("zero_fraction", [0.0, 0.3, 0.7])
    def test_share_floor_is_the_smallest_share_bit_for_bit(self, zero_fraction):
        # Dividing by a positive row sum is monotone under rounding, so the
        # smallest coefficient over the sum is the smallest rounded share.
        for seed in range(100):
            m, n = np.random.default_rng(seed).integers(1, 12, size=2)
            market = random_market(seed, m, n, zero_fraction=zero_fraction)
            a = market.coefficients
            shares = np.where(a > 0, a / a.sum(axis=1, keepdims=True), np.inf)
            assert coefficient_share_floor(market).tobytes() == shares.min(axis=1).tobytes()

    def test_min_share_taken_over_history(self):
        market = random_market(11, 2, 3, unit_supplies=True)
        shrunk = market.replace(coefficients=market.coefficients * np.array([[1.0, 1.0, 0.1]]))
        history = np.minimum(coefficient_share_floor(market), coefficient_share_floor(shrunk))
        assert delta_prd_utility(market, history, 0.01) >= prd_cap(market, 0.01)

    def test_overflowing_cap_fails_by_name(self):
        # rho in [0.99, 0.999] puts c near -1000, so kappa ~ eps c^2 makes
        # e^kappa overflow even for a drift of 0.006.
        market = random_market(5, 2, 12, 0.99, 0.999, unit_supplies=True)
        with pytest.raises(ValueError, match="too large for rho this close to 1"):
            prd_cap(market, 0.006)

    def test_rejects_negative_drift(self):
        market = random_market(12, 2, 2, unit_supplies=True)
        with pytest.raises(ValueError):
            prd_cap(market, -0.1)


class TestExtremalShares:
    def test_uniform_beta_dominated(self):
        alpha = np.array([0.5, 0.5])
        beta_prime, value = extremize_shares(alpha, np.ones(2), 3.0)
        assert value >= 0.0
        assert np.all((beta_prime == 3.0) | (np.abs(beta_prime - 1 / 3) < 1e-15))

    def test_two_goods_matches_enumeration(self):
        alpha = np.array([0.25, 0.75])
        _, value = extremize_shares(alpha, np.ones(2), 3.0)
        brute = max(
            share_deviation(alpha, np.array(p)) for p in product((3.0, 1 / 3.0), repeat=2)
        )
        assert value == pytest.approx(brute, abs=1e-12)
        assert value == pytest.approx(1.0, abs=1e-12)  # the cap 2(mu-1)/(mu+1)

    def test_matches_enumeration_randomised(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            alpha = rng.random(n)
            alpha /= alpha.sum()
            mu = float(rng.uniform(1.0, 6.0))
            beta = rng.uniform(1 / mu, mu, n)
            _, value = extremize_shares(alpha, beta, mu)
            brute = max(
                share_deviation(alpha, np.array(p))
                for p in product((mu, 1 / mu), repeat=n)
            )
            assert value == pytest.approx(brute, abs=1e-12)
            assert value >= share_deviation(alpha, beta) - 1e-12

    def test_consistency_of_returned_vector(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            alpha = rng.random(n)
            alpha /= alpha.sum()
            mu = float(rng.uniform(1.0, 6.0))
            beta_prime, _ = extremize_shares(alpha, rng.uniform(1 / mu, mu, n), mu)
            shares = alpha * beta_prime / np.sum(alpha * beta_prime)
            at_top = beta_prime == mu
            assert np.all(shares[at_top] >= alpha[at_top] - 1e-14)
            assert np.all(shares[~at_top] < alpha[~at_top] + 1e-14)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="sum to one"):
            extremize_shares([0.5, 0.6], [1.0, 1.0], 2.0)
        with pytest.raises(ValueError, match="within"):
            extremize_shares([0.5, 0.5], [3.0, 1.0], 2.0)


@settings(max_examples=80, deadline=None)
@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=10),
    mu=st.floats(1.0, 8.0),
)
def test_extremal_value_never_exceeds_closed_cap(weights, mu):
    alpha = np.asarray(weights)
    alpha /= alpha.sum()
    _, value = extremize_shares(alpha, np.ones_like(alpha), mu)
    assert value <= 2.0 * (mu - 1.0) / (mu + 1.0) + 1e-12


class TestMeasuredJumps:
    def test_supply_jump_dominated_at_fixed_prices(self):

        rng = np.random.default_rng(5)
        for seed in range(30):
            market = random_market(seed, 3, 4)
            prices = uniform_prices(market) * rng.uniform(0.3, 3.0, 4)
            eps = rng.uniform(-0.02, 0.02, 4)
            ev = event(SUPPLY, eps)
            measured = demand(applied(market, ev), prices).misspending - \
                demand(market, prices).misspending
            assert measured <= delta_ms_supply(ev, float(prices.max()))[0] + 1e-9

    def test_calibrated_budget_constant_bounds_jump(self):

        market = random_market(21, 3, 3)
        prices = uniform_prices(market) * 1.7
        ev = event(BUDGET, [0.05, -0.03, 0.02])
        perturbed = applied(market, ev)
        before = solve_equilibrium(market)
        after = solve_equilibrium(perturbed, previous=before)
        c_prime = calibrate_c_prime(market, [before.prices, after.prices], [prices])
        measured = (demand(perturbed, prices).cpf - after.psi_star) - (
            demand(market, prices).cpf - before.psi_star
        )
        assert measured <= delta_cpf_budget(ev, c_prime)[0] + 1e-9


# ---------------------------------------------------------------------------
# Oracle: the per-round schedule path, one draw, one checked one-row column,
# one cap and one application per event, as generate_schedule and the
# tatonnement runner's apply_round_events had it.  Columnar schedules must
# reproduce it bit for bit.
# ---------------------------------------------------------------------------


def reference_schedule(
    market, horizon, channel, magnitude, seed, distribution="uniform", start_round=1, every=1
):
    """One draw and one (round, channel, payload) triple per event round."""
    rng = np.random.default_rng(seed)

    def draw(size):
        if distribution == "uniform":
            return rng.uniform(-magnitude, magnitude, size=size)
        draws = rng.normal(0.0, magnitude / 2.0, size=size)
        return np.clip(draws, -magnitude, magnitude)

    events = []
    if channel == SUPPLY:
        size, low, high = market.num_goods, 0.5 * market.supplies, 2.0 * market.supplies
        level = market.supplies.copy()
    elif channel == BUDGET:
        size, low, high = market.num_buyers, 0.5 * market.budgets, 2.0 * market.budgets
        level = market.budgets.copy()
    else:
        size = market.coefficients.shape
    for t in range(start_round, horizon + 1, every):
        if channel == UTILITY:
            events.append((t, UTILITY, np.exp(draw(size))))
            continue
        step = draw(size) / size
        outside = (level + step < low) | (level + step > high)
        step = np.where(outside, -step, step)
        level = level + step
        events.append((t, channel, step))
    return events


def reference_round_events(market, events, config):
    """One round's events in (channel) order: check, cap, shrink test, apply."""
    total, shrinks = 0.0, False
    for round_, channel, payload in events:
        ev = event(channel, payload, round_)
        total += jump_cap(
            ev, market.rho, market.total_budget, config.variant, config.price_cap,
            config.c_prime,
        )[0]
        if channel == SUPPLY:
            factors = (market.supplies + payload) / market.supplies
            first = factors[0]
            shrinks |= bool(
                first < 1.0 and (1.0 + config.lam) * first <= 1.0
                and (np.abs(factors - first) <= 1e-8 + 1e-12 * abs(first)).all()
            )
        market = applied(market, ev)
    return market, total, shrinks


def reference_run(market, events, config, horizon):
    """Per round: the market after its events, and its summed jump cap."""
    by_round = {}
    for ev in sorted(events, key=itemgetter(0, 1)):
        by_round.setdefault(ev[0], []).append(ev)
    markets, jumps, shrinks = [], [], False
    for t in range(1, horizon + 1):
        market, jump, shrink = reference_round_events(market, by_round.get(t, []), config)
        markets.append(market)
        jumps.append(jump)
        shrinks |= shrink
    return markets, np.array(jumps), shrinks


def columnar_run(market, schedule, config, horizon, monkeypatch):
    """The runner's per-round markets (read at each demand call) and jump caps."""
    seen = []

    def recording(m, prices):
        seen.append(m)
        return demand(m, prices)

    monkeypatch.setattr(tatonnement, "demand", recording)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = run_tatonnement_trace(
            market, uniform_prices(market), config, schedule, 0.5, horizon
        )
    monkeypatch.undo()
    shrinks = any("uniform supply shrink" in str(w.message) for w in caught)
    return seen[1:], trace.delta, shrinks


def assert_runs_match(market, events, schedule, config, horizon, monkeypatch):
    try:
        want = reference_run(market, events, config, horizon)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            columnar_run(market, schedule, config, horizon, monkeypatch)
        return
    got = columnar_run(market, schedule, config, horizon, monkeypatch)
    assert len(got[0]) == len(want[0]) == horizon
    for a, b in zip(got[0], want[0]):
        for f in ("supplies", "budgets", "coefficients"):
            assert np.array_equal(getattr(a, f), getattr(b, f)), f
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


def _config(market, variant):
    if variant == "misspending":
        return TatonnementConfig(
            lam=default_step_size(market), price_cap=2 * market.total_budget
        )
    return TatonnementConfig(
        lam=0.05, variant="cpf", price_cap=2 * market.total_budget, c_prime=1.5
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    channel=st.sampled_from(CHANNELS),
    distribution=st.sampled_from(["uniform", "gaussian"]),
    variant=st.sampled_from(["misspending", "cpf"]),
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    magnitude=st.sampled_from([0.0, 0.01, 0.3, 4.0]),
    start_round=st.integers(1, 4),
    every=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_columnar_schedule_matches_per_event_oracle(
    channel, distribution, variant, m, n, magnitude, start_round, every, seed
):
    market = random_market(seed, m, n, unit_supplies=variant == "cpf")
    horizon = 10
    spec = (channel, magnitude, seed, distribution, start_round, every)
    schedule = generate_schedule(market, horizon, *spec)
    events = reference_schedule(market, horizon, *spec)
    got = rows_of(schedule) if events else []
    assert [r for r, _ in got] == [t for t, _, _ in events]
    for (_, row), (_, _, payload) in zip(got, events):
        assert np.array_equal(row, payload)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_runs_match(market, events, schedule, _config(market, variant), horizon, monkeypatch)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    variant=st.sampled_from(["misspending", "cpf"]),
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    draws=st.lists(
        st.tuples(st.integers(1, 8), st.sampled_from(CHANNELS), st.integers(0, 2**16)),
        max_size=12,
    ),
)
def test_explicit_events_match_per_event_oracle(variant, m, n, draws):
    # Several channels per round, budget events among them: the caps that
    # read the total budget see the budgets of their own round.
    market = random_market(m + 10 * n, m, n, unit_supplies=variant == "cpf")
    triples, seen = [], set()
    for round_, channel, seed in draws:
        if (round_, channel) in seen:
            continue
        seen.add((round_, channel))
        rng = np.random.default_rng(seed)
        if channel == UTILITY:
            payload = np.exp(rng.uniform(-0.05, 0.05, (m, n)))
        else:
            payload = rng.uniform(-0.05, 0.05, n if channel == SUPPLY else m)
        triples.append((round_, channel, payload))
    schedule = PerturbationSchedule.from_events(triples)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_runs_match(market, triples, schedule, _config(market, variant), 8, monkeypatch)


@pytest.mark.parametrize("magnitude", [0.01, 100.0, 150.0])
def test_large_supply_schedule_matches_per_event_oracle(monkeypatch, magnitude):
    # 200 goods.  At magnitude 100 a step component is up to 0.5 against
    # supplies in [0.5, 2], so over a hundred components reflect; at 150 a
    # reflected walk still drives a supply negative, which both paths reject
    # with the same message.
    market = random_market(17, 200, 200)
    schedule = generate_schedule(market, 6, SUPPLY, magnitude, seed=18)
    events = reference_schedule(market, 6, SUPPLY, magnitude, seed=18)
    for (_, row), (_, _, payload) in zip(rows_of(schedule), events, strict=True):
        assert np.array_equal(row, payload)
    raw = np.random.default_rng(18).uniform(-magnitude, magnitude, (6, 200))
    reflected = sum(
        int(np.count_nonzero(np.sign(ev[2]) != np.sign(r))) for ev, r in zip(events, raw)
    )
    assert (reflected > 100) == (magnitude > 1)
    assert_runs_match(market, events, schedule, _config(market, "misspending"), 6, monkeypatch)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    variant=st.sampled_from(["misspending", "cpf"]),
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    budget_rounds=st.sets(st.integers(1, 12), min_size=1, max_size=6),
    other_rounds=st.sets(st.integers(1, 12), max_size=8),
    seed=st.integers(0, 2**16),
)
def test_caps_at_per_row_totals_match_caps_on_budget_level_markets(
    variant, m, n, budget_rounds, other_rounds, seed
):
    # The runner prices every row of a column in one `jump_cap` call, at the
    # total budget of the latest budget level on or before the row's round.
    # Oracle: one cap per row, on the market that budget level makes.
    market0 = random_market(seed, m, n)
    config = _config(market0, variant)
    rng = np.random.default_rng(seed)
    budget = ScheduleColumn(
        BUDGET, sorted(budget_rounds), rng.uniform(-0.05, 0.05, (len(budget_rounds), m))
    )
    levels = budget.rows(market0)
    totals = np.append(market0.total_budget, levels.sum(axis=1))
    rounds = sorted(other_rounds | {min(budget_rounds)})  # at least one shared round
    size = len(rounds)
    columns = (
        budget,
        ScheduleColumn(SUPPLY, rounds, rng.uniform(-0.05, 0.05, (size, n))),
        ScheduleColumn(UTILITY, rounds, np.exp(rng.uniform(-0.05, 0.05, (size, m, n)))),
    )
    for column in columns:
        row_totals = totals[np.searchsorted(budget.rounds, column.rounds, side="right")]
        got = jump_cap(
            column, market0.rho, row_totals, variant, config.price_cap, config.c_prime
        )
        want = []
        for t, payload in zip(column.rounds.tolist(), column.payload):
            k = sum(r <= t for r in budget_rounds)
            market = apply_row(market0, BUDGET, levels[k - 1]) if k else market0
            want.append(jump_cap(
                event(column.channel, payload, t), market.rho, market.total_budget,
                variant, config.price_cap, config.c_prime,
            )[0])
        assert np.array_equal(got, want), column.channel
