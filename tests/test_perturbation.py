import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqtracer import (
    BUDGET,
    SUPPLY,
    UTILITY,
    CesMarket,
    PerturbationEvent,
    PerturbationSchedule,
    ScheduleSpec,
    apply_event,
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
    solve_equilibrium,
)
from eqtracer.instances import random_market, uniform_prices


FIELDS = ("budgets", "supplies", "rho", "coefficients")


def event(channel, payload, round_=1):
    return PerturbationEvent(round_, channel, np.asarray(payload, dtype=float))


class TestEvents:
    def test_zero_supply_event_is_identity(self):
        market = random_market(0, 2, 3)
        out = apply_event(market, event(SUPPLY, np.zeros(3)))
        assert np.array_equal(out.supplies, market.supplies)

    def test_supply_addition(self):
        market = random_market(1, 2, 2).replace(supplies=np.array([1.0, 1.0]))
        out = apply_event(market, event(SUPPLY, [0.1, 0.0]))
        assert out.supplies == pytest.approx([1.1, 1.0])
        assert market.supplies == pytest.approx([1.0, 1.0])  # original untouched

    def test_uniform_utility_factor(self):
        market = random_market(2, 2, 2)
        factors = np.full((2, 2), math.exp(0.01))
        out = apply_event(market, event(UTILITY, factors))
        assert np.allclose(out.coefficients, market.coefficients * math.exp(0.01))

    def test_invalid_supply_rejected(self):
        market = random_market(3, 2, 2).replace(supplies=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="non-positive"):
            apply_event(market, event(SUPPLY, [0.0, -0.5]))

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
            apply_event(market, event(channel, [1e308, 0.0]))

    def test_utility_underflow_of_a_whole_row_rejected(self):
        market = random_market(5, 2, 2).replace(
            coefficients=np.array([[1e-200, 1e-200], [1.0, 1.0]])
        )
        factors = np.array([[1e-200, 1e-200], [1.0, 1.0]])
        with pytest.raises(ValueError, match="no positive coefficient"):
            apply_event(market, event(UTILITY, factors))

    def test_utility_overflow_rejected(self):
        market = random_market(6, 2, 2).replace(
            coefficients=np.array([[1e200, 1.0], [1.0, 1.0]])
        )
        factors = np.array([[1e200, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="infinity"):
            apply_event(market, event(UTILITY, factors))

    @pytest.mark.parametrize("channel", [SUPPLY, BUDGET, UTILITY])
    def test_new_market_read_only_and_original_untouched(self, channel):
        market = random_market(7, 3, 4)
        before = {f: getattr(market, f).copy() for f in FIELDS}
        shape = {SUPPLY: (4,), BUDGET: (3,), UTILITY: (3, 4)}[channel]
        payload = np.full(shape, 1.01 if channel == UTILITY else 0.01)
        out = apply_event(market, event(channel, payload))
        for f in FIELDS:
            assert not getattr(out, f).flags.writeable
            assert np.array_equal(getattr(market, f), before[f])
        with pytest.raises(ValueError):
            out.coefficients[0, 0] = 2.0

    def test_weight_base_cache_tracks_coefficients(self):
        market = random_market(8, 3, 4)
        cached, log_a = market._weight_base, market.log_coefficients
        shifted = apply_event(market, event(SUPPLY, np.full(4, 0.01)))
        assert shifted._weight_base is cached
        assert shifted.log_coefficients is log_a
        factors = np.exp(np.linspace(-0.05, 0.05, 12)).reshape(3, 4)
        out = apply_event(market, event(UTILITY, factors))
        assert np.array_equal(out.log_coefficients, np.log(out.coefficients))
        assert not np.array_equal(out.log_coefficients, log_a)
        fresh = (1.0 - out.demand_exponent[:, None]) * np.log(out.coefficients)
        assert np.array_equal(out._weight_base, fresh)
        assert not np.array_equal(out._weight_base, cached)


class TestSchedules:
    def test_duplicate_round_channel_rejected(self):
        events = (event(SUPPLY, [0.1, 0.0]), event(SUPPLY, [0.0, 0.1]))
        with pytest.raises(ValueError, match="duplicate"):
            PerturbationSchedule(events=events)

    def test_generator_reproducible(self):
        market = random_market(4, 3, 4)
        spec = ScheduleSpec(channel=SUPPLY, magnitude=0.05, seed=11)
        a = generate_schedule(spec, market, 50)
        b = generate_schedule(spec, market, 50)
        assert len(a.events) == len(b.events) == 50
        for ea, eb in zip(a.events, b.events):
            assert np.array_equal(ea.payload, eb.payload)

    def test_generator_respects_magnitude_and_validity(self):
        market = random_market(5, 3, 4)
        spec = ScheduleSpec(channel=SUPPLY, magnitude=0.05, seed=12)
        schedule = generate_schedule(spec, market, 500)
        supplies = market.supplies.copy()
        for e in schedule.events:
            assert np.abs(e.payload).sum() <= 0.05 + 1e-12
            supplies = supplies + e.payload
            assert np.all(supplies > 0)

    def test_utility_generator_bounds_log_factors(self):
        market = random_market(6, 2, 3)
        spec = ScheduleSpec(channel=UTILITY, magnitude=0.01, seed=13)
        schedule = generate_schedule(spec, market, 100)
        for e in schedule.events:
            assert np.all(np.abs(np.log(e.payload)) <= 0.01 + 1e-12)

    @pytest.mark.parametrize("channel", [SUPPLY, BUDGET, UTILITY])
    def test_events_fall_on_start_round_then_every(self, channel):
        market = random_market(7, 3, 4)
        spec = ScheduleSpec(channel, 0.01, seed=14, start_round=3, every=4)
        schedule = generate_schedule(spec, market, 20)
        assert [e.round for e in schedule.events] == [3, 7, 11, 15, 19]

    @pytest.mark.parametrize("channel", [SUPPLY, BUDGET, UTILITY])
    def test_gaussian_payloads_respect_magnitude(self, channel):
        # Draws have standard deviation magnitude/2 and are clipped at the
        # magnitude, so over 200 events some draws reach the clip.
        market = random_market(8, 3, 4)
        spec = ScheduleSpec(channel, 0.05, seed=15, distribution="gaussian")
        events = generate_schedule(spec, market, 200).events
        if channel == UTILITY:
            draws = np.array([np.abs(np.log(e.payload)) for e in events])
        else:
            # Additive components are draws over the payload size.
            assert max(np.abs(e.payload).sum() for e in events) <= 0.05 * (1 + 1e-12)
            draws = np.array([np.abs(e.payload) * e.payload.size for e in events])
        assert draws.max() <= 0.05 * (1 + 1e-12)
        assert draws.max() == pytest.approx(0.05, rel=1e-12)

    @pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
    def test_one_seed_gives_one_schedule(self, distribution):
        market = random_market(9, 3, 4)

        def payloads(seed):
            spec = ScheduleSpec(UTILITY, 0.05, seed, distribution=distribution, every=2)
            return [e.payload for e in generate_schedule(spec, market, 30).events]

        same, again, other = payloads(16), payloads(16), payloads(17)
        assert all(np.array_equal(x, y) for x, y in zip(same, again, strict=True))
        assert not any(np.array_equal(x, y) for x, y in zip(same, other))


class TestJumpCaps:
    def test_supply_cap_plugin(self):
        assert delta_ms_supply(event(SUPPLY, [0.1, 0.0]), price_cap=10.0) == pytest.approx(1.0)
        assert delta_ms_supply(event(SUPPLY, [0.0, 0.0]), price_cap=10.0) == 0.0

    def test_budget_cap_plugin(self):
        assert delta_ms_budget(event(BUDGET, [0.05, -0.05])) == pytest.approx(0.1)

    def test_utility_cap_of_three_equals_budget(self):
        # worst factor 3 moves 2(3-1)/(3+1) = half the budget twice over.
        market = CesMarket(
            budgets=[1.0, 1.0],
            supplies=[1.0],
            rho=[0.5, 0.5],
            coefficients=[[1.0], [1.0]],
        )
        factors = np.full((2, 1), 3.0 ** (1.0 - 0.5))  # gamma^(1/(1-rho)) = 3
        assert delta_ms_utility(event(UTILITY, factors), market) == pytest.approx(
            market.total_budget, rel=1e-12
        )

    def test_identity_utility_event_is_free(self):
        market = random_market(7, 2, 3)
        assert delta_ms_utility(event(UTILITY, np.ones((2, 3))), market) == 0.0
        assert delta_cpf_utility(event(UTILITY, np.ones((2, 3))), market) == 0.0

    def test_cpf_supply_cap_plugin(self):
        market = random_market(8, 2, 2).replace(budgets=np.array([2.0, 3.0]))
        cap = delta_cpf_supply(event(SUPPLY, [0.1, 0.0]), 10.0, market)
        assert cap == pytest.approx((10.0 + 5.0) * 0.1)

    def test_cpf_budget_cap_plugin(self):
        assert delta_cpf_budget(event(BUDGET, [0.1]), c_prime=2.0) == pytest.approx(0.2)

    def test_cpf_utility_single_buyer(self):
        market = CesMarket(budgets=[1.0], supplies=[1.0], rho=[0.5], coefficients=[[1.0]])
        factors = np.full((1, 1), math.exp(0.05))
        cap = delta_cpf_utility(event(UTILITY, factors), market)
        assert cap == pytest.approx(0.2 * market.total_budget, rel=1e-12)

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
            measured = demand(apply_event(market, ev), prices).misspending - \
                demand(market, prices).misspending
            assert measured <= delta_ms_supply(ev, float(prices.max())) + 1e-9

    def test_calibrated_budget_constant_bounds_jump(self):

        market = random_market(21, 3, 3)
        prices = uniform_prices(market) * 1.7
        ev = event(BUDGET, [0.05, -0.03, 0.02])
        perturbed = apply_event(market, ev)
        before = solve_equilibrium(market)
        after = solve_equilibrium(perturbed, previous=before)
        c_prime = calibrate_c_prime(market, [before.prices, after.prices], [prices])
        measured = (demand(perturbed, prices).cpf - after.psi_star) - (
            demand(market, prices).cpf - before.psi_star
        )
        assert measured <= delta_cpf_budget(ev, c_prime) + 1e-9
