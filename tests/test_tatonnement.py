import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqtracer import (
    SUPPLY,
    CesMarket,
    PerturbationEvent,
    PerturbationSchedule,
    TatonnementConfig,
    default_step_size,
    delta_ms_supply,
    misspending_potential,
    run_tatonnement_trace,
    solve_equilibrium,
    step_cpf,
    step_ms,
)
from eqtracer.tatonnement import fit_contraction
from eqtracer.instances import random_market, uniform_prices


def overdemand_market(x: float):
    """Single buyer, single good: demand b/p, so excess at p=1 is b - w."""
    return CesMarket(budgets=[x], supplies=[1.0], rho=[0.5], coefficients=[[1.0]])


class TestSteps:
    def test_relative_excess_update(self):
        new = step_ms(np.array([1.0]), overdemand_market(2.0), lam=0.1)
        assert new[0] == pytest.approx(1.1, abs=1e-15)

    def test_relative_excess_capped_at_one(self):
        new = step_ms(np.array([1.0]), overdemand_market(5.0), lam=0.1)
        assert new[0] == pytest.approx(1.1, abs=1e-15)

    def test_fixed_point_at_equilibrium(self):
        market = random_market(0, 3, 4)
        prices = solve_equilibrium(market, tolerance=1e-12).prices
        lam = default_step_size(market)
        assert np.allclose(step_ms(prices, market, lam), prices, rtol=1e-9)
        assert np.allclose(step_cpf(prices, market, 0.05), prices, rtol=1e-9)

    def test_absolute_excess_update(self):
        new = step_cpf(np.array([1.0]), overdemand_market(1.5), lam=0.1)
        assert new[0] == pytest.approx(1.05, abs=1e-15)

    def test_absolute_excess_capped(self):
        new = step_cpf(np.array([1.0]), overdemand_market(4.0), lam=0.1)
        assert new[0] == pytest.approx(1.1, abs=1e-15)

    def test_variants_agree_on_unit_supplies_small_excess(self):
        market = random_market(1, 3, 4, unit_supplies=True)
        prices = uniform_prices(market) * 1.1
        profile_excess = np.abs(
            misspending_potential(market, prices)
        )  # sanity the market is off-equilibrium
        assert profile_excess > 0
        assert np.allclose(
            step_ms(prices, market, 0.05), step_cpf(prices, market, 0.05), rtol=1e-15
        )

    def test_cpf_step_rejects_price_collapse(self):
        market = CesMarket(
            budgets=[1.0], supplies=[30.0], rho=[0.5], coefficients=[[1.0]]
        )
        with pytest.raises(ValueError, match="non-positive"):
            step_cpf(np.array([1.0]), market, 0.1)

    def test_step_size_domain(self):
        market = overdemand_market(1.0)
        with pytest.raises(ValueError):
            step_ms(np.array([1.0]), market, 1.5)
        with pytest.raises(ValueError):
            step_cpf(np.array([1.0]), market, 0.2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 5000), scale=st.floats(0.3, 3.0), lam=st.floats(0.01, 0.9))
def test_price_ratio_bounds(seed, scale, lam):
    market = random_market(seed, 3, 3)
    prices = uniform_prices(market) * scale
    ratios = step_ms(prices, market, lam) / prices
    assert np.all(ratios >= 1 - lam - 1e-12)
    assert np.all(ratios <= 1 + lam + 1e-12)


class TestConfig:
    def test_cpf_step_size_limit(self):
        with pytest.raises(ValueError, match="1/6"):
            TatonnementConfig(lam=0.2, variant="cpf")

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            TatonnementConfig(lam=0.1, variant="nope")

    def test_price_cap_must_cover_initial_prices(self):
        market = random_market(2, 2, 2)
        config = TatonnementConfig(lam=0.05, price_cap=1e-3)
        with pytest.raises(ValueError, match="price cap"):
            run_tatonnement_trace(
                market, uniform_prices(market), config, PerturbationSchedule(), 0.01, 1
            )

    @pytest.mark.parametrize("delta", [0.0, 1.5])
    def test_delta_outside_unit_interval_rejected(self, delta):
        market = random_market(2, 2, 2)
        config = TatonnementConfig(lam=0.05, price_cap=2 * market.total_budget)
        with pytest.raises(ValueError, match="delta must lie"):
            run_tatonnement_trace(
                market, uniform_prices(market), config, PerturbationSchedule(), delta, 1
            )


class TestTraces:
    def test_zero_horizon_empty(self):
        market = random_market(3, 2, 3)
        config = TatonnementConfig(lam=0.05, price_cap=2 * market.total_budget)
        assert run_tatonnement_trace(
            market, uniform_prices(market), config, PerturbationSchedule(), 0.05, 0
        ) == []

    def test_static_convergence_and_monotone_tail(self):
        market = random_market(4, 4, 4)
        config = TatonnementConfig(
            lam=default_step_size(market),
            price_cap=2 * market.total_budget,
        )
        records = run_tatonnement_trace(
            market, uniform_prices(market), config, PerturbationSchedule(), 0.001, 2000
        )
        potentials = [r.potential for r in records]
        assert potentials[-1] < 1e-6 * market.total_budget
        assert all(b <= a + 1e-12 for a, b in zip(potentials, potentials[1:]))

    def test_supply_bump_jump_bounded_then_recontracts(self):
        market = random_market(5, 3, 4)
        cap = 2 * market.total_budget
        config = TatonnementConfig(lam=default_step_size(market), price_cap=cap)
        eps = np.array([0.05, -0.02, 0.0, 0.03])
        bump = PerturbationEvent(50, SUPPLY, eps)
        schedule = PerturbationSchedule(events=(bump,))
        records = run_tatonnement_trace(
            market, uniform_prices(market), config, schedule, 0.001, 120
        )
        jump = records[49].potential - records[48].potential
        assert jump <= delta_ms_supply(bump, cap) + 1e-9
        tail = [r.potential for r in records[49:]]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_envelope_dominates_with_fitted_rate(self):
        market = random_market(6, 3, 4)
        config = TatonnementConfig(
            lam=default_step_size(market),
            price_cap=2 * market.total_budget,
        )
        delta, prices, _ = fit_contraction(market, uniform_prices(market), config, 100)
        eps = np.full(4, 0.002)
        events = tuple(
            PerturbationEvent(t, SUPPLY, eps * (-1) ** t) for t in range(1, 301)
        )
        records = run_tatonnement_trace(
            market, prices, config, PerturbationSchedule(events=events), delta, 300
        )
        assert all(r.potential <= r.bound + 1e-9 for r in records)
        assert all(r.assumption1_ok for r in records)

    def test_schedule_beyond_horizon_rejected(self):
        market = random_market(7, 2, 2)
        config = TatonnementConfig(lam=0.05, price_cap=2 * market.total_budget)
        schedule = PerturbationSchedule(
            events=(PerturbationEvent(10, SUPPLY, np.zeros(2)),)
        )
        with pytest.raises(ValueError, match="beyond the horizon"):
            run_tatonnement_trace(market, uniform_prices(market), config, schedule, 0.05, 5)

    def test_budget_events_in_cpf_trace_need_c_prime(self):
        market = random_market(8, 2, 2)
        config = TatonnementConfig(
            lam=0.05, variant="cpf", price_cap=2 * market.total_budget
        )
        schedule = PerturbationSchedule(
            events=(PerturbationEvent(1, "budget-additive", np.array([0.01, 0.0])),)
        )
        with pytest.raises(ValueError, match="c_prime"):
            run_tatonnement_trace(market, uniform_prices(market), config, schedule, 0.05, 2)

    def test_uniform_shrink_warns_when_untraceable(self):
        market = random_market(9, 2, 3, unit_supplies=True)
        lam = 0.02
        config = TatonnementConfig(lam=lam, price_cap=2 * market.total_budget)
        shrink = -(1 - 1 / (1 + lam)) * 1.5  # factor below 1/(1+lam)
        events = (PerturbationEvent(1, SUPPLY, np.full(3, shrink)),)
        with pytest.warns(RuntimeWarning, match="tracing"):
            run_tatonnement_trace(
                market, uniform_prices(market), config,
                PerturbationSchedule(events=events), 0.05, 1,
            )


class TestFitContraction:
    def test_fitted_rate_is_attained(self):
        market = random_market(10, 3, 3)
        config = TatonnementConfig(
            lam=default_step_size(market), price_cap=2 * market.total_budget
        )
        delta_hat, prices, phi = fit_contraction(
            market, uniform_prices(market), config, rounds=50
        )
        assert 0 < delta_hat <= 1
        assert phi == pytest.approx(misspending_potential(market, prices), rel=1e-12)

    def test_zero_rounds_rejected(self):
        market = random_market(11, 2, 2)
        config = TatonnementConfig(lam=0.05, price_cap=2 * market.total_budget)
        with pytest.raises(ValueError, match="warm-up"):
            fit_contraction(market, uniform_prices(market), config, rounds=0)
