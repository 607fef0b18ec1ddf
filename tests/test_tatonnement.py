import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqtracer import (
    BUDGET,
    CHANNELS,
    SUPPLY,
    CesMarket,
    PerturbationSchedule,
    TatonnementConfig,
    Trace,
    default_step_size,
    demand,
    delta_ms_supply,
    generate_schedule,
    run_tatonnement_trace,
    solve_equilibrium,
    step_cpf,
    step_ms,
)
import eqtracer.market
import eqtracer.tatonnement
from eqtracer.tatonnement import MISSPENDING, fit_contraction
from eqtracer.instances import random_market, uniform_prices
from test_perturbation import reference_run, reference_schedule


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
            demand(market, prices).misspending
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
        prices = uniform_prices(market)
        trace = run_tatonnement_trace(
            market, prices, config, PerturbationSchedule(), 0.05, 0
        )
        assert len(trace) == 0
        assert trace.initial == demand(market, prices).misspending

    def test_static_convergence_and_monotone_tail(self):
        market = random_market(4, 4, 4)
        config = TatonnementConfig(
            lam=default_step_size(market),
            price_cap=2 * market.total_budget,
        )
        trace = run_tatonnement_trace(
            market, uniform_prices(market), config, PerturbationSchedule(), 0.001, 2000
        )
        potentials = trace.potential
        assert potentials[-1] < 1e-6 * market.total_budget
        assert (potentials[1:] <= potentials[:-1] + 1e-12).all()

    def test_supply_bump_jump_bounded_then_recontracts(self):
        market = random_market(5, 3, 4)
        cap = 2 * market.total_budget
        config = TatonnementConfig(lam=default_step_size(market), price_cap=cap)
        eps = np.array([0.05, -0.02, 0.0, 0.03])
        schedule = PerturbationSchedule.from_events([(50, SUPPLY, eps)])
        trace = run_tatonnement_trace(
            market, uniform_prices(market), config, schedule, 0.001, 120
        )
        jump = trace.potential[49] - trace.potential[48]
        assert jump <= delta_ms_supply(schedule.columns[0], cap)[0] + 1e-9
        tail = trace.potential[49:]
        assert (tail[1:] <= tail[:-1] + 1e-12).all()

    def test_envelope_dominates_with_fitted_rate(self):
        market = random_market(6, 3, 4)
        config = TatonnementConfig(
            lam=default_step_size(market),
            price_cap=2 * market.total_budget,
        )
        delta, prices = fit_contraction(market, uniform_prices(market), config, 100)
        eps = np.full(4, 0.002)
        events = [(t, SUPPLY, eps * (-1) ** t) for t in range(1, 301)]
        trace = run_tatonnement_trace(
            market, prices, config, PerturbationSchedule.from_events(events), delta, 300
        )
        assert (trace.potential <= trace.bound + 1e-9).all()
        assert trace.assumption1_ok.all()

    def test_schedule_beyond_horizon_rejected(self):
        market = random_market(7, 2, 2)
        config = TatonnementConfig(lam=0.05, price_cap=2 * market.total_budget)
        schedule = PerturbationSchedule.from_events([(10, SUPPLY, np.zeros(2))])
        with pytest.raises(ValueError, match="beyond the horizon"):
            run_tatonnement_trace(market, uniform_prices(market), config, schedule, 0.05, 5)

    def test_budget_events_in_cpf_trace_need_c_prime(self):
        market = random_market(8, 2, 2)
        config = TatonnementConfig(
            lam=0.05, variant="cpf", price_cap=2 * market.total_budget
        )
        schedule = PerturbationSchedule.from_events(
            [(1, "budget-additive", np.array([0.01, 0.0]))]
        )
        with pytest.raises(ValueError, match="c_prime"):
            run_tatonnement_trace(market, uniform_prices(market), config, schedule, 0.05, 2)

    def test_uniform_shrink_warns_when_untraceable(self):
        market = random_market(9, 2, 3, unit_supplies=True)
        lam = 0.02
        config = TatonnementConfig(lam=lam, price_cap=2 * market.total_budget)
        shrink = -(1 - 1 / (1 + lam)) * 1.5  # factor below 1/(1+lam)
        events = [(1, SUPPLY, np.full(3, shrink))]
        with pytest.warns(RuntimeWarning, match="tracing"):
            run_tatonnement_trace(
                market, uniform_prices(market), config,
                PerturbationSchedule.from_events(events), 0.05, 1,
            )

    @pytest.mark.parametrize(
        "channel, field, start, step, message",
        [
            (SUPPLY, "supplies", 1.0, -0.3, "supply event would drive a supply non-positive"),
            (BUDGET, "budgets", 1e308, 2e307, "budget event would drive a budget to infinity"),
        ],
    )
    def test_cumulative_levels_are_checked_before_round_one(
        self, monkeypatch, channel, field, start, step, message
    ):
        # The fourth event is the first to leave the valid range; the error
        # comes before the first round's demand, with the single-event text.
        market = random_market(12, 2, 2).replace(**{field: [start, 1.0]})
        config = TatonnementConfig(lam=0.05, price_cap=1e309)
        calls = []
        monkeypatch.setattr(
            eqtracer.tatonnement, "demand", lambda *a: calls.append(1) or demand(*a)
        )
        events = [(t, channel, [step, 0.0]) for t in range(3, 9)]
        with pytest.raises(ValueError, match=message):
            run_tatonnement_trace(
                market, uniform_prices(market), config,
                PerturbationSchedule.from_events(events), 0.05, 10,
            )
        assert len(calls) == 1  # the initial potential only

    def test_levels_start_from_the_runners_market(self, monkeypatch):
        # A schedule drawn on one market walks inside [0.5, 2] x its supplies.
        # Run on another market, its levels are that market's supplies plus
        # the steps in turn, and they are checked against that market.
        market = random_market(12, 3, 4)
        config = TatonnementConfig(
            lam=default_step_size(market), price_cap=2 * market.total_budget
        )
        schedule = generate_schedule(market, 40, SUPPLY, 0.5, seed=3)
        run_tatonnement_trace(market, uniform_prices(market), config, schedule, 0.05, 40)
        scarce = market.replace(supplies=np.full(4, 0.01))
        with pytest.raises(ValueError, match="supply event would drive a supply non-positive"):
            run_tatonnement_trace(scarce, uniform_prices(scarce), config, schedule, 0.05, 40)
        seen = []
        monkeypatch.setattr(
            eqtracer.tatonnement, "demand", lambda m, p: seen.append(m.supplies) or demand(m, p)
        )
        ample = market.replace(supplies=market.supplies * 10)
        run_tatonnement_trace(ample, uniform_prices(ample), config, schedule, 0.05, 40)
        level = ample.supplies
        for step, supplies in zip(schedule.columns[0].payload, seen[1:], strict=True):
            level = level + step
            assert np.array_equal(supplies, level)

    @pytest.mark.parametrize("spread", [0.0, 0.5e-8, 0.99e-8, 1.01e-8, 2e-8, 1e-6])
    def test_uniform_shrink_tolerance_matches_allclose(self, spread):
        # The uniformity test keeps np.allclose's default absolute tolerance.
        market = random_market(9, 2, 3, unit_supplies=True)
        config = TatonnementConfig(lam=0.02, price_cap=2 * market.total_budget)
        payload = np.full(3, -0.05) + np.array([0.0, spread, -spread])
        factors = (market.supplies + payload) / market.supplies
        expected = np.allclose(factors, factors[0], rtol=1e-12)
        schedule = PerturbationSchedule.from_events([(1, SUPPLY, payload)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_tatonnement_trace(market, uniform_prices(market), config, schedule, 0.05, 1)
        shrinks = [w for w in caught if "tracing" in str(w.message)]
        assert bool(shrinks) == expected == (spread < 1e-8)

class TestFitContraction:
    def test_fitted_rate_is_attained(self):
        market = random_market(10, 3, 3)
        config = TatonnementConfig(
            lam=default_step_size(market), price_cap=2 * market.total_budget
        )
        delta_hat, _ = fit_contraction(market, uniform_prices(market), config, rounds=50)
        assert 0 < delta_hat <= 1

    def test_zero_rounds_rejected(self):
        market = random_market(11, 2, 2)
        config = TatonnementConfig(lam=0.05, price_cap=2 * market.total_budget)
        with pytest.raises(ValueError, match="warm-up"):
            fit_contraction(market, uniform_prices(market), config, rounds=0)


def _reference_setup(variant, seed):
    market = random_market(seed, 4, 5)
    lam = default_step_size(market) if variant == MISSPENDING else 0.05
    config = TatonnementConfig(
        lam=lam, variant=variant, price_cap=2 * market.total_budget, c_prime=1.0
    )
    if variant == MISSPENDING:
        return market, config, step_ms, lambda m, p: demand(m, p).misspending
    return market, config, step_cpf, _reference_cpf(market)


def _reference_cpf(market):
    """DemandProfile.cpf - psi_star after a cold solve, re-solved warm on each new market."""
    solved = {"market": market, "eq": solve_equilibrium(market)}

    def potential(market, prices):
        if market is not solved["market"]:
            solved["eq"] = solve_equilibrium(market, previous=solved["eq"])
            solved["market"] = market
        return demand(market, prices).cpf - solved["eq"].psi_star

    return potential


def _reference_fit(market, prices, config, step, potential, rounds):
    """fit_contraction written out: demand evaluated afresh by every call."""
    p = np.asarray(prices, dtype=float)
    phi = potential(market, p)
    floor = max(phi * 1e-12, 1e-300)
    rates = []
    for _ in range(rounds):
        p = step(p, market, config.lam)
        phi_next = potential(market, p)
        if phi > floor:
            rates.append(1.0 - phi_next / phi)
        phi = phi_next
    return min(rates), p


def _reference_trace(market, prices, config, step, potential, events, delta, horizon):
    """run_tatonnement_trace written out: demand evaluated afresh by every call,
    and each round's events applied one by one (`reference_run`)."""
    p = np.asarray(prices, dtype=float)
    initial = bound = potential(market, p)
    markets, jumps, _ = reference_run(market, events, config, horizon)
    last, rows = market, []
    for t in range(1, horizon + 1):
        p = step(p, market, config.lam)
        jump = jumps[t - 1]
        if markets[t - 1] is not last:  # the round had events
            # A validated copy that carries no cached state from the old market.
            last = markets[t - 1]
            market = last.replace()
        phi = potential(market, p)
        bound = (1.0 - delta) * bound + jump
        rows.append((phi, jump, bound, p.max(), p.min(), p.max() <= config.price_cap))
    phis, jumps, bounds, highs, lows, oks = (np.array(c) for c in zip(*rows))
    return Trace(
        initial=initial, potential=phis, delta=jumps, bound=bounds,
        max_price=highs, min_price=lows, assumption1_ok=oks,
    )


class TestReferenceEquivalence:
    """Sharing one demand per round changes no bit of a fit or a trace."""

    @pytest.mark.parametrize("variant", [MISSPENDING, "cpf"])
    @pytest.mark.parametrize("channel", CHANNELS)
    def test_fit_and_trace_match_reference_bitwise(self, variant, channel):
        seed = 20 + CHANNELS.index(channel)
        market, config, step, potential = _reference_setup(variant, seed)
        prices = uniform_prices(market) * np.linspace(0.7, 1.4, market.num_goods)

        got = fit_contraction(market, prices, config, 15)
        want = _reference_fit(market, prices, config, step, potential, 15)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])

        schedule = generate_schedule(market, 25, channel, magnitude=0.01, seed=seed)
        trace = run_tatonnement_trace(market, got[1], config, schedule, got[0], 25)
        events = reference_schedule(market, 25, channel, magnitude=0.01, seed=seed)
        want = _reference_trace(market, got[1], config, step, potential, events, got[0], 25)
        # Every column, None for None; kl and recurrence are None on both.
        for field in fields(Trace):
            name = field.name
            assert np.array_equal(getattr(trace, name), getattr(want, name)), name


class TestDemandCalls:
    @pytest.fixture
    def calls(self, monkeypatch):
        counter = []
        original = eqtracer.market.demand

        def counting(*args, **kwargs):
            counter.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(eqtracer.market, "demand", counting)
        monkeypatch.setattr(eqtracer.tatonnement, "demand", counting)
        return counter

    def test_trace_evaluates_demand_once_per_round(self, calls):
        market = random_market(30, 3, 4)
        config = TatonnementConfig(
            lam=default_step_size(market), price_cap=2 * market.total_budget
        )
        schedule = generate_schedule(market, 40, SUPPLY, 0.01, seed=1)
        run_tatonnement_trace(market, uniform_prices(market), config, schedule, 0.01, 40)
        assert len(calls) == 40 + 1

    def test_fit_evaluates_demand_once_per_round(self, calls):
        market = random_market(31, 3, 4)
        config = TatonnementConfig(
            lam=default_step_size(market), price_cap=2 * market.total_budget
        )
        fit_contraction(market, uniform_prices(market), config, 25)
        assert len(calls) == 25 + 1


class TestWarmSolves:
    """A cpf run re-solves warm once per round whose events changed the market."""

    @pytest.fixture
    def warm_solves(self, monkeypatch):
        warm = []
        original = eqtracer.tatonnement.solve_equilibrium

        def counting(market, *args, **kwargs):
            if kwargs.get("previous") is not None:
                warm.append(market)
            return original(market, *args, **kwargs)

        monkeypatch.setattr(eqtracer.tatonnement, "solve_equilibrium", counting)
        return warm

    def test_fit_and_trace_count_warm_solves(self, warm_solves):
        market = random_market(32, 3, 4)
        config = TatonnementConfig(
            lam=0.05, variant="cpf", price_cap=2 * market.total_budget
        )
        delta, prices = fit_contraction(market, uniform_prices(market), config, 20)
        assert warm_solves == []
        schedule = generate_schedule(market, 40, SUPPLY, 0.01, seed=2, every=5)
        assert schedule.columns[0].rounds.tolist() == list(range(1, 41, 5))
        run_tatonnement_trace(market, prices, config, schedule, delta, 40)
        assert len(warm_solves) == 40 // 5
        assert len(set(map(id, warm_solves))) == len(warm_solves)
