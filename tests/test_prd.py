from dataclasses import fields

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
    PrdBoundConfig,
    ScheduleSpec,
    check_bids,
    fit_prd_constants,
    generate_schedule,
    kl_divergence,
    prd_potential_g,
    prd_step,
    proportional_bids,
    reduce_supply_to_utility,
    run_prd_trace,
    solve_equilibrium,
)
from eqtracer.instances import random_market
from eqtracer.trace import Trace


def single_buyer(a=(1.0, 1.0), rho=0.5):
    return CesMarket(
        budgets=[1.0], supplies=[1.0, 1.0], rho=[rho], coefficients=[list(a)]
    )


class TestStep:
    def test_symmetric_single_buyer_stays_put(self):
        bids = prd_step(np.array([[0.5, 0.5]]), single_buyer())
        assert bids == pytest.approx(np.array([[0.5, 0.5]]), abs=1e-15)

    def test_asymmetric_coefficients(self):
        bids = prd_step(np.array([[0.5, 0.5]]), single_buyer(a=(4.0, 1.0)))
        assert bids == pytest.approx(np.array([[0.8, 0.2]]), abs=1e-14)

    def test_equilibrium_is_fixed_point(self):
        market = random_market(0, 3, 4, unit_supplies=True)
        eq = solve_equilibrium(market, tolerance=1e-12)
        moved = prd_step(eq.bids, market)
        assert np.allclose(moved, eq.bids, atol=1e-9)

    def test_row_sums_pinned_without_drift(self):
        # Renormalisation anchors each row at the budget to the last rounding
        # unit, so sums cannot random-walk away over long runs.
        market = random_market(1, 4, 5, unit_supplies=True)
        ulp = np.spacing(market.budgets)
        bids = proportional_bids(market)
        for _ in range(2000):
            bids = prd_step(bids, market)
            assert np.all(np.abs(bids.sum(axis=1) - market.budgets) <= 2 * ulp)

    def test_support_preserved(self):
        market = random_market(2, 3, 4, unit_supplies=True, zero_fraction=0.3)
        bids = proportional_bids(market)
        for _ in range(50):
            bids = prd_step(bids, market)
            assert np.array_equal(bids > 0, market.coefficients > 0)

    def test_price_consistency(self):
        market = random_market(3, 3, 4, unit_supplies=True)
        bids = proportional_bids(market)
        for _ in range(50):
            bids = prd_step(bids, market)
            assert bids.sum() == pytest.approx(market.total_budget, rel=1e-12)

    def test_rejects_non_substitutes(self):
        market = CesMarket(
            budgets=[1.0], supplies=[1.0], rho=[-0.5], coefficients=[[1.0]]
        )
        with pytest.raises(ValueError, match="rho"):
            prd_step(np.array([[1.0]]), market)

    def test_rejects_dead_good_with_positive_coefficient(self):
        market = single_buyer()
        with pytest.raises(ValueError, match="zero total bids"):
            prd_step(np.array([[1.0, 0.0]]), market)


class TestKl:
    def test_identity_is_zero(self):
        x = np.array([0.2, 0.8])
        assert kl_divergence(x, x) == 0.0

    def test_point_mass(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2))

    def test_mass_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            kl_divergence([1.0, 0.0], [0.5, 0.6])

    def test_support_violation_rejected(self):
        with pytest.raises(ValueError, match="support"):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.lists(st.floats(0.001, 1.0), min_size=2, max_size=8),
        y=st.lists(st.floats(0.001, 1.0), min_size=2, max_size=8),
    )
    def test_non_negative_on_equal_mass(self, x, y):
        x = np.asarray(x[: min(len(x), len(y))])
        y = np.asarray(y[: len(x)])
        x /= x.sum()
        y /= y.sum()
        assert kl_divergence(x, y) >= 0.0


class TestPotential:
    def test_singleton_value_zero(self):
        market = CesMarket(budgets=[1.0], supplies=[1.0], rho=[0.5], coefficients=[[1.0]])
        assert prd_potential_g(market, np.array([[1.0]])) == pytest.approx(0.0, abs=1e-15)

    def test_permutation_invariance(self):
        market = random_market(4, 3, 4, unit_supplies=True)
        bids = proportional_bids(market)
        perm = [2, 0, 3, 1]
        shuffled = market.replace(coefficients=market.coefficients[:, perm])
        assert prd_potential_g(shuffled, bids[:, perm]) == pytest.approx(
            prd_potential_g(market, bids), rel=1e-12
        )

    def test_equilibrium_minimises_over_random_feasible_bids(self):
        market = random_market(5, 3, 3, unit_supplies=True)
        eq = solve_equilibrium(market, tolerance=1e-10)
        g_star = prd_potential_g(market, eq.bids)
        rng = np.random.default_rng(0)
        for _ in range(100):
            raw = rng.random(market.coefficients.shape)
            bids = market.budgets[:, None] * raw / raw.sum(axis=1, keepdims=True)
            assert prd_potential_g(market, bids) - g_star >= -1e-8

    def test_decreases_along_trajectories(self):
        market = random_market(6, 3, 4, unit_supplies=True)
        eq = solve_equilibrium(market, tolerance=1e-10)
        g_star = prd_potential_g(market, eq.bids)
        bids = proportional_bids(market)
        previous = prd_potential_g(market, bids) - g_star
        for _ in range(300):
            bids = prd_step(bids, market)
            current = prd_potential_g(market, bids) - g_star
            assert current <= previous + 1e-12
            previous = current

    def test_positive_bid_on_zero_coefficient_rejected(self):
        market = single_buyer(a=(1.0, 0.0))
        with pytest.raises(ValueError, match="zero coefficient"):
            prd_potential_g(market, np.array([[0.5, 0.5]]))


class TestReduction:
    def test_zero_change_unit_market_unchanged(self):
        market = random_market(7, 2, 3, unit_supplies=True)
        reduced = reduce_supply_to_utility(market)
        assert np.array_equal(reduced.coefficients, market.coefficients)
        assert np.array_equal(reduced.supplies, np.ones(3))

    def test_log_change_scales_coefficients(self):
        # Supply 2 folds in as the factor 2^rho.
        market = CesMarket(budgets=[1.0], supplies=[2.0], rho=[0.5], coefficients=[[2.0]])
        reduced = reduce_supply_to_utility(market)
        assert reduced.coefficients[0, 0] == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-14)
        assert np.array_equal(reduced.supplies, [1.0])

    def test_trajectories_match_entrywise(self):
        market = random_market(8, 3, 4)  # non-unit supplies
        image = reduce_supply_to_utility(market)
        bids_a = proportional_bids(market)
        bids_b = bids_a.copy()
        for _ in range(500):
            bids_a = prd_step(bids_a, market)
            bids_b = prd_step(bids_b, image)
            assert np.abs(bids_a - bids_b).max() <= 1e-9


class TestFitAndTrace:
    def test_fit_produces_ordered_constants(self):
        market = random_market(9, 3, 4, unit_supplies=True)
        bound, _, _ = fit_prd_constants(market, proportional_bids(market), rounds=100)
        assert 0 < bound.q1 < bound.q2

    def test_bound_config_validation(self):
        with pytest.raises(ValueError):
            PrdBoundConfig(q1=2.0, q2=1.0)

    def test_zero_horizon_empty(self):
        market = random_market(10, 2, 3, unit_supplies=True)
        bids = proportional_bids(market)
        trace = run_prd_trace(
            market, bids, PerturbationSchedule(), PrdBoundConfig(0.5, 1.0), 0
        )
        assert len(trace) == 0
        g_star = prd_potential_g(market, solve_equilibrium(market, tolerance=1e-10).bids)
        assert trace.initial == prd_potential_g(market, bids) - g_star

    def test_budget_events_rejected(self):
        market = random_market(11, 2, 3, unit_supplies=True)
        schedule = PerturbationSchedule(
            events=(PerturbationEvent(1, BUDGET, np.zeros(2)),)
        )
        with pytest.raises(ValueError, match="budget"):
            run_prd_trace(
                market, proportional_bids(market), schedule, PrdBoundConfig(0.5, 1.0), 2
            )

    def test_static_geometric_envelope_dominates(self):
        market = random_market(12, 3, 3, unit_supplies=True)
        bound, bids, _ = fit_prd_constants(market, proportional_bids(market), rounds=30)
        trace = run_prd_trace(market, bids, PerturbationSchedule(), bound, 200)
        assert (trace.potential <= trace.bound + 1e-9).all()
        assert trace.potential[-1] < trace.potential[0]

    def test_zero_magnitude_schedule_matches_static_bitwise(self):
        market = random_market(13, 3, 3, unit_supplies=True)
        bound = PrdBoundConfig(0.4, 1.0)
        static = run_prd_trace(
            market, proportional_bids(market), PerturbationSchedule(), bound, 50
        )
        zero_events = tuple(
            PerturbationEvent(t, UTILITY, np.ones_like(market.coefficients))
            for t in range(1, 51)
        )
        nulled = run_prd_trace(
            market, proportional_bids(market),
            PerturbationSchedule(events=zero_events), bound, 50,
        )
        for name in ("potential", "kl_to_equilibrium", "bound"):
            assert np.array_equal(getattr(static, name), getattr(nulled, name)), name

    def test_dynamic_supply_events_run_through_reduction(self):
        market = random_market(14, 3, 4, unit_supplies=True)
        spec = ScheduleSpec(channel=SUPPLY, magnitude=0.01, seed=3)
        schedule = generate_schedule(spec, market, 100)
        bound, bids, _ = fit_prd_constants(market, proportional_bids(market))
        trace = run_prd_trace(market, bids, schedule, bound, 100)
        assert (trace.delta >= 0).all()
        assert (trace.potential <= trace.bound + 1e-9).all()

    def test_recurrence_flag_checks_the_gap(self):
        # q1/q2 = 0.9 covers every KL ratio of this static run (at most about
        # 0.63), but the scale is far too small for the potential gap, so the
        # full recurrence gap_t <= q1 KL_{t-1} - q2 KL_t + jump_t fails.
        market = random_market(6, 3, 4, unit_supplies=True)
        bids = proportional_bids(market)
        bound = PrdBoundConfig(0.9e-6, 1e-6)
        trace = run_prd_trace(market, bids, PerturbationSchedule(), bound, 30)
        kl0 = kl_divergence(solve_equilibrium(market, tolerance=1e-10).bids, bids)
        kl = np.concatenate([[kl0], trace.kl_to_equilibrium])
        assert (kl[1:] <= bound.ratio * kl[:-1]).all()
        assert not trace.recurrence_ok.any()

    def test_fitted_equilibrium_reuse_is_bitwise(self):
        market = random_market(16, 3, 4, unit_supplies=True)
        schedule = generate_schedule(ScheduleSpec(UTILITY, 0.005, seed=4), market, 30)
        bound, bids, eq = fit_prd_constants(market, proportional_bids(market), rounds=30)
        reused = run_prd_trace(market, bids, schedule, bound, 30, _equilibrium=eq)
        solved = run_prd_trace(market, bids, schedule, bound, 30)
        for field in fields(Trace):
            name = field.name
            assert np.array_equal(getattr(reused, name), getattr(solved, name)), name

    def test_fitted_equilibrium_reuse_needs_unit_supplies(self):
        market = random_market(17, 3, 4)
        bound, bids, eq = fit_prd_constants(market, proportional_bids(market), rounds=30)
        with pytest.raises(ValueError, match="unit supplies"):
            run_prd_trace(market, bids, PerturbationSchedule(), bound, 5, _equilibrium=eq)

    def test_check_bids_validates_support_and_rows(self):
        market = random_market(15, 2, 3, unit_supplies=True)
        good = proportional_bids(market)
        assert check_bids(market, good) is not None
        bad = good.copy()
        bad[0, 0] = 0.0
        bad[0] *= market.budgets[0] / bad[0].sum()
        with pytest.raises(ValueError, match="positive exactly"):
            check_bids(market, bad)
        short = good.copy()
        short[0, 0] *= 0.5
        with pytest.raises(ValueError, match="sum to the budget"):
            check_bids(market, short)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    m=st.integers(1, 7),
    n=st.integers(1, 7),
    zero_fraction=st.sampled_from([0.0, 0.3]),
    budget_scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_prd_step_pins_row_sums_to_budgets(seed, m, n, zero_fraction, budget_scale):
    base = random_market(seed, m, n, zero_fraction=zero_fraction)
    market = base.replace(budgets=base.budgets * budget_scale)
    bids = proportional_bids(market)
    for _ in range(30):
        bids = prd_step(bids, market)
        rows = bids.sum(axis=1)
        assert (np.abs(rows - market.budgets) <= 1e-15 * market.budgets).all()
