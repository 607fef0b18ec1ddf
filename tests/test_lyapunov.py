import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqtracer import (
    ScheduleSpec,
    TatonnementConfig,
    bregman_bound,
    default_step_size,
    dominant_window,
    fit_prd_constants,
    generate_schedule,
    kl_divergence,
    meta_bound,
    misspending_potential,
    proportional_bids,
    run_prd_trace,
    run_tatonnement_trace,
    solve_equilibrium,
    windowed_bound,
)
from eqtracer.instances import random_market, uniform_prices


class TestMetaBound:
    def test_pure_decay(self):
        assert meta_bound(1.0, 0.5, [0.0, 0.0], 2) == pytest.approx(0.25)

    def test_jump_accumulation(self):
        assert meta_bound(0.0, 0.5, [1.0, 1.0], 2) == pytest.approx(1.5)

    def test_zero_horizon_returns_start(self):
        assert meta_bound(3.0, 0.9, [], 0) == 3.0

    def test_constant_jumps_below_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            delta = rng.uniform(0.01, 1.0)
            jump = rng.uniform(0.0, 2.0)
            phi0 = rng.uniform(0.0, 5.0)
            T = int(rng.integers(1, 50))
            value = meta_bound(phi0, delta, [jump] * T, T)
            assert value <= (1 - delta) ** T * phi0 + jump / delta + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="jump"):
            meta_bound(1.0, 0.5, [0.1], 2)


class TestWindowedBound:
    def test_full_split_collapses(self):
        value = windowed_bound(2.0, 0.25, [1.0, 2.0], 2, 2)
        assert value == pytest.approx(2.0 / 0.25 + 0.75**2 * 2.0)

    def test_no_jumps_any_split(self):
        for t in range(4):
            assert windowed_bound(1.0, 0.5, [0.0] * 3, 3, t) == pytest.approx(0.125)

    @settings(max_examples=100, deadline=None)
    @given(
        phi0=st.floats(0, 5),
        delta=st.floats(0.01, 1.0),
        jumps=st.lists(st.floats(0, 1), min_size=1, max_size=20),
        data=st.data(),
    )
    def test_dominates_meta(self, phi0, delta, jumps, data):
        T = len(jumps)
        t = data.draw(st.integers(0, T))
        assert windowed_bound(phi0, delta, jumps, T, t) >= meta_bound(
            phi0, delta, jumps, T
        ) - 1e-12

    def test_invalid_split(self):
        with pytest.raises(ValueError, match="split"):
            windowed_bound(1.0, 0.5, [0.0], 1, 2)


class TestDominantWindow:
    def test_unit_rate_log(self):
        assert dominant_window(1.0, 3, 0.5, 0.5) == math.ceil(math.log(3))

    def test_monotone_in_horizon(self):
        values = [dominant_window(0.1, T, 0.5, 0.5) for T in (2, 10, 100, 1000)]
        assert values == sorted(values)

    def test_decreasing_in_rate(self):
        values = [dominant_window(d, 100, 0.5, 0.5) for d in (0.05, 0.1, 0.5, 1.0)]
        assert values == sorted(values, reverse=True)


class TestBregmanBound:
    def test_geometric_envelope(self):
        assert bregman_bound(2.0, 0.5, 1.0, [0.0] * 4, 4) == pytest.approx(
            0.5 * 0.5**3 * 2.0
        )

    def test_single_round(self):
        assert bregman_bound(1.0, 1.0, 2.0, [0.5], 1) == pytest.approx(1.5)

    def test_monotone_in_each_jump(self):
        base = bregman_bound(1.0, 0.5, 1.0, [0.1, 0.1, 0.1], 3)
        for i in range(3):
            jumps = [0.1] * 3
            jumps[i] = 0.2
            assert bregman_bound(1.0, 0.5, 1.0, jumps, 3) > base

    def test_scaling_constants_rescales_lead_term_only(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q1 = rng.uniform(0.1, 1.0)
            q2 = q1 + rng.uniform(0.1, 1.0)
            c = rng.uniform(1.1, 3.0)
            jumps = list(rng.uniform(0, 1, 4))
            d0 = rng.uniform(0, 2)
            scaled = bregman_bound(d0, c * q1, c * q2, jumps, 4)
            plain = bregman_bound(d0, q1, q2, jumps, 4)
            tail = bregman_bound(0.0, q1, q2, jumps, 4)
            lead = plain - tail
            assert scaled == pytest.approx(c * lead + tail, rel=1e-9)

    def test_requires_ordered_constants(self):
        with pytest.raises(ValueError, match="q1 < q2"):
            bregman_bound(1.0, 2.0, 1.0, [0.0], 1)


class TestRunnersFollowClosedForms:
    """The runners' round-by-round bound columns against the closed forms."""

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_tatonnement_bound_is_meta_bound(self, seed):
        market = random_market(seed, 4, 5)
        config = TatonnementConfig(
            lam=default_step_size(market),
            price_cap=2 * market.total_budget,
        )
        schedule = generate_schedule(
            ScheduleSpec(channel="supply-additive", magnitude=0.01, seed=seed + 5),
            market,
            150,
        )
        prices = uniform_prices(market)
        records = run_tatonnement_trace(market, prices, config, schedule, 0.01, 150)
        phi0 = misspending_potential(market, prices)
        jumps = [r.delta for r in records]
        assert any(jumps)
        for T, record in enumerate(records, start=1):
            assert record.bound == pytest.approx(
                meta_bound(phi0, 0.01, jumps[:T], T), rel=1e-12
            )

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_prd_bound_dominates_bregman_bound(self, seed):
        market = random_market(seed, 3, 4, unit_supplies=True)
        bound, bids = fit_prd_constants(market, proportional_bids(market))
        schedule = generate_schedule(
            ScheduleSpec(
                channel="utility-multiplicative", magnitude=0.005, seed=seed + 5
            ),
            market,
            100,
        )
        records = run_prd_trace(market, bids, schedule, bound, 100)
        kl_anchor = kl_divergence(solve_equilibrium(market, tolerance=1e-10).bids, bids)
        jumps = [r.delta for r in records]
        assert any(jumps)
        for T, record in enumerate(records, start=1):
            assert record.bound >= bregman_bound(
                kl_anchor, bound.q1, bound.q2, jumps[:T], T
            )
