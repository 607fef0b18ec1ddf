import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqtracer import (
    PrdBoundConfig,
    TatonnementConfig,
    default_step_size,
    demand,
    generate_schedule,
    kl_divergence,
    meta_bound,
    proportional_bids,
    run_prd_trace,
    running_bound,
    run_tatonnement_trace,
    simulate_diffusion,
    simulate_shifting_quadratic,
    solve_equilibrium,
)
from eqtracer.instances import (
    drifting_quadratic,
    drifting_speeds,
    make_network,
    random_market,
    uniform_prices,
)


class TestMetaBound:
    def test_pure_decay(self):
        assert meta_bound(1.0, 0.5, [0.0, 0.0]) == pytest.approx(0.25)

    def test_jump_accumulation(self):
        assert meta_bound(0.0, 0.5, [1.0, 1.0]) == pytest.approx(1.5)

    def test_zero_horizon_returns_start(self):
        assert meta_bound(3.0, 0.1, []) == 3.0

    def test_constant_jumps_below_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            delta = rng.uniform(0.01, 1.0)
            jump = rng.uniform(0.0, 2.0)
            phi0 = rng.uniform(0.0, 5.0)
            T = int(rng.integers(1, 50))
            value = meta_bound(phi0, 1 - delta, [jump] * T)
            assert value <= (1 - delta) ** T * phi0 + jump / delta + 1e-12

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
    def test_rejects_rate_outside_unit_interval(self, rate):
        with pytest.raises(ValueError, match="rate"):
            meta_bound(1.0, rate, [0.1])

    def test_rejects_negative_jump(self):
        with pytest.raises(ValueError, match="jump"):
            meta_bound(1.0, 0.5, [0.1, -0.1])

    def test_divergence_anchor_decays_geometrically(self):
        # Bid dynamics with q1 = 0.5, q2 = 1 and KL_0 = 2.
        assert meta_bound(1.0 * 2.0, 0.5 / 1.0, [0.0] * 4) == pytest.approx(
            0.5 * 0.5**3 * 2.0
        )

    def test_divergence_single_round(self):
        # q1 = 1, q2 = 2 and KL_0 = 1: q1 KL_0 plus the jump.
        assert meta_bound(2.0 * 1.0, 1.0 / 2.0, [0.5]) == pytest.approx(1.5)

    def test_monotone_in_each_jump(self):
        base = meta_bound(1.0, 0.5, [0.1, 0.1, 0.1])
        for i in range(3):
            jumps = [0.1] * 3
            jumps[i] = 0.2
            assert meta_bound(1.0, 0.5, jumps) > base

    def test_scaling_divergence_constants_rescales_lead_term_only(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q1 = rng.uniform(0.1, 1.0)
            q2 = q1 + rng.uniform(0.1, 1.0)
            c = rng.uniform(1.1, 3.0)
            jumps = list(rng.uniform(0, 1, 4))
            d0 = rng.uniform(0, 2)
            scaled = meta_bound(c * q2 * d0, (c * q1) / (c * q2), jumps)
            plain = meta_bound(q2 * d0, q1 / q2, jumps)
            tail = meta_bound(0.0, q1 / q2, jumps)
            lead = plain - tail
            assert scaled == pytest.approx(c * lead + tail, rel=1e-9)


_POSITIVE_OR_ZERO = st.one_of(st.just(0.0), st.floats(1e-6, 1e3))


class TestRunningBound:
    def test_bit_equal_to_written_out_loop(self):
        rng = np.random.default_rng(0)
        for rate in (0.0, 0.3, 1.0 - 0.0123, np.sqrt(1.0 - 0.2), 1.0):
            anchor, jumps = float(rng.exponential()), rng.exponential(size=40) * 1e-3
            expected, b = [], anchor
            for jump in jumps:
                b = rate * b + jump
                expected.append(b)
            assert np.array_equal(running_bound(anchor, rate, jumps), expected)

    def test_no_jumps_no_rounds(self):
        assert running_bound(3.0, 0.5, []).shape == (0,)

    @settings(max_examples=100, deadline=None)
    @given(
        phi0=_POSITIVE_OR_ZERO,
        rate=st.floats(0.01, 1.0, exclude_max=True),
        jumps=st.lists(_POSITIVE_OR_ZERO, min_size=1, max_size=50),
    )
    def test_matches_meta_bound(self, phi0, rate, jumps):
        bounds = running_bound(phi0, rate, jumps)
        for T, got in enumerate(bounds, start=1):
            want = meta_bound(phi0, rate, jumps[:T])
            assert abs(got - want) <= 1e-12 * want


def _assert_bound_column_is_meta_bound(trace, rate):
    """Every entry of the bound column equals the closed form at its round."""
    assert trace.delta.any()
    for T, bound in enumerate(trace.bound, start=1):
        want = meta_bound(trace.initial, rate, trace.delta[:T])
        assert abs(bound - want) <= 1e-12 * want


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
            market, 150, channel="supply-additive", magnitude=0.01, seed=seed + 5
        )
        prices = uniform_prices(market)
        trace = run_tatonnement_trace(market, prices, config, schedule, 0.01, 150)
        assert trace.initial == demand(market, prices).misspending
        _assert_bound_column_is_meta_bound(trace, 1.0 - 0.01)

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_descent_bound_is_meta_bound(self, seed):
        problem, x0 = drifting_quadratic(seed, horizon=200, shift=0.01)
        trace, _ = simulate_shifting_quadratic(problem, x0)
        _assert_bound_column_is_meta_bound(trace, math.sqrt(1.0 - problem.delta))

    @pytest.mark.parametrize("graph", ["path", "cycle", "complete"])
    def test_diffusion_bound_is_meta_bound(self, graph):
        net = make_network(graph, 9, loads=None, seed=2, load_total=9.0)
        path = drifting_speeds(4, 9, 300, 0.002, 0.9, 1.1, mode="common")
        trace, lam, _ = simulate_diffusion(net, path)
        _assert_bound_column_is_meta_bound(trace, lam)

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_prd_bound_is_meta_bound(self, seed):
        # Proportional bids sit away from equilibrium (KL_0 > 0), so the
        # anchor term q2 * KL_0 is exercised, unlike warmed-up bids.
        market = random_market(seed, 3, 4, unit_supplies=True)
        bids = proportional_bids(market)
        bound = PrdBoundConfig.closed_form(market)
        schedule = generate_schedule(
            market, 100, channel="utility-multiplicative", magnitude=0.005, seed=seed + 5
        )
        trace = run_prd_trace(market, bids, schedule, bound, 100)
        kl0 = kl_divergence(solve_equilibrium(market, tolerance=1e-10).bids, bids)
        assert kl0 > 1e-3
        assert trace.delta.any()
        for T, got in enumerate(trace.bound, start=1):
            want = meta_bound(bound.q2 * kl0, bound.q1 / bound.q2, trace.delta[:T])
            assert abs(got - want) <= 1e-12 * want
