import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqtracer import (
    BUDGET,
    SUPPLY,
    UTILITY,
    CesMarket,
    PerturbationSchedule,
    PrdBoundConfig,
    ScheduleColumn,
    check_bids,
    generate_schedule,
    kl_divergence,
    prd_potential_g,
    prd_step,
    proportional_bids,
    reduce_supply_to_utility,
    run_prd_trace,
    solve_equilibrium,
)
from eqtracer import equilibrium, prd
from eqtracer.equilibrium import EquilibriumResult
from eqtracer.instances import random_market, uniform_prices
from eqtracer.perturbation import apply_row
from eqtracer.tatonnement import TatonnementConfig, run_tatonnement_trace
from eqtracer.trace import Trace
from test_perturbation import applied


def single_buyer(a=(1.0, 1.0), rho=0.5):
    return CesMarket(
        budgets=[1.0], supplies=[1.0, 1.0], rho=[rho], coefficients=[list(a)]
    )


# A test-only oracle: the bid round written out on the bids themselves.  It takes
# ln b, the logs l = ln a + rho (ln b + ln w - ln p) and next bids b exp(l - L)
# over their row sum, and pins rows to the budgets at their largest entry, every
# round.  `prd_step` and `run_prd_trace` carry log-weights instead and never take
# ln b of a round's bids, so they match it to rounding.
# Tolerances, times the buyer's or the total budget, are about 10x the worst
# difference measured: 5.6e-16 on bids, 1.8e-15 on the gap, 1.4e-16 on the KL.
ORACLE_STEP_TOL = 5e-15
ORACLE_GAP_TOL = 1.5e-14
ORACLE_KL_TOL = 1e-15


def oracle_logs_and_g(market, bids):
    prices = bids.sum(axis=0)
    log_w = np.log(market.supplies)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_b = np.log(bids)
        logs = log_b - np.log(np.where(prices == 0, 1.0, prices)) + log_w
        logs = market.rho[:, None] * logs + np.log(market.coefficients)
        terms = np.where(bids == 0, 0.0, bids * (logs - log_b))
    return logs, float(prices @ log_w - (terms.sum(axis=1) / market.rho).sum()), prices


def oracle_round(market, bids):
    """Next bids, g(market, bids) and prices."""
    logs, g, prices = oracle_logs_and_g(market, bids)
    rows, top = np.arange(len(bids)), logs.argmax(axis=1)
    with np.errstate(invalid="ignore"):
        new = np.exp(logs - logs[rows, top][:, None])
    new *= (market.budgets / new.sum(axis=1))[:, None]
    for _ in range(4):
        residue = market.budgets - new.sum(axis=1)
        if not residue.any():
            break
        new[rows, top] += residue
    return new, g, prices


def oracle_step(bids, market, rounds):
    for _ in range(rounds):
        bids = oracle_round(market, bids)[0]
    return bids


def events_at(schedule, t):
    """Round t's rows of a columnar schedule as one-row columns, in channel order."""
    return [
        ScheduleColumn(c.channel, [t], c.payload[k:k + 1])
        for c in schedule.columns
        for k in np.flatnonzero(c.rounds == t)
    ]


def oracle_trace(market, bids, schedule, horizon):
    """Gap, KL and price columns of `run_prd_trace` under utility events."""
    eq = solve_equilibrium(market, tolerance=prd.SOLVER_TOLERANCE)
    g_star = oracle_logs_and_g(market, eq.bids)[1]
    step = oracle_round(market, bids)[0]
    columns = []
    for t in range(1, horizon + 1):
        bids = step
        if events_at(schedule, t):
            for event in events_at(schedule, t):
                market = applied(market, event)
            eq = solve_equilibrium(market, tolerance=prd.SOLVER_TOLERANCE, previous=eq)
            g_star = oracle_logs_and_g(market, eq.bids)[1]
        step, g, prices = oracle_round(market, bids)
        columns.append((g - g_star, kl_divergence(eq.bids, bids), prices.max(), prices.min()))
    return np.array(columns).T


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

    @pytest.mark.parametrize("shape", [(5, 6), (200, 200)], ids=["5x6", "200x200"])
    def test_rounds_are_reproducible_and_match_single_steps(self, shape):
        # A single step pins its bids and the next step takes their log, while
        # `rounds` carry the log-weights: the two agree to rounding, not bit for bit.
        market = random_market(24, *shape, unit_supplies=True, zero_fraction=0.3)
        bids = proportional_bids(market)
        for rounds in (1, 2, 3, 17):
            one_at_a_time = bids
            for _ in range(rounds):
                one_at_a_time = prd_step(one_at_a_time, market)
            together = prd_step(bids, market, rounds=rounds)
            assert together.tobytes() == prd_step(bids, market, rounds=rounds).tobytes()
            assert (np.abs(together - one_at_a_time) <= ORACLE_STEP_TOL * market.budgets[:, None]).all()
        with pytest.raises(ValueError, match="rounds"):
            prd_step(bids, market, rounds=0)


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
        assert reduce_supply_to_utility(market) is market

    def test_log_change_scales_coefficients(self):
        # Supply 2 folds in as the factor 2^rho.
        market = CesMarket(budgets=[1.0], supplies=[2.0], rho=[0.5], coefficients=[[2.0]])
        reduced = reduce_supply_to_utility(market)
        assert reduced.coefficients[0, 0] == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-14)
        assert np.array_equal(reduced.supplies, [1.0])

    def test_reduction_is_kept_with_the_market(self):
        market = random_market(8, 3, 4)  # non-unit supplies
        reduced = reduce_supply_to_utility(market)
        assert reduce_supply_to_utility(market) is reduced
        # A derived market does not inherit it: the reduction carries the budgets.
        levels = ScheduleColumn(BUDGET, [1], np.full((1, 3), 0.1)).rows(market)
        moved = apply_row(market, BUDGET, levels[0])
        image = reduce_supply_to_utility(moved)
        assert image is not reduced and np.array_equal(image.budgets, moved.budgets)
        assert np.array_equal(image.coefficients, reduced.coefficients)

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
        prd_step(proportional_bids(market), market, rounds=100)  # the warm-up sets no constant
        bound = PrdBoundConfig.closed_form(market)
        assert 0 < bound.q1 < bound.q2

    def test_bound_config_validation(self):
        with pytest.raises(ValueError):
            PrdBoundConfig(q1=2.0, q2=1.0)

    def test_closed_form_constants_are_rho_max_and_one(self):
        market = random_market(9, 3, 4, 0.2, 0.8, unit_supplies=True)
        bound = PrdBoundConfig.closed_form(market)
        assert (bound.q1, bound.q2) == (market.rho.max(), 1.0)
        with pytest.raises(ValueError):  # the rate reaches 1: no contraction
            PrdBoundConfig.closed_form(market.replace(rho=[0.5, 1.0, 0.3]))

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
        schedule = PerturbationSchedule.from_events([(1, BUDGET, np.zeros(2))])
        with pytest.raises(ValueError, match="budget"):
            run_prd_trace(
                market, proportional_bids(market), schedule, PrdBoundConfig(0.5, 1.0), 2
            )

    def test_static_geometric_envelope_dominates(self):
        market = random_market(12, 3, 3, unit_supplies=True)
        bound = PrdBoundConfig.closed_form(market)
        # One warm-up round leaves a gap of about 1.4e-3 to fall; after 30 it
        # is rounding noise (about 1e-15) and the decrease below compares noise.
        bids = prd_step(proportional_bids(market), market, rounds=1)
        trace = run_prd_trace(market, bids, PerturbationSchedule(), bound, 200)
        assert (trace.potential <= trace.bound + 1e-9).all()
        assert trace.potential[-1] < trace.potential[0]

    def test_zero_magnitude_schedule_matches_static_bitwise(self):
        market = random_market(13, 3, 3, unit_supplies=True)
        bound = PrdBoundConfig(0.4, 1.0)
        static = run_prd_trace(
            market, proportional_bids(market), PerturbationSchedule(), bound, 50
        )
        zero_events = ScheduleColumn(UTILITY, np.arange(1, 51), np.ones((50, 3, 3)))
        nulled = run_prd_trace(
            market, proportional_bids(market),
            PerturbationSchedule((zero_events,)), bound, 50,
        )
        for name in ("potential", "kl_to_equilibrium", "bound"):
            assert np.array_equal(getattr(static, name), getattr(nulled, name)), name

    def test_dynamic_supply_events_run_through_reduction(self):
        market = random_market(14, 3, 4, unit_supplies=True)
        schedule = generate_schedule(market, 100, channel=SUPPLY, magnitude=0.01, seed=3)
        bound = PrdBoundConfig.closed_form(market)
        bids = prd_step(proportional_bids(market), market, rounds=200)
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
        assert (kl[1:] <= bound.q1 / bound.q2 * kl[:-1]).all()
        assert not trace.recurrence_ok.any()

    def test_runner_after_a_fit_reuses_its_cold_solve_bitwise(self, monkeypatch):
        # A cold solve that a caller made first (battery 6 makes one) is kept
        # on the market, and the runner starts from it without a Newton step.
        market = random_market(16, 3, 4, unit_supplies=True)
        fresh = market.replace()
        schedule = generate_schedule(market, 30, UTILITY, 0.005, seed=4)
        bound = PrdBoundConfig.closed_form(market)
        bids = prd_step(proportional_bids(market), market, rounds=30)
        solve_equilibrium(market, tolerance=prd.SOLVER_TOLERANCE)
        evaluated = []
        kernel = equilibrium.ces_weights

        def counted(m, prices, *out):
            evaluated.append(m)
            return kernel(m, prices, *out)

        monkeypatch.setattr(equilibrium, "ces_weights", counted)
        after_fit = run_prd_trace(market, bids, schedule, bound, 30)
        assert evaluated and not any(m is market for m in evaluated)
        alone = run_prd_trace(fresh, bids, schedule, bound, 30)
        assert any(m is fresh for m in evaluated)
        for field in fields(Trace):
            name = field.name
            assert np.array_equal(getattr(after_fit, name), getattr(alone, name)), name

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


def _kernel_case(seed, m, n, near_linear, sparse, unit):
    """A market with coefficient-supported bids and a spending matrix x whose
    support is a subset of the bids' on every good, both with rows at the budgets."""
    rng = np.random.default_rng(seed)
    low, high = (0.99, 0.999) if near_linear else (0.2, 0.8)
    a = rng.uniform(0.2, 1.5, size=(m, n))
    if sparse:  # zero half of every other row
        for i in range(0, m, 2):
            a[i, rng.permutation(n)[: n // 2]] = 0.0
    a[rng.integers(0, m, size=n), np.arange(n)] = rng.uniform(0.2, 1.5, size=n)  # goods stay valued
    market = CesMarket(
        budgets=rng.uniform(0.5, 2.0, size=m),
        supplies=np.ones(n) if unit else rng.uniform(0.5, 2.0, size=n),
        rho=rng.uniform(low, high, size=m),
        coefficients=a,
    )

    def on_support(mask):
        raw = np.where(mask, rng.uniform(0.05, 1.0, size=(m, n)), 0.0)
        return market.budgets[:, None] * raw / raw.sum(axis=1, keepdims=True)

    bids = on_support(a > 0)
    x_mask = (a > 0) & (rng.random((m, n)) < 0.8)
    x_mask[np.arange(m), a.argmax(axis=1)] = True
    x_mask[a.argmax(axis=0), np.arange(n)] = True  # every good keeps spending
    return market, bids, on_support(x_mask)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    near_linear=st.booleans(),
    sparse=st.booleans(),
    unit=st.booleans(),
)
def test_round_kernel_matches_written_out_formulas(seed, m, n, near_linear, sparse, unit):
    market, bids, x = _kernel_case(seed, m, n, near_linear, sparse, unit)
    a, rho = market.coefficients, market.rho[:, None]
    with np.errstate(divide="ignore"):
        shifted = np.log(bids)  # plain bids: weights at unit scale
    weights, logits, terms = bids.copy(), np.empty((m, n)), np.empty((m, n))
    g, prices, scale = prd._round(market, shifted, weights, np.ones(m), logits, terms)
    assert prd._plain_g(market, bids)[0] == g == prd_potential_g(market, bids)
    assert prd._plain_g(market, x)[0] == prd_potential_g(market, x)

    # The step, a (w b / p)^rho with rows renormalised to the budgets; the state
    # is its shifted log-weights, and `prd_step` pins its rows.
    want_weights = a * (market.supplies * bids / bids.sum(axis=0)) ** rho
    want = market.budgets[:, None] * want_weights / want_weights.sum(axis=1, keepdims=True)
    assert np.isfinite(want).all()
    step = weights * scale[:, None]
    assert np.allclose(step, want, rtol=1e-12, atol=0)
    assert np.array_equal(step > 0, a > 0)
    assert np.array_equal(weights, np.exp(logits)) and (logits.max(axis=1) == 0).all()
    pinned = prd_step(bids, market)
    assert np.allclose(pinned, want, rtol=1e-12, atol=0)
    assert (np.abs(pinned.sum(axis=1) - market.budgets) <= 2 * np.spacing(market.budgets)).all()

    # g = -sum over b > 0 of (b / rho) ln(a b^(rho - 1) / p^rho), supplies aside.  Its
    # terms have mixed signs, so rounding scales with their absolute sum, not with g.
    def written_out_g(b):
        active = b > 0
        parts = np.zeros_like(b)
        with np.errstate(divide="ignore", invalid="ignore"):  # zero bids are masked out
            parts[active] = (b / rho * np.log(a * b ** (rho - 1) / b.sum(axis=0) ** rho))[active]
        return -parts.sum(), np.abs(parts).sum()

    want_g, scale_g = written_out_g(bids)
    assert abs(g - want_g) <= 1e-12 * scale_g
    assert np.allclose(prices, bids.sum(axis=0), rtol=1e-15, atol=0)

    # The next round reads g, prices and ln b = u + beta from the state, beta = ln scale.
    shifted, logits = logits, shifted
    g_next, prices_next, _ = prd._round(market, shifted, weights.copy(), scale, logits, terms)
    want_g, scale_g = written_out_g(step)
    assert abs(g_next - want_g) <= 1e-12 * scale_g
    assert np.allclose(prices_next, step.sum(axis=0), rtol=1e-14, atol=0)
    spending = EquilibriumResult(x.sum(axis=0), x, psi_star=0.0, residual=0.0, iterations=0)
    kl = prd._anchor(market, spending)[1]
    total = market.total_budget
    for b, state in ((bids, (np.log(bids, where=bids > 0, out=np.full((m, n), -np.inf)), np.zeros(m))),
                     (step, (shifted, np.log(scale)))):
        assert abs(kl(*state) - kl_divergence(x, b)) <= 1e-12 * kl_divergence(x, b) + 1e-15 * total

    # Kept work arrays run the same arithmetic: bit for bit, whatever they held before.
    work = tuple(np.full((m, n), np.nan) for _ in range(2))
    assert prd._plain_g(market, bids, *work)[0] == g
    g_star, kl_kept = prd._anchor(market, spending, work)
    assert g_star == prd._anchor(market, spending)[0]
    assert kl_kept(shifted, np.log(scale)) == kl(shifted, np.log(scale))


def test_round_kernel_kl_keeps_the_support_check():
    market = random_market(21, 3, 4, unit_supplies=True)
    eq = solve_equilibrium(market, tolerance=1e-10)
    bids = proportional_bids(market)
    bids[0, 1] = 0.0  # good 1 still carries the other buyers' bids
    bids[0] *= market.budgets[0] / bids[0].sum()
    assert eq.bids[0, 1] > 0
    kl = prd._anchor(market, eq)[1]
    with np.errstate(divide="ignore"):
        shifted = np.log(bids)
    with pytest.raises(ValueError, match="support violation"):
        kl(shifted, np.zeros(3))


@pytest.mark.parametrize("sparse", [False, True])
def test_anchor_g_star_is_the_kernel_g_at_equilibrium(sparse):
    market = random_market(23, 6, 6, unit_supplies=True, zero_fraction=0.4 if sparse else 0.0)
    eq = solve_equilibrium(market, tolerance=1e-10)
    g_star = prd._anchor(market, eq)[0]
    with np.errstate(divide="ignore"):
        shifted = np.log(eq.bids)
    work = np.empty((6, 6)), np.empty((6, 6))
    assert g_star == prd._round(market, shifted, eq.bids.copy(), np.ones(6), *work)[0]
    assert prd_potential_g(market, eq.bids) == g_star


def test_fit_and_runner_make_one_kernel_call_per_round(monkeypatch):
    market = random_market(22, 3, 4, unit_supplies=True)
    schedule = generate_schedule(market, 12, UTILITY, 0.005, seed=6)
    round_calls, g_calls = [], []
    round_, g_ = prd._round, prd._g

    def counted(calls, func):
        def call(*args):
            calls.append(1)
            return func(*args)
        return call

    def refused(*args, **kwargs):
        raise AssertionError("the loops call the round only")

    monkeypatch.setattr(prd, "_round", counted(round_calls, round_))
    monkeypatch.setattr(prd, "_g", counted(g_calls, g_))

    def g_only_calls():  # every runner round evaluates its g too
        return len(g_calls) - len(round_calls)

    bids = prd_step(proportional_bids(market), market, rounds=30)  # the warm-up
    assert len(g_calls) == 0  # no g and no g*: the warm-up solves nothing
    assert len(round_calls) == 30
    bound = PrdBoundConfig.closed_form(market)
    for name in ("prd_step", "prd_potential_g", "kl_divergence"):
        monkeypatch.setattr(prd, name, refused)
    round_calls.clear()
    run_prd_trace(market, bids, schedule, bound, 12)
    resolves = sum(1 for t in range(1, 13) if events_at(schedule, t))
    assert resolves > 0
    assert g_only_calls() == 1 + resolves  # g* per solve
    assert len(round_calls) == 1 + 12


def test_fit_rounds_allocate_no_matrix(monkeypatch):
    # The warm-up's rounds (`bounds.fit_rounds` in a config) carry the
    # log-weight state in two kept arrays, so after the first rounds no (m, n)
    # array is allocated: a PRD pass does not re-fault fresh pages every round.
    m = n = 200
    market = random_market(5, m, n, unit_supplies=True)
    bids = proportional_bids(market)
    round_ = prd._round
    marks = []  # traced (held, peak since the previous call) at each round call

    def traced(*args):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return round_(*args)

    monkeypatch.setattr(prd, "_round", traced)
    tracemalloc.start()
    try:
        prd_step(bids, market, rounds=8)
    finally:
        tracemalloc.stop()
    assert len(marks) == 8
    matrix = m * n * 8
    for (held, _), (held_next, peak) in zip(marks[2:], marks[3:]):  # one round each
        assert peak - held < 0.5 * matrix, (peak - held) / matrix
        assert abs(held_next - held) < 0.1 * matrix, (held_next - held) / matrix


# Seeded markets: zero coefficients, non-unit supplies (through `prd_step` only:
# the runner moves bids on their reduction) and one 200x200.
ORACLE_MARKETS = {
    "zeros": (31, 6, 7, 0.2, 0.8, True, 0.3),
    "supplies": (32, 5, 6, 0.2, 0.8, False, 0.0),
    "large": (33, 200, 200, 0.2, 0.8, True, 0.0),
}


@pytest.mark.parametrize("name", ORACLE_MARKETS)
def test_prd_step_matches_the_kernel_oracle(name):
    market = random_market(*ORACLE_MARKETS[name])
    bids = proportional_bids(market)
    for rounds in (1, 5, 60):
        got = prd_step(bids, market, rounds=rounds)
        want = oracle_step(bids, market, rounds)
        assert np.array_equal(got > 0, want > 0)
        assert (np.abs(got - want) <= ORACLE_STEP_TOL * market.budgets[:, None]).all()


@pytest.mark.parametrize("name", ["zeros", "large"])
def test_trace_matches_the_kernel_oracle(name):
    market = random_market(*ORACLE_MARKETS[name])
    schedule = generate_schedule(market, 20, UTILITY, 0.005, seed=9, every=2)
    bids = prd_step(proportional_bids(market), market, rounds=10)
    trace = run_prd_trace(market, bids, schedule, PrdBoundConfig.closed_form(market), 20)
    gaps, kls, highs, lows = oracle_trace(market, bids, schedule, 20)
    total = market.total_budget
    assert np.abs(trace.potential - gaps).max() <= ORACLE_GAP_TOL * total
    assert np.abs(trace.kl_to_equilibrium - kls).max() <= ORACLE_KL_TOL * total
    assert np.allclose(trace.max_price, highs, rtol=1e-14, atol=0)  # worst 1.3e-15
    assert np.allclose(trace.min_price, lows, rtol=1e-14, atol=0)


def test_work_arrays_never_alias_callers_arrays():
    market = random_market(23, 6, 7, unit_supplies=True)
    schedule = generate_schedule(market, 10, UTILITY, 0.005, seed=8)
    bids0 = proportional_bids(market)
    bids0.setflags(write=False)  # a write into it raises
    bids = prd_step(bids0, market, rounds=5)
    assert not np.shares_memory(bids, bids0)
    warmed = bids.copy()
    bound = PrdBoundConfig.closed_form(market)
    for start in (bids, bids0):
        trace = run_prd_trace(market, start, schedule, bound, 10)
        assert len(trace.potential) == 10
    assert np.array_equal(bids, warmed)  # the warm-up's bids, after a runner started from them
    assert np.array_equal(bids0, proportional_bids(market))


def test_runner_charges_the_public_cap(monkeypatch):
    market = random_market(14, 3, 4, unit_supplies=True)
    drift = generate_schedule(market, 40, UTILITY, 0.005, seed=3)
    supply = generate_schedule(market, 40, SUPPLY, 0.01, seed=4, every=3)
    schedule = PerturbationSchedule(drift.columns + supply.columns)
    bound = PrdBoundConfig.closed_form(market)
    bids = prd_step(proportional_bids(market), market, rounds=200)
    intact = run_prd_trace(market, bids, schedule, bound, 40)
    cap = prd.delta_prd_utility
    monkeypatch.setattr(prd, "delta_prd_utility", lambda *args: 0.5 * cap(*args))
    halved = run_prd_trace(market, bids, schedule, bound, 40)
    assert (intact.delta > 0).all()
    assert np.array_equal(halved.delta, 0.5 * intact.delta)
    assert np.array_equal(halved.potential, intact.potential)


def test_runner_rounds_match_per_event_application(monkeypatch):
    # Supply and utility columns, some rounds carrying both: every round's
    # market is the reduction of market0 moved by the events so far, applied
    # one by one, and its drift is the largest move of ln a from the market
    # before, bit for bit.
    market = random_market(14, 3, 4, unit_supplies=True)
    drift = generate_schedule(market, 40, UTILITY, 0.005, seed=3, every=2)
    supply = generate_schedule(market, 40, SUPPLY, 0.01, seed=4, every=3)
    schedule = PerturbationSchedule(drift.columns + supply.columns)
    # The runner reads each event round's market once, for its share floor,
    # and prices every round's drift in one cap call after the loop.
    seen, priced = [], []
    floor, cap = prd.coefficient_share_floor, prd.delta_prd_utility
    monkeypatch.setattr(prd, "coefficient_share_floor", lambda m: seen.append(m) or floor(m))
    monkeypatch.setattr(
        prd, "delta_prd_utility", lambda *args: priced.append(args[-1]) or cap(*args)
    )
    bids = prd_step(proportional_bids(market), market, rounds=20)
    run_prd_trace(market, bids, schedule, PrdBoundConfig.closed_form(market), 40)
    (drifts,) = priced
    event_rounds = np.union1d(drift.columns[0].rounds, supply.columns[0].rounds)
    assert len(drifts) == 40 and len(seen) == 1 + len(event_rounds)
    given = reached = market
    for t, eps in enumerate(drifts, start=1):
        got = seen[np.searchsorted(event_rounds, t, side="right")]
        events = events_at(schedule, t)
        if events:
            for event in events:
                given = applied(given, event)
            previous, reached = reached, reduce_supply_to_utility(given)
            with np.errstate(divide="ignore", invalid="ignore"):
                moves = np.log(reached.coefficients) - np.log(previous.coefficients)
            assert eps == np.nanmax(np.abs(moves))
        else:
            assert eps == 0.0
        assert np.array_equal(got.coefficients, reached.coefficients)
        assert np.array_equal(got.supplies, reached.supplies)


def test_runner_markets_are_the_reduction_at_each_rounds_supply_level(monkeypatch):
    # On non-unit supplies, round t's market is market0 at the round's supply
    # level, folded into the coefficients (the reduction battery 7 checks).
    market0 = random_market(23, 3, 4)
    assert not (market0.supplies == 1.0).all()
    schedule = generate_schedule(market0, 30, SUPPLY, 0.2, seed=5, every=2)
    (column,) = schedule.columns
    levels = column.rows(market0)
    seen = []  # market0's reduction, then each event round's market
    floor = prd.coefficient_share_floor
    monkeypatch.setattr(prd, "coefficient_share_floor", lambda m: seen.append(m) or floor(m))
    reduced = reduce_supply_to_utility(market0)
    bids = prd_step(proportional_bids(reduced), reduced, rounds=20)
    run_prd_trace(market0, bids, schedule, PrdBoundConfig.closed_form(reduced), 30)
    assert len(seen) == 1 + len(column.rounds)
    for t in range(1, 31):
        k = np.searchsorted(column.rounds, t, side="right") - 1
        got = seen[k + 1]
        want = reduce_supply_to_utility(apply_row(market0, SUPPLY, levels[k]))
        assert np.array_equal(got.coefficients, want.coefficients)
        assert np.array_equal(got.supplies, want.supplies)


def test_runner_refuses_supply_levels_the_tatonnement_runner_refuses():
    # Steps of -0.6 on a unit supply are each valid alone; their level is not.
    market = random_market(14, 3, 4, unit_supplies=True)
    steps = [(t, SUPPLY, [-0.6, 0.0, 0.0, 0.0]) for t in (1, 2)]
    schedule = PerturbationSchedule.from_events(steps)
    message = "supply event would drive a supply non-positive"
    config = TatonnementConfig(lam=0.05, price_cap=np.inf)
    with pytest.raises(ValueError, match=message):
        run_tatonnement_trace(market, uniform_prices(market), config, schedule, 0.05, 5)
    bids = proportional_bids(market)
    with pytest.raises(ValueError, match=message):
        run_prd_trace(market, bids, schedule, PrdBoundConfig.closed_form(market), 5)


# The warm-up and the closed-form constants read no solve, so a nudge of the
# equilibrium far below the solver's residual target moves neither; the
# runner's envelope, anchored at KL_0, barely moves.
@pytest.mark.parametrize(
    "seed, m, n", [(1, 3, 5), (2, 6, 6), (3, 10, 8), (4, 30, 30), (5, 80, 60), (6, 200, 200)]
)
def test_fit_is_stable_under_solver_noise(monkeypatch, seed, m, n):
    market = random_market(seed, m, n, unit_supplies=True)
    exact = PrdBoundConfig.closed_form(market)
    warmed = prd_step(proportional_bids(market), market, rounds=30)
    clean = run_prd_trace(market, warmed, PerturbationSchedule(), exact, 30)
    solve = prd.solve_equilibrium
    rng = np.random.default_rng(seed)

    def nudged(*args, **kwargs):
        eq = solve(*args, **kwargs)
        moved = eq.bids * (1.0 + 1e-13 * rng.uniform(-1.0, 1.0, size=eq.bids.shape))
        moved *= (market.budgets / moved.sum(axis=1))[:, None]
        return replace(eq, bids=moved)

    monkeypatch.setattr(prd, "solve_equilibrium", nudged)
    assert PrdBoundConfig.closed_form(market) == exact
    assert np.array_equal(prd_step(proportional_bids(market), market, rounds=30), warmed)
    noisy = run_prd_trace(market, warmed, PerturbationSchedule(), exact, 30)
    assert noisy.bound == pytest.approx(clean.bound, rel=1e-5)
    assert noisy.potential == pytest.approx(clean.potential, rel=1e-5, abs=1e-9)
    assert (noisy.potential <= noisy.bound + 1e-9).all()


def _identity_residual(market, eq, before, after):
    """gap_t - (KL_{t-1} - D_t - E_t), zero by `PrdBoundConfig.closed_form`'s
    three-point identity: D_t = sum_i KL(x*_i || b_{t,i}) / rho_i and
    E_t = KL(b_t || b_{t-1}) - KL(p_t || p_{t-1}) + KL(p* || p_{t-1})."""
    prices, before_prices = after.sum(axis=0), before.sum(axis=0)
    weighted = sum(kl_divergence(x, b) / r for x, b, r in zip(eq.bids, after, market.rho))
    extra = (
        kl_divergence(after, before)
        - kl_divergence(prices, before_prices)
        + kl_divergence(eq.bids.sum(axis=0), before_prices)
    )
    gap = prd_potential_g(market, after) - prd_potential_g(market, eq.bids)
    return gap - (kl_divergence(eq.bids, before) - weighted - extra)


def _static_rounds(seed, m, n, rho_range):
    """(market, eq, bids before, bids after) for each static round from
    proportional bids whose KL_{t-1} is above a hundred times the solve's
    error, at most 300 rounds."""
    market = random_market(seed, m, n, *rho_range, unit_supplies=True)
    eq = solve_equilibrium(market, tolerance=prd.SOLVER_TOLERANCE)
    floor = 100 * prd.SOLVER_TOLERANCE * market.total_budget
    bids = proportional_bids(market)
    for _ in range(300):
        if kl_divergence(eq.bids, bids) <= floor:
            return
        step = prd_step(bids, market)
        yield market, eq, bids, step
        bids = step


# Markets with m, n <= 8 and rho from three ranges.  The premise's least
# slack, about -1e-5 to -2e-5 KL, is at rho in [0.9, 0.99], where the KL
# ratio nears rho_max.
_STATIC_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    rho_range=st.sampled_from([(0.05, 0.3), (0.2, 0.8), (0.9, 0.99)]),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**_STATIC_CASES)
def test_closed_form_premise_holds_on_static_rounds(seed, m, n, rho_range):
    # gap_t <= rho_max KL_{t-1} - KL_t, the premise of `PrdBoundConfig.closed_form`.
    for market, eq, before, after in _static_rounds(seed, m, n, rho_range):
        bound = PrdBoundConfig.closed_form(market)
        gap = prd_potential_g(market, after) - prd_potential_g(market, eq.bids)
        kl_prev, kl = kl_divergence(eq.bids, before), kl_divergence(eq.bids, after)
        assert gap <= bound.q1 * kl_prev - bound.q2 * kl + 1e-12 * max(market.total_budget, 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**_STATIC_CASES)
def test_three_point_identity_holds_on_static_rounds(seed, m, n, rho_range):
    # gap_t = KL_{t-1} - D_t - E_t with E_t >= 0, which proves the rate rho_max.
    for market, eq, before, after in _static_rounds(seed, m, n, rho_range):
        residual = _identity_residual(market, eq, before, after)
        assert abs(residual) <= 1e-6 * kl_divergence(eq.bids, before)
