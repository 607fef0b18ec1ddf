import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqtracer import (
    CesMarket,
    LinearUtilityError,
    demand,
    solve_equilibrium,
)
from eqtracer.instances import random_market, symmetric_market, uniform_prices
from eqtracer.market import CLOSED_FORM_MIN_SIZE, SHIFT_SPAN, ces_weights


def single_good(budget=1.0, supply=1.0, rho=0.5, a=1.0):
    return CesMarket(budgets=[budget], supplies=[supply], rho=[rho], coefficients=[[a]])


class TestValidation:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="budgets"):
            CesMarket(budgets=[0.0], supplies=[1.0], rho=[0.5], coefficients=[[1.0]])

    def test_rejects_zero_rho(self):
        with pytest.raises(ValueError, match="rho"):
            CesMarket(budgets=[1.0], supplies=[1.0], rho=[0.0], coefficients=[[1.0]])

    def test_rejects_all_zero_coefficient_row(self):
        with pytest.raises(ValueError, match="positive coefficient"):
            CesMarket(
                budgets=[1.0, 1.0],
                supplies=[1.0, 1.0],
                rho=[0.5, 0.5],
                coefficients=[[1.0, 1.0], [0.0, 0.0]],
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            CesMarket(budgets=[1.0], supplies=[1.0, 1.0], rho=[0.5], coefficients=[[1.0]])

    def test_rho_of_one_allowed_in_type_but_not_demand(self):
        market = single_good(rho=1.0)
        with pytest.raises(LinearUtilityError):
            demand(market, [1.0])

    def test_markets_are_immutable(self):
        market = single_good()
        with pytest.raises(ValueError):
            market.budgets[0] = 2.0

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("budgets", [math.inf, 1.0], "budgets must be finite"),
            ("supplies", [math.inf, 1.0], "supplies must be finite"),
            ("coefficients", [[math.inf, 1.0], [1.0, 2.0]], "coefficients must be finite"),
            ("rho", [math.inf, 0.5], "each rho must be finite"),
            ("rho", [-math.inf, 0.5], "each rho must be finite"),
        ],
    )
    def test_rejects_infinite_fields(self, field, value, message):
        fields = {
            "budgets": [1.0, 2.0],
            "supplies": [1.0, 1.0],
            "rho": [0.5, -1.0],
            "coefficients": [[1.0, 2.0], [2.0, 1.0]],
            field: value,
        }
        with pytest.raises(ValueError, match=message):
            CesMarket(**fields)
        with pytest.raises(ValueError, match=message):
            random_market(1, 2, 2).replace(**{field: value})

    def test_nan_fields_keep_their_sign_messages(self):
        with pytest.raises(ValueError, match="budgets must be strictly positive"):
            single_good(budget=math.nan)
        with pytest.raises(ValueError, match="supplies must be strictly positive"):
            single_good(supply=math.nan)
        with pytest.raises(ValueError, match="coefficients must be non-negative"):
            single_good(a=math.nan)


def written_out_weight_base(c, coefficients):
    # (1-c) ln a less its row maximum B, then B and K / max(1, max -c); a
    # small market keeps (1-c) ln a alone.
    with np.errstate(divide="ignore"):
        full = (1.0 - c[:, None]) * np.log(coefficients)
    if full.size < CLOSED_FORM_MIN_SIZE:
        return full, None, None
    bound = full.max(axis=1)
    return full - bound[:, None], bound, SHIFT_SPAN / max(1.0, float(-c.min()))


def assert_weight_base_equal(got, want):
    assert len(got) == len(want) == 3
    assert np.array_equal(got[0], want[0]), (got[0], want[0])
    if want[1] is None:
        assert got[1] is None and got[2] is None
    else:
        assert np.array_equal(got[1], want[1]) and got[2] == want[2], (got, want)


class TestCachedExponent:
    def test_read_only_and_bit_equal_to_formula(self):
        market = random_market(3, 4, 5, rho_low=-2.0, rho_high=0.9)
        c = market.demand_exponent
        assert c is market.demand_exponent
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0] = 1.0
        assert np.array_equal(c, market.rho / (market.rho - 1.0))

    def test_log_coefficients_cached_read_only(self):
        market = random_market(6, 3, 4, zero_fraction=0.3)
        log_a = market.log_coefficients
        assert log_a is market.log_coefficients
        assert not log_a.flags.writeable
        with np.errstate(divide="ignore"):
            assert np.array_equal(log_a, np.log(market.coefficients))
        assert np.isneginf(log_a[market.coefficients == 0]).all()

    def test_derive_with_new_rho_drops_stale_caches(self):
        market = random_market(4, 20, 20)
        old_c, old_base = market.demand_exponent, market._weight_base
        log_a = market.log_coefficients
        rho = np.linspace(-0.5, 0.7, 20)
        rho.setflags(write=False)
        derived = market._derive(rho=rho)
        fresh = market.replace(rho=rho)
        assert derived.demand_exponent is not old_c
        assert derived._weight_base is not old_base
        assert derived.log_coefficients is log_a  # ln a reads no rho
        assert np.array_equal(derived.demand_exponent, fresh.demand_exponent)
        assert_weight_base_equal(derived._weight_base, fresh._weight_base)
        # The parent keeps its own caches.
        assert market.demand_exponent is old_c and market._weight_base is old_base

    def test_derive_keeping_rho_shares_the_exponent(self):
        market = random_market(5, 20, 20)
        c = market.demand_exponent
        log_a = market.log_coefficients
        coefficients = market.coefficients * 2.0
        coefficients.setflags(write=False)
        derived = market._derive(coefficients=coefficients)
        assert derived.demand_exponent is c
        assert derived.log_coefficients is not log_a
        assert np.array_equal(derived.log_coefficients, np.log(coefficients))
        fresh = written_out_weight_base(c, coefficients)
        assert_weight_base_equal(derived._weight_base, fresh)
        assert_weight_base_equal(
            derived._weight_base, market.replace(coefficients=coefficients)._weight_base
        )

    @pytest.mark.parametrize("m, n", [(5, 7), (20, 20)])
    @pytest.mark.parametrize("zero_fraction", [0.0, 0.5])
    def test_weight_base_bit_equal_to_formula_and_read_only(self, m, n, zero_fraction):
        market = random_market(6, m, n, -3.0, 0.95, zero_fraction=zero_fraction)
        cached = market._weight_base
        assert cached is market._weight_base
        want = written_out_weight_base(market.demand_exponent, market.coefficients)
        assert_weight_base_equal(cached, want)
        base, bound, _ = cached
        assert not base.flags.writeable
        assert np.isneginf(base[market.coefficients == 0]).all()
        assert (bound is None) == (m * n < CLOSED_FORM_MIN_SIZE)
        if bound is not None:
            assert not bound.flags.writeable
            assert (base.max(axis=1) == 0.0).all()


class TestDemand:
    def test_single_good_spends_whole_budget(self):
        profile = demand(single_good(budget=2.0), [4.0])
        assert profile.quantities[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_two_goods_symmetric(self):
        market = CesMarket(
            budgets=[1.0], supplies=[1.0, 1.0], rho=[0.5], coefficients=[[1.0, 1.0]]
        )
        profile = demand(market, [1.0, 1.0])
        assert profile.quantities[0] == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_two_goods_price_two(self):
        # c = -1, so shares weight by 1/p: spending (2/3, 1/3), quantities (2/3, 1/6).
        market = CesMarket(
            budgets=[1.0], supplies=[1.0, 1.0], rho=[0.5], coefficients=[[1.0, 1.0]]
        )
        profile = demand(market, [1.0, 2.0])
        assert profile.quantities[0] == pytest.approx([2 / 3, 1 / 6], rel=1e-14)
        assert float(profile.spending.sum()) == pytest.approx(1.0, abs=1e-14)

    def test_zero_coefficient_gives_exactly_zero_demand(self):
        market = CesMarket(
            budgets=[1.0, 1.0],
            supplies=[1.0, 1.0],
            rho=[0.5, -1.5],
            coefficients=[[1.0, 0.0], [0.5, 1.0]],
        )
        profile = demand(market, [1.0, 2.0])
        assert profile.quantities[0, 1] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            demand(single_good(), [1.0, 2.0])

    def test_extreme_price_gives_budget_over_price(self):
        # rho = 0.9 gives c = -9, so the written-out weight p^c underflows to
        # zero at p = 1e40; the shifted log weights keep the whole budget.
        market = single_good(budget=3.0, rho=0.9)
        profile = demand(market, [1e40])
        assert profile.quantities[0, 0] == 3.0 / 1e40
        assert profile.spending[0, 0] == 3.0

    def test_budget_exhaustion_random_markets(self):
        for seed in range(30):
            market = random_market(seed, 4, 5, rho_low=-1.5, rho_high=0.8)
            prices = uniform_prices(market) * np.random.default_rng(seed).uniform(0.5, 2, 5)
            spent = demand(market, prices).spending.sum(axis=1)
            assert np.all(np.abs(spent - market.budgets) <= 1e-9 * market.budgets)

    def test_homogeneity_prices_and_budgets(self):
        market = random_market(3, 3, 4)
        prices = uniform_prices(market)
        scaled = market.replace(budgets=2.0 * market.budgets)
        q1 = demand(market, prices).quantities
        q2 = demand(scaled, 2.0 * prices).quantities
        assert np.allclose(q1, q2, rtol=1e-12, atol=0)

    def test_gross_substitutes_price_bump(self):
        for seed in range(10):
            market = random_market(seed, 3, 4, 0.1, 0.9)
            prices = uniform_prices(market)
            base = demand(market, prices).quantities
            bumped = prices.copy()
            bumped[1] *= 1.3
            after = demand(market, bumped).quantities
            others = [j for j in range(4) if j != 1]
            assert np.all(after[:, others] >= base[:, others] * (1 - 1e-12))


class TestMisspending:
    def test_single_good_overpriced(self):
        assert demand(single_good(), [2.0]).misspending == pytest.approx(1.0, abs=1e-15)

    def test_zero_at_equilibrium(self):
        market = random_market(1, 3, 3)
        result = solve_equilibrium(market)
        assert demand(market, result.prices).misspending <= 1e-8 * market.total_budget

    def test_doubled_equilibrium_prices(self):
        # At 2 p* demand halves, so the shortfall is w/2 per good.
        market = symmetric_market(2, 3, 0.5)
        star = solve_equilibrium(market).prices
        doubled = 2.0 * star
        expected = float(np.sum(doubled * market.supplies) / 2.0)
        assert demand(market, doubled).misspending == pytest.approx(expected, rel=1e-9)

    def test_non_negative(self):
        for seed in range(20):
            market = random_market(seed, 3, 3, rho_low=-2.0, rho_high=0.8)
            prices = uniform_prices(market) * np.random.default_rng(seed).uniform(0.3, 3, 3)
            assert demand(market, prices).misspending >= 0.0


class TestConvexPotential:
    def test_single_good_closed_form(self):
        market = single_good()
        for p in (0.5, 1.0, 2.0, math.e):
            assert demand(market, [p]).cpf == pytest.approx(p - math.log(p), rel=1e-14)

    def test_minimum_at_one(self):
        market = single_good()
        assert demand(market, [1.0]).cpf == pytest.approx(1.0, abs=1e-14)
        assert demand(market, [math.e]).cpf - 1.0 == pytest.approx(
            math.e - 2.0, rel=1e-12
        )

    def test_coefficient_doubling_shifts_by_log_four(self):
        market = CesMarket(
            budgets=[1.0, 2.0],
            supplies=[1.0, 1.0],
            rho=[0.5, 0.5],
            coefficients=[[1.0, 0.5], [0.3, 1.2]],
        )
        doubled = market.replace(coefficients=2.0 * market.coefficients)
        prices = np.array([0.7, 1.9])
        shift = float(np.sum(market.budgets)) * math.log(4.0)
        assert demand(doubled, prices).cpf == pytest.approx(
            demand(market, prices).cpf + shift, rel=1e-12
        )

    def test_equilibrium_minimises_over_random_prices(self):
        market = random_market(5, 3, 3)
        result = solve_equilibrium(market)
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = uniform_prices(market) * rng.uniform(0.2, 4.0, 3)
            assert result.psi_star <= demand(market, p).cpf + 1e-9

    def test_normalized_non_negative(self):
        market = random_market(6, 4, 4, rho_low=-1.0, rho_high=0.7)
        result = solve_equilibrium(market)
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = uniform_prices(market) * rng.uniform(0.3, 3.0, 4)
            assert demand(market, p).cpf - result.psi_star >= -1e-9

    def test_convexity_spot_check(self):
        market = random_market(7, 3, 4, rho_low=-1.5, rho_high=0.8)
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = uniform_prices(market) * rng.uniform(0.3, 3.0, 4)
            q = uniform_prices(market) * rng.uniform(0.3, 3.0, 4)
            t = rng.uniform(0.05, 0.95)
            mid = demand(market, t * p + (1 - t) * q).cpf
            assert mid <= t * demand(market, p).cpf + (1 - t) * demand(
                market, q
            ).cpf + 1e-9


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    scale=st.floats(0.2, 5.0, allow_nan=False),
)
def test_budget_exhaustion_property(seed, scale):
    market = random_market(seed, 3, 3, rho_low=-1.0, rho_high=0.8)
    prices = uniform_prices(market) * scale
    spent = demand(market, prices).spending.sum(axis=1)
    assert np.all(np.abs(spent - market.budgets) <= 1e-9 * market.budgets)


_RHO_RANGES = [(-50.0, -10.0), (-2.0, -0.5), (0.2, 0.8), (0.9, 0.99), (0.99, 0.999)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    rho_range=st.sampled_from(_RHO_RANGES),
    spread=st.floats(0.0, 3.0),
)
def test_log_kernel_matches_written_out_weights(seed, rho_range, spread):
    market = random_market(seed, 3, 4, *rho_range, zero_fraction=0.3)
    rng = np.random.default_rng(seed)
    prices = uniform_prices(market) * 10.0 ** rng.uniform(-spread, spread, 4)
    c = market.demand_exponent[:, None]
    with np.errstate(all="ignore"):
        weights = market.coefficients ** (1.0 - c) * prices**c
        sums = weights.sum(axis=1, keepdims=True)
        reference = weights / sums
    profile = demand(market, prices)
    shares = profile.spending / market.budgets[:, None]
    # Compare wherever the written-out weights are finite and neither
    # overflowed nor lost precision to underflow.
    usable = np.isfinite(sums) & (sums > 0)
    usable = usable & ((weights >= np.finfo(float).tiny) | (market.coefficients == 0))
    assert np.all(
        np.abs(shares - reference)[usable] <= 1e-12 * reference[usable]
    ), (shares, reference)
    spent = profile.spending.sum(axis=1)
    assert np.all(np.abs(spent - market.budgets) <= 1e-12 * market.budgets)


def row_max_weights(market, prices):
    # The row-max shift, written out: every row of log weights
    # l = (1-c) ln a + c ln p loses its own maximum L, and ln Q = (L + ln S) / c.
    # Small markets run exactly this.
    c = market.demand_exponent
    logs = np.multiply(np.log(prices), c[:, None])
    with np.errstate(divide="ignore"):
        logs += (1.0 - c[:, None]) * np.log(market.coefficients)
    top = logs.max(axis=1)
    logs -= top[:, None]
    weights = np.exp(logs)
    sums = weights.sum(axis=1)
    return weights, sums, (top + np.log(sums)) / c


def takes_closed_form_shift(market, prices):
    if market.coefficients.size < CLOSED_FORM_MIN_SIZE:
        return False
    log_p = np.log(prices)
    scale = max(1.0, float(-market.demand_exponent.min()))
    return scale * (log_p.max() - log_p.min()) <= SHIFT_SPAN


def assert_kernel_matches_row_max_oracle(market, prices):
    weights, sums, log_q = ces_weights(market, prices)
    ref_weights, ref_sums, ref_log_q = row_max_weights(market, prices)
    if market.coefficients.size < CLOSED_FORM_MIN_SIZE:
        # Small markets keep the row-max arithmetic byte for byte.
        for got, want in ((weights, ref_weights), (sums, ref_sums), (log_q, ref_log_q)):
            assert got.tobytes() == want.tobytes()
    shares = weights / sums[:, None]
    reference = ref_weights / ref_sums[:, None]
    # Shares are compared where the reference keeps them as normal floats
    # with room for the shift: below tiny * e^K a weight may lose precision
    # to underflow in either kernel.
    usable = reference >= np.finfo(float).tiny * math.exp(SHIFT_SPAN)
    # exp turns the absolute rounding of a log weight into the same relative
    # error of the weight.  Both kernels round log terms up to |c| (max |ln p|
    # + the ln p spread) and |(1-c) ln a|, which reach thousands as rho -> 1,
    # so the 1e-12 bound grows by that size per thousand.
    c = market.demand_exponent
    log_p = np.log(prices)
    reach = np.abs(log_p).max() + (log_p.max() - log_p.min())
    with np.errstate(divide="ignore", invalid="ignore"):
        base_terms = np.abs((1.0 - c[:, None]) * np.log(market.coefficients))
    size = np.abs(c) * reach + np.where(market.coefficients > 0, base_terms, 0.0).max(axis=1)
    tolerance = 1e-12 * np.maximum(1.0, size / 1000.0)[:, None] * reference
    assert np.all((np.abs(shares - reference) <= tolerance)[usable]), np.max(
        (np.abs(shares - reference) / tolerance)[usable]
    )
    assert (shares[market.coefficients == 0] == 0).all()
    assert np.all(np.abs(log_q - ref_log_q) <= 1e-12 * (1.0 + np.abs(ref_log_q)))
    if takes_closed_form_shift(market, prices):
        top = weights.max(axis=1)
        substitutes = market.demand_exponent < 0
        assert (top[substitutes] >= math.exp(-SHIFT_SPAN)).all()
        assert (top[substitutes] <= 1.0).all()
        assert (top[~substitutes] >= 1.0).all()
        assert (top[~substitutes] <= math.exp(SHIFT_SPAN)).all()
        # No positive coefficient that the row-max kernel keeps clear of
        # underflow gets zero weight.
        kept = (market.coefficients > 0) & usable
        assert (weights[kept] > 0).all()
    else:
        assert (weights.max(axis=1) == 1.0).all()
    return weights


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    grow=st.sampled_from([0, 20]),
    rho_range=st.sampled_from(
        [(0.2, 0.8), (0.99, 0.999), (-50.0, -0.5), (-2.0, 0.8), (-50.0, 0.999)]
    ),
    zero_fraction=st.sampled_from([0.0, 0.5]),
    spread=st.floats(0.0, 3.0),
)
def test_kernel_matches_row_max_oracle(seed, m, n, grow, rho_range, zero_fraction, spread):
    # Shapes up to 8x8 keep the row max; grown by 20 a side they reach the
    # closed-form shift whenever the prices allow it.
    m, n = m + grow, n + grow
    market = random_market(seed, m, n, *rho_range, zero_fraction=zero_fraction)
    rng = np.random.default_rng(seed)
    prices = uniform_prices(market) * 10.0 ** rng.uniform(-spread, spread, n)
    assert_kernel_matches_row_max_oracle(market, prices)


@pytest.mark.parametrize("spread, closed_form", [(0.3, True), (3.0, False)])
def test_kernel_matches_row_max_oracle_at_200x200(spread, closed_form):
    market = random_market(7, 200, 200, -2.0, 0.8, zero_fraction=0.5)
    rng = np.random.default_rng(7)
    prices = uniform_prices(market) * 10.0 ** rng.uniform(-spread, spread, 200)
    assert takes_closed_form_shift(market, prices) == closed_form
    weights = assert_kernel_matches_row_max_oracle(market, prices)
    if closed_form:
        assert (weights[market.coefficients > 0] > 0).all()


def assert_demand_bit_equal_to_written_out(market, prices):
    weights, sums, log_q = ces_weights(market, prices)
    per_weight = market.budgets / sums
    excess = per_weight @ weights / prices - market.supplies
    spending = weights * per_weight[:, None]
    quantities = spending / prices[None, :]
    profile = demand(market, prices)
    expected = {
        "excess": excess,
        "log_unit_costs": log_q,
        "spending": spending,
        "quantities": quantities,
    }
    for name, want in expected.items():
        got = getattr(profile, name)
        assert got.shape == want.shape and (got == want).all(), name
    assert profile.misspending == float((prices * np.abs(excess)).sum())
    assert profile.cpf == float(
        (market.supplies * prices).sum() - (market.budgets * log_q).sum()
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    rho_range=st.sampled_from([(0.2, 0.8), (0.99, 0.999), (-50.0, -0.5)]),
    zero_fraction=st.sampled_from([0.0, 0.5]),
    spread=st.floats(0.0, 3.0),
)
def test_demand_bit_equal_to_written_out_arithmetic(
    seed, m, n, rho_range, zero_fraction, spread
):
    market = random_market(seed, m, n, *rho_range, zero_fraction=zero_fraction)
    rng = np.random.default_rng(seed)
    prices = uniform_prices(market) * 10.0 ** rng.uniform(-spread, spread, n)
    assert_demand_bit_equal_to_written_out(market, prices)


def test_demand_bit_equal_to_written_out_arithmetic_at_200x200():
    market = random_market(7, 200, 200, -50.0, 0.999, zero_fraction=0.5)
    prices = uniform_prices(market) * np.random.default_rng(7).uniform(0.5, 2.0, 200)
    assert_demand_bit_equal_to_written_out(market, prices)


def assert_excess_matches_three_pass_arithmetic(market, prices):
    # The arithmetic `demand` ran before excess became one matrix-vector
    # product: shares, spending and quantities as (m, n) passes, then the
    # column sums.
    weights, sums, _ = ces_weights(market, prices)
    quantities = market.budgets[:, None] * (weights / sums[:, None]) / prices[None, :]
    reference = quantities.sum(axis=0) - market.supplies
    got = demand(market, prices).excess
    assert np.all(np.abs(got - reference) <= 1e-13 * quantities.sum(axis=0)), (
        got - reference
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    rho_range=st.sampled_from([(0.2, 0.8), (0.99, 0.999), (-50.0, -0.5)]),
    zero_fraction=st.sampled_from([0.0, 0.5]),
    spread=st.floats(0.0, 3.0),
)
def test_excess_matches_three_pass_arithmetic(seed, m, n, rho_range, zero_fraction, spread):
    market = random_market(seed, m, n, *rho_range, zero_fraction=zero_fraction)
    rng = np.random.default_rng(seed)
    prices = uniform_prices(market) * 10.0 ** rng.uniform(-spread, spread, n)
    assert_excess_matches_three_pass_arithmetic(market, prices)


def test_excess_matches_three_pass_arithmetic_at_200x200():
    market = random_market(7, 200, 200, -50.0, 0.999, zero_fraction=0.5)
    prices = uniform_prices(market) * np.random.default_rng(7).uniform(0.5, 2.0, 200)
    assert_excess_matches_three_pass_arithmetic(market, prices)


@pytest.mark.parametrize("zero_fraction", [0.0, 0.5])
def test_ces_weights_into_out_matches_fresh_array(zero_fraction):
    market = random_market(9, 30, 20, -2.0, 0.9, zero_fraction=zero_fraction)
    prices = uniform_prices(market) * np.random.default_rng(9).uniform(0.5, 2.0, 20)
    fresh = ces_weights(market, prices)
    out = np.full((30, 20), np.nan)
    kept = ces_weights(market, prices, out)
    assert kept[0] is out
    for want, got in zip(fresh, kept):
        assert got.tobytes() == want.tobytes()


def test_demand_keeps_no_matrix_alive():
    # A profile holds vectors only; the kernel's one (m, n) buffer is the
    # whole working set, so tatonnement rounds do not re-fault fresh pages.
    # Both row shifts keep it so.
    m = n = 200
    market = random_market(5, m, n)
    rng = np.random.default_rng(5)
    for spread, closed_form in ((0.0, True), (3.0, False)):
        prices = uniform_prices(market) * 10.0 ** rng.uniform(-spread, spread, n)
        assert takes_closed_form_shift(market, prices) == closed_form
        demand(market, prices)  # warm: caches the weight base on the market
        tracemalloc.start()
        try:
            profile = demand(market, prices)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = m * n * 8
        assert peak < 2 * matrix, (closed_form, peak / matrix)
        assert held < 0.1 * matrix, (closed_form, held / matrix)
        assert profile.excess.shape == (n,)
