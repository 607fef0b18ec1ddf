import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqtracer import CesMarket, ConvergenceError, solve_equilibrium
from eqtracer.equilibrium import _gradient_hessian
from eqtracer.instances import random_market, symmetric_market, uniform_prices
from eqtracer.market import ces_weights, demand
from eqtracer.perturbation import BUDGET, SUPPLY, UTILITY, PerturbationEvent, apply_event


def test_symmetric_market_uniform_prices():
    market = symmetric_market(3, 4, 0.5)
    result = solve_equilibrium(market)
    assert result.prices == pytest.approx(np.full(4, 3 / 4), rel=1e-10)


def test_single_good_price_is_budget_over_supply():
    market = CesMarket(budgets=[5.0], supplies=[2.0], rho=[0.5], coefficients=[[1.0]])
    assert solve_equilibrium(market).prices[0] == pytest.approx(2.5, rel=1e-12)


def test_self_consistency_tighter_tolerance():
    for seed in range(5):
        market = random_market(seed, 3, 4)
        coarse = solve_equilibrium(market, tolerance=1e-8)
        fine = solve_equilibrium(market, tolerance=1e-9, initial_prices=coarse.prices)
        assert np.allclose(coarse.prices, fine.prices, rtol=1e-6)
        assert fine.residual <= 1e-9 * market.total_budget


def test_residual_meets_target_both_regimes():
    for seed, (lo, hi) in ((0, (0.2, 0.8)), (1, (-2.0, -0.5))):
        market = random_market(seed, 3, 4, lo, hi)
        result = solve_equilibrium(market)
        assert result.residual <= 1e-8 * market.total_budget
        assert demand(market, result.prices).misspending == pytest.approx(
            result.residual, rel=1e-9, abs=1e-18
        )


def test_scale_covariance_in_budgets():
    market = random_market(2, 3, 3)
    scaled = market.replace(budgets=3.0 * market.budgets)
    base = solve_equilibrium(market, tolerance=1e-10)
    other = solve_equilibrium(scaled, tolerance=1e-10)
    assert np.allclose(other.prices, 3.0 * base.prices, rtol=1e-7)


def test_bids_row_and_column_sums():
    market = random_market(4, 4, 5, unit_supplies=True)
    result = solve_equilibrium(market, tolerance=1e-10)
    assert np.allclose(result.bids.sum(axis=1), market.budgets, rtol=1e-12)
    # Unit supplies: money on good j equals its price at clearing.
    assert np.allclose(result.bids.sum(axis=0), result.prices, rtol=1e-7)


def test_deterministic():
    market = random_market(6, 3, 4)
    a = solve_equilibrium(market)
    b = solve_equilibrium(market.replace())
    assert a is not b
    assert np.array_equal(a.prices, b.prices)
    assert np.array_equal(a.bids, b.bids)
    assert a.psi_star == b.psi_star


class TestColdSolveMemo:
    def test_cold_solves_of_one_market_return_one_result(self):
        market = random_market(6, 3, 4)
        cold = solve_equilibrium(market)
        assert solve_equilibrium(market) is cold
        warm = solve_equilibrium(market, initial_prices=cold.prices)
        assert warm is not cold and warm.iterations == 0
        assert solve_equilibrium(market) is cold

    def test_tolerances_are_kept_apart(self):
        market = random_market(6, 3, 4)
        coarse = solve_equilibrium(market, tolerance=1e-8)
        fine = solve_equilibrium(market, tolerance=1e-10)
        assert fine is not coarse
        assert fine.residual <= 1e-10 * market.total_budget
        assert solve_equilibrium(market, tolerance=1e-8) is coarse
        assert solve_equilibrium(market, tolerance=1e-10) is fine

    @pytest.mark.parametrize(
        "derive",
        [
            lambda m: m.replace(),
            lambda m: apply_event(m, PerturbationEvent(1, SUPPLY, np.zeros(m.num_goods))),
            lambda m: apply_event(m, PerturbationEvent(1, BUDGET, np.zeros(m.num_buyers))),
            lambda m: apply_event(
                m, PerturbationEvent(1, UTILITY, np.ones_like(m.coefficients))
            ),
        ],
        ids=["replace", "supply", "budget", "utility"],
    )
    def test_derived_markets_do_not_inherit_the_solve(self, derive):
        market = random_market(6, 3, 4)
        parent = solve_equilibrium(market)
        child = solve_equilibrium(derive(market))
        # An unchanged copy solves to the same bits, but afresh.
        assert child is not parent
        assert child.iterations == parent.iterations > 0
        assert np.array_equal(child.prices, parent.prices)

    def test_result_arrays_reject_writes(self):
        market = random_market(6, 3, 4)
        cold = solve_equilibrium(market)
        warm = solve_equilibrium(market, initial_prices=cold.prices)
        for result in (cold, warm):
            for array in (result.prices, result.bids):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0

    def test_failed_solves_are_not_kept(self):
        market = random_market(7, 3, 4)
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                solve_equilibrium(market, tolerance=1e-12, max_iters=3)
        result = solve_equilibrium(market, tolerance=1e-12)
        assert result.iterations > 3
        assert solve_equilibrium(market, tolerance=1e-12, max_iters=3) is result


def test_nonconvergence_reports_residual():
    market = random_market(7, 3, 4)
    with pytest.raises(ConvergenceError) as err:
        solve_equilibrium(market, tolerance=1e-12, max_iters=3)
    assert err.value.residual > 0


def test_rejects_unsellable_good():
    with pytest.raises(ValueError, match="no positive coefficient"):
        solve_equilibrium(
            CesMarket(
                budgets=[1.0],
                supplies=[1.0, 1.0],
                rho=[0.5],
                coefficients=[[1.0, 0.0]],
            )
        )


def _log_price_gradient_hessian(market, y):
    p = np.exp(y)
    shares = demand(market, p).spending / market.budgets[:, None]
    return _gradient_hessian(market, p, shares)


@pytest.mark.parametrize("rho_range", [(0.2, 0.8), (-2.0, -0.5)])
def test_hessian_matches_finite_differences(rho_range):
    market = random_market(11, 5, 6, *rho_range)
    rng = np.random.default_rng(3)
    y = np.log(uniform_prices(market)) + rng.uniform(-0.3, 0.3, 6)
    _, hessian = _log_price_gradient_hessian(market, y)
    h = 1e-5
    numeric = np.empty_like(hessian)
    for k in range(6):
        step = np.zeros(6)
        step[k] = h
        up, _ = _log_price_gradient_hessian(market, y + step)
        down, _ = _log_price_gradient_hessian(market, y - step)
        numeric[:, k] = (up - down) / (2 * h)
    assert np.max(np.abs(hessian - numeric)) <= 1e-6 * np.max(np.abs(hessian))

    # H - diag(g) is diag(p) times the price-space Hessian times diag(p); the
    # price-space gradient of Psi is g / p (supply minus demand).
    p = np.exp(y)
    g, _ = _log_price_gradient_hessian(market, y)
    fallback = hessian - np.diag(g)
    price_hessian = np.empty_like(hessian)
    for k in range(6):
        step = np.zeros(6)
        step[k] = 1e-6 * p[k]
        up, _ = _log_price_gradient_hessian(market, np.log(p + step))
        down, _ = _log_price_gradient_hessian(market, np.log(p - step))
        price_hessian[:, k] = (up / (p + step) - down / (p - step)) / (2 * step[k])
    numeric = p[:, None] * price_hessian * p[None, :]
    assert np.max(np.abs(fallback - numeric)) <= 1e-6 * np.max(np.abs(fallback))
    np.linalg.cholesky(fallback)

    # At uniform prices this complements market's log-price Hessian is
    # indefinite, and the fallback matrix is not.
    market = random_market(60, 7, 7, -2.0, -0.5)
    p = uniform_prices(market)
    g, hessian = _log_price_gradient_hessian(market, np.log(p))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(hessian)
    np.linalg.cholesky(hessian - np.diag(g))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    band=st.sampled_from([(0.2, 0.8), (0.99, 0.999), (0.01, 0.05)]),
    sparse=st.booleans(),
    spread=st.floats(0.0, 5.0),
)
def test_substitutes_hessian_is_positive_definite(seed, m, n, band, sparse, spread):
    """With every rho in (0, 1), H = diag(w*p) + a positive semidefinite sum,
    which is why the solver takes its step without a Cholesky test."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.2, 1.5, size=(m, n))
    if sparse:  # zero half of every row; each keeps a positive entry
        for row in a:
            row[rng.permutation(n)[: n // 2]] = 0.0
    market = CesMarket(
        budgets=rng.uniform(0.5, 2.0, size=m),
        supplies=rng.uniform(0.5, 2.0, size=n),
        rho=rng.uniform(*band, size=m),
        coefficients=a,
    )
    p = uniform_prices(market) * np.exp(rng.uniform(-spread, spread, size=n))
    weights, sums, _ = ces_weights(market, p)
    _, hessian = _gradient_hessian(market, p, weights / sums[:, None])
    np.linalg.cholesky(hessian)
    rest = hessian - np.diag(market.supplies * p)
    assert np.linalg.eigvalsh(rest).min() >= -1e-10 * np.abs(hessian).max()


def _count_cholesky(monkeypatch):
    """Patch np.linalg.cholesky to record each call as True (passed) or False."""
    outcomes = []
    cholesky = np.linalg.cholesky

    def counted(matrix):
        try:
            factor = cholesky(matrix)
        except np.linalg.LinAlgError:
            outcomes.append(False)
            raise
        outcomes.append(True)
        return factor

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return outcomes


def test_substitutes_solve_takes_no_cholesky_test(monkeypatch):
    outcomes = _count_cholesky(monkeypatch)
    result = solve_equilibrium(random_market(61, 7, 7))
    assert result.iterations > 0
    assert outcomes == []


@pytest.mark.parametrize("complements", [7, 1])
def test_a_complements_buyer_keeps_the_cholesky_test(monkeypatch, complements):
    market = random_market(60, 7, 7, -2.0, -0.5)
    market = market.replace(rho=np.where(np.arange(7) < complements, market.rho, 0.5))
    outcomes = _count_cholesky(monkeypatch)
    result = solve_equilibrium(market, max_iters=50)  # takes 4-5 steps
    assert result.residual <= 1e-8 * market.total_budget
    assert len(outcomes) == result.iterations > 0  # one test per Newton step
    if complements == 7:  # indefinite at the uniform start: the fallback runs
        assert not outcomes[0]


@pytest.mark.parametrize("rho_range", [(0.2, 0.8), (-2.0, -0.5)])
def test_warm_resolve_takes_few_newton_steps(rho_range):
    market = random_market(12, 20, 20, *rho_range)
    before = solve_equilibrium(market, tolerance=1e-10)
    rng = np.random.default_rng(4)
    factors = np.exp(rng.uniform(-0.005, 0.005, market.coefficients.shape))
    perturbed = apply_event(market, PerturbationEvent(1, UTILITY, factors))
    after = solve_equilibrium(perturbed, tolerance=1e-10, initial_prices=before.prices)
    assert 1 <= after.iterations <= 3
    assert after.residual <= 1e-10 * perturbed.total_budget


def test_newton_line_search_does_not_cycle():
    # One buyer with rho near 1 spends almost everything on one good at
    # uniform prices.  Accepting every step that lowers the residual, even
    # one that raises the potential, makes Newton oscillate here forever.
    market = CesMarket(
        budgets=[1.79297288],
        supplies=[1.0, 1.0, 1.0],
        rho=[0.93545502],
        coefficients=[[0.45442284, 0.63002205, 1.37358589]],
    )
    result = solve_equilibrium(market, tolerance=1e-10, max_iters=30)
    assert result.residual <= 1e-10 * market.total_budget
    # Unit supplies and one buyer: prices are the buyer's spending shares.
    a = market.coefficients[0]
    assert result.prices == pytest.approx(market.budgets[0] * a / a.sum(), rel=1e-9)


# random_market arguments: (seed, m, n, rho_low, rho_high, unit_supplies,
# zero_fraction).
_SWEEP = [
    (seed, int(m), int(n), lo, hi, seed % 2 == 1, 0.0)
    for k, (lo, hi) in enumerate(
        [(0.2, 0.8), (0.9, 0.99), (-2.0, -0.5), (-10.0, -3.0), (-2.0, 0.9)]
    )
    for seed in range(100 * k, 100 * k + 12)
    for m, n in [np.random.default_rng(seed).integers(2, 9, size=2)]
] + [
    (154, 2, 9, 0.9, 0.99, False, 0.0),
    (60, 7, 7, -2.0, -0.5, False, 0.0),
    # Near-Leontief buyers and sparse coefficients: some clearing prices are
    # below 1e-12, so the spending on those goods, and their rows of the
    # Newton matrix, are many orders of magnitude below the rest.
    (5123, 7, 18, -50.0, -10.0, True, 0.5),
]


# Near-linear buyers, rho in [0.99, 0.999]: the demand exponent is -99 to
# -999, so the written-out weights a^(1-c) p^c overflow at the uniform start
# and Newton needs more steps from there.  Seeds 3 and 0 are the hard cases:
# with the written-out weights the first is not finite at the start and the
# second stalls at residual 3.0.
_NEAR_LINEAR = [
    (seed, int(m), int(n), 0.99, 0.999, seed % 2 == 1, 0.0)
    for seed in range(500, 512)
    for m, n in [np.random.default_rng(seed).integers(2, 9, size=2)]
] + [(3, 2, 12, 0.99, 0.999, False, 0.0), (0, 2, 12, 0.99, 0.999, False, 0.0)]


def test_cold_and_warm_solves_take_few_newton_steps():
    # Complements markets included: there the log-price Hessian is often
    # indefinite at the start, and Newton must still take few steps.
    for sweep, cold_steps, warm_steps in ((_SWEEP, 30, 4), (_NEAR_LINEAR, 40, 14)):
        for args in sweep:
            market = random_market(*args)
            cold = solve_equilibrium(market)
            assert cold.iterations <= cold_steps, args
            assert demand(market, cold.prices).misspending == cold.residual
            rng = np.random.default_rng(args[0])
            factors = np.exp(rng.uniform(-0.005, 0.005, market.coefficients.shape))
            perturbed = apply_event(market, PerturbationEvent(1, UTILITY, factors))
            warm = solve_equilibrium(perturbed, initial_prices=cold.prices)
            assert warm.iterations <= warm_steps, args
            assert demand(perturbed, warm.prices).misspending == warm.residual


@pytest.mark.parametrize("m, n", [(3, 4), (40, 30), (200, 200)])
def test_hessian_into_buffers_matches_fresh_arrays(m, n):
    # The solver hands s^T diag(b*c) a spare (m, n) array through its
    # transpose, the layout the product takes on its own, so BLAS sees the
    # same operands and the Hessian keeps every bit.
    market = random_market(m + n, m, n)
    p = uniform_prices(market) * np.random.default_rng(m).uniform(0.5, 2.0, n)
    weights, sums, _ = ces_weights(market, p)
    shares = weights / sums[:, None]
    g, hessian = _gradient_hessian(market, p, shares)
    spare, out = np.full((m, n), np.nan), np.full((n, n), np.nan)
    g_kept, kept = _gradient_hessian(market, p, shares, spare.T, out)
    assert kept is out
    assert kept.tobytes() == hessian.tobytes() and g_kept.tobytes() == g.tobytes()


def test_warm_resolve_keeps_its_buffers():
    # Per solve: the weights (returned as the bids), one spare (m, n) array for
    # s^T diag(b*c) and the trial weights, and one (n, n) Hessian.
    m = n = 200
    market = random_market(5, m, n, unit_supplies=True)
    cold = solve_equilibrium(market, tolerance=1e-10)
    factors = np.exp(np.random.default_rng(3).uniform(-0.005, 0.005, (m, n)))
    moved = apply_event(market, PerturbationEvent(1, UTILITY, factors))
    ces_weights(moved, cold.prices)  # warm: caches (1-c) ln a on the market
    tracemalloc.start()
    try:
        warm = solve_equilibrium(moved, tolerance=1e-10, initial_prices=cold.prices)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix = m * n * 8
    assert warm.iterations >= 2
    assert peak < 4 * matrix, peak / matrix
    assert held < 1.1 * matrix, held / matrix  # the result's bids


def test_later_solves_never_write_into_earlier_results():
    market = random_market(31, 40, 30)
    results = [solve_equilibrium(market, tolerance=1e-10)]
    rng = np.random.default_rng(31)
    for _ in range(4):
        factors = np.exp(rng.uniform(-0.01, 0.01, market.coefficients.shape))
        market = apply_event(market, PerturbationEvent(1, UTILITY, factors))
        results.append(
            solve_equilibrium(market, tolerance=1e-10, initial_prices=results[-1].prices)
        )
    kept = [(r.prices.copy(), r.bids.copy()) for r in results]
    results.append(solve_equilibrium(market, tolerance=1e-12, initial_prices=results[-1].prices))
    assert all(r.iterations > 0 for r in results[1:])
    for r, (prices, bids) in zip(results, kept):
        assert np.array_equal(r.prices, prices) and np.array_equal(r.bids, bids)
    for one, other in combinations(results, 2):
        assert not np.shares_memory(one.bids, other.bids)
        assert not np.shares_memory(one.prices, other.prices)
