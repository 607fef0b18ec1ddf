import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqtracer import (
    CesMarket,
    ConvergenceError,
    EquilibriumResult,
    equilibrium,
    solve_equilibrium,
)
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
        fine = solve_equilibrium(market, tolerance=1e-9, previous=coarse)
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
        warm = solve_equilibrium(market, previous=cold)
        assert warm is not cold and warm.iterations == warm.chord_steps == 0
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
        derived = derive(market)
        # No solve result, cold store or kept inverse rides along.
        kept = derived.__dict__.values()
        assert not any(isinstance(v, (dict, EquilibriumResult)) for v in kept)
        child = solve_equilibrium(derived)
        # An unchanged copy solves to the same bits, but afresh.
        assert child is not parent
        assert child.iterations == parent.iterations > 0
        assert np.array_equal(child.prices, parent.prices)

    def test_result_arrays_reject_writes(self):
        market = random_market(6, 3, 4)
        cold = solve_equilibrium(market)
        warm = solve_equilibrium(market, previous=cold)
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
    curvature = hessian - np.diag(g)
    price_hessian = np.empty_like(hessian)
    for k in range(6):
        step = np.zeros(6)
        step[k] = 1e-6 * p[k]
        up, _ = _log_price_gradient_hessian(market, np.log(p + step))
        down, _ = _log_price_gradient_hessian(market, np.log(p - step))
        price_hessian[:, k] = (up / (p + step) - down / (p - step)) / (2 * step[k])
    numeric = p[:, None] * price_hessian * p[None, :]
    assert np.max(np.abs(curvature - numeric)) <= 1e-6 * np.max(np.abs(curvature))
    np.linalg.cholesky(curvature)

    # At uniform prices this complements market's log-price Hessian is
    # indefinite, and H - diag(g), which its steps invert, is not.
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
    which is why a substitutes market's steps invert H itself."""
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


def _count_inversions(monkeypatch):
    """Count np.linalg.inv calls; cholesky and solve must not be called."""
    calls = []
    inv = np.linalg.inv

    def counted(matrix):
        calls.append(matrix.shape)
        return inv(matrix)

    def refused(*args, **kwargs):
        raise AssertionError("the solver factors only through np.linalg.inv")

    monkeypatch.setattr(np.linalg, "inv", counted)
    monkeypatch.setattr(np.linalg, "cholesky", refused)
    monkeypatch.setattr(np.linalg, "solve", refused)
    return calls


@pytest.mark.parametrize("complements", [0, 1, 7])
def test_every_newton_step_inverts_once(monkeypatch, complements):
    # With 7 complements buyers the log-price Hessian is indefinite at the
    # uniform start; every step inverts the scaled H - diag(g) all the same.
    market = random_market(60, 7, 7, -2.0, -0.5)
    market = market.replace(rho=np.where(np.arange(7) < complements, market.rho, 0.5))
    calls = _count_inversions(monkeypatch)
    result = solve_equilibrium(market, max_iters=50)  # takes 4-5 steps
    assert result.residual <= 1e-8 * market.total_budget
    assert len(calls) == result.iterations > 0
    assert result.chord_steps == 0 and result.hessian_inverse is None


def test_badly_scaled_cold_solve_keeps_every_price_positive(monkeypatch):
    # Near-Leontief buyers and sparse coefficients: some clearing prices are
    # below 1e-12, and far from equilibrium the rows of the Newton matrix
    # for those goods are hundreds of orders of magnitude below the rest.
    # Scaled to unit diagonal, the step never drives a price to 0.
    lowest = []
    kernel = equilibrium.ces_weights

    def recorded(market, prices, out=None):
        lowest.append(prices.min())
        return kernel(market, prices, out)

    monkeypatch.setattr(equilibrium, "ces_weights", recorded)
    market = random_market(5123, 7, 18, -50.0, -10.0, True, 0.5)
    result = solve_equilibrium(market)
    assert result.residual <= 1e-8 * market.total_budget
    assert min(lowest) > 0.0


@pytest.mark.parametrize("rho_range", [(0.2, 0.8), (-2.0, -0.5)])
def test_warm_resolve_takes_few_newton_steps(rho_range):
    market = random_market(12, 20, 20, *rho_range)
    before = solve_equilibrium(market, tolerance=1e-10)
    rng = np.random.default_rng(4)
    factors = np.exp(rng.uniform(-0.005, 0.005, market.coefficients.shape))
    perturbed = apply_event(market, PerturbationEvent(1, UTILITY, factors))
    after = solve_equilibrium(perturbed, tolerance=1e-10, previous=before)
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
    # indefinite at the start, and Newton must still take few steps.  A warm
    # substitutes solve from a cold result takes one full step, which forms
    # H^-1, and then chord steps; `warm_total` bounds both kinds together.
    for sweep, cold_steps, warm_steps, warm_total in (
        (_SWEEP, 30, 4, 5),
        (_NEAR_LINEAR, 40, 14, 10),
    ):
        for args in sweep:
            market = random_market(*args)
            cold = solve_equilibrium(market)
            assert cold.iterations <= cold_steps, args
            assert demand(market, cold.prices).misspending == cold.residual
            rng = np.random.default_rng(args[0])
            factors = np.exp(rng.uniform(-0.005, 0.005, market.coefficients.shape))
            perturbed = apply_event(market, PerturbationEvent(1, UTILITY, factors))
            warm = solve_equilibrium(perturbed, previous=cold)
            assert warm.iterations <= warm_steps, args
            assert warm.iterations + warm.chord_steps <= warm_total, args
            assert demand(perturbed, warm.prices).misspending == warm.residual


def test_warm_resolve_keeps_its_buffers():
    # Per solve: the weights (returned as the bids), one spare (m, n) array
    # for the trial weights, and, for a full step, one (n, n) Hessian and its
    # inverse, which the result keeps.
    m = n = 200
    market = random_market(5, m, n, unit_supplies=True)
    cold = solve_equilibrium(market, tolerance=1e-10)
    factors = np.exp(np.random.default_rng(3).uniform(-0.005, 0.005, (m, n)))
    moved = apply_event(market, PerturbationEvent(1, UTILITY, factors))
    ces_weights(moved, cold.prices)  # warm: caches (1-c) ln a on the market
    tracemalloc.start()
    try:
        warm = solve_equilibrium(moved, tolerance=1e-10, previous=cold)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix = m * n * 8
    # One full step forms H^-1; the steps after it reuse the buffers.
    assert warm.iterations == 1 and warm.chord_steps >= 1
    assert peak < 4 * matrix, peak / matrix
    factor = warm.hessian_inverse.nbytes  # n * n * 8
    assert held < 1.1 * matrix + factor, held / matrix  # the bids and H^-1


def _drifted(market, rng, eps):
    factors = np.exp(rng.uniform(-eps, eps, market.coefficients.shape))
    return apply_event(market, PerturbationEvent(1, UTILITY, factors))


def test_later_solves_never_write_into_earlier_results():
    market = random_market(31, 40, 30)
    results = [solve_equilibrium(market, tolerance=1e-10)]
    rng = np.random.default_rng(31)
    for _ in range(4):
        market = _drifted(market, rng, 0.01)
        results.append(solve_equilibrium(market, tolerance=1e-10, previous=results[-1]))
    kept = [(r.prices.copy(), r.bids.copy()) for r in results]
    factors = [r.hessian_inverse.copy() for r in results[1:]]
    results.append(solve_equilibrium(market, tolerance=1e-12, previous=results[-1]))
    assert all(r.iterations + r.chord_steps > 0 for r in results[1:])
    assert results[0].hessian_inverse is None  # cold solves keep no factor
    for r, (prices, bids) in zip(results, kept):
        assert np.array_equal(r.prices, prices) and np.array_equal(r.bids, bids)
    for r, factor in zip(results[1:], factors):
        assert not r.hessian_inverse.flags.writeable
        assert np.array_equal(r.hessian_inverse, factor)
    for one, other in combinations(results, 2):
        assert not np.shares_memory(one.bids, other.bids)
        assert not np.shares_memory(one.prices, other.prices)
    for r in results[1:]:
        assert not np.shares_memory(r.hessian_inverse, r.bids)
        assert not np.shares_memory(r.hessian_inverse, r.prices)


def test_warm_solves_reuse_the_kept_inverse():
    # A chain of 20 warm solves at prd's drift: the first one forms H^-1,
    # and the rest take chord steps with it, each to the full target.
    market = random_market(8, 30, 30, unit_supplies=True)
    rng = np.random.default_rng(8)
    results = [solve_equilibrium(market, tolerance=1e-10)]
    for _ in range(20):
        market = _drifted(market, rng, 0.005)
        results.append(solve_equilibrium(market, tolerance=1e-10, previous=results[-1]))
        assert results[-1].residual <= 1e-10 * market.total_budget
        assert demand(market, results[-1].prices).misspending == results[-1].residual
    warm = results[1:]
    assert warm[0].iterations >= 1 and warm[0].hessian_inverse is not None
    assert sum(r.iterations for r in warm[1:]) <= 2
    assert all(r.chord_steps >= 1 for r in warm[1:])
    # A result that took no full step hands on the inverse it was given.
    for before, after in zip(warm, warm[1:]):
        if after.iterations == 0:
            assert after.hessian_inverse is before.hessian_inverse


def test_complements_warm_solves_reuse_the_kept_inverse():
    # The same chain on a complements market: H^-1 there inverts the
    # price-space curvature H - diag(g), and chord steps reuse it alike.
    market = random_market(4, 8, 8, -2.0, -0.5)
    rng = np.random.default_rng(4)
    results = [solve_equilibrium(market, tolerance=1e-10)]
    for _ in range(20):
        market = _drifted(market, rng, 0.002)
        results.append(solve_equilibrium(market, tolerance=1e-10, previous=results[-1]))
        assert results[-1].residual <= 1e-10 * market.total_budget
        assert demand(market, results[-1].prices).misspending == results[-1].residual
        assert not results[-1].hessian_inverse.flags.writeable
    warm = results[1:]
    assert warm[0].iterations == 1
    assert sum(r.iterations for r in warm[1:]) <= 2
    assert all(r.chord_steps >= 1 for r in warm[1:])


def test_result_from_a_far_market_still_converges():
    # H^-1 kept from a market 30% away in every coefficient: its chord steps
    # fail or stall, and the solve refreshes H^-1 and still meets the target.
    market = random_market(9, 20, 20, unit_supplies=True)
    rng = np.random.default_rng(9)
    cold = solve_equilibrium(market, tolerance=1e-10)
    near = solve_equilibrium(_drifted(market, rng, 0.005), tolerance=1e-10, previous=cold)
    assert near.hessian_inverse is not None
    far = _drifted(market, rng, 0.3)
    result = solve_equilibrium(far, tolerance=1e-10, previous=near)
    assert result.residual <= 1e-10 * far.total_budget
    assert demand(far, result.prices).misspending == result.residual
    assert result.iterations >= 1 and result.hessian_inverse is not near.hessian_inverse


def test_a_failed_chord_step_is_retried_as_a_newton_step():
    # A kept H^-1 four times too large overshoots: Psi rises and the
    # residual grows, so the chord step fails the acceptance test, and the
    # solve goes on, bit for bit, as one that kept no inverse.
    market = random_market(9, 20, 20, unit_supplies=True)
    rng = np.random.default_rng(9)
    cold = solve_equilibrium(market, tolerance=1e-10)
    moved = _drifted(market, rng, 0.005)
    near = solve_equilibrium(moved, tolerance=1e-10, previous=cold)
    moved = _drifted(moved, rng, 0.005)
    results = [
        solve_equilibrium(moved, tolerance=1e-10, previous=replace(near, hessian_inverse=h))
        for h in (4.0 * near.hessian_inverse, None)
    ]
    overshot, plain = results
    assert (overshot.iterations, overshot.chord_steps) == (plain.iterations, plain.chord_steps)
    assert overshot.iterations == 1
    assert overshot.prices.tobytes() == plain.prices.tobytes()
    assert overshot.hessian_inverse.tobytes() == plain.hessian_inverse.tobytes()


def test_previous_result_of_another_shape_is_refused():
    small = solve_equilibrium(random_market(3, 4, 5), tolerance=1e-10)
    with pytest.raises(ValueError, match="shape"):
        solve_equilibrium(random_market(3, 4, 6), previous=small)

