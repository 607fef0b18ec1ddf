"""Static-market equilibrium solver.

Used to normalise potentials (the convex potential's minimum value) and to
seed bid-space dynamics with equilibrium spending matrices.  Every solve
first runs Newton's method on the convex price potential
Psi(p) = sum_j w_j p_j - sum_i b_i ln Q_i(p) (Cheung, Cole & Devanur,
STOC 2013) in log prices, whose gradient is p times (supply - demand) and
whose Hessian has a closed form; from a warm start it reaches the target in
a few steps.  When Newton stalls (the Hessian is not positive definite, or
the line search fails) the solve continues from Newton's best point with a
regime-specific fallback, both deterministic:

* all buyers in the substitutes regime (rho in (0, 1)): iterate the
  proportional bid update on the supply-normalised market and read prices
  off the bids.  The implied prices converge linearly to the clearing
  prices; raw iteration of the spending map itself can 2-cycle, see
  spending_map.
* otherwise: damped multiplicative price updates driven by absolute excess
  demand (step factor 0.05), which converge for every CES market.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import (
    CesMarket,
    check_prices,
    cpf_potential,
    demand,
    misspending_potential,
)

_FALLBACK_STEP = 0.05
_ARMIJO = 1e-4
_LINE_SEARCH_HALVINGS = 40
# Relative rounding noise of Psi, scaled by |Psi| + total budget.
_PSI_NOISE = 1e-12


class ConvergenceError(RuntimeError):
    """Solver failed to reach the requested residual; carries the last value."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class EquilibriumResult:
    """Equilibrium prices, spending matrix, potential minimum and residual."""

    prices: np.ndarray      # (n,) market-clearing prices
    bids: np.ndarray        # (m, n) equilibrium spending, rows sum to budgets
    psi_star: float         # minimum of the convex price potential
    residual: float         # misspending at the returned prices
    iterations: int


def _unit_supply_form(market: CesMarket) -> CesMarket:
    """Equivalent unit-supply market: supplies folded into the coefficients."""
    a = market.coefficients * market.supplies[None, :] ** market.rho[:, None]
    return market.replace(coefficients=a, supplies=np.ones(market.num_goods))


def spending_map(market: CesMarket, prices) -> np.ndarray:
    """One application of p <- money spent per good at prices p.

    Preserves sum(p) = total budget at every iterate.  Its fixed points are
    the clearing prices of the unit-supply form, but iterating it raw can
    cycle (spending overshoots), so the solver drives the underlying bid
    update instead and reads prices off the bids.
    """
    profile = demand(market, prices)
    return profile.spending.sum(axis=0)


def _bid_pass(unit: CesMarket, bids: np.ndarray, target: float, max_iters: int):
    """Iterate the proportional bid update until implied prices clear.

    Hand-rolled inner loop: the coefficient power a^(1-c) is constant across
    iterations, and unit supplies make quantities plain bid shares.
    """
    a = unit.coefficients
    b = unit.budgets[:, None]
    rho = unit.rho[:, None]
    c = unit.demand_exponent[:, None]
    a_pow = a ** (1.0 - c)
    residual = np.inf
    for it in range(max_iters):
        p = bids.sum(axis=0)
        # From an extreme start (e.g. Newton's stall point with rho near 1)
        # p^c can overflow for one update; a NaN residual is just not done.
        with np.errstate(over="ignore", invalid="ignore"):
            weights = a_pow * p[None, :] ** c
            spend = b * weights / weights.sum(axis=1, keepdims=True)
            excess = (spend / p[None, :]).sum(axis=0) - 1.0
            residual = float(np.sum(p * np.abs(excess)))
        if residual <= target:
            return p, bids, residual, it
        utility = a * (bids / p[None, :]) ** rho
        bids = b * utility / utility.sum(axis=1, keepdims=True)
    return bids.sum(axis=0), bids, residual, max_iters


def _damped_pass(market: CesMarket, p: np.ndarray, target: float, max_iters: int):
    """Multiplicative updates p <- p * (1 + step * min(1, excess))."""
    residual = np.inf
    for it in range(max_iters):
        profile = demand(market, p)
        residual = float(np.sum(p * np.abs(profile.excess)))
        if residual <= target:
            return p, residual, it
        factors = 1.0 + _FALLBACK_STEP * np.minimum(profile.excess, 1.0)
        if np.any(factors <= 0):
            raise ConvergenceError(
                "price update would drive a price non-positive; "
                "the damping step is too large for this market",
                residual,
            )
        p = p * factors
    return p, residual, max_iters


def _gradient_hessian(market: CesMarket, prices: np.ndarray, shares: np.ndarray):
    """Gradient and Hessian of the convex price potential in log prices.

    With S the (m, n) spending shares at `prices` and c the demand exponents:
    g = w*p - sum_i b_i s_i, which is p times (supply - demand), and
    H = diag(w*p - sum_i b_i c_i s_i) + S^T diag(b*c) S.
    """
    wp = market.supplies * prices
    bc = market.budgets * market.demand_exponent
    gradient = wp - market.budgets @ shares
    hessian = (shares.T * bc) @ shares
    hessian[np.diag_indices_from(hessian)] += wp - bc @ shares
    return gradient, hessian


def _newton_pass(market: CesMarket, p: np.ndarray, target: float, max_iters: int):
    """Newton's method on the convex price potential in log prices y = ln p.

    Each step factors the Hessian (Cholesky, to confirm it is positive
    definite) and solves for the step.  A step is accepted on an Armijo
    decrease of Psi, or when the misspending sum |g| falls while Psi rises by
    no more than its rounding noise: near the optimum Psi's decrease drops
    below rounding while the residual still shrinks quadratically, and away
    from it a residual-only rule lets Newton cycle.  Residual and potential
    are computed exactly as misspending_potential and cpf_potential compute
    them.

    Returns (best prices, their residual, Newton steps taken).  Fewer than
    max_iters steps with the residual above target means Newton stalled: the
    Hessian was not positive definite or no trial step was accepted.
    """
    w = market.supplies
    b = market.budgets
    c = market.demand_exponent
    a_pow = market.coefficients ** (1.0 - c[:, None])
    total = market.total_budget

    def evaluate(prices):
        # Trial points may overflow or leave the price domain; reject them.
        with np.errstate(all="ignore"):
            weights = a_pow * prices[None, :] ** c[:, None]
            denom = weights.sum(axis=1)
            shares = weights / denom[:, None]
            spending = b[:, None] * shares
            excess = (spending / prices[None, :]).sum(axis=0) - w
            residual = float(np.sum(prices * np.abs(excess)))
            psi = float(np.sum(w * prices) - np.sum(b * (np.log(denom) / c)))
        if not (np.isfinite(residual) and np.isfinite(psi) and np.all(prices > 0)):
            return None
        return shares, residual, psi

    state = evaluate(p)
    if state is None:
        return p, np.inf, 0
    shares, residual, psi = state
    best_p, best_residual = p, residual
    for step in range(max_iters):
        if residual <= target:
            return p, residual, step
        g, hessian = _gradient_hessian(market, p, shares)
        try:
            np.linalg.cholesky(hessian)
        except np.linalg.LinAlgError:
            return best_p, best_residual, step
        direction = np.linalg.solve(hessian, -g)
        slope = float(g @ direction)
        psi_noise = _PSI_NOISE * (abs(psi) + total)
        t = 1.0
        for _ in range(_LINE_SEARCH_HALVINGS):
            with np.errstate(over="ignore"):
                trial = p * np.exp(t * direction)
            state = evaluate(trial)
            if state is not None:
                _, trial_residual, trial_psi = state
                if trial_psi <= psi + _ARMIJO * t * slope or (
                    trial_residual < residual and trial_psi <= psi + psi_noise
                ):
                    break
            t *= 0.5
        else:
            return best_p, best_residual, step
        p = trial
        shares, residual, psi = state
        if residual < best_residual:
            best_p, best_residual = p, residual
    return best_p, best_residual, max_iters


def solve_equilibrium(
    market: CesMarket,
    tolerance: float = 1e-8,
    max_iters: int = 200_000,
    initial_prices=None,
) -> EquilibriumResult:
    """Find prices whose misspending is at most tolerance * total budget.

    `initial_prices` warm-starts the solve (defaults to uniform B/n).
    `max_iters` bounds Newton steps plus any fallback iterations, and
    `iterations` reports both.  Raises ConvergenceError, reporting the final
    residual, if the iteration budget is exhausted.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    total = market.total_budget
    target = tolerance * total
    n = market.num_goods
    if np.any(market.coefficients.max(axis=0) == 0):
        raise ValueError(
            "invalid market: some good carries no positive coefficient, "
            "so its clearing price is zero and outside the price domain"
        )

    if initial_prices is not None:
        # A warm start that already clears is returned untouched, so re-solves
        # on an unchanged market reproduce the previous result bit for bit.
        warm = check_prices(market, initial_prices)
        residual = misspending_potential(market, warm)
        if residual <= target:
            profile = demand(market, warm)
            return EquilibriumResult(
                prices=warm.copy(),
                bids=profile.spending,
                psi_star=cpf_potential(market, warm),
                residual=residual,
                iterations=0,
            )

    if initial_prices is None:
        start = np.full(n, total / n)
    else:
        start = check_prices(market, initial_prices)
    prices, residual, iterations = _newton_pass(market, start, target, max_iters)
    stalled = residual > target and iterations < max_iters
    if stalled and np.all((market.rho > 0) & (market.rho < 1)):
        # Substitutes: drive the proportional bid update on the unit-supply
        # form from Newton's best point; its implied prices converge linearly
        # to the clearing prices, which map back to the original market
        # through the supply factor.  The residual transfers exactly up to
        # rounding, so converge a bit past the target and re-check on the
        # original market.
        unit = _unit_supply_form(market)
        bids = demand(unit, prices * market.supplies).spending
        inner_target = 0.9 * target
        for _ in range(3):
            p, bids, _, used = _bid_pass(unit, bids, inner_target, max_iters - iterations)
            iterations += used
            prices = p / market.supplies
            residual = misspending_potential(market, prices)
            if residual <= target or iterations >= max_iters:
                break
            inner_target *= 0.5
    elif stalled:
        prices, residual, used = _damped_pass(market, prices, target, max_iters - iterations)
        iterations += used

    if residual > target:
        raise ConvergenceError(
            f"equilibrium solve stopped at residual {residual:.3e} "
            f"(target {target:.3e}) after {iterations} iterations",
            residual,
        )

    profile = demand(market, prices)
    return EquilibriumResult(
        prices=prices,
        bids=profile.spending,
        psi_star=cpf_potential(market, prices),
        residual=residual,
        iterations=iterations,
    )
