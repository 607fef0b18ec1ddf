"""Static-market equilibrium solver.

Used to normalise potentials (the convex potential's minimum value) and to
seed bid-space dynamics with equilibrium spending matrices.  Every solve runs
Newton's method on the convex price potential
Psi(p) = sum_j w_j p_j - sum_i b_i ln Q_i(p) (Cheung, Cole & Devanur,
STOC 2013) in log prices y = ln p.  The gradient is p times (supply - demand)
and the Hessian H has a closed form; from a warm start Newton reaches the
target in a few steps.

In code terms H = diag(w*p) + sum_i b_i (-c_i) (diag(s_i) - s_i s_i^T), with
s_i buyer i's spending shares and c_i = rho_i / (rho_i - 1).  Each
diag(s_i) - s_i s_i^T is positive semidefinite (x^T (.) x is the variance of x
under s_i >= 0, which sums to 1), so when every c_i < 0 (every rho_i in (0, 1))
H >= diag(w*p) > 0 and the step needs no definiteness test.

Psi is convex in p for every CES market, but with a complements buyer
(c_i > 0) not always in y: H can be indefinite, often far from equilibrium.
Such steps use H - diag(g) instead, which is diag(p) times the price-space
Hessian times diag(p), i.e. sum_i b_i ((1 - c_i) diag(s_i) + c_i s_i s_i^T).
Each buyer's term is positive semidefinite (for c_i < 0 write it as
diag(s_i) - c_i (diag(s_i) - s_i s_i^T)), so the sum is positive definite
whenever every good carries spending and the step is a descent direction for
Psi (damped Newton, Boyd & Vandenberghe, Convex Optimization, section 9.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import CesMarket, ces_weights, check_prices, excess_demand

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


def _gradient_hessian(
    market: CesMarket, prices: np.ndarray, shares: np.ndarray, scaled=None, hessian=None
):
    """Gradient and Hessian of the convex price potential in log prices.

    With s the (m, n) spending shares E / S at `prices` (rows s_i) and c the
    demand exponents: g = w*p - sum_i b_i s_i, which is p times (supply -
    demand), and H = diag(w*p - sum_i b_i c_i s_i) + s^T diag(b*c) s.
    s^T diag(b*c) is written into `scaled` and H into `hessian` when they
    are given, and allocated otherwise.  `scaled` must be the transpose of a
    C-ordered (m, n) array: that is the layout `shares.T * bc` gets, so the
    matrix product sees the same operands and H keeps every bit.
    """
    wp = market.supplies * prices
    bc = market.budgets * market.demand_exponent
    gradient = wp - market.budgets @ shares
    scaled = np.multiply(shares.T, bc, out=scaled)
    hessian = np.matmul(scaled, shares, out=hessian)
    hessian.flat[:: prices.size + 1] += wp - bc @ shares
    return gradient, hessian


def solve_equilibrium(
    market: CesMarket,
    tolerance: float = 1e-8,
    max_iters: int = 200_000,
    initial_prices=None,
) -> EquilibriumResult:
    """Find prices whose misspending is at most tolerance * total budget.

    Newton's method on the convex price potential in log prices y = ln p.
    Each step solves H d = -g with the log-price Hessian H.  With every rho
    in (0, 1), H is positive definite (see the module docstring) and is not
    tested; with any complements buyer Cholesky tests H at every step, and
    where it fails the step uses H - diag(g), which is positive definite.
    A step is accepted on an Armijo decrease of Psi, or when the misspending
    sum |g| falls while Psi rises by no more than its rounding noise: near
    the optimum Psi's decrease drops below rounding while the residual still
    shrinks quadratically, and away from it a residual-only rule lets Newton
    cycle.  Every point is evaluated by the market's log-domain kernel
    `ces_weights`, so the start stays finite as rho -> 1, and residual and
    potential are computed exactly as `DemandProfile.misspending` and
    `DemandProfile.cpf` compute them, from the kernel's unnormalised weights E
    and row sums S.  Shares E / S are formed, in place, only at a point
    that takes another Newton step, and the returned bids are E * (b / S).

    `initial_prices` warm-starts the solve (defaults to uniform B/n); a warm
    start that already clears is returned unchanged after 0 steps, so
    re-solves on an unchanged market reproduce the previous result bit for
    bit.  A cold solve (no `initial_prices`) runs once per market object and
    tolerance; later cold calls return that same read-only result.
    `max_iters` bounds the Newton steps and `iterations` counts them.
    Raises ConvergenceError, reporting the final residual, if the target is
    not met: the potential is not finite at the start, the steps ran out, or
    the line search found no acceptable step.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    w = market.supplies
    b = market.budgets
    total = market.total_budget
    target = tolerance * total
    if (market.coefficients.max(axis=0) == 0).any():
        raise ValueError(
            "invalid market: some good carries no positive coefficient, "
            "so its clearing price is zero and outside the price domain"
        )
    if initial_prices is None:
        # Kept in the market's __dict__, next to its cached CES weights.
        cold = market.__dict__.setdefault("_cold_solves", {})
        if tolerance in cold:
            return cold[tolerance]
        p = np.full(market.num_goods, total / market.num_goods)
    else:
        cold = None
        p = check_prices(market, initial_prices)

    def evaluate(prices, out=None):
        # Trial points may overflow or leave the price domain; reject them.
        with np.errstate(all="ignore"):
            weights, sums, log_q = ces_weights(market, prices, out)
            excess = excess_demand(market, prices, weights, sums)
            residual = float((prices * np.abs(excess)).sum())
            psi = float((w * prices).sum() - (b * log_q).sum())
        if not (np.isfinite(residual) and np.isfinite(psi) and (prices > 0).all()):
            return None
        return weights, sums, residual, psi

    state = evaluate(p)
    if state is None:
        raise ConvergenceError(
            "the convex potential is not finite at the starting prices", np.inf
        )
    weights, sums, residual, psi = state
    substitutes = (market.demand_exponent < 0).all()
    # Per-solve buffers: the Hessian, and a spare (m, n) array that holds
    # s^T diag(b*c) and then the trial weights, swapped with `weights` on
    # acceptance.  `weights` becomes the returned bids, so no later solve
    # writes into a result.
    spare = hessian = None
    steps = 0
    while steps < max_iters and residual > target:
        weights /= sums[:, None]  # the shares, in place
        if spare is None:
            spare = np.empty_like(weights)
            hessian = np.empty((p.size, p.size))
        g, hessian = _gradient_hessian(market, p, weights, spare.T, hessian)
        try:
            if not substitutes:
                np.linalg.cholesky(hessian)
        except np.linalg.LinAlgError:
            # Far from equilibrium the spending on some goods, and with it
            # their rows of H - diag(g), can be hundreds of orders of
            # magnitude below the rest; a pivoted solve of the unscaled
            # matrix drowns those rows in rounding, so scale it to unit
            # diagonal first.
            hessian.flat[:: p.size + 1] -= g
            scale = 1.0 / np.sqrt(np.diag(hessian))
            scaled = hessian * np.outer(scale, scale)
            direction = -scale * np.linalg.solve(scaled, scale * g)
        else:
            direction = np.linalg.solve(hessian, -g)
        slope = float(g @ direction)
        psi_noise = _PSI_NOISE * (abs(psi) + total)
        t = 1.0
        for _ in range(_LINE_SEARCH_HALVINGS):
            with np.errstate(over="ignore"):
                trial = p * np.exp(t * direction)
            trial_state = evaluate(trial, spare)
            if trial_state is not None:
                trial_residual, trial_psi = trial_state[2:]
                if trial_psi <= psi + _ARMIJO * t * slope or (
                    trial_residual < residual and trial_psi <= psi + psi_noise
                ):
                    break
            t *= 0.5
        else:
            break
        p = trial
        spare = weights
        weights, sums, residual, psi = trial_state
        steps += 1
    if residual > target:
        raise ConvergenceError(
            f"equilibrium solve stopped at residual {residual:.3e} "
            f"(target {target:.3e}) after {steps} iterations",
            residual,
        )
    bids = np.multiply(weights, (b / sums)[:, None], out=weights)
    p.setflags(write=False)
    bids.setflags(write=False)
    result = EquilibriumResult(p, bids, psi, residual, steps)
    if cold is not None:
        cold[tolerance] = result
    return result
