"""Static-market equilibrium solver.

Used to normalise potentials (the convex potential's minimum value) and to
seed bid-space dynamics with equilibrium spending matrices.  Every solve runs
damped Newton's method on the convex price potential
Psi(p) = sum_j w_j p_j - sum_i b_i ln Q_i(p) (Cheung, Cole & Devanur,
STOC 2013) in log prices y = ln p.  The gradient g is p times (supply -
demand) and the Hessian H has a closed form; from a warm start Newton
reaches the target in a few steps.

In code terms H = diag(w*p) + sum_i b_i (-c_i) (diag(s_i) - s_i s_i^T), with
s_i buyer i's spending shares and c_i = rho_i / (rho_i - 1).  Each
diag(s_i) - s_i s_i^T is positive semidefinite (x^T (.) x is the variance of x
under s_i >= 0, which sums to 1), so when every c_i < 0 (every rho_i in (0, 1))
H >= diag(w*p) > 0.

Psi is convex in p for every CES market, but with a complements buyer
(c_i > 0) not always in y: H can be indefinite, often far from equilibrium.
Such markets step with H - diag(g) instead, which is diag(p) times the
price-space Hessian times diag(p), i.e. sum_i b_i ((1 - c_i) diag(s_i) +
c_i s_i s_i^T).  Each buyer's term is positive semidefinite (for c_i < 0
write it as diag(s_i) - c_i (diag(s_i) - s_i s_i^T)), so the sum is positive
definite whenever every good carries spending and the step is a descent
direction for Psi (damped Newton, Boyd & Vandenberghe, Convex Optimization,
section 9.5).  Either curvature matrix K is scaled to unit diagonal before it
is inverted: far from equilibrium the spending on some goods, and with it
their rows of K, can be hundreds of orders of magnitude below the rest, and
an unscaled factorization drowns those rows in rounding.

A warm solve goes further and takes chord steps (Kelley, Iterative Methods
for Linear and Nonlinear Equations, SIAM 1995, section 5.4; Ortega &
Rheinboldt, Iterative Solution of Nonlinear Equations in Several Variables,
1970): it keeps K^-1 from its last full step, carried from solve to solve in
`EquilibriumResult`, and steps by -K^-1 g, one kernel evaluation and one
matrix-vector product.  After a small market change K barely moves, so the
kept inverse still cuts the residual by orders of magnitude per step; it is
refreshed only when a step fails the line search's acceptance test or cuts
the residual less than `_REFRESH_CUT`-fold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import CesMarket, ces_weights, check_prices, excess_demand

_ARMIJO = 1e-4
_LINE_SEARCH_HALVINGS = 40
# Relative rounding noise of Psi, scaled by |Psi| + total budget.
_PSI_NOISE = 1e-12
# A chord step must cut the residual this many times, or H^-1 is refreshed.
_REFRESH_CUT = 20.0


class ConvergenceError(RuntimeError):
    """Solver failed to reach the requested residual; carries the last value."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class EquilibriumResult:
    """Equilibrium prices, spending matrix, potential minimum and residual.

    `iterations` counts full Newton steps (inversions) and `chord_steps`
    the steps that reused a kept inverse.  `hessian_inverse` is the
    read-only K^-1 (see the module docstring) of a warm solve's last full
    step, which the next warm solve passed this result reuses; it is None
    otherwise.
    """

    prices: np.ndarray      # (n,) market-clearing prices
    bids: np.ndarray        # (m, n) equilibrium spending, rows sum to budgets
    psi_star: float         # minimum of the convex price potential
    residual: float         # misspending at the returned prices
    iterations: int
    chord_steps: int = 0
    hessian_inverse: np.ndarray | None = None


def _gradient_hessian(market: CesMarket, prices: np.ndarray, shares: np.ndarray):
    """Gradient and Hessian of the convex price potential in log prices.

    With s the (m, n) spending shares E / S at `prices` (rows s_i) and c the
    demand exponents: g = w*p - sum_i b_i s_i, which is p times (supply -
    demand), and H = diag(w*p - sum_i b_i c_i s_i) + s^T diag(b*c) s.
    """
    wp = market.supplies * prices
    bc = market.budgets * market.demand_exponent
    gradient = wp - market.budgets @ shares
    hessian = (shares.T * bc) @ shares
    hessian.flat[:: prices.size + 1] += wp - bc @ shares
    return gradient, hessian


def solve_equilibrium(
    market: CesMarket,
    tolerance: float = 1e-8,
    max_iters: int = 200_000,
    previous: EquilibriumResult | None = None,
) -> EquilibriumResult:
    """Find prices whose misspending is at most tolerance * total budget.

    Damped Newton's method on the convex price potential in log prices
    y = ln p.  A full step is d = -K^-1 g, where K is the log-price Hessian
    H, or H - diag(g) with any complements buyer.  Both are positive
    definite (see the module docstring), so no step tests definiteness:
    every one scales K to unit diagonal, inverts it and unscales the
    inverse.  A step is accepted on an Armijo decrease of Psi, or when the
    misspending sum |g| falls while Psi rises by no more than its rounding
    noise: near the optimum Psi's decrease drops below rounding while the
    residual still shrinks quadratically, and away from it a residual-only
    rule lets Newton cycle.  Every point is evaluated by the market's
    log-domain kernel `ces_weights`, so the start stays finite as rho -> 1,
    and residual and potential are computed exactly as
    `DemandProfile.misspending` and `DemandProfile.cpf` compute them, from
    the kernel's unnormalised weights E and row sums S.  Shares E / S are
    formed, in place, only at a point that takes a full step, and the
    returned bids are E * (b / S).

    `previous`, the result of an earlier solve on a market of the same
    shape, warm-starts the solve at its prices (a cold solve starts at
    uniform B/n); a warm start that already clears is returned unchanged
    after 0 steps, so re-solves on an unchanged market reproduce the
    previous result bit for bit.  A warm solve takes chord steps:
    d = -K^-1 g with the previous result's K^-1, where g = -p * excess
    comes with the evaluation.  A chord step is tried at full length only;
    if it fails the acceptance test, a full step is taken from the same
    point, and after one that cuts the residual less than
    `_REFRESH_CUT`-fold the next step is a full one.  A warm solve keeps
    the K^-1 of its last full step for the steps and solves that follow.
    A cold solve takes full steps only and keeps no inverse; it runs once
    per market object and tolerance, and later cold calls return that same
    read-only result.  `max_iters` bounds the steps of both kinds.
    Raises ValueError if `previous` does not fit the market, and
    ConvergenceError, reporting the final residual, if the target is
    not met: the potential is not finite at the start, the steps ran
    out, or the line search found no acceptable step.
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
    if previous is None:
        # Kept in the market's __dict__, next to its cached CES weights.
        cold = market.__dict__.setdefault("_cold_solves", {})
        if tolerance in cold:
            return cold[tolerance]
        p = np.full(market.num_goods, total / market.num_goods)
    else:
        cold = None
        p = check_prices(market, previous.prices)

    def evaluate(prices, out=None):
        # Trial points may overflow or leave the price domain; reject them.
        with np.errstate(all="ignore"):
            weights, sums, log_q = ces_weights(market, prices, out)
            # p * excess = -g: the money spent on each good beyond its supply.
            overspend = prices * excess_demand(market, prices, weights, sums)
            residual = float(np.abs(overspend).sum())
            psi = float((w * prices).sum() - (b * log_q).sum())
        if not (np.isfinite(residual) and np.isfinite(psi) and (prices > 0).all()):
            return None
        return weights, sums, overspend, residual, psi

    def search(direction, halvings):
        # The first point on the halving path from p along the log-price
        # direction K^-1 (p * excess) that passes the acceptance test, with
        # its state, or None.
        slope = -float(overspend @ direction)
        psi_noise = _PSI_NOISE * (abs(psi) + total)
        t = 1.0
        for _ in range(halvings):
            with np.errstate(over="ignore"):
                trial = p * np.exp(t * direction)
            trial_state = evaluate(trial, spare)
            if trial_state is not None:
                trial_residual, trial_psi = trial_state[3:]
                if trial_psi <= psi + _ARMIJO * t * slope or (
                    trial_residual < residual and trial_psi <= psi + psi_noise
                ):
                    return trial, trial_state
            t *= 0.5
        return None

    state = evaluate(p)
    if state is None:
        raise ConvergenceError(
            "the convex potential is not finite at the starting prices", np.inf
        )
    weights, sums, overspend, residual, psi = state
    del state  # else the start's weights outlive its first step
    complements = (market.demand_exponent > 0).any()
    inverse = None if previous is None else previous.hessian_inverse
    # `spare` holds the trial weights and is swapped with `weights` on
    # acceptance (while it is None, `ces_weights` allocates them); `weights`
    # becomes the returned bids, so no later solve writes into a result.
    spare = None
    newton_steps = chord_steps = 0
    refresh = inverse is None
    while newton_steps + chord_steps < max_iters and residual > target:
        step = None
        if not refresh:
            step = search(inverse @ overspend, 1)
        if step is not None:
            chord_steps += 1
            # The new residual, step[1][3], fell less than _REFRESH_CUT-fold.
            refresh = step[1][3] * _REFRESH_CUT > residual
        else:
            weights /= sums[:, None]  # the shares, in place
            spare = inverse = None  # H is built and inverted beside the weights alone
            g, inverse = _gradient_hessian(market, p, weights)
            if complements:  # K = H - diag(g)
                inverse.flat[:: p.size + 1] -= g
            scale = 1.0 / np.sqrt(inverse.diagonal())
            inverse *= np.outer(scale, scale)
            inverse = np.linalg.inv(inverse)
            inverse *= np.outer(scale, scale)
            step = search(inverse @ overspend, _LINE_SEARCH_HALVINGS)
            if step is None:
                break
            newton_steps += 1
            refresh = previous is None  # cold solves take full steps only
        p, trial_state = step
        spare = weights
        weights, sums, overspend, residual, psi = trial_state
    if residual > target:
        raise ConvergenceError(
            f"equilibrium solve stopped at residual {residual:.3e} "
            f"(target {target:.3e}) after {newton_steps} Newton and "
            f"{chord_steps} chord steps",
            residual,
        )
    bids = np.multiply(weights, (b / sums)[:, None], out=weights)
    p.setflags(write=False)
    bids.setflags(write=False)
    if previous is None:
        inverse = None  # cold results keep no inverse
    elif inverse is not None:
        inverse.setflags(write=False)
    result = EquilibriumResult(p, bids, psi, residual, newton_steps, chord_steps, inverse)
    if cold is not None:
        cold[tolerance] = result
    return result
