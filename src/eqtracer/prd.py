"""Proportional bid dynamics in the substitutes regime.

Buyers split budgets across goods, each good is allocated in proportion to
the bids on it, and next round's bids are proportional to the utility each
good contributed.  The dynamics minimise a convex bid-space potential whose
progress per round is measured by KL divergence to the equilibrium spending
matrix; the trace runner unrolls the per-round recurrence on the gap and KL
into the running tracking envelope under drifting utility coefficients and
supplies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import EquilibriumResult, solve_equilibrium
from .lyapunov import running_bound
from .market import CesMarket
from .perturbation import (
    BUDGET,
    SUPPLY,
    PerturbationSchedule,
    _min_coefficient_share,
    _prd_delta_from_parts,
    apply_event,
)
from .trace import Trace

# Residual target for the equilibrium solves behind the potential gap and
# the KL distance.
_SOLVER_TOLERANCE = 1e-10


def _check_substitutes(market: CesMarket):
    if ((market.rho <= 0) | (market.rho >= 1)).any():
        raise ValueError("bid dynamics require rho in (0, 1) for every buyer")


def proportional_bids(market: CesMarket) -> np.ndarray:
    """Default initial bids: budgets split in proportion to coefficients.

    Guarantees positive bids exactly on the coefficient support, which the
    update then preserves, and keeps every bid above the contraction floor.
    """
    a = market.coefficients
    return market.budgets[:, None] * a / a.sum(axis=1, keepdims=True)


def check_bids(market: CesMarket, bids) -> np.ndarray:
    bids = np.asarray(bids, dtype=float)
    if bids.shape != market.coefficients.shape:
        raise ValueError(
            f"bids shape {bids.shape} does not match market "
            f"{market.coefficients.shape}"
        )
    if (bids < 0).any():
        raise ValueError("bids must be non-negative")
    rows = bids.sum(axis=1)
    if not np.allclose(rows, market.budgets, rtol=1e-9, atol=0):
        raise ValueError("each buyer's bids must sum to the budget")
    support_mismatch = (bids > 0) != (market.coefficients > 0)
    if support_mismatch.any():
        raise ValueError("bids must be positive exactly where coefficients are")
    return bids


def prd_step(bids, market: CesMarket) -> np.ndarray:
    """One bid update: allocate goods pro rata, re-split budgets by utility.

    The quantity buyer i receives of good j is supplies_j * b_ij / p_j with
    p_j the money on good j; new bids are proportional to
    a_ij * quantity^rho_i and each row is renormalised to the buyer's budget
    so row sums are preserved exactly.
    """
    _check_substitutes(market)
    bids = np.asarray(bids, dtype=float)
    if bids.shape != market.coefficients.shape:
        raise ValueError("bids shape does not match the market")
    if (bids < 0).any():
        raise ValueError("bids must be non-negative")
    a = market.coefficients
    prices = bids.sum(axis=0)
    dead = prices <= 0
    if dead.any() and (a[:, dead] > 0).any():
        raise ValueError(
            "a good with zero total bids still carries positive "
            "coefficients; its allocation share is undefined"
        )
    safe_prices = np.where(dead, 1.0, prices)
    quantity = market.supplies[None, :] * bids / safe_prices[None, :]
    weights = a * quantity ** market.rho[:, None]
    norms = weights.sum(axis=1)
    if (norms <= 0).any() or not np.isfinite(norms).all():
        raise ValueError("a buyer's bid normaliser is zero or non-finite")
    new = market.budgets[:, None] * (weights / norms[:, None])
    # Pin row sums to the budgets (to the last rounding unit, so sums cannot
    # drift over long runs); the residue goes to the largest entry, which
    # never disturbs the zero pattern.
    for _ in range(4):
        residue = market.budgets - new.sum(axis=1)
        if not residue.any():
            break
        new[np.arange(new.shape[0]), new.argmax(axis=1)] += residue
    return new


def kl_divergence(x, y) -> float:
    """sum over x > 0 of x * ln(x / y) for equal-mass non-negative arrays.

    Requires matching masses (1e-12 relative) and y > 0 wherever x > 0;
    tiny negative rounding is clamped to zero.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("arrays must have matching shapes")
    if (x < 0).any() or (y < 0).any():
        raise ValueError("arrays must be non-negative")
    mass_x, mass_y = float(x.sum()), float(y.sum())
    if abs(mass_x - mass_y) > 1e-12 * max(abs(mass_x), abs(mass_y), 1.0):
        raise ValueError(f"mass mismatch: {mass_x!r} vs {mass_y!r}")
    active = x > 0
    if (y[active] <= 0).any():
        raise ValueError("support violation: y must be positive wherever x is")
    value = float((x[active] * np.log(x[active] / y[active])).sum())
    return max(value, 0.0)


def prd_potential_g(market: CesMarket, bids) -> float:
    """Convex bid-space potential minimised exactly at equilibrium spending.

    g(B) = - sum over bids > 0 of (b_ij / rho_i) ln(a_ij b_ij^(rho_i - 1)
    / p_j^rho_i); zero bids contribute nothing (x ln x limit).
    """
    _check_substitutes(market)
    bids = np.asarray(bids, dtype=float)
    if bids.shape != market.coefficients.shape:
        raise ValueError("bids shape does not match the market")
    a = market.coefficients
    active = bids > 0
    if (active & (a <= 0)).any():
        raise ValueError("positive bid on a zero coefficient makes g non-finite")
    prices = bids.sum(axis=0)
    rho = market.rho[:, None]
    log_term = np.zeros_like(bids)
    np.log(a, out=log_term, where=active)
    log_bids = np.zeros_like(bids)
    np.log(bids, out=log_bids, where=active)
    log_prices = np.log(np.where(prices > 0, prices, 1.0))
    inner = log_term + (rho - 1.0) * log_bids - rho * log_prices[None, :]
    contrib = np.where(active, bids / rho * inner, 0.0)
    return float(-contrib.sum())


def reduce_supply_to_utility(market: CesMarket) -> CesMarket:
    """Absorb supply scale into coefficients, returning a unit-supply market.

    Good j's supply w_j is folded in as a_ij <- a_ij * w_j^rho_i, i.e.
    a_ij * exp(rho_i ln w_j); bid dynamics on the original and reduced
    markets coincide entrywise.
    """
    factors = np.exp(market.rho[:, None] * np.log(market.supplies)[None, :])
    return market.replace(
        coefficients=market.coefficients * factors,
        supplies=np.ones(market.num_goods),
    )


@dataclass(frozen=True)
class PrdBoundConfig:
    """Recurrence constants 0 < q1 < q2 for the KL tracking bound."""

    q1: float
    q2: float

    def __post_init__(self):
        if not 0 < self.q1 < self.q2:
            raise ValueError("constants must satisfy 0 < q1 < q2")

    @property
    def ratio(self) -> float:
        return self.q1 / self.q2


def fit_prd_constants(
    market: CesMarket, bids, rounds: int = 200
) -> tuple[PrdBoundConfig, np.ndarray, EquilibriumResult]:
    """Fit (q1, q2) from a static run; return them, the final bids and the
    equilibrium solved for the fit.

    The ratio q1/q2 is set halfway between the worst observed per-round KL
    ratio and 1; the scale is the smallest q2 for which
    potential gap_{t+1} <= q1 KL_t - q2 KL_{t+1} holds at every observed
    round.  Callers should report the constants as fitted, not derived.
    """
    if rounds < 2:
        raise ValueError("need at least two warm-up rounds to fit constants")
    _check_substitutes(market)
    eq = solve_equilibrium(market, tolerance=_SOLVER_TOLERANCE)
    g_star = prd_potential_g(market, eq.bids)
    bids = np.asarray(bids, dtype=float)
    kl = kl_divergence(eq.bids, bids)
    # Stop fitting once the KL distance sinks toward the solver's own
    # accuracy plateau, where per-round ratios are rounding noise.
    floor = max(kl * 1e-12, 1e-13 * market.total_budget)
    triples = []
    for _ in range(rounds):
        bids = prd_step(bids, market)
        kl_next = kl_divergence(eq.bids, bids)
        gap_next = prd_potential_g(market, bids) - g_star
        if kl > floor:
            triples.append((kl, kl_next, gap_next))
        kl = kl_next
    if not triples:
        raise ValueError("warm-up started at a converged state; nothing to fit")
    worst_ratio = max(nxt / cur for cur, nxt, _ in triples)
    if worst_ratio >= 1:
        raise ValueError(
            f"KL distance failed to contract during warm-up (ratio {worst_ratio:.6f})"
        )
    ratio = (1.0 + worst_ratio) / 2.0
    q2 = max(
        max(gap / (ratio * cur - nxt) for cur, nxt, gap in triples),
        1e-9,
    )
    return PrdBoundConfig(q1=ratio * q2, q2=q2), bids, eq


def run_prd_trace(
    market0: CesMarket,
    bids0,
    schedule: PerturbationSchedule,
    bound: PrdBoundConfig,
    horizon: int,
    _equilibrium: EquilibriumResult | None = None,
) -> Trace:
    """Simulate bid dynamics while supplies and utility coefficients drift.

    Supply events are first folded into utility coefficients (unit-supply
    normalisation), budget events are rejected.  Round t: update bids against
    the previous market, apply events, re-solve the per-round equilibrium
    (warm-started; cached on static rounds), then record the potential gap,
    the KL distance to equilibrium, the per-round jump cap (with the
    coefficient-share floor taken over rounds seen so far), the cumulative
    bound, and whether the one-round recurrence held.  The trace's
    `initial` is the gap of bids0.

    The bound unrolls the one-round recurrence
    gap_t <= q1 KL_{t-1} - q2 KL_t + jump_t, which `recurrence_ok` checks:
      gap_t >= 0 gives KL_t <= (q1/q2) KL_{t-1} + jump_t / q2;
      then gap_T <= q1 KL_{T-1} + jump_T;
      together gap_T <= running_bound(q2 KL_0, q1/q2, jumps)_T.

    `bound` is supplied or fitted beforehand with `fit_prd_constants`, whose
    final bids are then the natural `bids0`.  On a unit-supply market0 the
    fit's equilibrium, passed as `_equilibrium`, is not solved again.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    if schedule.max_round > horizon:
        raise ValueError("schedule contains events beyond the horizon")
    if BUDGET in schedule.channels():
        raise ValueError(
            "budget events are unsupported: the bid domain itself would move"
        )
    _check_substitutes(market0)

    market = reduce_supply_to_utility(market0)
    bids = check_bids(market, bids0)

    if _equilibrium is not None and (market0.supplies != 1.0).any():
        raise ValueError("a fitted equilibrium can only be reused on unit supplies")
    eq = _equilibrium or solve_equilibrium(market, tolerance=_SOLVER_TOLERANCE)
    g_star = prd_potential_g(market, eq.bids)
    kl_anchor = kl_prev = kl_divergence(eq.bids, bids)
    min_share = _min_coefficient_share([market])
    budgets, rho = market.budgets, market.rho
    total = market.total_budget
    recurrence_slack = 1e-12 * max(total, 1.0)

    initial = prd_potential_g(market, bids) - g_star
    gaps, deltas, highs, lows, kls = (np.empty(horizon) for _ in range(5))
    recurrence = np.empty(horizon, dtype=bool)
    for t in range(horizon):
        bids = prd_step(bids, market)
        events = schedule.events_at(t + 1)
        eps_t = 0.0
        if events:
            logs = np.zeros_like(market.coefficients)
            for event in events:
                if event.channel == SUPPLY:
                    perturbed = apply_event(market, event)
                    logs += rho[:, None] * np.log(perturbed.supplies)[None, :]
                    market = reduce_supply_to_utility(perturbed)
                else:
                    logs += np.log(event.payload)
                    market = apply_event(market, event)
            eps_t = float(np.abs(logs).max())
            min_share = np.minimum(min_share, _min_coefficient_share([market]))
            eq = solve_equilibrium(
                market, tolerance=_SOLVER_TOLERANCE, initial_prices=eq.prices
            )
            g_star = prd_potential_g(market, eq.bids)
        delta_t = _prd_delta_from_parts(budgets, rho, min_share, eps_t)
        gap = prd_potential_g(market, bids) - g_star
        kl = kl_divergence(eq.bids, bids)
        gaps[t], deltas[t], kls[t] = gap, delta_t, kl
        recurrence[t] = (
            gap <= bound.q1 * kl_prev - bound.q2 * kl + delta_t + recurrence_slack
        )
        prices = bids.sum(axis=0)
        highs[t] = prices.max()
        lows[t] = prices.min()
        kl_prev = kl
    return Trace(
        initial=initial,
        potential=gaps,
        delta=deltas,
        bound=running_bound(bound.q2 * kl_anchor, bound.ratio, deltas),
        max_price=highs,
        min_price=lows,
        kl_to_equilibrium=kls,
        recurrence_ok=recurrence,
    )
