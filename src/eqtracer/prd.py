"""Proportional bid dynamics in the substitutes regime.

Buyers split budgets across goods, each good is allocated in proportion to
the bids on it, and next round's bids are proportional to the utility each
good contributed.  The dynamics minimise a convex bid-space potential whose
progress per round is measured by KL divergence to the equilibrium spending
matrix; the trace runner unrolls the per-round recurrence on the gap and KL
into the running tracking envelope under drifting utility coefficients and
supplies.  Each round is one `_round_kernel` call: one set of logs gives the
next bids, the potential and ln b, from which the KL distance follows.  The
warm-up (`prd_step` over several rounds) and the runner keep the kernel's
(m, n) work arrays for the whole run, so a round allocates no matrix.
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
    apply_event,
    coefficient_share_floor,
    delta_prd_utility,
)
from .trace import Trace

# Residual target for the equilibrium solves behind the potential gap and
# the KL distance.
SOLVER_TOLERANCE = 1e-10


def proportional_bids(market: CesMarket) -> np.ndarray:
    """Default initial bids: budgets split in proportion to coefficients.

    Guarantees positive bids exactly on the coefficient support, which the
    update then preserves, and keeps every bid above the contraction floor.
    """
    a = market.coefficients
    return market.budgets[:, None] * a / a.sum(axis=1, keepdims=True)


def _checked_inputs(market: CesMarket, bids) -> np.ndarray:
    if ((market.rho <= 0) | (market.rho >= 1)).any():
        raise ValueError("bid dynamics require rho in (0, 1) for every buyer")
    bids = np.asarray(bids, dtype=float)
    if bids.shape != market.coefficients.shape:
        raise ValueError(f"bids shape {bids.shape} does not match {market.coefficients.shape}")
    if (bids < 0).any():
        raise ValueError("bids must be non-negative")
    return bids


def check_bids(market: CesMarket, bids) -> np.ndarray:
    bids = _checked_inputs(market, bids)
    if not np.allclose(bids.sum(axis=1), market.budgets, rtol=1e-9, atol=0):
        raise ValueError("each buyer's bids must sum to the budget")
    if ((bids > 0) != (market.coefficients > 0)).any():
        raise ValueError("bids must be positive exactly where coefficients are")
    return bids


def _logs_and_g(market: CesMarket, bids: np.ndarray, work=(None, None, None)):
    """The logs l, g(market, bids), ln bids and prices: the kernel's first half.

    Unchecked: bids >= 0.  l = ln a + rho (ln w + ln b - ln p) = ln(a q^rho),
    q = w b / p, with the market's cached ln a, and g = p.ln w -
    sum_{b>0} (b/rho)(l - ln b).
    `work` holds three C-ordered (m, n) arrays for l, ln b and the terms of g,
    none of them `bids`; a None entry is allocated.  The arithmetic is the
    same either way, so buffers change no bit of the results.
    """
    out_logs, out_log_b, out_terms = work
    prices = bids.sum(axis=0)
    dead = prices == 0
    if dead.any() and (market.coefficients[:, dead] > 0).any():
        raise ValueError("a good with zero total bids still carries positive coefficients")
    log_w = np.log(market.supplies)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_b = np.log(bids, out=out_log_b)
        logs = np.subtract(log_b, np.log(np.where(dead, 1.0, prices)), out=out_logs)
        if log_w.any():
            logs += log_w
        logs *= market.rho[:, None]
        logs += market.log_coefficients
        terms = np.subtract(logs, log_b, out=out_terms)
        np.multiply(bids, terms, out=terms)
        if np.count_nonzero(bids) < bids.size:  # zero bids add nothing (x ln x limit)
            np.copyto(terms, 0.0, where=bids == 0)
        g = float(prices @ log_w - (terms.sum(axis=1) / market.rho).sum())
    return logs, g, log_b, prices


def _round_kernel(market: CesMarket, bids: np.ndarray, work=(None, None, None)):
    """Next bids, g(market, bids), ln bids and prices, from one set of logs.

    With the logs l of `_logs_and_g` and L_i their row maximum, next bids are
    b_i exp(l - L_i) over the row sum.  Rows are pinned to the budgets at
    their largest entry: no drift, zeros stay.  The next bids overwrite the
    logs in place, so they come back in `work[0]` and ln b in `work[1]`.
    """
    logs, g, log_b, prices = _logs_and_g(market, bids, work)
    rows = np.arange(bids.shape[0])
    top = logs.argmax(axis=1)
    with np.errstate(invalid="ignore"):
        logs -= logs[rows, top][:, None]
        new = np.exp(logs, out=logs)
        sums = new.sum(axis=1)
    if not np.isfinite(sums).all():
        raise ValueError("a buyer's bid normaliser is zero or non-finite")
    new *= (market.budgets / sums)[:, None]
    for _ in range(4):
        residue = market.budgets - new.sum(axis=1)
        if not np.count_nonzero(residue):
            break
        new[rows, top] += residue
    return new, g, log_b, prices


def prd_step(bids, market: CesMarket, rounds: int = 1) -> np.ndarray:
    """`rounds` bid updates: allocate goods pro rata, re-split budgets by utility.

    Buyer i receives supplies_j * b_ij / p_j of good j, p_j the money on it;
    new bids are proportional to a_ij * quantity^rho_i, with each row
    renormalised to the buyer's budget exactly.  Two bid arrays take turns
    as the kernel's output, so a round allocates no (m, n) array and the
    caller's `bids` are never written.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    bids = _checked_inputs(market, bids)
    out, spare, log_b, terms = (np.empty(bids.shape) for _ in range(4))
    for _ in range(rounds):
        bids = _round_kernel(market, bids, (out, log_b, terms))[0]
        out, spare = spare, out
    return bids


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
    / p_j^rho_i); zero bids contribute nothing (x ln x limit).  Like
    `prd_step`, it rejects bids that leave a valued good without bids.
    """
    g = _logs_and_g(market, _checked_inputs(market, bids))[1]
    if not np.isfinite(g):
        raise ValueError("positive bid on a zero coefficient makes g non-finite")
    return g


def _anchor(market: CesMarket, eq: EquilibriumResult, work=(None, None, None)):
    """g* and `kl_divergence(eq.bids, b)` as a function of ln b, for every solve.

    The KL's mass and sign checks hold by construction: bids are checked on
    entry, and the kernel keeps them non-negative with rows at the budgets.
    `work` is the kernel's: g*'s logs go into the free bid array work[0] and
    its terms into work[2], and the KL writes x (ln x - ln b) into work[2]
    too, which is free again once a kernel call has summed its g.  ln x is
    kept with the KL, so it is always allocated.
    """
    out_logs, _, out_terms = work
    _, g_star, log_x, _ = _logs_and_g(market, eq.bids, (out_logs, None, out_terms))
    x = eq.bids.ravel()
    support = slice(None) if x.all() else np.flatnonzero(x)
    x, log_x = x[support], log_x.ravel()[support]
    scratch = None if out_terms is None else out_terms.ravel()[: x.size]

    def kl(log_b: np.ndarray) -> float:
        diff = np.subtract(log_x, log_b.ravel()[support], out=scratch)
        value = float(np.multiply(x, diff, out=diff).sum())
        if not np.isfinite(value):  # ln b = -inf where x > 0
            raise ValueError("support violation: y must be positive wherever x is")
        return max(value, 0.0)

    return g_star, kl


def reduce_supply_to_utility(market: CesMarket) -> CesMarket:
    """Absorb supply scale into coefficients, returning a unit-supply market.

    Good j's supply w_j is folded in as a_ij <- a_ij * w_j^rho_i, i.e.
    a_ij * exp(rho_i ln w_j); bid dynamics on the original and reduced
    markets coincide entrywise.  A unit-supply market is returned as it is.
    """
    if (market.supplies == 1.0).all():
        return market
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

    @classmethod
    def closed_form(cls, market: CesMarket) -> "PrdBoundConfig":
        """(q1, q2) = (rho_max, 1): gap_t <= rho_max KL_{t-1} - KL_t on static rounds.

        A bid update is mirror descent with step 1 on g in the distance
        D(x, b) = sum_i KL(x_i || b_i) / rho_i (Birnbaum, Devanur & Xiao, EC
        2011); D_t = D(x*, b_t), with x* and p* the equilibrium spending and
        prices, b_t and p_t round t's.  g's Bregman divergence KL(p_x || p_b) +
        sum_i (1/rho_i - 1) KL(x_i || b_i) lies between (1 - rho_max) D and D
        (log-sum inequality): g is 1-smooth and (1 - rho_max)-strongly convex
        relative to D, so gap_t <= rho_max D_{t-1} - D_t (Lu, Freund &
        Nesterov, SIAM J. Optim. 2018).  In plain KL the three-point identity is exactly
        gap_t = KL_{t-1} - D_t - E_t, E_t = KL(b_t || b_{t-1}) - KL(p_t ||
        p_{t-1}) + KL(p* || p_{t-1}) >= 0, which proves the rate: gap_t <=
        KL_{t-1} - KL_t / rho_max.  The scale q2 = 1 holds iff (1 - rho_max)
        KL_{t-1} <= D_t - KL_t + E_t: measured, not proven, and asserted on
        every static round of battery 6.  Events keep rho, so one pair serves
        a whole trace; as rho_max -> 1 the envelope stops contracting.
        """
        return cls(q1=float(market.rho.max()), q2=1.0)


def run_prd_trace(
    market0: CesMarket,
    bids0,
    schedule: PerturbationSchedule,
    bound: PrdBoundConfig,
    horizon: int,
) -> Trace:
    """Simulate bid dynamics while supplies and utility coefficients drift.

    Supply events are first folded into utility coefficients (unit-supply
    normalisation), budget events are rejected.  Round t: update bids against
    the previous market, apply events, re-solve the per-round equilibrium
    (warm-started; cached on static rounds), then record the potential gap,
    the KL distance to equilibrium, the per-round jump cap `delta_prd_utility`
    (its `coefficient_share_floor` taken over rounds seen so far), the cumulative
    bound, and whether the one-round recurrence held.  The trace's
    `initial` is the gap of bids0.

    The bound unrolls the one-round recurrence
    gap_t <= q1 KL_{t-1} - q2 KL_t + jump_t, which `recurrence_ok` checks:
      gap_t >= 0 gives KL_t <= (q1/q2) KL_{t-1} + jump_t / q2;
      then gap_T <= q1 KL_{T-1} + jump_T;
      together gap_T <= running_bound(q2 KL_0, q1/q2, jumps)_T.

    `bound` is supplied or `PrdBoundConfig.closed_form(market0)`, with the
    argument for its constants; `bids0` is typically warmed up by `prd_step`.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    if schedule.max_round > horizon:
        raise ValueError("schedule contains events beyond the horizon")
    if BUDGET in schedule.channels():
        raise ValueError("budget events are unsupported: the bid domain itself would move")
    # Checked once: events keep rho; the kernel keeps bids on the support, rows at the budgets.
    market = reduce_supply_to_utility(market0)
    bids = check_bids(market, bids0)
    eq = solve_equilibrium(market, tolerance=SOLVER_TOLERANCE)
    # Kept work arrays, as in `prd_step`; bids0 is never one.
    spare, free, log_b, terms = (np.empty(bids.shape) for _ in range(4))
    g_star, kl_to = _anchor(market, eq, (free, None, terms))
    min_share = coefficient_share_floor(market)
    recurrence_slack = 1e-12 * max(market.total_budget, 1.0)
    step, g, log_b, _ = _round_kernel(market, bids, (free, log_b, terms))
    initial = g - g_star
    kl_anchor = kl_prev = kl_to(log_b)
    gaps, deltas, highs, lows, kls = (np.empty(horizon) for _ in range(5))
    recurrence = np.empty(horizon, dtype=bool)
    for t in range(horizon):
        bids = step
        events = schedule.events_at(t + 1)
        eps_t = 0.0
        if events:
            logs = None  # ln of the round's coefficient factors, summed over its events
            for event in events:
                if event.channel == SUPPLY:
                    perturbed = apply_event(market, event)
                    factor_logs = market.rho[:, None] * np.log(perturbed.supplies)[None, :]
                    market = reduce_supply_to_utility(perturbed)
                else:
                    factor_logs = np.log(event.payload)
                    market = apply_event(market, event)
                logs = factor_logs if logs is None else logs + factor_logs
            eps_t = max(float(logs.max()), float(-logs.min()))
            min_share = np.minimum(min_share, coefficient_share_floor(market))
            eq = solve_equilibrium(market, tolerance=SOLVER_TOLERANCE, previous=eq)
            g_star, kl_to = _anchor(market, eq, (spare, None, terms))
        delta_t = delta_prd_utility(market, min_share, eps_t)
        # One call gives this round's gap and KL and next round's bids.
        step, g, log_b, prices = _round_kernel(market, bids, (spare, log_b, terms))
        spare = bids
        gap = g - g_star
        kl = kl_to(log_b)
        gaps[t], deltas[t], kls[t] = gap, delta_t, kl
        recurrence[t] = gap <= bound.q1 * kl_prev - bound.q2 * kl + delta_t + recurrence_slack
        highs[t], lows[t] = prices.max(), prices.min()
        kl_prev = kl
    return Trace(
        initial=initial,
        potential=gaps,
        delta=deltas,
        bound=running_bound(bound.q2 * kl_anchor, bound.q1 / bound.q2, deltas),
        max_price=highs,
        min_price=lows,
        kl_to_equilibrium=kls,
        recurrence_ok=recurrence,
    )
