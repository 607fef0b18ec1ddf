"""Proportional bid dynamics in the substitutes regime.

Buyers split budgets across goods, each good is allocated in proportion to
the bids on it, and next round's bids are proportional to the utility each
good contributed.  The dynamics minimise a convex bid-space potential whose
progress per round is measured by KL divergence to the equilibrium spending
matrix; the trace runner unrolls the per-round recurrence on the gap and KL
into the running tracking envelope under drifting utility coefficients and
supplies.  Each round is one `_round_kernel` call: one set of logs gives the
next bids, the potential and ln b, from which the KL distance follows.  The
fit and the runner keep the kernel's (m, n) work arrays for the whole run,
so a round allocates no matrix.
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
_SOLVER_TOLERANCE = 1e-10


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


def _logs_and_g(market: CesMarket, bids: np.ndarray, log_a: np.ndarray, work=(None, None, None)):
    """The logs l, g(market, bids), ln bids and prices: the kernel's first half.

    Unchecked: bids >= 0 and log_a = ln a.  l = ln a + rho (ln w + ln b - ln p)
    = ln(a q^rho), q = w b / p, and g = p.ln w - sum_{b>0} (b/rho)(l - ln b).
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
        logs += log_a
        terms = np.subtract(logs, log_b, out=out_terms)
        np.multiply(bids, terms, out=terms)
        if np.count_nonzero(bids) < bids.size:  # zero bids add nothing (x ln x limit)
            np.copyto(terms, 0.0, where=bids == 0)
        g = float(prices @ log_w - (terms.sum(axis=1) / market.rho).sum())
    return logs, g, log_b, prices


def _round_kernel(market: CesMarket, bids: np.ndarray, log_a: np.ndarray, work=(None, None, None)):
    """Next bids, g(market, bids), ln bids and prices, from one set of logs.

    With the logs l of `_logs_and_g` and L_i their row maximum, next bids are
    b_i exp(l - L_i) over the row sum.  Rows are pinned to the budgets at
    their largest entry: no drift, zeros stay.  The next bids overwrite the
    logs in place, so they come back in `work[0]` and ln b in `work[1]`.
    """
    logs, g, log_b, prices = _logs_and_g(market, bids, log_a, work)
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


def _log_coefficients(market: CesMarket) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(market.coefficients)


def prd_step(bids, market: CesMarket) -> np.ndarray:
    """One bid update: allocate goods pro rata, re-split budgets by utility.

    Buyer i receives supplies_j * b_ij / p_j of good j, p_j the money on it;
    new bids are proportional to a_ij * quantity^rho_i, with each row
    renormalised to the buyer's budget exactly.
    """
    return _round_kernel(market, _checked_inputs(market, bids), _log_coefficients(market))[0]


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
    g = _logs_and_g(market, _checked_inputs(market, bids), _log_coefficients(market))[1]
    if not np.isfinite(g):
        raise ValueError("positive bid on a zero coefficient makes g non-finite")
    return g


def _anchor(market: CesMarket, eq: EquilibriumResult, work=(None, None, None)):
    """ln a, g* and `kl_divergence(eq.bids, b)` as a function of ln b, for every solve.

    The KL's mass and sign checks hold by construction: bids are checked on
    entry, and the kernel keeps them non-negative with rows at the budgets.
    `work` is the kernel's: g*'s logs go into the free bid array work[0] and
    its terms into work[2], and the KL writes x (ln x - ln b) into work[2]
    too, which is free again once a kernel call has summed its g.  ln x is
    kept with the KL, so it is always allocated.
    """
    log_a = _log_coefficients(market)
    out_logs, _, out_terms = work
    _, g_star, log_x, _ = _logs_and_g(market, eq.bids, log_a, (out_logs, None, out_terms))
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

    return log_a, g_star, kl


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

    @property
    def ratio(self) -> float:
        return self.q1 / self.q2


def fit_prd_constants(
    market: CesMarket, bids, rounds: int = 200
) -> tuple[PrdBoundConfig, np.ndarray]:
    """Fit (q1, q2) from a static run; return them and the final bids.

    The ratio q1/q2 is set halfway between the worst observed per-round KL
    ratio and 1; the scale is the smallest q2 for which
    potential gap_{t+1} <= q1 KL_t - q2 KL_{t+1} holds at every observed
    round.  Callers should report the constants as fitted, not derived.
    """
    if rounds < 2:
        raise ValueError("need at least two warm-up rounds to fit constants")
    bids = check_bids(market, bids)
    eq = solve_equilibrium(market, tolerance=_SOLVER_TOLERANCE)
    # Kept work arrays, so that rounds allocate no (m, n) array: each round
    # writes its next bids over the bids the round before it read (never the
    # caller's), and ln b and the terms of g into their own arrays.
    spare, free, log_b, terms = (np.empty(bids.shape) for _ in range(4))
    log_a, g_star, kl_to = _anchor(market, eq, (free, None, terms))
    step, _, log_b, _ = _round_kernel(market, bids, log_a, (free, log_b, terms))
    kl = kl_to(log_b)
    # The solve stops at a misspending of _SOLVER_TOLERANCE * B, so g* and every
    # KL carry an error of that order.  Rounds whose KL is within a hundred times
    # that are not fitted: their ratios and gaps are mostly the solve's error.
    floor = max(kl * 1e-12, 100 * _SOLVER_TOLERANCE * market.total_budget)
    triples = []
    for _ in range(rounds):
        bids = step
        step, g, log_b, _ = _round_kernel(market, bids, log_a, (spare, log_b, terms))
        spare = bids
        kl_next = kl_to(log_b)
        if kl > floor:
            triples.append((kl, kl_next, g - g_star))
        kl = kl_next
    if not triples:
        raise ValueError("warm-up started at a converged state; nothing to fit")
    worst_ratio = max(nxt / cur for cur, nxt, _ in triples)
    if worst_ratio >= 1:
        raise ValueError(
            f"KL distance failed to contract during warm-up (ratio {worst_ratio:.6f})"
        )
    ratio = (1.0 + worst_ratio) / 2.0
    q2 = max(max(gap / (ratio * cur - nxt) for cur, nxt, gap in triples), 1e-9)
    return PrdBoundConfig(q1=ratio * q2, q2=q2), bids


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

    `bound` is supplied or fitted beforehand with `fit_prd_constants`, whose
    final bids are then the natural `bids0`; market0's cold solve is the fit's.
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
    eq = solve_equilibrium(market, tolerance=_SOLVER_TOLERANCE)
    # Kept work arrays, as in `fit_prd_constants`; bids0 is never one.
    spare, free, log_b, terms = (np.empty(bids.shape) for _ in range(4))
    log_a, g_star, kl_to = _anchor(market, eq, (free, None, terms))
    min_share = coefficient_share_floor(market)
    recurrence_slack = 1e-12 * max(market.total_budget, 1.0)
    step, g, log_b, _ = _round_kernel(market, bids, log_a, (free, log_b, terms))
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
            eq = solve_equilibrium(market, tolerance=_SOLVER_TOLERANCE, initial_prices=eq.prices)
            log_a, g_star, kl_to = _anchor(market, eq, (spare, None, terms))
        delta_t = delta_prd_utility(market, min_share, eps_t)
        # One call gives this round's gap and KL and next round's bids.
        step, g, log_b, prices = _round_kernel(market, bids, log_a, (spare, log_b, terms))
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
        bound=running_bound(bound.q2 * kl_anchor, bound.ratio, deltas),
        max_price=highs,
        min_price=lows,
        kl_to_equilibrium=kls,
        recurrence_ok=recurrence,
    )
