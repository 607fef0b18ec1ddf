"""Proportional bid dynamics in the substitutes regime.

Buyers split budgets across goods, each good is allocated in proportion to
the bids on it, and next round's bids are proportional to the utility each
good contributed.  The dynamics minimise a convex bid-space potential whose
progress per round is measured by KL divergence to the equilibrium spending
matrix; the trace runner unrolls the per-round recurrence on the gap and KL
into the running tracking envelope under drifting utility coefficients and
supplies.  A round is a multiplicative-weights (mirror-descent) step on the
bids (Birnbaum, Devanur & Xiao, EC 2011), so the rounds carry the shifted
log-weights u = ln b - beta, beta_i = ln(B_i / S_i), with bids exp(u) B / S
by rows and S the row sums of exp(u).  A round (`_round`) reads prices as one
matrix-vector product, (B / S) @ exp(u), forms v = ln a + rho (u + ln w -
ln p), and keeps v minus its row maximum, which absorbs rho_i beta_i, as the
next state: one exp, and no log of the bids, no bids matrix, no row pinning.
The runner reads the potential from v, u and beta (`_g`) and the KL distance
from ln b = u + beta; `prd_step` builds and pins the bids once, after its
last round.  Both keep their (m, n) work arrays for the whole run, so a
round allocates no matrix.
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
    UTILITY,
    PerturbationSchedule,
    apply_row,
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


def _logits(market: CesMarket, log_b: np.ndarray, prices: np.ndarray, out=None) -> np.ndarray:
    """v = ln a + rho (ln b + ln w - ln p) = ln(a q^rho), q = w b / p, into `out`.

    Unchecked: bids >= 0, with the market's cached ln a.  Any row shift of
    ln b may be passed; v then moves by rho_i times it.  Rejects a good with
    zero total bids that still carries a positive coefficient.
    """
    dead = prices == 0
    if dead.any() and (market.coefficients[:, dead] > 0).any():
        raise ValueError("a good with zero total bids still carries positive coefficients")
    log_w = np.log(market.supplies)
    with np.errstate(invalid="ignore"):
        logits = np.subtract(log_b, np.log(np.where(dead, 1.0, prices)), out=out)
        if log_w.any():
            logits += log_w
        logits *= market.rho[:, None]
        logits += market.log_coefficients
    return logits


def _g(market: CesMarket, weights, scale, logits, shifted, prices, terms=None) -> float:
    """g(market, bids) from the log-weight state of bids = weights * scale by rows.

    `shifted` is u = ln b - beta, beta = ln scale, so weights = exp(u), and
    `logits` is v = `_logits(market, u, prices)`.  The logs of ln b are
    l = v + rho beta, so l - ln b = v - u + (rho - 1) beta and, each row of
    bids summing to its budget B,
    g = p.ln w - sum_i (scale_i sum_j e_ij (v_ij - u_ij) + (rho_i - 1) beta_i B_i) / rho_i.
    Plain bids are weights at unit scale (beta = 0), for which this is
    p.ln w - sum_{b>0} (b/rho)(l - ln b).  Zero weights add nothing (x ln x
    limit).  `terms`, an (m, n) array for e (v - u), may be None.
    """
    with np.errstate(invalid="ignore"):
        terms = np.subtract(logits, shifted, out=terms)
        np.multiply(weights, terms, out=terms)
        if not weights.all():
            np.copyto(terms, 0.0, where=weights == 0)
        rho = market.rho
        rows = terms.sum(axis=1) * scale + (rho - 1) * np.log(scale) * market.budgets
        return float(prices @ np.log(market.supplies) - (rows / rho).sum())


def _round(market: CesMarket, shifted, weights, scale, out, terms=None):
    """One bid update on the log-weight state: g, prices and the next scale.

    The bids are weights * scale by rows, weights = exp(shifted).  Next bids
    are proportional to exp(v) by rows, and the row maximum of v absorbs
    rho_i ln scale_i, so v minus it is the next state: it goes into `out`,
    its exp into `weights`, and B / (row sums) is the next scale.  No log
    of the bids is taken and no bids matrix is built.  g (`_g`) is
    evaluated only when `terms` is given; otherwise `out` may be `shifted`.
    """
    prices = scale @ weights
    logits = _logits(market, shifted, prices, out)
    g = None if terms is None else _g(market, weights, scale, logits, shifted, prices, terms)
    with np.errstate(invalid="ignore"):
        logits -= logits.max(axis=1, keepdims=True)
        sums = np.exp(logits, out=weights).sum(axis=1)
    if not np.isfinite(sums).all():
        raise ValueError("a buyer's bid normaliser is zero or non-finite")
    return g, prices, market.budgets / sums


def prd_step(bids, market: CesMarket, rounds: int = 1) -> np.ndarray:
    """`rounds` bid updates: allocate goods pro rata, re-split budgets by utility.

    Buyer i receives supplies_j * b_ij / p_j of good j, p_j the money on it;
    new bids are proportional to a_ij * quantity^rho_i.  The rounds carry
    the shifted log-weights of `_round` in two (m, n) arrays; the bids are
    built once, at the end, and each row is pinned to the buyer's budget at
    its largest entry (no drift, zeros stay).  The caller's `bids` are never
    written.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    bids = _checked_inputs(market, bids)
    with np.errstate(divide="ignore"):
        shifted = np.log(bids)  # plain bids are weights at unit scale
    weights, scale = bids.copy(), np.ones(len(bids))
    for _ in range(rounds):
        scale = _round(market, shifted, weights, scale, shifted)[2]
    new = weights
    new *= scale[:, None]
    rows, top = np.arange(len(new)), new.argmax(axis=1)
    for _ in range(4):
        residue = market.budgets - new.sum(axis=1)
        if not residue.any():
            break
        new[rows, top] += residue
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
    / p_j^rho_i); zero bids contribute nothing (x ln x limit).  Like
    `prd_step`, it rejects bids that leave a valued good without bids.
    """
    g = _plain_g(market, _checked_inputs(market, bids))[0]
    if not np.isfinite(g):
        raise ValueError("positive bid on a zero coefficient makes g non-finite")
    return g


def _plain_g(market: CesMarket, bids: np.ndarray, out=None, terms=None):
    """g of plain bids (weights at unit scale) and their ln b; `out` takes the logits."""
    with np.errstate(divide="ignore"):
        log_b = np.log(bids)
    unit = np.ones(len(bids))
    prices = unit @ bids
    return _g(market, bids, unit, _logits(market, log_b, prices, out), log_b, prices, terms), log_b


def _anchor(market: CesMarket, eq: EquilibriumResult, work=(None, None)):
    """g* and `kl_divergence(eq.bids, b)` as a function of the state, for every solve.

    The KL reads ln b = u + beta element by element from the shifted
    log-weights u and beta = ln scale.  Its mass and sign checks hold by
    construction: bids are checked on entry, and a round keeps them
    non-negative with rows at the budgets.  `work` is the runner's free
    logits array, for g*'s logits, and its terms array, for g*'s terms and
    then for each KL's ln b and x (ln x - ln b): both are free again once a
    round has summed its g.  ln x is kept with the KL, so it is always
    allocated.
    """
    out_logits, out_terms = work
    g_star, log_x = _plain_g(market, eq.bids, out_logits, out_terms)
    x = eq.bids.ravel()
    support = slice(None) if x.all() else np.flatnonzero(x)
    x, log_x = x[support], log_x.ravel()[support]
    scratch = None if out_terms is None else out_terms.ravel()[: x.size]

    def kl(shifted: np.ndarray, beta: np.ndarray) -> float:
        log_b = np.add(shifted, beta[:, None], out=out_terms)
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
    markets coincide entrywise.  A unit-supply market is returned as it is;
    any other market keeps its reduction in its __dict__, next to its cold
    solves, so later calls return that same object.
    """
    if (market.supplies == 1.0).all():
        return market
    kept = market.__dict__
    if "_unit_supply" not in kept:
        factors = np.exp(market.rho[:, None] * np.log(market.supplies)[None, :])
        kept["_unit_supply"] = market.replace(
            coefficients=market.coefficients * factors,
            supplies=np.ones(market.num_goods),
        )
    return kept["_unit_supply"]


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

    A supply event means what it means in every kind: a level on market0's
    own supplies (`PerturbationSchedule.by_round`, read once, before round
    1), folded into market0's unit-supply reduction as (w_k / w_{k-1})^rho.
    Budget events are rejected.  Round t:
    update bids against the previous market, apply the round's rows,
    re-solve the per-round equilibrium
    (warm-started; cached on static rounds), then record the potential gap,
    the KL distance to equilibrium, the round's drift and its
    `coefficient_share_floor` taken over rounds seen so far.  After the loop
    one `delta_prd_utility` call prices every round's drift, and the jumps
    give the cumulative bound and, against the KL column, whether each
    one-round recurrence held.  The trace's `initial` is the gap of bids0.

    The bound unrolls the one-round recurrence
    gap_t <= q1 KL_{t-1} - q2 KL_t + jump_t, which `recurrence_ok` checks:
      gap_t >= 0 gives KL_t <= (q1/q2) KL_{t-1} + jump_t / q2;
      then gap_T <= q1 KL_{T-1} + jump_T;
      together gap_T <= running_bound(q2 KL_0, q1/q2, jumps)_T.

    `bound` is supplied or `PrdBoundConfig.closed_form(market0)`, with the
    argument for its constants; `bids0` is typically warmed up by `prd_step`.
    """
    if BUDGET in schedule.channels():
        raise ValueError("budget events are unsupported: the bid domain itself would move")
    _, due = schedule.by_round(market0, horizon)
    # Checked once: events keep rho; a round keeps bids on the support, rows at the budgets.
    market, supplies = reduce_supply_to_utility(market0), market0.supplies
    bids = check_bids(market, bids0)
    eq = solve_equilibrium(market, tolerance=SOLVER_TOLERANCE)
    # The state (`_round`) and kept work arrays; bids0 is never one.
    shifted, logits, weights, terms = (np.empty(bids.shape) for _ in range(4))
    g_star, kl_to = _anchor(market, eq, (logits, terms))
    min_share = coefficient_share_floor(market)
    recurrence_slack = 1e-12 * max(market.total_budget, 1.0)
    with np.errstate(divide="ignore"):
        np.log(bids, out=shifted)  # plain bids are weights at unit scale
    np.copyto(weights, bids)
    scale = np.ones(len(bids))
    g, _, next_scale = _round(market, shifted, weights, scale, logits, terms)
    initial = g - g_star
    kls = np.empty(horizon + 1)  # KL_0..KL_T
    kls[0] = kl_to(shifted, np.log(scale))
    gaps, highs, lows = (np.empty(horizon) for _ in range(3))
    drifts = np.zeros(horizon)
    floors = np.empty((horizon, len(min_share)))
    for t in range(horizon):
        shifted, logits, scale = logits, shifted, next_scale
        logs = None  # ln of the round's coefficient factors, summed over its columns
        for channel, row in due[t + 1]:
            factor_logs = np.log(row / supplies if channel == SUPPLY else row)
            if channel == SUPPLY:  # level w_k folds in as (w_k / w_{k-1})^rho
                factor_logs = market.rho[:, None] * factor_logs
                supplies, row = row, np.exp(factor_logs)
            market = apply_row(market, UTILITY, row)
            logs = factor_logs if logs is None else logs + factor_logs
        if logs is not None:
            drifts[t] = max(float(logs.max()), float(-logs.min()))
            min_share = np.minimum(min_share, coefficient_share_floor(market))
            eq = solve_equilibrium(market, tolerance=SOLVER_TOLERANCE, previous=eq)
            g_star, kl_to = _anchor(market, eq, (logits, terms))
        floors[t] = min_share
        # One round gives this round's gap and prices and next round's state.
        g, prices, next_scale = _round(market, shifted, weights, scale, logits, terms)
        gaps[t] = g - g_star
        kls[t + 1] = kl_to(shifted, np.log(scale))
        highs[t], lows[t] = prices.max(), prices.min()
    deltas = delta_prd_utility(market.budgets, market.rho, floors, drifts)
    recurrence = gaps <= bound.q1 * kls[:-1] - bound.q2 * kls[1:] + deltas + recurrence_slack
    return Trace(
        initial=initial,
        potential=gaps,
        delta=deltas,
        bound=running_bound(bound.q2 * kls[0], bound.q1 / bound.q2, deltas),
        max_price=highs,
        min_price=lows,
        kl_to_equilibrium=kls[1:],
        recurrence_ok=recurrence,
    )
