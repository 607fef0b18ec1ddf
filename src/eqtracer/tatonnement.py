"""Discrete-time multiplicative price adjustment and dynamic trace runners.

Two update rules, both raising prices of over-demanded goods and cutting
prices of under-demanded ones:

* misspending variant: relative excess demand, capped at one;
* convex-potential variant: absolute excess demand, capped at one.

Each variant's update and its potential (misspending, or the convex price
potential less its minimum) are read off one `DemandProfile`, so a round's
single `demand` both measures the potential and drives the next update.
The trace runner interleaves price updates with scheduled market
perturbations and returns a `Trace`: per round, the measured potential,
the perturbation's worst-case jump, and the running geometric tracking bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .equilibrium import solve_equilibrium
from .lyapunov import running_bound
from .market import CesMarket, demand
from .perturbation import (
    BUDGET,
    SUPPLY,
    PerturbationSchedule,
    apply_row,
    delta_cpf_budget,
    delta_cpf_supply,
    delta_cpf_utility,
    delta_ms_budget,
    delta_ms_supply,
    delta_ms_utility,
)
from .trace import Trace

MISSPENDING = "misspending"
CPF = "cpf"

# The cpf rule's default step size, below its 1/6 ceiling.
CPF_STEP_SIZE = 0.05


@dataclass(frozen=True)
class TatonnementConfig:
    """Step size, update variant, price cap and cpf budget constant.

    c_prime: unit-cost log-ratio bound, required only when a cpf trace has
    budget events.  The contraction rate is not part of the config: callers
    fit it with `fit_contraction` or supply it, and pass it to the runner.
    """

    lam: float
    variant: str = MISSPENDING
    price_cap: float = np.inf
    c_prime: float | None = None

    def __post_init__(self):
        if self.variant not in (MISSPENDING, CPF):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0 < self.lam < 1:
            raise ValueError("step size must lie in (0, 1)")
        if self.variant == CPF and self.lam >= 1.0 / 6.0:
            raise ValueError("the cpf update requires a step size below 1/6")
        if not self.price_cap > 0:
            raise ValueError("price_cap must be positive")


def default_step_size(market: CesMarket) -> float:
    """Conservative step size (1 - max rho) / 10 for substitutes markets."""
    rho_max = float(market.rho.max())
    if rho_max >= 1:
        raise ValueError("default step size needs rho < 1")
    return (1.0 - rho_max) / 10.0


def _update_ms(profile, lam):
    relative = profile.excess / profile.market.supplies
    return profile.prices * (1.0 + lam * np.minimum(relative, 1.0))


def _update_cpf(profile, lam):
    factors = 1.0 + lam * np.minimum(profile.excess, 1.0)
    if (factors <= 0).any():
        raise ValueError(
            "price update would drive a price non-positive; "
            "reduce the step size for this supply scale"
        )
    return profile.prices * factors


def step_ms(prices, market: CesMarket, lam: float) -> np.ndarray:
    """One price update from relative excess demand, capped at one.

    p'_j = p_j * (1 + lam * min((x_j - w_j) / w_j, 1)); the multiplier always
    stays within [1 - lam, 1 + lam] because demand is non-negative.
    """
    if not 0 < lam < 1:
        raise ValueError("step size must lie in (0, 1)")
    return _update_ms(demand(market, prices), lam)


def step_cpf(prices, market: CesMarket, lam: float) -> np.ndarray:
    """One price update from absolute excess demand, capped at one.

    p'_j = p_j * (1 + lam * min(1, z_j)).  Raises if some z_j <= -1/lam would
    drive the price non-positive (the step size is too large for the market's
    supply scale).
    """
    if not 0 < lam < 1.0 / 6.0:
        raise ValueError("step size must lie in (0, 1/6)")
    return _update_cpf(demand(market, prices), lam)


def dynamics(market, config):
    """The variant's (update, potential), both read off one DemandProfile.

    update(profile, lam) returns the next prices and potential(profile) the
    potential at the profile's prices; runners and batteries share the pair.
    The cpf potential subtracts psi_star: first the market's kept cold
    solve, then a re-solve warm-started from the last result (and, in the
    substitutes regime, its kept H^-1) each time the profile's market
    object changes.
    """
    if config.variant == MISSPENDING:
        return _update_ms, attrgetter("misspending")
    solved, eq = market, solve_equilibrium(market)

    def cpf(profile):
        nonlocal solved, eq
        if profile.market is not solved:
            solved = profile.market
            eq = solve_equilibrium(solved, previous=eq)
        return profile.cpf - eq.psi_star

    return _update_cpf, cpf


def jump_cap(column, rho, total_budget, variant, price_cap, c_prime):
    """Closed-form caps on the jump each row of `column` causes.

    `rho` is the market's curvatures and `total_budget` its total budget B,
    one float or one value per row.
    """
    if variant == MISSPENDING:
        if column.channel == SUPPLY:
            return delta_ms_supply(column, price_cap)
        if column.channel == BUDGET:
            return delta_ms_budget(column)
        return delta_ms_utility(column, rho, total_budget)
    if column.channel == SUPPLY:
        return delta_cpf_supply(column, price_cap, total_budget)
    if column.channel == BUDGET:
        if c_prime is None:
            raise ValueError(
                "budget events in a cpf trace need c_prime in the config"
            )
        return delta_cpf_budget(column, c_prime)
    return delta_cpf_utility(column, rho, total_budget)


def fit_contraction(
    market: CesMarket, prices, config: TatonnementConfig, rounds: int
) -> tuple[float, np.ndarray]:
    """Estimate the per-round contraction rate on a static market.

    Runs `rounds` updates, measures 1 - potential ratio per round, and returns
    (smallest observed rate, final prices).  Rounds whose potential sank
    below 1e-12 of the start are ignored as converged noise.
    Each round evaluates demand once, as in `run_tatonnement_trace`.
    """
    if rounds < 1:
        raise ValueError("need at least one warm-up round")
    update, potential = dynamics(market, config)
    profile = demand(market, prices)
    phi = potential(profile)
    floor = max(phi * 1e-12, 1e-300)
    rates = []
    for _ in range(rounds):
        profile = demand(market, update(profile, config.lam))
        phi_next = potential(profile)
        if phi > floor:
            rates.append(1.0 - phi_next / phi)
        phi = phi_next
    if not rates:
        raise ValueError("warm-up started at a converged state; nothing to fit")
    delta_hat = float(min(rates))
    if delta_hat <= 0:
        raise ValueError(
            f"no contraction observed during warm-up (worst rate {delta_hat:.3e}); "
            "the step size is outside the contracting regime"
        )
    return delta_hat, profile.prices


def run_tatonnement_trace(
    market0: CesMarket,
    prices0,
    config: TatonnementConfig,
    schedule: PerturbationSchedule,
    delta: float,
    horizon: int,
) -> Trace:
    """Simulate `horizon` rounds of price adjustment on a drifting market.

    Round t: update prices against the previous round's market, apply the
    round's scheduled events, then measure the potential on the perturbed
    market.  The bound column is the running envelope
    bound_t = (1 - delta) * bound_{t-1} + jump cap_t (`running_bound`),
    anchored at the trace's `initial` potential of (market0, prices0), so
    measured <= bound round by round whenever every static update contracts
    by at least delta.  The trace also carries the price extremes and the
    price-cap flag per round.

    Each round evaluates demand once, through `demand`, which is also the
    round's only price validation: the demand that measures the potential at
    (market_t, p_t) drives the update of round t+1.  Schedule work is done
    once, before round 1: the rows of every round
    (`PerturbationSchedule.by_round`, levels from market0), every round's
    jump cap, each row priced at the total budget in force on its round, and
    the uniform-shrink warning; a round applies its rows (`apply_row`).

    `delta` is supplied or fitted beforehand with `fit_contraction`, whose
    final prices are then the natural `prices0`.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    profile = demand(market0, prices0)
    if float(profile.prices.max()) > config.price_cap:
        raise ValueError("price cap must be at least the largest initial price")
    rows, due = schedule.by_round(market0, horizon)

    # Every round's summed jump caps, one `jump_cap` call per column.  A row
    # on or after the k-th budget round sees the k-th budget level's total.
    jumps = np.zeros(horizon)
    budget_rounds, totals = [], np.array([market0.total_budget])
    if BUDGET in rows:  # channel order puts the budget column first
        budget_rounds = schedule.columns[0].rounds
        totals = np.append(totals, rows[BUDGET].sum(axis=1))
    for column in schedule.columns:
        row_totals = totals[np.searchsorted(budget_rounds, column.rounds, side="right")]
        jumps[column.rounds - 1] += jump_cap(
            column, market0.rho, row_totals, config.variant, config.price_cap, config.c_prime
        )
    if SUPPLY in rows:
        # A uniform multiplicative supply shrink outpaces the capped update unless
        # (1 + lam) * factor > 1.  Uniform: np.allclose(rtol=1e-12, atol=1e-8).
        levels = rows[SUPPLY]
        first = levels[:, 0] / np.append(market0.supplies[0], levels[:-1, 0])
        for k in np.flatnonzero((first < 1.0) & ((1.0 + config.lam) * first <= 1.0)):
            factors = levels[k] / (levels[k - 1] if k else market0.supplies)
            if (np.abs(factors - first[k]) <= 1e-8 + 1e-12 * abs(first[k])).all():
                warnings.warn(
                    "uniform supply shrink outpaces the capped price update; equilibrium "
                    "tracing is implausible at this step size", RuntimeWarning
                )
                break

    market = market0
    update, potential = dynamics(market0, config)
    initial = potential(profile)

    phis, highs, lows = (np.empty(horizon) for _ in range(3))
    for t in range(horizon):
        prices = update(profile, config.lam)
        for channel, row in due[t + 1]:
            market = apply_row(market, channel, row)
        profile = demand(market, prices)
        phis[t] = potential(profile)
        highs[t] = prices.max()
        lows[t] = prices.min()
    return Trace(
        initial=initial,
        potential=phis,
        delta=jumps,
        bound=running_bound(initial, 1.0 - delta, jumps),
        max_price=highs,
        min_price=lows,
        assumption1_ok=highs <= config.price_cap,
    )
