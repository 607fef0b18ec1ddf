"""Discrete-time multiplicative price adjustment and dynamic trace runners.

Two update rules, both raising prices of over-demanded goods and cutting
prices of under-demanded ones:

* misspending variant: relative excess demand, capped at one;
* convex-potential variant: absolute excess demand, capped at one.

The trace runner interleaves price updates with scheduled market
perturbations and records, per round, the measured potential, the
perturbation's worst-case jump, and the running geometric tracking bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .equilibrium import solve_equilibrium
from .market import (
    CesMarket,
    check_prices,
    cpf_potential,
    demand,
    misspending_potential,
)
from .perturbation import (
    BUDGET,
    SUPPLY,
    PerturbationSchedule,
    apply_event,
    delta_cpf_budget,
    delta_cpf_supply,
    delta_cpf_utility,
    delta_ms_budget,
    delta_ms_supply,
    delta_ms_utility,
)
from .trace import TraceRecord

MISSPENDING = "misspending"
CPF = "cpf"


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
        if self.price_cap <= 0:
            raise ValueError("price_cap must be positive")


def default_step_size(market: CesMarket) -> float:
    """Conservative step size (1 - max rho) / 10 for substitutes markets."""
    rho_max = float(market.rho.max())
    if rho_max >= 1:
        raise ValueError("default step size needs rho < 1")
    return (1.0 - rho_max) / 10.0


def step_ms(prices, market: CesMarket, lam: float) -> np.ndarray:
    """One price update from relative excess demand, capped at one.

    p'_j = p_j * (1 + lam * min((x_j - w_j) / w_j, 1)); the multiplier always
    stays within [1 - lam, 1 + lam] because demand is non-negative.
    """
    if not 0 < lam < 1:
        raise ValueError("step size must lie in (0, 1)")
    prices = check_prices(market, prices)
    profile = demand(market, prices)
    relative = profile.excess / market.supplies
    return prices * (1.0 + lam * np.minimum(relative, 1.0))


def step_cpf(prices, market: CesMarket, lam: float) -> np.ndarray:
    """One price update from absolute excess demand, capped at one.

    p'_j = p_j * (1 + lam * min(1, z_j)).  Raises if some z_j <= -1/lam would
    drive the price non-positive (the step size is too large for the market's
    supply scale).
    """
    if not 0 < lam < 1.0 / 6.0:
        raise ValueError("step size must lie in (0, 1/6)")
    prices = check_prices(market, prices)
    profile = demand(market, prices)
    factors = 1.0 + lam * np.minimum(profile.excess, 1.0)
    if np.any(factors <= 0):
        raise ValueError(
            "price update would drive a price non-positive; "
            "reduce the step size for this supply scale"
        )
    return prices * factors


def _step(prices, market, config):
    if config.variant == MISSPENDING:
        return step_ms(prices, market, config.lam)
    return step_cpf(prices, market, config.lam)


class _CpfPotential:
    """Convex potential normalised by a cached, warm-started minimum value.

    `initial_prices` keeps the cold-solved equilibrium prices of the market
    it was built for.
    """

    def __init__(self, market: CesMarket):
        self._solve(market)
        self.initial_prices = self._warm

    def _solve(self, market):
        result = solve_equilibrium(
            market, initial_prices=getattr(self, "_warm", None)
        )
        self._warm = result.prices
        self._psi_star = result.psi_star
        self._market = market

    def __call__(self, market: CesMarket, prices) -> float:
        if market is not self._market:
            self._solve(market)
        return cpf_potential(market, prices) - self._psi_star


def jump_cap(event, market, variant, price_cap, c_prime) -> float:
    """Closed-form cap on the potential jump `event` causes on `market`."""
    if variant == MISSPENDING:
        if event.channel == SUPPLY:
            return delta_ms_supply(event, price_cap)
        if event.channel == BUDGET:
            return delta_ms_budget(event)
        return delta_ms_utility(event, market)
    if event.channel == SUPPLY:
        return delta_cpf_supply(event, price_cap, market)
    if event.channel == BUDGET:
        if c_prime is None:
            raise ValueError(
                "budget events in a cpf trace need c_prime in the config"
            )
        return delta_cpf_budget(event, c_prime)
    return delta_cpf_utility(event, market)


def apply_round_events(
    market: CesMarket, events, config: TatonnementConfig
) -> tuple[CesMarket, float]:
    """Apply one round's events in order and total their jump caps."""
    total = 0.0
    for event in events:
        total += jump_cap(
            event, market, config.variant, config.price_cap, config.c_prime
        )
        _warn_if_untraceable(market, event, config.lam)
        market = apply_event(market, event)
    return market, total


def _warn_if_untraceable(market, event, lam):
    # A uniform multiplicative supply shrink moves clearing prices up faster
    # than the capped update can follow unless (1 + lam) * factor > 1.
    if event.channel != SUPPLY:
        return
    factors = (market.supplies + event.payload) / market.supplies
    first = factors[0]
    if first < 1.0 and np.allclose(factors, first, rtol=1e-12) and (1.0 + lam) * first <= 1.0:
        warnings.warn(
            "uniform supply shrink outpaces the capped price update; "
            "equilibrium tracing is implausible at this step size",
            RuntimeWarning,
            stacklevel=3,
        )


def fit_contraction(
    market: CesMarket, prices, config: TatonnementConfig, rounds: int, _potential=None
) -> tuple[float, np.ndarray, float]:
    """Estimate the per-round contraction rate on a static market.

    Runs `rounds` updates, measures 1 - potential ratio per round, and returns
    (smallest observed rate, final prices, final potential).  Rounds whose
    potential sank below 1e-12 of the start are ignored as converged noise.
    """
    if rounds < 1:
        raise ValueError("need at least one warm-up round")
    potential = _potential or (
        misspending_potential
        if config.variant == MISSPENDING
        else _CpfPotential(market)
    )
    p = check_prices(market, prices)
    phi = potential(market, p)
    floor = max(phi * 1e-12, 1e-300)
    rates = []
    for _ in range(rounds):
        p = _step(p, market, config)
        phi_next = potential(market, p)
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
    return delta_hat, p, phi


def run_tatonnement_trace(
    market0: CesMarket,
    prices0,
    config: TatonnementConfig,
    schedule: PerturbationSchedule,
    delta: float,
    horizon: int,
    _potential=None,
) -> list[TraceRecord]:
    """Simulate `horizon` rounds of price adjustment on a drifting market.

    Round t: update prices against the previous round's market, apply the
    round's scheduled events, then measure the potential on the perturbed
    market.  The recorded bound is the running envelope
    bound_t = (1 - delta) * bound_{t-1} + jump cap_t, anchored at the
    potential of (market0, prices0), so measured <= bound round by round
    whenever every static update contracts by at least delta.

    `delta` is supplied or fitted beforehand with `fit_contraction`, whose
    final prices are then the natural `prices0`.  `_potential` lets a caller
    that already built the potential for market0 (e.g. for its own fit)
    share it, so the cpf minimum is not solved again.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    if schedule.max_round > horizon:
        raise ValueError("schedule contains events beyond the horizon")
    prices = check_prices(market0, prices0)
    if float(prices.max()) > config.price_cap:
        raise ValueError("price cap must be at least the largest initial price")

    market = market0
    potential = _potential or (
        misspending_potential
        if config.variant == MISSPENDING
        else _CpfPotential(market0)
    )
    phi0 = potential(market0, prices)

    records: list[TraceRecord] = []
    bound = phi0
    for t in range(1, horizon + 1):
        prices = _step(prices, market, config)
        market, jump = apply_round_events(market, schedule.events_at(t), config)
        phi = potential(market, prices)
        bound = (1.0 - delta) * bound + jump
        records.append(
            TraceRecord(
                round=t,
                potential=phi,
                delta=jump,
                bound=bound,
                max_price=float(prices.max()),
                min_price=float(prices.min()),
                assumption1_ok=bool(prices.max() <= config.price_cap),
            )
        )
    return records
