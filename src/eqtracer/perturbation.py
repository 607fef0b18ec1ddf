"""Market perturbations and their worst-case potential jumps.

Events mutate supplies (additively), budgets (additively) or utility
coefficients (multiplicatively).  For each (potential, channel) pair there is
a closed-form cap on how much the event can raise the potential at fixed
prices; trace runners accumulate these caps into cumulative tracking bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .market import CesMarket, unit_cost

SUPPLY = "supply-additive"
BUDGET = "budget-additive"
UTILITY = "utility-multiplicative"
CHANNELS = (SUPPLY, BUDGET, UTILITY)


@dataclass(frozen=True)
class PerturbationEvent:
    """One scheduled change: additive vector or multiplicative factor matrix."""

    round: int
    channel: str
    payload: np.ndarray

    def __post_init__(self):
        if self.round < 1:
            raise ValueError("event rounds are 1-based")
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}; expected one of {CHANNELS}")
        payload = np.array(self.payload, dtype=float)
        if not np.all(np.isfinite(payload)):
            raise ValueError("event payload must be finite")
        expected_ndim = 2 if self.channel == UTILITY else 1
        if payload.ndim != expected_ndim:
            raise ValueError(
                f"{self.channel} payload must be {expected_ndim}-d, got shape {payload.shape}"
            )
        if self.channel == UTILITY and not np.all(payload > 0):
            raise ValueError("utility factors must be strictly positive")
        payload.setflags(write=False)
        object.__setattr__(self, "payload", payload)


def apply_event(market: CesMarket, event: PerturbationEvent) -> CesMarket:
    """Return the perturbed market; the original is untouched."""
    if event.channel == SUPPLY:
        if event.payload.shape != (market.num_goods,):
            raise ValueError("supply payload length must equal the number of goods")
        new = market.supplies + event.payload
        if np.any(new <= 0):
            raise ValueError("supply event would drive a supply non-positive")
        return market.replace(supplies=new)
    if event.channel == BUDGET:
        if event.payload.shape != (market.num_buyers,):
            raise ValueError("budget payload length must equal the number of buyers")
        new = market.budgets + event.payload
        if np.any(new <= 0):
            raise ValueError("budget event would drive a budget non-positive")
        return market.replace(budgets=new)
    if event.payload.shape != market.coefficients.shape:
        raise ValueError("utility payload must match the coefficient matrix shape")
    return market.replace(coefficients=market.coefficients * event.payload)


@dataclass(frozen=True)
class ScheduleSpec:
    """Generator recipe for randomized schedules (reproducible via seed).

    magnitude caps the L1 norm of additive payloads and the absolute log of
    multiplicative factors.  Additive walks reflect at [0.5x, 2x] of the
    initial values so generated schedules keep the market valid.
    """

    channel: str
    magnitude: float
    seed: int
    distribution: str = "uniform"
    start_round: int = 1
    every: int = 1

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        if self.magnitude < 0:
            raise ValueError("magnitude must be non-negative")
        if self.distribution not in ("uniform", "gaussian"):
            raise ValueError("distribution must be 'uniform' or 'gaussian'")
        if self.start_round < 1 or self.every < 1:
            raise ValueError("start_round and every must be at least 1")


@dataclass(frozen=True)
class PerturbationSchedule:
    """Ordered event list; at most one event per (round, channel)."""

    events: tuple = ()

    def __post_init__(self):
        events = tuple(sorted(self.events, key=lambda e: (e.round, e.channel)))
        by_round: dict = {}
        seen = set()
        for e in events:
            key = (e.round, e.channel)
            if key in seen:
                raise ValueError(f"duplicate event for round {e.round}, channel {e.channel}")
            seen.add(key)
            by_round.setdefault(e.round, []).append(e)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "_by_round", by_round)

    @property
    def max_round(self) -> int:
        return max((e.round for e in self.events), default=0)

    def events_at(self, round_: int) -> list:
        return self._by_round.get(round_, [])

    def channels(self) -> set:
        return {e.channel for e in self.events}


def generate_schedule(
    spec: ScheduleSpec, market: CesMarket, horizon: int
) -> PerturbationSchedule:
    """Build a schedule from a generator spec, bit-reproducible per seed.

    Additive payload components are drawn with per-component scale
    magnitude / size so the event's L1 norm stays at or below magnitude;
    sign flips keep supplies and budgets inside [0.5, 2] x initial value.
    """
    rng = np.random.default_rng(spec.seed)
    events = []
    if spec.channel == SUPPLY:
        size, low, high = market.num_goods, 0.5 * market.supplies, 2.0 * market.supplies
        level = market.supplies.copy()
    elif spec.channel == BUDGET:
        size, low, high = market.num_buyers, 0.5 * market.budgets, 2.0 * market.budgets
        level = market.budgets.copy()
    else:
        size = market.coefficients.shape

    for t in range(spec.start_round, horizon + 1, spec.every):
        if spec.channel == UTILITY:
            logs = _draw(rng, spec, size)
            events.append(PerturbationEvent(t, UTILITY, np.exp(logs)))
            continue
        step = _draw(rng, spec, size) / size
        # Reflect any component that would leave the validity band.
        outside = (level + step < low) | (level + step > high)
        step = np.where(outside, -step, step)
        level = level + step
        events.append(PerturbationEvent(t, spec.channel, step))
    return PerturbationSchedule(events=tuple(events))


def _draw(rng: np.random.Generator, spec: ScheduleSpec, size) -> np.ndarray:
    if spec.distribution == "uniform":
        return rng.uniform(-spec.magnitude, spec.magnitude, size=size)
    draws = rng.normal(0.0, spec.magnitude / 2.0, size=size)
    return np.clip(draws, -spec.magnitude, spec.magnitude)


# ---------------------------------------------------------------------------
# Worst-case potential jumps at fixed prices, per (potential, channel) pair.
# ---------------------------------------------------------------------------


def _require(event: PerturbationEvent, channel: str):
    if event.channel != channel:
        raise ValueError(f"expected a {channel} event, got {event.channel}")


def delta_ms_supply(event: PerturbationEvent, price_cap: float) -> float:
    """Misspending jump cap under a supply change: price_cap * l1(payload)."""
    _require(event, SUPPLY)
    if price_cap <= 0:
        raise ValueError("price_cap must be positive")
    return float(price_cap * np.sum(np.abs(event.payload)))


def delta_ms_budget(event: PerturbationEvent) -> float:
    """Misspending jump cap under a budget change: l1(payload)."""
    _require(event, BUDGET)
    return float(np.sum(np.abs(event.payload)))


def _worst_factor(event: PerturbationEvent, exponents: np.ndarray) -> float:
    """max over entries of factor^(+/- exponent_i), always at least 1."""
    logs = np.abs(np.log(event.payload)) * exponents[:, None]
    return float(np.exp(logs.max()))


def delta_ms_utility(event: PerturbationEvent, market: CesMarket) -> float:
    """Misspending jump cap under coefficient rescaling.

    The worst single-buyer spending reshuffle from factors within
    [1/g, g] (g measured with the per-buyer exponent 1/(1-rho_i)) moves at
    most a 2(g-1)/(g+1) fraction of the total budget.
    """
    _require(event, UTILITY)
    if np.any(market.rho >= 1):
        raise ValueError("utility jump caps need rho < 1 for every buyer")
    gamma = _worst_factor(event, 1.0 / (1.0 - market.rho))
    return float(market.total_budget * 2.0 * (gamma - 1.0) / (gamma + 1.0))


def delta_cpf_supply(event: PerturbationEvent, price_cap: float, market: CesMarket) -> float:
    """Convex-potential jump cap under a supply change: (P + B) * l1(payload).

    The extra B term covers the shift of the potential's minimum value.
    """
    _require(event, SUPPLY)
    if price_cap <= 0:
        raise ValueError("price_cap must be positive")
    return float((price_cap + market.total_budget) * np.sum(np.abs(event.payload)))


def delta_cpf_budget(event: PerturbationEvent, c_prime: float) -> float:
    """Convex-potential jump cap under a budget change: C' * l1(payload).

    C' bounds |ln(Q_i at equilibrium / Q_i at current prices)| over the run;
    it is a configuration input or comes from calibrate_c_prime.
    """
    _require(event, BUDGET)
    if c_prime <= 0:
        raise ValueError("c_prime must be positive")
    return float(c_prime * np.sum(np.abs(event.payload)))


def delta_cpf_utility(event: PerturbationEvent, market: CesMarket) -> float:
    """Convex-potential jump cap under coefficient rescaling: 2B ln(chi).

    chi is the worst unit-cost ratio, measured with the per-buyer exponent
    1/|rho_i|.
    """
    _require(event, UTILITY)
    chi = _worst_factor(event, 1.0 / np.abs(market.rho))
    return float(2.0 * market.total_budget * np.log(chi))


def calibrate_c_prime(
    market: CesMarket,
    equilibrium_prices: Sequence[np.ndarray],
    probe_prices: Sequence[np.ndarray],
) -> float:
    """Empirical C': max over buyers of |ln Q_i(p*) - ln Q_i(p)|.

    `equilibrium_prices` should hold the clearing prices of every market the
    budget events produce; `probe_prices` the price vectors the potential is
    evaluated at.  Unit costs do not depend on budgets, so one market's
    coefficient matrix serves for all probes.
    """
    if not equilibrium_prices or not probe_prices:
        raise ValueError("need at least one equilibrium and one probe price vector")
    log_star = np.array([np.log(unit_cost(market, p)) for p in equilibrium_prices])
    log_probe = np.array([np.log(unit_cost(market, p)) for p in probe_prices])
    diffs = np.abs(log_star[:, None, :] - log_probe[None, :, :])
    return float(diffs.max())


def delta_prd_utility(market_history: Sequence[CesMarket], epsilon: float) -> float:
    """Bid-potential jump cap when coefficients drift within exp(+/- epsilon).

    Evaluates, per buyer, kappa_i = 2 eps (1 - c_i (3 - 2 min_k c_k)) with
    c_i = rho_i/(rho_i - 1), the spending-floor constant
    Pi_i = (min over rounds and goods of a_ij / sum_k a_ik)^(1/(1-rho_i))
    restricted to goods the buyer values, and C_i = (B/b_i)^(rho_i/(1-rho_i)),
    and returns
        sum_i b_i (e^kappa_i - 1) |ln C_i - ln Pi_i| + 2 b_i eps / rho_i.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    markets = list(market_history)
    if not markets:
        raise ValueError("market history must be non-empty")
    base = markets[0]
    if np.any((base.rho <= 0) | (base.rho >= 1)):
        raise ValueError("the bid-potential cap needs rho in (0, 1) for every buyer")
    min_share = _min_coefficient_share(markets)
    return _prd_delta_from_parts(base.budgets, base.rho, min_share, epsilon)


def _min_coefficient_share(markets: Sequence[CesMarket]) -> np.ndarray:
    """Per-buyer minimum of a_ij / sum_k a_ik over rounds and valued goods."""
    mins = np.full(markets[0].num_buyers, np.inf)
    for mkt in markets:
        a = mkt.coefficients
        shares = a / a.sum(axis=1, keepdims=True)
        masked = np.where(a > 0, shares, np.inf)
        mins = np.minimum(mins, masked.min(axis=1))
    return mins


def _prd_delta_from_parts(
    budgets: np.ndarray, rho: np.ndarray, min_share: np.ndarray, epsilon: float
) -> float:
    if epsilon == 0.0:
        return 0.0
    c = rho / (rho - 1.0)
    kappa = 2.0 * epsilon * (1.0 - c * (3.0 - 2.0 * c.min()))
    total = float(np.sum(budgets))
    log_c = (rho / (1.0 - rho)) * np.log(total / budgets)
    log_pi = np.log(min_share) / (1.0 - rho)
    first = budgets * np.expm1(kappa) * np.abs(log_c - log_pi)
    second = 2.0 * budgets * epsilon / rho
    return float(np.sum(first + second))


# ---------------------------------------------------------------------------
# Extremal spending-share vector (worst coefficient reshuffle for one buyer).
# ---------------------------------------------------------------------------


def share_deviation(alpha: np.ndarray, beta: np.ndarray) -> float:
    """sum_j |alpha_j beta_j / sum_k alpha_k beta_k - alpha_j|."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    scaled = alpha * beta
    return float(np.sum(np.abs(scaled / scaled.sum() - alpha)))


def _pattern_mass_score(mass: float, mu: float) -> float:
    """Share deviation of a two-valued vector as a function of its mu-mass.

    Strictly concave in the mass, peaking at 1/(mu+1) with value
    2(mu-1)/(mu+1).
    """
    denom = mu * mass + (1.0 - mass) / mu
    return mass * (mu / denom - 1.0) + (1.0 - mass) * (1.0 - 1.0 / (mu * denom))


def _half_sums(values: np.ndarray):
    """All subset sums of `values` with their index masks, sorted by sum."""
    sums = np.zeros(1)
    masks = np.zeros(1, dtype=np.int64)
    for idx, v in enumerate(values):
        sums = np.concatenate([sums, sums + v])
        masks = np.concatenate([masks, masks | (1 << idx)])
    order = np.argsort(sums, kind="stable")
    return sums[order], masks[order]


def extremize_shares(alpha, beta, mu: float):
    """Worst consistent two-valued rescaling of spending shares.

    Returns (beta_prime, value): beta_prime has entries in {mu, 1/mu}, every
    good is consistent (entries at mu have share at least alpha_j, entries at
    1/mu below), and value = share_deviation(alpha, beta_prime) dominates the
    deviation of any admissible beta, in particular the input's.

    The deviation of a two-valued vector depends only on the total alpha mass
    placed at mu and is strictly concave in it, so the maximiser is the
    achievable mass closest to the peak from either side; a meet-in-the-middle
    subset-sum search finds both candidates exactly.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.ndim != 1 or beta.shape != alpha.shape:
        raise ValueError("alpha and beta must be 1-d arrays of equal length")
    if abs(alpha.sum() - 1.0) > 1e-9:
        raise ValueError("alpha must sum to one")
    if np.any(alpha < 0):
        raise ValueError("alpha entries must be non-negative")
    if mu < 1:
        raise ValueError("mu must be at least 1")
    if np.any(beta > mu * (1 + 1e-12)) or np.any(beta < (1.0 / mu) * (1 - 1e-12)):
        raise ValueError("beta entries must lie within [1/mu, mu]")

    n = alpha.size
    if mu == 1.0:
        out = np.ones(n)
        return out, 0.0

    peak = 1.0 / (mu + 1.0)
    half = n // 2
    sums_lo, masks_lo = _half_sums(alpha[:half])
    sums_hi, masks_hi = _half_sums(alpha[half:])

    best_below = (-np.inf, 0)  # (mass, combined mask)
    best_above = (np.inf, 0)
    for s, m in zip(sums_lo, masks_lo):
        rest = peak - s
        pos = np.searchsorted(sums_hi, rest, side="right")
        if pos > 0:
            mass = s + sums_hi[pos - 1]
            if mass > best_below[0]:
                best_below = (mass, int(m) | (int(masks_hi[pos - 1]) << half))
        if pos < sums_hi.size:
            mass = s + sums_hi[pos]
            if mass < best_above[0]:
                best_above = (mass, int(m) | (int(masks_hi[pos]) << half))

    candidates = []
    for mass, mask in (best_below, best_above):
        if np.isfinite(mass) and mass > 0.0:
            candidates.append((_pattern_mass_score(mass, mu), mask))
    if not candidates:
        mask = (1 << n) - 1  # degenerate: everything at mu, zero deviation
        candidates.append((0.0, mask))

    _, mask = max(candidates, key=lambda c: c[0])
    members = np.array([(mask >> j) & 1 for j in range(n)], dtype=bool)
    # Zero-mass goods keep shares equal to alpha_j = 0, which counts as "not
    # below", so consistency pins them at mu.  Their placement is value-free.
    members |= alpha == 0.0
    beta_prime = np.where(members, mu, 1.0 / mu)
    return beta_prime, share_deviation(alpha, beta_prime)
