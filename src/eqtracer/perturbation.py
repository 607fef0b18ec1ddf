"""Market perturbations and their worst-case potential jumps.

A perturbation is a row of a `ScheduleColumn`: one channel's checked,
read-only payload array, whose rows move supplies (additively), budgets
(additively) or utility coefficients (multiplicatively).  A schedule holds
at most one column per channel, and `apply_row` applies one row.  For each
(potential, channel) pair there is a closed-form cap, per payload row, on
how much a row can raise the potential at fixed prices; trace runners
accumulate these caps into cumulative tracking bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import Sequence

import numpy as np

from .market import CesMarket, demand

SUPPLY = "supply-additive"
BUDGET = "budget-additive"
UTILITY = "utility-multiplicative"
CHANNELS = (SUPPLY, BUDGET, UTILITY)
# The market field, its singular noun and its count noun, per additive channel.
_ADDITIVE = {SUPPLY: ("supplies", "supply", "goods"), BUDGET: ("budgets", "budget", "buyers")}


@dataclass(frozen=True)
class ScheduleColumn:
    """One channel's events: increasing 1-based rounds and one payload row each.

    `payload` stacks (T, n) supply steps, (T, m) budget steps or (T, m, n)
    utility factors; it is checked once and frozen in place, not copied.
    """

    channel: str
    rounds: np.ndarray
    payload: np.ndarray

    def __post_init__(self):
        given = np.asarray(self.rounds, dtype=float)
        with np.errstate(invalid="ignore"):  # NaN, infinite or beyond int64: cast to junk
            rounds = given.astype(np.int64)
        payload = np.asarray(self.payload, dtype=float)
        if (rounds != given).any():
            raise ValueError("event rounds must be whole numbers")
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}; expected one of {CHANNELS}")
        if not np.isfinite(payload).all():
            raise ValueError("event payload must be finite")
        row_ndim = 2 if self.channel == UTILITY else 1
        if payload.ndim != row_ndim + 1 or rounds.shape != payload.shape[:1]:
            raise ValueError(f"{self.channel} payload needs a {row_ndim}-d row per round")
        if self.channel == UTILITY and not (payload > 0).all():
            raise ValueError("utility factors must be strictly positive")
        gaps = np.diff(rounds, prepend=0)
        if (gaps <= 0).any():
            k = int(np.argmax(gaps <= 0))
            raise ValueError(
                f"duplicate event for round {rounds[k]}, channel {self.channel}"
                if k and gaps[k] == 0 else "event rounds are 1-based and increase"
            )
        for name, value in (("rounds", rounds), ("payload", payload)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def rows(self, market: CesMarket) -> np.ndarray:
        """The rows a runner reads on `market`, checked once.

        Utility rows are the factors.  Supply and budget rows are read-only
        levels: row k is the market's field plus steps 0..k added in turn.
        The first row with a level that is not positive and finite raises
        its event's error.
        """
        if self.channel == UTILITY:
            if self.payload.shape[1:] != market.coefficients.shape:
                raise ValueError("utility payload must match the coefficient matrix shape")
            return self.payload
        field, name, noun = _ADDITIVE[self.channel]
        start, steps = getattr(market, field), self.payload
        if steps.shape[1:] != start.shape:
            raise ValueError(f"{name} payload length must equal the number of {noun}")
        with np.errstate(over="ignore", invalid="ignore"):  # in place: the field, then each step
            levels = np.vstack([start, steps])
            levels = np.cumsum(levels, 0, out=levels)[1:]
        bad = np.flatnonzero(~((levels > 0) & (levels < np.inf)).all(axis=1))
        if bad.size:
            kind = "non-positive" if (levels[bad[0]] <= 0).any() else "to infinity"
            raise ValueError(f"{name} event would drive a {name} {kind}")
        levels.setflags(write=False)
        return levels


@dataclass(frozen=True)
class PerturbationSchedule:
    """At most one non-empty `ScheduleColumn` per channel, in channel order."""

    columns: tuple = ()

    def __post_init__(self):
        columns = sorted((c for c in self.columns if c.rounds.size), key=attrgetter("channel"))
        if len({c.channel for c in columns}) < len(columns):
            raise ValueError("a schedule takes one column per channel")
        object.__setattr__(self, "columns", tuple(columns))

    @classmethod
    def from_events(cls, events) -> "PerturbationSchedule":
        """Stack (round, channel, payload) triples into one column per channel.

        A round outside int64 or a payload numpy cannot stack raises an error
        naming the event's channel and round.
        """
        columns = []
        for channel, group in groupby(sorted(events, key=itemgetter(1, 0)), key=itemgetter(1)):
            rounds, _, payloads = zip(*group)
            rows = []
            for t, p in zip(rounds, payloads):
                if not abs(t) < 2**63:
                    raise ValueError(
                        f"{channel} event for round {t}: rounds must be whole numbers below 2**63"
                    )
                try:
                    rows.append(np.asarray(p, dtype=float))
                except ValueError:
                    raise ValueError(
                        f"{channel} event for round {t} has a ragged or non-numeric payload"
                    ) from None
                if rows[-1].shape != rows[0].shape:
                    raise ValueError(
                        f"{channel} event for round {t} has payload shape {rows[-1].shape}; "
                        f"expected {rows[0].shape}, as in round {rounds[0]}"
                    )
            columns.append(ScheduleColumn(channel, rounds, rows))
        return cls(tuple(columns))

    def by_round(self, market: CesMarket, horizon: int) -> tuple[dict, list]:
        """Each column's `rows(market)`, read once, and each round's (channel, row) pairs.

        The rows are keyed by channel; the round lists run 0..horizon, in channel order.
        """
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        if any(c.rounds[-1] > horizon for c in self.columns):
            raise ValueError("schedule contains events beyond the horizon")
        rows = {c.channel: c.rows(market) for c in self.columns}
        due = [[] for _ in range(horizon + 1)]
        for column in self.columns:
            for t, row in zip(column.rounds.tolist(), rows[column.channel]):
                due[t].append((column.channel, row))
        return rows, due

    def channels(self) -> set:
        return {c.channel for c in self.columns}


def apply_row(market: CesMarket, channel: str, row: np.ndarray) -> CesMarket:
    """`market` moved by one row of `ScheduleColumn.rows`, sharing the other fields.

    A level row replaces its field; coefficients times a factor row must stay
    finite, with a positive entry in every row.
    """
    if channel != UTILITY:
        return market._derive(**{_ADDITIVE[channel][0]: row})
    with np.errstate(over="ignore"):
        new = market.coefficients * row
    if not np.isfinite(new).all():
        raise ValueError("utility event would drive a coefficient to infinity")
    if not (new.max(axis=1) > 0).all():
        raise ValueError("utility event would leave a buyer no positive coefficient")
    new.setflags(write=False)
    return market._derive(coefficients=new)


def generate_schedule(
    market: CesMarket,
    horizon: int,
    channel: str,
    magnitude: float,
    seed: int,
    distribution: str = "uniform",
    start_round: int = 1,
    every: int = 1,
) -> PerturbationSchedule:
    """A one-column schedule from one (T, ...) draw, bit-reproducible per seed.

    Events fall on rounds start_round, start_round + every, ... up to
    horizon.  magnitude caps the L1 norm of additive payloads and the
    absolute log of multiplicative factors: a uniform draw on [-magnitude,
    magnitude], or a gaussian one with standard deviation magnitude / 2
    clipped there.  Utility rows are exponentiated in place.  Additive
    components are scaled to magnitude / size, and in-place sign flips keep
    supplies and budgets in [0.5, 2] x initial value, so generated schedules
    keep the market valid.
    """
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    if not magnitude >= 0:
        raise ValueError("magnitude must be non-negative")
    if distribution not in ("uniform", "gaussian"):
        raise ValueError("distribution must be 'uniform' or 'gaussian'")
    if not all(v >= 1 and v % 1 == 0 for v in (start_round, every)):
        raise ValueError("start_round and every must be whole numbers, at least 1")
    rng = np.random.default_rng(seed)
    rounds = np.arange(start_round, horizon + 1, every)
    if channel == UTILITY:
        size = (rounds.size, *market.coefficients.shape)
    else:
        initial = getattr(market, _ADDITIVE[channel][0])
        size = (rounds.size, initial.size)
    if distribution == "uniform":
        payload = rng.uniform(-magnitude, magnitude, size=size)
    else:
        payload = rng.normal(0.0, magnitude / 2.0, size=size)
        np.clip(payload, -magnitude, magnitude, out=payload)
    if channel == UTILITY:
        np.exp(payload, out=payload)
    else:
        payload /= initial.size
        low, high, level = 0.5 * initial, 2.0 * initial, initial.copy()
        for step in payload:
            # Reflect any component that would leave the validity band.
            moved = level + step
            np.negative(step, out=step, where=(moved < low) | (moved > high))
            level += step
    return PerturbationSchedule((ScheduleColumn(channel, rounds, payload),))


# ---------------------------------------------------------------------------
# Worst-case potential jumps at fixed prices, per (potential, channel) pair:
# one cap per row of a `ScheduleColumn`.  A cap that reads the total budget
# takes it as one float or as one value per row.
# ---------------------------------------------------------------------------


def _require(column: ScheduleColumn, channel: str):
    if column.channel != channel:
        raise ValueError(f"expected a {channel} column, got {column.channel}")


def delta_ms_supply(column: ScheduleColumn, price_cap: float):
    """Misspending jump cap under a supply change: price_cap * l1(payload)."""
    _require(column, SUPPLY)
    if not price_cap > 0:
        raise ValueError("price_cap must be positive")
    return price_cap * np.abs(column.payload).sum(axis=-1)


def delta_ms_budget(column: ScheduleColumn):
    """Misspending jump cap under a budget change: l1(payload)."""
    _require(column, BUDGET)
    return np.abs(column.payload).sum(axis=-1)


def _worst_factor(column: ScheduleColumn, exponents: np.ndarray):
    """max over entries of factor^(+/- exponent_i), always at least 1."""
    logs = np.abs(np.log(column.payload))
    logs *= exponents[:, None]
    return np.exp(logs.max(axis=(-2, -1)))


def delta_ms_utility(column: ScheduleColumn, rho: np.ndarray, total_budget):
    """Misspending jump cap under coefficient rescaling.

    The worst single-buyer spending reshuffle from factors within
    [1/g, g] (g measured with the per-buyer exponent 1/(1-rho_i)) moves at
    most a 2(g-1)/(g+1) fraction of the total budget.
    """
    _require(column, UTILITY)
    if (rho >= 1).any():
        raise ValueError("utility jump caps need rho < 1 for every buyer")
    gamma = _worst_factor(column, 1.0 / (1.0 - rho))
    return total_budget * 2.0 * (gamma - 1.0) / (gamma + 1.0)


def delta_cpf_supply(column: ScheduleColumn, price_cap: float, total_budget):
    """Convex-potential jump cap under a supply change: (P + B) * l1(payload).

    The extra B term covers the shift of the potential's minimum value.
    """
    _require(column, SUPPLY)
    if not price_cap > 0:
        raise ValueError("price_cap must be positive")
    return (price_cap + total_budget) * np.abs(column.payload).sum(axis=-1)


def delta_cpf_budget(column: ScheduleColumn, c_prime: float):
    """Convex-potential jump cap under a budget change: C' * l1(payload).

    C' bounds |ln(Q_i at equilibrium / Q_i at current prices)| over the run;
    it is a configuration input or comes from calibrate_c_prime.
    """
    _require(column, BUDGET)
    if not c_prime > 0:
        raise ValueError("c_prime must be positive")
    return c_prime * np.abs(column.payload).sum(axis=-1)


def delta_cpf_utility(column: ScheduleColumn, rho: np.ndarray, total_budget):
    """Convex-potential jump cap under coefficient rescaling: 2B ln(chi).

    chi is the worst unit-cost ratio, measured with the per-buyer exponent
    1/|rho_i|.
    """
    _require(column, UTILITY)
    chi = _worst_factor(column, 1.0 / np.abs(rho))
    return 2.0 * total_budget * np.log(chi)


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
    def log_q(points):
        return np.array([demand(market, p).log_unit_costs for p in points])

    diffs = np.abs(log_q(equilibrium_prices)[:, None, :] - log_q(probe_prices)[None])
    return float(diffs.max())


def coefficient_share_floor(market: CesMarket) -> np.ndarray:
    """Per-buyer minimum of a_ij / sum_k a_ik over the goods the buyer values.

    Taken as the smallest positive a_ij over the row sum: division by a
    positive number is monotone under rounding, so this is the smallest
    share, bit for bit, without an (m, n) array of shares.
    """
    a = market.coefficients
    return np.min(a, axis=1, where=a > 0, initial=np.inf) / a.sum(axis=1)


def delta_prd_utility(budgets: np.ndarray, rho: np.ndarray, min_share, epsilon):
    """Bid-potential jump cap, per row, when coefficients drift within exp(+/- epsilon).

    `epsilon` is one drift or one per row; `min_share` is one (m,) floor or
    one per row, each the `coefficient_share_floor` reduced with np.minimum
    over every market the drift has visited.  Evaluates, per buyer,
    kappa_i = 2 eps (1 - c_i (3 - 2 min_k c_k)) with c_i = rho_i/(rho_i - 1),
    the spending-floor constant Pi_i = min_share_i^(1/(1-rho_i)) and
    C_i = (B/b_i)^(rho_i/(1-rho_i)), B the budgets' sum, and returns
        sum_i b_i (e^kappa_i - 1) |ln C_i - ln Pi_i| + 2 b_i eps / rho_i;
    a zero drift gives exactly 0.0.  Raises ValueError, naming the drift of
    the first failing row, when that sum overflows (rho near 1, eps too large).
    """
    epsilon = np.asarray(epsilon, dtype=float)
    if not (epsilon >= 0).all():
        raise ValueError("epsilon must be non-negative")
    if ((rho <= 0) | (rho >= 1)).any():
        raise ValueError("the bid-potential cap needs rho in (0, 1) for every buyer")
    c = rho / (rho - 1.0)
    eps = epsilon[..., None]
    kappa = eps * (2.0 * (1.0 - c * (3.0 - 2.0 * c.min())))
    log_c = (rho / (1.0 - rho)) * np.log(budgets.sum() / budgets)
    log_pi = np.log(min_share) / (1.0 - rho)
    # kappa grows like eps c^2, so near rho = 1 the cap can overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        first = budgets * np.expm1(kappa) * np.abs(log_c - log_pi)
        caps = (first + 2.0 * budgets * eps / rho).sum(axis=-1)
    failed = ~np.isfinite(caps)
    if failed.any():
        drift = np.broadcast_to(epsilon, caps.shape)[failed][0]
        raise ValueError(f"drift {drift:.3g} is too large for rho this close to 1")
    return caps


# ---------------------------------------------------------------------------
# Extremal spending-share vector (worst coefficient reshuffle for one buyer).
# ---------------------------------------------------------------------------


def share_deviation(alpha: np.ndarray, beta: np.ndarray) -> float:
    """sum_j |alpha_j beta_j / sum_k alpha_k beta_k - alpha_j|."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    scaled = alpha * beta
    return float(np.abs(scaled / scaled.sum() - alpha).sum())


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
    if (alpha < 0).any():
        raise ValueError("alpha entries must be non-negative")
    if mu < 1:
        raise ValueError("mu must be at least 1")
    if (beta > mu * (1 + 1e-12)).any() or (beta < (1.0 / mu) * (1 - 1e-12)).any():
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
