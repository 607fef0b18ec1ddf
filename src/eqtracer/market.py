"""CES Fisher markets: demand, excess demand, and price-space potentials.

A market has m buyers with money budgets and n divisible goods with fixed
supplies.  Buyer i values bundles through a CES utility with coefficients
a[i, :] and curvature rho[i] (rho < 1, rho != 0; rho in (0, 1) is the
gross-substitutes regime, rho < 0 the complements regime).  All functions
here are pure: they never mutate their inputs.

Validation happens at the public boundary only: `CesMarket(...)` and
`CesMarket.replace` check every field, and each public function checks its
prices once.  Every demand, unit cost and potential, and every point the
equilibrium solver evaluates, goes through one log-domain kernel,
`ces_weights`; it stays finite as rho -> 1, where c = rho/(rho-1) -> -inf
and a^(1-c) p^c overflows.  In a market of `CLOSED_FORM_MIN_SIZE` or more
coefficients the kernel shifts each row of log weights by a closed-form
bound, not by its row maximum, while the log prices span little enough
(see `SHIFT_SPAN`); otherwise it subtracts the row maximum.  It leaves
its weights unnormalised, so excess demand is one matrix-vector product,
`excess_demand`, which the demand and the solver share.  `demand` returns
a `DemandProfile`, and both potentials are properties of it, so a caller
that holds the demand at some prices reads either potential without
evaluating it again.  The demand exponent c, ln a and the price-free
terms of the log weight are cached per market, and the unvalidated copies
that perturbation events make (`CesMarket._derive`) share each while they
keep the fields it reads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# The kernel's closed-form row shift keeps the largest weight of each row in
# [e^-K, e^K] for K = SHIFT_SPAN (see `ces_weights`).  At 40 a row of n
# weights sums to at most n e^40, far from overflow for any n, and the
# shift moves each weight by at most e^40 towards underflow, so a weight it
# flushes to zero was below e^-705 of its row's largest: as negligible as
# the ones the row-max shift flushes.  Tatonnement prices stay inside it:
# for rho in (0.2, 0.8), |c| <= 4 and prices may spread by a factor e^10.
SHIFT_SPAN = 40.0
# Markets with fewer weights than this keep the row-max shift: there the two
# reductions over ln p cost more than the row max and the subtraction they
# save (per-call demand on a 2-vCPU host with numpy 2.4 broke even between
# 14x14 and 20x20 and won from 24x24 on), and small markets' weights stay
# exactly the row-max ones.
CLOSED_FORM_MIN_SIZE = 400


class LinearUtilityError(ValueError):
    """Demand is undefined for rho == 1 (no unique utility-maximising bundle)."""


def _as_vector(x, name: str) -> np.ndarray:
    # Copy so freezing the field never locks a caller-owned array.
    arr = np.array(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class CesMarket:
    """Immutable CES Fisher market.

    budgets:      (m,) strictly positive
    supplies:     (n,) strictly positive
    rho:          (m,) in (-inf, 1], nonzero
    coefficients: (m, n) non-negative, each row has a positive entry
    """

    budgets: np.ndarray
    supplies: np.ndarray
    rho: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        b = _as_vector(self.budgets, "budgets")
        w = _as_vector(self.supplies, "supplies")
        r = _as_vector(self.rho, "rho")
        a = np.array(self.coefficients, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"coefficients must be 2-d, got shape {a.shape}")
        m, n = a.shape
        if b.shape != (m,) or r.shape != (m,) or w.shape != (n,):
            raise ValueError(
                f"inconsistent shapes: budgets {b.shape}, rho {r.shape}, "
                f"supplies {w.shape}, coefficients {a.shape}"
            )
        if not (b > 0).all():
            raise ValueError("all budgets must be strictly positive")
        if not (w > 0).all():
            raise ValueError("all supplies must be strictly positive")
        if not (a >= 0).all():
            raise ValueError("utility coefficients must be non-negative")
        if not (a.max(axis=1) > 0).all():
            raise ValueError("every buyer needs at least one positive coefficient")
        if (r == 0).any() or (r > 1).any() or not np.isfinite(r).all():
            raise ValueError("each rho must be finite, nonzero and at most 1")
        # Reject infinities, then freeze the arrays: read-only fields keep the
        # per-market caches valid.
        for name, arr in (("budgets", b), ("supplies", w), ("rho", r), ("coefficients", a)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_buyers(self) -> int:
        return self.coefficients.shape[0]

    @property
    def num_goods(self) -> int:
        return self.coefficients.shape[1]

    @property
    def total_budget(self) -> float:
        return float(self.budgets.sum())

    @cached_property
    def demand_exponent(self) -> np.ndarray:
        """Per-buyer demand exponent c_i = rho_i / (rho_i - 1), cached, read-only."""
        c = self.rho / (self.rho - 1.0)
        c.setflags(write=False)
        return c

    @cached_property
    def log_coefficients(self) -> np.ndarray:
        """ln a (-inf where a = 0), cached, read-only."""
        with np.errstate(divide="ignore"):
            log_a = np.log(self.coefficients)
        log_a.setflags(write=False)
        return log_a

    @cached_property
    def _weight_base(self) -> tuple[np.ndarray, np.ndarray | None, float | None]:
        """The price-free terms of the log CES weight, cached, read-only.

        In a market of at least `CLOSED_FORM_MIN_SIZE` coefficients: the
        base (1-c) ln a - B with B_i = max_j (1-c_i) ln a[i, j], so each
        row's largest entry is 0; B; and the widest ln p spread that the
        closed-form shift of `ces_weights` accepts, K / max(1, max_i -c_i),
        where max(1, max_i -c_i) bounds every |c_i| because c_i < 1.  A
        smaller market keeps (1-c) ln a, None, None.  The base is -inf
        where a = 0.
        """
        if (self.rho == 1.0).any():
            raise LinearUtilityError(
                "demand requires strictly concave utilities (rho < 1); "
                "a buyer with rho == 1 has no unique demand bundle"
            )
        c = self.demand_exponent
        base = np.multiply(1.0 - c[:, None], self.log_coefficients)
        if base.size < CLOSED_FORM_MIN_SIZE:
            base.setflags(write=False)
            return base, None, None
        bound = base.max(axis=1)
        base -= bound[:, None]
        base.setflags(write=False)
        bound.setflags(write=False)
        return base, bound, SHIFT_SPAN / max(1.0, float(-c.min()))

    def replace(self, **kwargs) -> "CesMarket":
        """Return a validated copy with some fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def _derive(self, **kwargs) -> "CesMarket":
        """Unvalidated copy with fields replaced, for internal callers.

        The new arrays must be float, read-only, of the right shapes and keep
        every invariant `__post_init__` checks.  Unchanged arrays are shared,
        and so are the cached exponent while rho is kept, the cached ln a
        while the coefficients are kept, and the cached price-free weight
        terms while both are; nothing else carries over.
        """
        keep = {"budgets", "supplies", "rho", "coefficients"}
        if "coefficients" not in kwargs:
            keep.add("log_coefficients")
        if "rho" not in kwargs:
            keep.add("demand_exponent")
            if "coefficients" not in kwargs:
                keep.add("_weight_base")
        new = object.__new__(CesMarket)
        new.__dict__.update((k, v) for k, v in self.__dict__.items() if k in keep)
        new.__dict__.update(kwargs)
        return new


@dataclass(frozen=True)
class DemandProfile:
    """Demand of a market at checked prices, kept as per-good and per-buyer vectors.

    Only 1-d results are held, so a profile pins no (m, n) array between
    rounds.  `spending` and `quantities` re-evaluate the kernel at `prices`
    on each access; `excess` is not summed from them but is one product of
    the kernel's weights, equal to their column sums up to rounding.
    """

    market: CesMarket
    prices: np.ndarray          # (n,) the checked prices demand ran at
    excess: np.ndarray          # (n,) demand - supplies, see `excess_demand`
    log_unit_costs: np.ndarray  # (m,) ln Q_i, see `cpf`

    @property
    def spending(self) -> np.ndarray:
        """(m, n) money buyer i spends on good j, E * (b / S) by rows."""
        work, sums, _ = ces_weights(self.market, self.prices)
        work *= (self.market.budgets / sums)[:, None]
        return work

    @property
    def quantities(self) -> np.ndarray:
        """(m, n) quantity of good j demanded by buyer i."""
        work = self.spending
        work /= self.prices[None, :]
        return work

    @property
    def misspending(self) -> float:
        """Money misallocated relative to clearing: sum_j p_j * |x_j - w_j|.

        Zero exactly at market-clearing prices, positive elsewhere.
        """
        return float((self.prices * np.abs(self.excess)).sum())

    @property
    def cpf(self) -> float:
        """Convex price potential: sum_j w_j p_j - sum_i b_i ln Q_i(p).

        Q_i(p) = (sum_k a[i,k]^(1-c_i) p_k^c_i)^(1/c_i) is buyer i's unit
        cost.  Convex in prices and minimised exactly at equilibrium prices
        (value psi_star, generally nonzero and possibly negative).
        """
        market = self.market
        return float(
            (market.supplies * self.prices).sum()
            - (market.budgets * self.log_unit_costs).sum()
        )


def check_prices(market: CesMarket, prices) -> np.ndarray:
    prices = _as_vector(prices, "prices")
    if prices.shape != (market.num_goods,):
        raise ValueError(
            f"price vector has shape {prices.shape}, expected ({market.num_goods},)"
        )
    if not (prices > 0).all():
        raise ValueError("all prices must be strictly positive")
    if not np.isfinite(prices).all():
        raise ValueError("prices must be finite")
    return prices


def ces_weights(market: CesMarket, prices: np.ndarray, out=None):
    """Shifted CES weights E, their row sums S and ln Q_i at checked prices.

    With l[i, j] = (1-c_i) ln a[i, j] + c_i ln p_j and any row shift L_i,
    E = exp(l - L), buyer i's spending shares are E_i / S_i, and ln Q_i =
    (L_i + ln S_i) / c_i.  In a market of at least `CLOSED_FORM_MIN_SIZE`
    coefficients the shift is L_i = B_i + c_i min ln p, with B_i = max_j
    (1-c_i) ln a[i, j] cached on the market, when s (max ln p - min ln p)
    <= K = `SHIFT_SPAN`, where s = max(1, max_i -c_i) bounds every |c_i|.
    Then the largest entry of each row of E lies in [e^-K, 1] for a
    substitutes buyer (c_i < 0) and in [1, e^K] for a complements buyer
    (0 < c_i < 1), so nothing overflows and no row underflows, and the row
    maximum is never taken.  Otherwise (a small market, rho near 1,
    far-apart prices, a solver's trial points) L_i is the row maximum, so
    the largest entry of each row is exactly 1.  Zero coefficients get
    exactly zero weight.  E is built in `out`, a C-ordered float (m, n)
    array, when one is given, and in a fresh array otherwise; the
    arithmetic is the same.
    """
    base, bound, max_spread = market._weight_base  # first: it refuses rho == 1
    c = market.demand_exponent
    log_p = np.log(prices)
    if bound is not None:
        low = log_p.min()
        if log_p.max() - low <= max_spread:
            logs = np.multiply(log_p - low, c[:, None], out=out)
            logs += base
            weights = np.exp(logs, out=logs)
            sums = weights.sum(axis=1)
            return weights, sums, low + (bound + np.log(sums)) / c
    logs = np.multiply(log_p, c[:, None], out=out)
    logs += base
    top = logs.max(axis=1)
    logs -= top[:, None]
    if bound is not None:
        top += bound  # the base is (1-c) ln a - B
    weights = np.exp(logs, out=logs)
    sums = weights.sum(axis=1)
    return weights, sums, (top + np.log(sums)) / c


def excess_demand(market: CesMarket, prices: np.ndarray, weights, sums) -> np.ndarray:
    """Demand minus supply, (b / S) @ E / p - w, from `ces_weights`' E and S."""
    return (market.budgets / sums) @ weights / prices - market.supplies


def demand(market: CesMarket, prices) -> DemandProfile:
    """Utility-maximising demand of every buyer at the given prices.

    Buyer i spends on good j the share of its budget that the CES weight
    a[i,j]^(1-c_i) p_j^c_i has in its row sum; zero coefficients yield zero
    demand.  Each buyer spends the whole budget, prices . quantities[i] == b_i.
    """
    prices = check_prices(market, prices)
    weights, sums, log_q = ces_weights(market, prices)
    excess = excess_demand(market, prices, weights, sums)
    return DemandProfile(market, prices, excess, log_q)

