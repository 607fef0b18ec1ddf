"""Reproducible random instances: markets, networks, drifting quadratics.

Every generator takes a seed or an explicit numpy Generator; identical seeds
give identical instances bit for bit.
"""

from __future__ import annotations

import numpy as np

from .applications import LoadNetwork, ShiftingQuadratic
from .market import CesMarket


def random_market(
    seed,
    m: int,
    n: int,
    rho_low: float = 0.2,
    rho_high: float = 0.8,
    unit_supplies: bool = False,
    zero_fraction: float = 0.0,
) -> CesMarket:
    """Random CES market with budgets and supplies in [0.5, 2].

    Per-buyer rho drawn uniformly from [rho_low, rho_high]; coefficients from
    [0.2, 1.5] with an optional fraction zeroed (always keeping at least one
    positive coefficient per buyer).
    """
    if rho_low > rho_high:
        raise ValueError(f"rho_low ({rho_low}) must not exceed rho_high ({rho_high})")
    rng = np.random.default_rng(seed)
    budgets = rng.uniform(0.5, 2.0, size=m)
    supplies = np.ones(n) if unit_supplies else rng.uniform(0.5, 2.0, size=n)
    rho = rng.uniform(rho_low, rho_high, size=m)
    coefficients = rng.uniform(0.2, 1.5, size=(m, n))
    if zero_fraction > 0:
        mask = rng.random((m, n)) < zero_fraction
        keep = rng.integers(0, n, size=m)
        mask[np.arange(m), keep] = False
        coefficients = np.where(mask, 0.0, coefficients)
    return CesMarket(
        budgets=budgets, supplies=supplies, rho=rho, coefficients=coefficients
    )


def symmetric_market(m: int, n: int, rho: float, budget: float = 1.0) -> CesMarket:
    """Fully symmetric market: equal budgets, unit coefficients and supplies."""
    return CesMarket(
        budgets=np.full(m, budget),
        supplies=np.ones(n),
        rho=np.full(m, rho),
        coefficients=np.ones((m, n)),
    )


def uniform_prices(market: CesMarket) -> np.ndarray:
    """Default initialisation: every price at total budget / number of goods."""
    return np.full(market.num_goods, market.total_budget / market.num_goods)


# ---------------------------------------------------------------------------
# Graphs and diffusion matrices.
# ---------------------------------------------------------------------------


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return path_edges(n) + ([(n - 1, 0)] if n > 2 else [])


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def default_diffusivity(n: int, edges) -> np.ndarray:
    """Half-lazy diffusion matrix P = I - L / (2 max degree).

    Symmetric, stochastic, diagonal at least 1/2, positive exactly on edges,
    whose endpoints must be machine indices 0..n-1.
    """
    adjacency = np.zeros((n, n))
    for i, j in edges:
        if not all(v == int(v) and 0 <= v < n for v in (i, j)):
            raise ValueError(f"edge ({i}, {j}) must join machine indices 0..{n - 1}")
        i, j = int(i), int(j)
        if i == j:
            raise ValueError("self-loops are not edges")
        adjacency[i, j] = adjacency[j, i] = 1.0
    degrees = adjacency.sum(axis=1)
    if n > 1 and degrees.max() == 0:
        raise ValueError("graph has no edges")
    scale = 2.0 * max(degrees.max(), 1.0)
    P = adjacency / scale
    np.fill_diagonal(P, 1.0 - degrees / scale)
    return P


def make_network(
    graph: str | list,
    n: int,
    speeds=None,
    loads=None,
    seed=None,
    load_total: float = None,
) -> LoadNetwork:
    """Build a LoadNetwork from a named graph or an explicit edge list.

    Random loads (when not given) are uniform on [0, 1], rescaled to
    load_total when provided.
    """
    if isinstance(graph, str):
        builders = {"path": path_edges, "cycle": cycle_edges, "complete": complete_edges}
        if graph not in builders:
            raise ValueError(f"unknown graph {graph!r}; expected {sorted(builders)}")
        edges = builders[graph](n)
    else:
        edges = [tuple(e) for e in graph]
    P = default_diffusivity(n, edges)
    if speeds is None:
        speeds = np.ones(n)
    else:
        speeds = np.asarray(speeds, dtype=float)
        if speeds.ndim == 0:
            speeds = np.full(n, float(speeds))
    if loads is None:
        loads = np.random.default_rng(seed).uniform(0.0, 1.0, size=n)
    else:
        loads = np.asarray(loads, dtype=float)
    if load_total is not None:
        if not np.isfinite(loads).all():  # checked before the rescale spreads it
            raise ValueError("loads must be finite")
        current = loads.sum()
        if current <= 0:
            raise ValueError("cannot rescale all-zero loads")
        loads = loads * (load_total / current)
    return LoadNetwork(speeds=speeds, loads=loads, diffusivity=P)


def drifting_speeds(
    seed,
    n: int,
    T: int,
    magnitude: float,
    low: float = 0.8,
    high: float = 1.25,
    mode: str = "common",
) -> np.ndarray:
    """Speed path: multiplicative drift per round, reflected into [low, high].

    mode "common" scales every machine by the same random factor each round
    (machine mix constant, the regime the speed-change jump cap prices
    exactly); "per-machine" drifts machines independently.  Returns a
    (T+1, n) array whose first row is all ones.  Reflection keeps every speed
    in the band only when the band holds the start speed 1 and a factor's
    round trip fits in it, 2 magnitude <= ln(high / low), so other ranges
    are refused.
    """
    if mode not in ("common", "per-machine"):
        raise ValueError("mode must be 'common' or 'per-machine'")
    if not 0 < low <= 1 <= high:
        raise ValueError(f"drift low ({low}) and high ({high}) must satisfy 0 < low <= 1 <= high")
    if not 0 <= 2 * magnitude <= np.log(high / low):
        raise ValueError(
            f"drift magnitude ({magnitude}) must lie in [0, ln(high / low) / 2]"
            f" = [0, {np.log(high / low) / 2:.6g}]"
        )
    rng = np.random.default_rng(seed)
    size = n if mode == "per-machine" else None
    path = np.ones((T + 1, n))
    for t in range(T):
        factors = np.exp(rng.uniform(-magnitude, magnitude, size=size))
        nxt = path[t] * factors
        outside = (nxt < low) | (nxt > high)
        path[t + 1] = np.where(outside, path[t] / factors, nxt)
    return path


def drifting_quadratic(
    seed=0, dims=5, *, horizon, shift=0.01, curvature_low=0.5, curvature_high=3.0,
    start_offset=1.0,
) -> tuple[ShiftingQuadratic, np.ndarray]:
    """Random quadratic whose optimum takes horizon steps of length `shift`.

    Returns the problem, at the largest admissible step size 2/(alpha+beta),
    and a start `start_offset` times a normal vector away from the optimum.
    """
    if curvature_low > curvature_high:
        raise ValueError(
            f"curvature_low ({curvature_low}) must not exceed curvature_high ({curvature_high})"
        )
    rng = np.random.default_rng(seed)
    curvatures = rng.uniform(curvature_low, curvature_high, dims)
    directions = rng.normal(size=(horizon + 1, dims))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    directions = np.divide(directions, norms, out=np.zeros_like(directions), where=norms > 0)
    optima = np.cumsum(shift * directions, axis=0)
    eta = float(2.0 / (curvatures.min() + curvatures.max()))
    problem = ShiftingQuadratic(curvatures=curvatures, optima=optima, eta=eta)
    return problem, optima[0] + start_offset * rng.normal(size=dims)
