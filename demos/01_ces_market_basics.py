"""A first look at CES Fisher markets: demand, potentials, equilibrium.

Builds a small market, inspects what the buyers demand at arbitrary prices,
and contrasts the two scalar measures of disequilibrium: the misspending
potential (money on mispriced goods) and the convex price potential (whose
minimiser is the clearing price vector).
"""

import numpy as np

from eqtracer import (
    CesMarket,
    demand,
    solve_equilibrium,
)

market = CesMarket(
    budgets=[1.0, 2.0, 1.5],
    supplies=[1.0, 1.0, 2.0, 0.5],
    rho=[0.5, 0.3, 0.7],
    coefficients=[
        [1.0, 0.5, 0.2, 1.2],
        [0.4, 1.0, 1.0, 0.1],
        [0.7, 0.7, 0.7, 0.7],
    ],
)
print(f"{market.num_buyers} buyers, {market.num_goods} goods, "
      f"total budget {market.total_budget}")

prices = np.array([1.0, 1.0, 1.0, 1.0])
profile = demand(market, prices)
print("\nAt uniform prices:")
print("  per-buyer spending rows:", np.round(profile.spending, 3).tolist())
print("  excess demand:          ", np.round(profile.excess, 3))
print("  misspending:            ", round(profile.misspending, 4))
print("  convex potential:       ", round(profile.cpf, 4))

result = solve_equilibrium(market)
print(f"\nEquilibrium found in {result.iterations} iterations, "
      f"residual {result.residual:.2e}")
print("  clearing prices:", np.round(result.prices, 5))
at_clearing = demand(market, result.prices)
print("  misspending at clearing:", f"{at_clearing.misspending:.2e}")
print("  normalized convex potential at clearing:",
      f"{at_clearing.cpf - result.psi_star:.2e}")

# The convex potential is minimised exactly at the clearing prices.
rng = np.random.default_rng(0)
worst = min(
    demand(market, result.prices * rng.uniform(0.5, 2.0, 4)).cpf - result.psi_star
    for _ in range(1000)
)
print(f"  smallest potential gap over 1000 random price probes: {worst:.3e} (never below zero)")
