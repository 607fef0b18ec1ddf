"""Closed-form caps on what a parameter change can do to a potential.

Each channel (supplies, budgets, utility coefficients) has a worst-case
jump cap at fixed prices.  These caps are what the cumulative tracking
bounds consume.  The script measures actual jumps against the caps, then
digs into the utility channel's inner maximisation: the worst coefficient
reshuffle pushes every factor to an extreme, and the resulting extremal
share deviation matches exhaustive search over all two-valued patterns.
"""

import numpy as np

from eqtracer import (
    ScheduleColumn,
    demand,
    delta_ms_budget,
    delta_ms_supply,
    delta_ms_utility,
    extremize_shares,
    share_deviation,
)
from eqtracer.instances import random_market, uniform_prices
from eqtracer.perturbation import apply_row

rng = np.random.default_rng(3)
market = random_market(rng, 4, 5)
prices = uniform_prices(market) * rng.uniform(0.5, 2.0, 5)
cap_price = float(prices.max())
before = demand(market, prices).misspending

print("measured potential jump vs closed-form cap (100 random events/channel):")
for channel, make_payload, cap_fn in (
    ("supply-additive", lambda: rng.uniform(-0.02, 0.02, 5),
     lambda e: delta_ms_supply(e, cap_price)),
    ("budget-additive", lambda: rng.uniform(-0.02, 0.02, 4),
     delta_ms_budget),
    ("utility-multiplicative", lambda: np.exp(rng.uniform(-0.05, 0.05, (4, 5))),
     lambda e: delta_ms_utility(e, market)),
):
    worst_ratio = 0.0
    for _ in range(100):
        event = ScheduleColumn(channel, [1], make_payload()[None])  # one row
        perturbed = apply_row(market, channel, event.rows(market)[0])
        measured = demand(perturbed, prices).misspending - before
        cap = cap_fn(event)[0]
        if cap > 0:
            worst_ratio = max(worst_ratio, measured / cap)
    print(f"  {channel:<24} worst measured/cap = {worst_ratio:.3f}  (never above 1)")

print("\nextremal share reshuffle for one buyer:")
alpha = np.array([0.25, 0.75])
mu = 3.0
beta_prime, value = extremize_shares(alpha, np.ones(2), mu)
print(f"  spending shares {alpha.tolist()}, factors within [1/{mu}, {mu}]")
print(f"  extremal factor vector: {np.round(beta_prime, 4).tolist()}")
print(f"  share deviation: {value:.6f}")
print(f"  closed-form ceiling 2(mu-1)/(mu+1) = {2 * (mu - 1) / (mu + 1):.6f}")

brute = max(
    share_deviation(alpha, np.array([b1, b2]))
    for b1 in (mu, 1 / mu)
    for b2 in (mu, 1 / mu)
)
print(f"  exhaustive search over two-valued patterns: {brute:.6f} (identical)")
