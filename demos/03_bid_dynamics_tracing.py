"""Bid dynamics under drifting preferences.

Buyers re-split budgets in proportion to the utility each good delivered
last round.  Statically the bid-space potential falls to zero; when the
utility coefficients breathe by a factor e^{+/-0.005} each round, the
potential gap and the KL distance to the per-round equilibrium obey a
one-round recurrence gap' <= q1 KL - q2 KL' + jump, which compounds into a
geometric tracking bound with rate q1/q2.
"""

import numpy as np

from eqtracer import (
    ScheduleSpec,
    fit_prd_constants,
    generate_schedule,
    proportional_bids,
    run_prd_trace,
    solve_equilibrium,
    prd_potential_g,
    prd_step,
)
from eqtracer.instances import random_market

market = random_market(42, m=4, n=5, unit_supplies=True)

# Static warm-up: watch the potential gap collapse.
eq = solve_equilibrium(market, tolerance=1e-10)
g_star = prd_potential_g(market, eq.bids)
bids = proportional_bids(market)
print("static run, potential gap to equilibrium:")
for t in range(61):
    if t % 10 == 0:
        gap = prd_potential_g(market, bids) - g_star
        print(f"  round {t:>3}: {gap:.3e}")
    bids = prd_step(bids, market)

# Dynamic run: coefficients drift, constants fitted from a fresh warm-up.
schedule = generate_schedule(
    ScheduleSpec(channel="utility-multiplicative", magnitude=0.005, seed=5),
    market,
    600,
)
bound, warmed, _ = fit_prd_constants(market, proportional_bids(market))
trace = run_prd_trace(market, warmed, schedule, bound, 600)

recurrence = trace.recurrence_ok.mean()
dominated = 1.0 - trace.violations() / len(trace)
print(f"\ndynamic run, 600 rounds of coefficient drift (log-magnitude 0.005):")
print(f"  one-round recurrence satisfied on {recurrence:.1%} of rounds")
print(f"  measured gap under the cumulative bound on {dominated:.1%} of rounds")
print(f"  final gap {trace.potential[-1]:.3e}, "
      f"final KL to the moving equilibrium {trace.kl_to_equilibrium[-1]:.3e}")
print("\nSupply changes need no separate analysis: fold each good's scale "
      "into the\ncoefficients (a <- a * w^rho) and the trajectories match "
      "entry for entry.")
