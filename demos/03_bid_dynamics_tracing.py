"""Bid dynamics under drifting preferences.

Buyers re-split budgets in proportion to the utility each good delivered
last round.  Statically the bid-space potential falls to zero; when the
utility coefficients breathe by a factor e^{+/-0.005} each round, the
potential gap and the KL distance to the per-round equilibrium obey a
one-round recurrence gap' <= q1 KL - q2 KL' + jump, which compounds into a
geometric tracking bound with rate q1/q2.  The constants are closed-form,
(q1, q2) = (rho_max, 1): bid updates are mirror descent on the potential in
a rho-weighted KL geometry, where it is 1-smooth and (1 - rho_max)-strongly
convex; `PrdBoundConfig.closed_form` carries the argument.
"""

import numpy as np

from eqtracer import (
    PrdBoundConfig,
    ScheduleSpec,
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

# Dynamic run: coefficients drift; closed-form constants, from warmed-up bids.
schedule = generate_schedule(
    ScheduleSpec(channel="utility-multiplicative", magnitude=0.005, seed=5),
    market,
    600,
)
bound = PrdBoundConfig.closed_form(market)
warmed = prd_step(proportional_bids(market), market, rounds=200)
trace = run_prd_trace(market, warmed, schedule, bound, 600)

recurrence = trace.recurrence_ok.mean()
dominated = 1.0 - trace.violations() / len(trace)
print(f"\nconstants (q1, q2) = (rho_max, 1) = ({bound.q1:.4f}, {bound.q2:.0f})")
print(f"dynamic run, 600 rounds of coefficient drift (log-magnitude 0.005):")
print(f"  one-round recurrence satisfied on {recurrence:.1%} of rounds")
print(f"  measured gap under the cumulative bound on {dominated:.1%} of rounds")
print(f"  final gap {trace.potential[-1]:.3e}, "
      f"final KL to the moving equilibrium {trace.kl_to_equilibrium[-1]:.3e}")
print("\nSupply changes need no separate analysis: fold each good's scale "
      "into the\ncoefficients (a <- a * w^rho) and the trajectories match "
      "entry for entry.")
