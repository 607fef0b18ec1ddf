"""Diffusive load balancing while machine speeds drift.

Machines exchange divisible load with neighbours in proportion to
finishing-time differences.  With fixed speeds the finishing-time error
contracts by the diffusion matrix's second eigenvalue per round; when all
speeds drift by a common factor each round, the imbalance obeys the same
geometric envelope fed by speed-change jump caps.
"""

import numpy as np

from eqtracer import diffusion_step, simulate_diffusion
from eqtracer.instances import drifting_speeds, make_network

for graph in ("path", "cycle", "complete"):
    net = make_network(graph, 10, loads=None, seed=4, load_total=10.0)
    _, lam, contractions = simulate_diffusion(net, [net.speeds] * 201)
    stepped = net
    for _ in range(50):
        stepped = diffusion_step(stepped)
    drift = abs(stepped.total_load - net.total_load) / net.total_load
    print(f"{graph:<9} lambda2 = {lam:.4f}  "
          f"worst per-step contraction = {np.nanmax(contractions):.4f}  "
          f"load drift after 50 steps = {drift:.1e}")

print("\ncycle of 10 machines, speeds drifting by a common factor per round:")
net = make_network("cycle", 10, loads=None, seed=4, load_total=10.0)
path = drifting_speeds(17, 10, 600, magnitude=0.002, low=0.9, high=1.1, mode="common")
trace, _, _ = simulate_diffusion(net, path)
imbalance = np.concatenate(([trace.initial], trace.potential))
envelope = np.concatenate(([trace.initial], trace.bound))

print(f"{'round':>6} {'imbalance':>11} {'envelope':>11}")
for t in (0, 10, 50, 200, 600):
    print(f"{t:>6} {imbalance[t]:>11.4f} {envelope[t]:>11.4f}")

plain = trace.violations() == 0
slack = trace.violations(np.sqrt(10)) == 0
print(f"\ndominated by the envelope: plain={plain}, with sqrt(n) slack={slack}")
print("(One-norm imbalance against a two-norm contraction argument can cost "
      "a sqrt(n)\nfactor in general; on these runs the plain envelope already "
      "holds.)")
