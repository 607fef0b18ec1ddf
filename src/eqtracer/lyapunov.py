"""Closed-form tracking envelopes for linearly converging dynamics under drift.

When every static update shrinks a non-negative potential by a factor `rate`
and each parameter change raises it by at most a known jump, the potential
stays under an explicit envelope: geometric decay of the initial value plus a
discounted sum of the jumps.  Every trace runner builds that envelope round by
round with `running_bound`, and `meta_bound` is its closed form, the
reference the recursion is tested against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _check_rate(rate: float):
    if not 0 <= rate < 1:
        raise ValueError("rate must lie in [0, 1)")


def _check_jumps(jumps: Sequence[float]):
    if any(j < 0 for j in jumps):
        raise ValueError("jump values must be non-negative")


def running_bound(anchor: float, rate: float, jumps) -> np.ndarray:
    """Envelope b_t = rate * b_{t-1} + jump_t for t = 1..T, with b_0 = anchor.

    The one recursion behind every geometric envelope (rates as in
    `meta_bound`).  Evaluated round by round, so each entry equals the
    hand-written loop's to the last bit; returns b_1..b_T.
    """
    bounds = np.empty(len(jumps))
    b = anchor
    for t, jump in enumerate(np.asarray(jumps, dtype=float).tolist()):
        b = rate * b + jump
        bounds[t] = b
    return bounds


def meta_bound(anchor: float, rate: float, jumps: Sequence[float]) -> float:
    """rate^T anchor + sum_t rate^(T-t) jump_t, t = 1..T, with T = len(jumps).

    The closed form of `running_bound`.  The rate is 1 - delta for
    tatonnement (delta the fitted per-round contraction), sqrt(1 - delta)
    for descent (the contraction acts on squared distances), |lambda2| for
    diffusion, and q1/q2 for bid dynamics, whose anchor is q2 KL_0 (the
    fitted recurrence constants and the initial KL distance).
    """
    _check_rate(rate)
    _check_jumps(jumps)
    T = len(jumps)
    value = rate**T * anchor
    for t, jump in enumerate(jumps, start=1):
        value += rate ** (T - t) * jump
    return float(value)
