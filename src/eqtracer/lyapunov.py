"""Closed-form tracking envelopes for linearly converging dynamics under drift.

When every static update shrinks a non-negative potential by a factor `rate`
and each parameter change raises it by at most a known jump, the potential
stays under an explicit envelope: geometric decay of the initial value plus a
discounted sum of the jumps.  The trace runners build that envelope round by
round with `running_bound`, and `meta_bound` is its only closed form, the
reference the recursion is tested against.  `windowed_bound` caps older jumps
by the largest one; a divergence-based variant (`bregman_bound`) replaces the
rate with a pair of constants (q1, q2) driving a one-round recurrence on the
divergence to the moving fixed point.
"""

from __future__ import annotations

from math import ceil, log
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
    for descent (the contraction acts on squared distances) and |lambda2|
    for diffusion.
    """
    _check_rate(rate)
    _check_jumps(jumps)
    T = len(jumps)
    value = rate**T * anchor
    for t, jump in enumerate(jumps, start=1):
        value += rate ** (T - t) * jump
    return float(value)


def windowed_bound(
    anchor: float, rate: float, jumps: Sequence[float], split: int
) -> float:
    """Split the jump sum at round `split`: recent jumps exactly, older ones capped.

    Recent rounds tau = split+1..T contribute their discounted jumps;
    everything older collapses into rate^(T-split)/(1-rate) times the largest
    jump.  Always at least as large as meta_bound on the same inputs.
    """
    _check_rate(rate)
    _check_jumps(jumps)
    T = len(jumps)
    if not 0 <= split <= T:
        raise ValueError("split index must lie in [0, len(jumps)]")
    worst = max(jumps, default=0.0)
    recent = sum(rate ** (T - tau) * jumps[tau - 1] for tau in range(split + 1, T + 1))
    return float(recent + rate ** (T - split) / (1.0 - rate) * worst + rate**T * anchor)


def dominant_window(delta: float, T: int, alpha: float, beta: float) -> int:
    """Number of recent rounds that dominate the bound when jumps sum to O(T^alpha).

    ceil((alpha + beta) / delta * ln T); the remaining terms decay as T^-beta.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    if T < 2:
        raise ValueError("window needs a horizon of at least 2")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    return ceil((alpha + beta) / delta * log(T))


def bregman_bound(d0: float, q1: float, q2: float, jumps: Sequence[float]) -> float:
    """q1 (q1/q2)^(T-1) d0 + sum_{i=0}^{T-1} (q1/q2)^i jump_{T-i}, T = len(jumps).

    Envelope for the potential after T rounds when each round satisfies
    potential_t <= q1 d(target_{t-1}, p_{t-1}) - q2 d(target_t, p_t) + jump_t
    for a divergence d and drifting targets.
    """
    if not 0 < q1 < q2:
        raise ValueError("constants must satisfy 0 < q1 < q2")
    if d0 < 0:
        raise ValueError("initial divergence must be non-negative")
    T = len(jumps)
    if T < 1:
        raise ValueError("need at least one round of jumps")
    _check_jumps(jumps)
    ratio = q1 / q2
    value = q1 * ratio ** (T - 1) * d0
    for i in range(T):
        value += ratio**i * jumps[T - 1 - i]
    return float(value)
