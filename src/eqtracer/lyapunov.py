"""Closed-form tracking envelopes for linearly converging dynamics under drift.

When every static update contracts a non-negative potential by a factor
(1 - delta) and each parameter change raises it by at most a known jump, the
potential stays under an explicit envelope: geometric decay of the initial
value plus a discounted sum of the jumps (`meta_bound`), or the same sum with
older jumps capped by the largest one (`windowed_bound`).  A divergence-based
variant (`bregman_bound`) replaces the contraction factor with a pair of
constants (q1, q2) driving a one-round recurrence on the divergence to the
moving fixed point.  The trace runners build the geometric envelope round by
round with `running_bound`; the closed forms are the reference they are
tested against.
"""

from __future__ import annotations

from math import ceil, log
from typing import Sequence

import numpy as np


def _check_delta(delta: float):
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")


def _check_deltas(deltas: Sequence[float], T: int):
    if len(deltas) != T:
        raise ValueError(f"need exactly {T} jump values, got {len(deltas)}")
    if any(d < 0 for d in deltas):
        raise ValueError("jump values must be non-negative")


def running_bound(anchor: float, rate: float, jumps) -> np.ndarray:
    """Envelope b_t = rate * b_{t-1} + jump_t for t = 1..T, with b_0 = anchor.

    The one recursion behind every geometric envelope: rate is 1 - delta for
    tatonnement, sqrt(1 - delta) for descent and |lambda2| for diffusion.
    Evaluated round by round, so each entry equals the hand-written loop's
    to the last bit; returns b_1..b_T.
    """
    bounds = np.empty(len(jumps))
    b = anchor
    for t, jump in enumerate(np.asarray(jumps, dtype=float).tolist()):
        b = rate * b + jump
        bounds[t] = b
    return bounds


def meta_bound(phi0: float, delta: float, deltas: Sequence[float], T: int) -> float:
    """(1-delta)^T phi0 + sum_t (1-delta)^(T-t) jump_t, t = 1..T."""
    _check_delta(delta)
    if T < 0:
        raise ValueError("horizon must be non-negative")
    _check_deltas(deltas, T)
    decay = 1.0 - delta
    value = decay**T * phi0
    for t, jump in enumerate(deltas, start=1):
        value += decay ** (T - t) * jump
    return float(value)


def windowed_bound(
    phi0: float, delta: float, deltas: Sequence[float], T: int, t: int
) -> float:
    """Split the jump sum at round t: recent jumps exactly, older ones capped.

    Recent rounds tau = t+1..T contribute their discounted jumps; everything
    older collapses into (1-delta)^(T-t)/delta times the largest jump.  Always
    at least as large as meta_bound on the same inputs.
    """
    _check_delta(delta)
    if not 0 <= t <= T:
        raise ValueError("split index must lie in [0, T]")
    _check_deltas(deltas, T)
    decay = 1.0 - delta
    worst = max(deltas, default=0.0)
    recent = sum(decay ** (T - tau) * deltas[tau - 1] for tau in range(t + 1, T + 1))
    return float(recent + decay ** (T - t) / delta * worst + decay**T * phi0)


def dominant_window(delta: float, T: int, alpha: float, beta: float) -> int:
    """Number of recent rounds that dominate the bound when jumps sum to O(T^alpha).

    ceil((alpha + beta) / delta * ln T); the remaining terms decay as T^-beta.
    """
    _check_delta(delta)
    if T < 2:
        raise ValueError("window needs a horizon of at least 2")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    return ceil((alpha + beta) / delta * log(T))


def bregman_bound(
    d0: float, q1: float, q2: float, deltas: Sequence[float], T: int
) -> float:
    """q1 (q1/q2)^(T-1) d0 + sum_{i=0}^{T-1} (q1/q2)^i jump_{T-i}.

    Envelope for the potential after T rounds when each round satisfies
    potential_t <= q1 d(target_{t-1}, p_{t-1}) - q2 d(target_t, p_t) + jump_t
    for a divergence d and drifting targets.
    """
    if not 0 < q1 < q2:
        raise ValueError("constants must satisfy 0 < q1 < q2")
    if d0 < 0:
        raise ValueError("initial divergence must be non-negative")
    if T < 1:
        raise ValueError("horizon must be at least 1")
    _check_deltas(deltas, T)
    ratio = q1 / q2
    value = q1 * ratio ** (T - 1) * d0
    for i in range(T):
        value += ratio**i * deltas[T - 1 - i]
    return float(value)
