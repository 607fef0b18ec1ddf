"""Two non-market instantiations of the tracking framework.

Gradient descent on smooth, strongly convex objectives whose minimiser moves
every round, and diffusive load balancing on a machine network whose speeds
drift.  Both supply a per-round rate (sqrt(1 - delta) from curvature, or the
diffusion matrix's |lambda2|) and a per-round jump, which `running_bound`
turns into the same geometric envelope used for markets; `lyapunov.meta_bound`
is its closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lyapunov import running_bound
from .trace import Trace

# ---------------------------------------------------------------------------
# Gradient descent with a shifting optimum.
# ---------------------------------------------------------------------------


def gd_contraction(alpha: float, beta_smooth: float, eta: float) -> float:
    """Squared-distance decay rate 2 eta alpha beta / (alpha + beta).

    Valid for step sizes up to 2 / (alpha + beta); at the largest step the
    rate is 4 alpha beta / (alpha + beta)^2, and alpha == beta contracts to
    the optimum in a single step.
    """
    if not 0 < alpha <= beta_smooth:
        raise ValueError("need 0 < alpha <= beta")
    if not 0 < eta <= 2.0 / (alpha + beta_smooth):
        raise ValueError("step size must lie in (0, 2/(alpha+beta)]")
    return 2.0 * eta * alpha * beta_smooth / (alpha + beta_smooth)


def gd_steady_state(delta: float, shift: float) -> float:
    """Long-run tracking radius 2 * shift / delta for constant per-round drift."""
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    return 2.0 * shift / delta


def gd_regret_bound(
    phi0: float, delta: float, d: float, beta_smooth: float, T: int
) -> float:
    """Cumulative suboptimality cap for T rounds of drift at most d per round.

    Smoothness turns the distance envelope (1-delta)^(t/2) phi0 + 2d/delta
    into per-round gaps; summing the squares gives
    beta/delta * phi0^2 + beta T (2d/delta)^2.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    if d < 0 or beta_smooth <= 0 or T < 0:
        raise ValueError("need d >= 0, beta > 0, T >= 0")
    return float(beta_smooth / delta * phi0**2 + beta_smooth * T * (2.0 * d / delta) ** 2)


@dataclass(frozen=True)
class ShiftingQuadratic:
    """Separable quadratic test objective with a prescribed optimum path.

    f_t(x) = 0.5 * sum_k curvatures_k (x_k - optima[t, k])^2, so the strong
    convexity and smoothness constants are the extreme curvatures and the
    minimiser is known exactly at every round.
    """

    curvatures: np.ndarray   # (d,) positive
    optima: np.ndarray       # (T+1, d) optimum per round
    eta: float

    def __post_init__(self):
        c = np.asarray(self.curvatures, dtype=float)
        path = np.asarray(self.optima, dtype=float)
        if c.ndim != 1 or np.any(c <= 0):
            raise ValueError("curvatures must be a positive vector")
        if path.ndim != 2 or path.shape[1] != c.size:
            raise ValueError("optimum path must be (rounds + 1, dims)")
        for name, value in (("curvatures", c), ("optima", path)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if not 0 < self.eta <= 2.0 / (c.min() + c.max()):
            raise ValueError("step size must lie in (0, 2/(alpha+beta)]")
        object.__setattr__(self, "curvatures", c)
        object.__setattr__(self, "optima", path)

    @property
    def alpha(self) -> float:
        return float(self.curvatures.min())

    @property
    def beta_smooth(self) -> float:
        return float(self.curvatures.max())

    @property
    def delta(self) -> float:
        return gd_contraction(self.alpha, self.beta_smooth, self.eta)

    def gradient(self, t: int, x: np.ndarray) -> np.ndarray:
        return self.curvatures * (x - self.optima[t])

    def gap(self, t: int, x: np.ndarray) -> float:
        """f_t(x) - f_t(minimiser)."""
        return float(0.5 * np.sum(self.curvatures * (x - self.optima[t]) ** 2))


def simulate_shifting_quadratic(problem: ShiftingQuadratic, x0) -> tuple[Trace, float]:
    """Descend while the optimum moves; return the trace and the regret.

    Round t: step against f_{t-1}, then the optimum shifts to optima[t] and
    the distance is measured there, so each round contracts first and absorbs
    the shift afterwards, exactly the envelope's recursion.  The potential is
    the distance to the optimum, delta its shift, the bound's rate
    sqrt(1 - delta); regret sums the suboptimality over rounds 1..T.
    """
    x = np.asarray(x0, dtype=float)
    T = problem.optima.shape[0] - 1
    distances = np.empty(T)
    shifts = np.array([np.linalg.norm(step) for step in np.diff(problem.optima, axis=0)])
    initial = float(np.linalg.norm(x - problem.optima[0]))
    regret = 0.0
    for t in range(1, T + 1):
        x = x - problem.eta * problem.gradient(t - 1, x)
        distances[t - 1] = float(np.linalg.norm(x - problem.optima[t]))
        regret += problem.gap(t, x)
    root = (1.0 - problem.delta) ** 0.5
    return Trace(initial, distances, shifts, running_bound(initial, root, shifts)), regret


# ---------------------------------------------------------------------------
# Diffusion load balancing with drifting machine speeds.
# ---------------------------------------------------------------------------


def _check_loads(loads, n: int) -> np.ndarray:
    l = np.asarray(loads, dtype=float)
    if l.shape != (n,) or (l < 0).any():
        raise ValueError("loads must be a non-negative vector of matching length")
    return l


@dataclass(frozen=True)
class LoadNetwork:
    """Machines with speeds and divisible load, coupled by a diffusion matrix.

    The matrix must be symmetric, stochastic, with diagonal at least 1/2 and
    positive entries exactly on the network's edges, which must connect every
    machine (else |lambda2| = 1).  It is validated once, at construction;
    `diffusion_step` checks only the loads it replaces, and `simulate_diffusion`
    checks its whole speed path once.
    """

    speeds: np.ndarray       # (n,) positive
    loads: np.ndarray        # (n,) non-negative
    diffusivity: np.ndarray  # (n, n)

    def __post_init__(self):
        # Copies, so freezing the fields never locks a caller-owned array.
        s = np.array(self.speeds, dtype=float)
        if s.ndim != 1 or (s <= 0).any():
            raise ValueError("speeds must be a positive vector")
        n = s.size
        l = _check_loads(np.array(self.loads, dtype=float), n)
        for name, value in (("speeds", s), ("loads", l)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        P = np.array(self.diffusivity, dtype=float)
        if P.shape != (n, n):
            raise ValueError("diffusivity must be square and match the machine count")
        if not np.allclose(P, P.T, rtol=0, atol=1e-12):
            raise ValueError("diffusivity must be symmetric")
        if (P < 0).any() or not np.allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-12):
            raise ValueError("diffusivity rows must be non-negative and sum to one")
        if (np.diag(P) < 0.5 - 1e-12).any():
            raise ValueError("diffusivity diagonal must be at least 1/2")
        reached = frontier = np.arange(n) == 0
        while frontier.any():  # breadth-first search over the edges
            frontier = (P[frontier] > 0).any(axis=0) & ~reached
            reached = reached | frontier
        if not reached.all():
            raise ValueError("the diffusion matrix must mix: its graph is disconnected")
        for name, arr in (("speeds", s), ("loads", l), ("diffusivity", P)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def total_load(self) -> float:
        return float(self.loads.sum())

    @property
    def finishing_times(self) -> np.ndarray:
        return self.loads / self.speeds

    def _derive(self, **fields) -> "LoadNetwork":
        """Unvalidated copy sharing unchanged arrays, as `CesMarket._derive`."""
        new = object.__new__(LoadNetwork)
        new.__dict__.update(self.__dict__, **fields)
        return new


def diffusion_step(network: LoadNetwork) -> LoadNetwork:
    """One round of pairwise transfers toward equal finishing times.

    The machine with the longer finishing time on edge (i, j) sends
    P_ij * (f_i - f_j) * s_i load to its neighbour.  Transfers are pairwise,
    so total load is conserved; the half-lazy diagonal keeps loads
    non-negative.  With uniform speeds the finishing times evolve exactly as
    f' = P f.  Only the new loads are checked; the rest is shared unchecked.
    """
    f = network.finishing_times
    gap = np.maximum(f[:, None] - f[None, :], 0.0)
    sent = network.diffusivity * gap * network.speeds[:, None]
    new_loads = _check_loads(
        network.loads - sent.sum(axis=1) + sent.sum(axis=0), f.size
    )
    new_loads.setflags(write=False)
    return network._derive(loads=new_loads)


def balanced_state(network: LoadNetwork) -> tuple[np.ndarray, float]:
    """Loads proportional to speed and the common finishing time M / sum(s)."""
    total_speed = float(network.speeds.sum())
    finish = network.total_load / total_speed
    return network.speeds * finish, finish


def second_eigenvalue(P) -> float:
    """|lambda2| of a symmetric diffusion matrix, by one exact eigensolve.

    The largest |eigenvalue| other than the top one, which is one for a
    stochastic matrix (the uniform eigenvector); 0.0 for a single machine.
    A disconnected matrix repeats the top eigenvalue, so it gets 1 up to
    rounding.
    """
    eigenvalues = np.linalg.eigvalsh(np.asarray(P, dtype=float))  # ascending
    return float(np.abs(eigenvalues[:-1]).max(initial=0.0))


def simulate_diffusion(network: LoadNetwork, speed_path) -> tuple[Trace, float, np.ndarray]:
    """Diffuse while speeds drift; return (trace, lambda2, contractions).

    `speed_path` holds T + 1 rows of n speeds, rounds 0..T; it is copied and
    checked once, and row 0 must equal the network's speeds.  Round t: one
    diffusion step at the old speeds, then speeds move to speed_path[t]
    (loads persist), then the L1 imbalance of finishing times against the
    balanced state is measured.  The trace's delta is the speed-change jump
    M n |1/||s^t|| - 1/||s^(t-1)|||, one column taken before round 1, and
    its bound's rate |lambda2|; contractions holds each round's L2 error
    ratio at fixed speeds.
    """
    n = network.speeds.size
    try:
        path = np.array(speed_path, dtype=float)
    except ValueError:  # ragged rows
        path = None
    if path is None or path.ndim != 2 or path.shape[1] != n or not len(path):
        raise ValueError(f"speed_path must be a 2-d array of rows of {n} speeds")
    if not (np.isfinite(path) & (path > 0)).all():
        raise ValueError("speed_path must hold positive, finite speeds")
    if not np.array_equal(path[0], network.speeds):
        raise ValueError("speed_path[0] must match the network's speeds")
    path.setflags(write=False)
    T = len(path) - 1
    lam = second_eigenvalue(network.diffusivity)
    M = network.total_load
    jumps = M * n * np.abs(np.diff(1.0 / path.sum(axis=1)))

    def imbalance(net):
        _, finish = balanced_state(net)
        return float(np.abs(net.finishing_times - finish).sum())

    potentials = np.empty(T)
    contractions = np.empty(T)
    initial = imbalance(network)
    for t in range(1, T + 1):
        _, finish = balanced_state(network)
        error_before = np.linalg.norm(network.finishing_times - finish)
        network = diffusion_step(network)
        error_after = np.linalg.norm(network.finishing_times - finish)
        # Once the error is within a few orders of rounding noise the ratio
        # is meaningless; mark it NaN.
        noise_floor = 1e-7 * max(1.0, finish)
        contractions[t - 1] = (
            error_after / error_before if error_before > noise_floor else np.nan
        )
        network = network._derive(speeds=path[t])
        potentials[t - 1] = imbalance(network)
    trace = Trace(initial, potentials, jumps, running_bound(initial, lam, jumps))
    return trace, lam, contractions
