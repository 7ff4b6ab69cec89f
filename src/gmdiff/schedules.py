"""Time discretizations: uniform, and exponentially-growing-then-constant.

A grid covers [delta, T] with strictly increasing points t_0 = delta up to
t_N = T and step sizes h_k = t_k - t_{k-1}. Reverse (sampling) time uses
the mapped points t'_k = T - t_{N-k}, under which the growing-step
schedule is seen as shrinking steps toward the data end.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import DeltaExceedsHorizon, InvalidHorizon, StepBudgetViolated


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Discretization delta = t_0 < ... < t_N = T with steps h_k."""

    points: np.ndarray
    T: float
    delta: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or len(pts) < 2:
            raise InvalidHorizon("grid needs at least two points")
        # Python-float gaps (inf - inf is NaN, no warning) fail on NaN; steps then sum to T - delta
        if not (abs(float(pts[0]) - float(self.delta)) <= 1e-12
                and abs(float(pts[-1]) - float(self.T)) <= 1e-12):
            raise InvalidHorizon("grid must start at delta and end at T")
        if not np.all(np.diff(pts) > 0.0):
            raise InvalidHorizon("grid points must be strictly increasing")

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def N(self) -> int:
        return len(self.points) - 1

    def reverse_points(self) -> np.ndarray:
        """Sampling-time view t'_k = T - t_{N-k}; increasing from 0 to T - delta."""
        return self.T - self.points[::-1]

    def describe(self) -> str:
        return f"grid(N={self.N}, T={self.T!r}, delta={self.delta!r})"


def check_grid_args(T: float, N: int, delta: float = 0.0, K: float = 1.0) -> None:
    """Reject what no grid accepts: T not positive and finite, N < 1, delta
    outside [0, T), or a step-budget constant K not positive and finite."""
    if not (math.isfinite(T) and T > 0.0):
        raise InvalidHorizon(f"horizon T must be positive and finite, got {T!r}")
    if N < 1:
        raise InvalidHorizon(f"need at least one step, got N={N}")
    if not (0.0 <= delta < T):
        raise DeltaExceedsHorizon(f"delta must lie in [0, T), got {delta!r}")
    if not (math.isfinite(K) and K > 0.0):
        raise ValueError(f"K must be positive and finite, got {K!r}")


def uniform_grid(T: float, N: int, delta: float = 0.0) -> TimeGrid:
    """Equally spaced points from delta to T, h = (T - delta) / N."""
    check_grid_args(T, N, delta)
    # past 2^63 points numpy refuses without allocating: ValueError, or
    # IndexError below 2^64, where its arange comes back empty
    try:
        pts = np.linspace(delta, T, N + 1)
    except (ValueError, IndexError, MemoryError) as exc:
        raise InvalidHorizon(f"N={reprlib.repr(N)} needs N + 1 grid points, more than can "
                             f"be allocated ({exc})") from exc
    return TimeGrid(points=pts, T=T, delta=delta)


def exp_decay_grid(T: float, N: int, L: float, d: int, K: float = 1.0,
                   delta: float = 0.0) -> TimeGrid:
    """Steps h_k = c * min(max(t_{k-1}, 1/L), 1) with c = (T + log L) / N.

    Flat steps c/L near the data end, geometric growth through [1/L, 1],
    then constant steps c; read in reverse (sampling) time the steps shrink
    toward the data. Requires c <= 1/(K d); violation raises
    StepBudgetViolated carrying the smallest N that restores the budget.
    The recurrence uses the left endpoint (the implicit form differs by
    O(c^2) per step) and the terminal remainder is absorbed so every step
    stays within [c/L, c] for L = 1 or L >= 2.
    """
    check_grid_args(T, N, delta, K)
    if not (math.isfinite(L) and L >= 1.0):
        raise InvalidHorizon(f"Lipschitz constant must be finite and >= 1, got {L!r}")
    c = (T + math.log(L)) / N
    budget = 1.0 / (K * d)
    if c > budget:
        min_n = math.ceil((T + math.log(L)) * K * d)
        raise StepBudgetViolated(
            f"step budget violated: c = {c:.6g} > 1/(K d) = {budget:.6g}; "
            f"N >= {min_n} restores the constraint", min_steps=min_n)

    if L == 1.0:
        # min(max(t, 1), 1) = 1 for every t, so the schedule is uniform with h = c
        return uniform_grid(T, N, delta)

    min_h = c / L
    pts = [delta]
    t = delta
    while True:
        h = c * min(max(t, 1.0 / L), 1.0)
        remaining = T - t
        if remaining <= h + min_h:
            # every grid ends here; a full step would strand a sub-minimum tail
            if remaining <= c:
                pts.append(T)
            else:
                pts.append(t + remaining / 2.0)
                pts.append(T)
            break
        t += h
        pts.append(t)
    return TimeGrid(points=np.array(pts), T=T, delta=delta)
