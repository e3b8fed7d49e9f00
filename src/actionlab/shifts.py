"""The discrete algebra of adapted shifts.

A shift is an absolutely continuous perturbation h = int hdot dt of every
path, with hdot adapted to the path filtration.  This module materializes
shifts along an ensemble and implements the constructive operators on them:
the block-delay operator ``delay_pn``, the endpoint operators ``endpoint_qn``
/ ``endpoint_rn`` (whose output vanishes at t = 1 on every path) and the
stop-and-recenter truncation ``stop_truncate``.

All operators are linear and act pathwise; the contraction inequalities they
satisfy are asserted per path in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .paths import PathEnsemble, run_ranges

__all__ = [
    "AdaptedShift",
    "MaterializedShift",
    "GridCompatibilityError",
    "EndpointError",
    "materialize",
    "h_norm_sq",
    "delay_pn",
    "endpoint_qn",
    "endpoint_rn",
    "stop_truncate",
    "stop_steps_for",
]

ENDPOINT_TOL = 1e-10  # absolute endpoint-zero tolerance (cumulative-sum rounding)


class GridCompatibilityError(ValueError):
    """Grid step count is not divisible by the requested block count."""


class EndpointError(ValueError):
    """Operation requires a pathwise endpoint-zero shift."""


@dataclass(frozen=True)
class AdaptedShift:
    """A derivative field hdot(j, states) -> [n, d].

    Same prefix contract as model coefficients: the callable receives the
    full states array but must only read ``states[:, :j+1, :]``.  Like model
    drifts and Lagrangian evaluators, :func:`materialize` calls it on ranges
    of the paths from pool threads, so it must be pathwise (row ``i`` of the
    output reads only row ``i`` of ``states``) and thread-safe.
    """

    name: str
    derivative: Callable[[int, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MaterializedShift:
    """A shift evaluated along one ensemble.

    hdot: [n, m, d]; h: [n, m+1, d] cumulative integral with h[:, 0] = 0,
    built from hdot on first read and kept.
    """

    hdot: np.ndarray
    ensemble: PathEnsemble
    name: str = ""

    @cached_property
    def h(self) -> np.ndarray:
        n, m, d = self.hdot.shape
        h = np.empty((n, m + 1, d))
        h[:, 0] = 0.0
        np.cumsum(self.hdot, axis=1, out=h[:, 1:])
        h[:, 1:] *= self.ensemble.grid.dt
        return h

    @property
    def n_paths(self) -> int:
        return self.hdot.shape[0]

    @property
    def dim(self) -> int:
        return self.hdot.shape[2]

    def terminal(self) -> np.ndarray:
        return self.h[:, -1]

    def is_endpoint_zero(self, tol: float = ENDPOINT_TOL) -> bool:
        return bool(np.max(np.abs(self.terminal())) <= tol)


def materialize(shift: AdaptedShift, ensemble: PathEnsemble) -> MaterializedShift:
    """Evaluate a shift's derivative along every path prefix of the ensemble.

    The paths are walked in the block-aligned ranges of
    :func:`~actionlab.paths.run_ranges`, one per usable CPU; ``hdot`` is
    stored path-major and is bit-identical for any split.
    """
    n, m, d = ensemble.n_paths, ensemble.grid.m, ensemble.dim
    hdot = np.empty((n, m, d))

    def walk(lo, hi):
        states, out = ensemble.states[lo:hi], hdot[lo:hi]
        for j in range(m):
            v = np.asarray(shift.derivative(j, states), dtype=np.float64)
            out[:, j] = np.broadcast_to(v, (hi - lo, d))
        return np.isfinite(out).all()

    if not all(run_ranges(walk, n)):
        raise ValueError(f"shift '{shift.name}' produced non-finite derivative")
    return MaterializedShift(hdot, ensemble, shift.name)


def h_norm_sq(u: MaterializedShift) -> np.ndarray:
    """Pathwise squared Cameron-Martin norm: sum |hdot|^2 dt, shape [n]."""
    return np.einsum("nmd,nmd->n", u.hdot, u.hdot) * u.ensemble.grid.dt


def _block_size(u: MaterializedShift, n: int) -> int:
    m = u.ensemble.grid.m
    if n < 3:
        raise GridCompatibilityError("block count n must be >= 3")
    if m % n != 0:
        raise GridCompatibilityError(f"grid m={m} not divisible by n={n}")
    return m // n


def delay_pn(u: MaterializedShift, n: int) -> MaterializedShift:
    """Block-delay operator: on [k/n, (k+1)/n) for k = 2..n-1 the derivative
    is n * (u_{(k-1)/n} - u_{(k-2)/n}); zero on [0, 2/n)."""
    b = _block_size(u, n)
    hdot = np.empty_like(u.hdot)
    hdot[:, : 2 * b] = 0.0
    for k in range(2, n):
        val = n * (u.h[:, (k - 1) * b] - u.h[:, (k - 2) * b])
        hdot[:, k * b : (k + 1) * b] = val[:, None, :]
    return MaterializedShift(hdot, u.ensemble, f"p{n}({u.name})")


def endpoint_qn(u: MaterializedShift, n: int) -> MaterializedShift:
    """Endpoint carrier: derivative n * u_{1-2/n} on [1-1/n, 1], zero before."""
    b = _block_size(u, n)
    hdot = np.empty_like(u.hdot)
    hdot[:, : (n - 1) * b] = 0.0
    hdot[:, (n - 1) * b :] = (n * u.h[:, (n - 2) * b])[:, None, :]
    return MaterializedShift(hdot, u.ensemble, f"q{n}({u.name})")


def endpoint_rn(u: MaterializedShift, n: int) -> MaterializedShift:
    """p_n - q_n; terminal value vanishes on every path (telescoping).

    q_n is zero before the last block, so it is subtracted there only."""
    b = _block_size(u, n)
    hdot = delay_pn(u, n).hdot
    hdot[:, (n - 1) * b :] -= (n * u.h[:, (n - 2) * b])[:, None, :]
    return MaterializedShift(hdot, u.ensemble, f"r{n}({u.name})")


def stop_truncate(u: MaterializedShift, level: float,
                  stop_steps: Optional[np.ndarray] = None) -> MaterializedShift:
    """Stop the shift when its running H-norm exceeds ``level`` and recenter.

    tau is the first grid time with |pi_t u|_H > level; the output keeps the
    derivative before tau and replaces it by -u_tau / (1 - tau) afterwards, so
    the result is endpoint-zero and pathwise dominated: |k[u]|_H <= |u|_H and
    |k[u]|_W <= 2 |pi_tau u|_W.  For a *given* stopping time the operator is
    linear; ``stop_steps`` (per-path grid indices, m meaning untriggered)
    overrides the level rule for that use.
    """
    if level <= 0:
        raise ValueError("level must be positive")
    if not u.is_endpoint_zero():
        raise EndpointError("stop_truncate requires an endpoint-zero shift")
    n, m, d = u.hdot.shape
    dt = u.ensemble.grid.dt
    if stop_steps is not None:
        jstar = np.asarray(stop_steps, dtype=int)
        if jstar.shape != (n,) or (jstar < 1).any() or (jstar > m).any():
            raise ValueError("stop_steps must be per-path indices in [1, m]")
    else:
        jstar = stop_steps_for(u, level)
    u_tau = u.h[np.arange(n), jstar]                      # value at the stop time
    denom = np.where(jstar < m, 1.0 - jstar * dt, 1.0)
    recenter = np.where((jstar < m)[:, None], -u_tau / denom[:, None], 0.0)
    stopped = np.arange(m)[None, :] >= jstar[:, None]     # [n, m]
    hdot = np.where(stopped[:, :, None], recenter[:, None, :], u.hdot)
    return MaterializedShift(hdot, u.ensemble, f"k[{u.name}]")


def stop_steps_for(u: MaterializedShift, level: float) -> np.ndarray:
    """First grid index where the running H-norm exceeds ``level`` (m if never)."""
    n, m, _ = u.hdot.shape
    dt = u.ensemble.grid.dt
    running = np.concatenate(
        [np.zeros((n, 1)),
         np.cumsum(np.einsum("nmd->nm", u.hdot ** 2) * dt, axis=1)], axis=1)
    trig = running > level ** 2
    never = ~trig.any(axis=1)
    return np.where(never, m, np.argmax(trig, axis=1))
