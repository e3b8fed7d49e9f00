"""The discrete algebra of adapted shifts.

A shift is an absolutely continuous perturbation h = int hdot dt of every
path, with hdot adapted to the path filtration.  This module materializes
shifts along an ensemble and implements the constructive operators on them:
the block-delay operator ``delay_pn``, the endpoint operators ``endpoint_qn``
/ ``endpoint_rn`` (whose output vanishes at t = 1 on every path), the
stop-and-recenter truncation ``stop_truncate``, and the decomposition of a
shift into a martingale-derivative part plus an endpoint-zero part
(``martingale_projection``).

All operators are linear and act pathwise; the contraction inequalities they
satisfy are asserted per path in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from ._accum import weighted_mean_stderr
from .paths import PathEnsemble, RankDeficiencyError, run_ranges

__all__ = [
    "AdaptedShift",
    "MaterializedShift",
    "GridCompatibilityError",
    "EndpointError",
    "materialize",
    "h_inner",
    "h_norm_sq",
    "w_norm",
    "delay_pn",
    "endpoint_qn",
    "endpoint_rn",
    "stop_truncate",
    "stop_steps_for",
    "martingale_projection",
    "ProjectionResult",
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


def _check_bound(u: MaterializedShift, v: MaterializedShift) -> None:
    if u.ensemble is not v.ensemble:
        raise ValueError("shifts are bound to different ensembles")


def h_norm_sq(u: MaterializedShift) -> np.ndarray:
    """Pathwise squared Cameron-Martin norm: sum |hdot|^2 dt, shape [n]."""
    return np.einsum("nmd,nmd->n", u.hdot, u.hdot) * u.ensemble.grid.dt


def w_norm(u: MaterializedShift) -> np.ndarray:
    """Pathwise sup norm over time of |h| (Euclidean in space), shape [n]."""
    return np.sqrt(np.einsum("nmd->nm", u.h ** 2)).max(axis=1)


def h_inner(u: MaterializedShift, v: MaterializedShift):
    """Monte Carlo estimate of E<u, v>_H, returned as (mean, stderr)."""
    _check_bound(u, v)
    per_path = np.einsum("nmd,nmd->n", u.hdot, v.hdot) * u.ensemble.grid.dt
    return weighted_mean_stderr(per_path, u.ensemble.weights)


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


# -- martingale / endpoint-zero decomposition ---------------------------------

@dataclass(frozen=True)
class ProjectionResult:
    m: MaterializedShift
    h0: MaterializedShift
    orthogonality: float        # E<m, h0>_H estimate
    orthogonality_se: float
    endpoint_defect: float      # E |h0 terminal|^2
    terminal_coef: np.ndarray   # coefficients of the terminal variable


def martingale_projection(u: MaterializedShift, feature_map=None,
                          min_paths: int = 1000, rcond: float = 1e-10) -> ProjectionResult:
    """Split u = m + h0 with m a regression martingale and h0 near endpoint-zero.

    The martingale part is parametrized by a terminal variable beta = phi_m^T c;
    its derivative at step j is the least-squares conditional expectation of
    beta given the prefix features at j, and c solves the quadratic problem
    min_c E |u - m(c)|_H^2.  The first-order conditions make the in-sample
    orthogonality E<m, h0>_H vanish up to solver precision; the endpoint
    defect E|h0_1|^2 measures how well the feature span represents the
    decomposition.  Conditional expectations use pseudo-inverses so that
    degenerate ensembles (e.g. deterministic paths, where features collapse
    to constants) reduce to the constant-derivative projection.
    """
    ens = u.ensemble
    if ens.n_paths < min_paths:
        raise ValueError(f"need at least {min_paths} paths for the projection")
    if feature_map is None:
        from .catalog import make_state_features
        feature_map = make_state_features(degree=2, include_initial=True)
    n, m, d = u.hdot.shape
    dt = ens.grid.dt
    w = ens.weights if ens.weights is not None else np.ones(n)

    phi_term, _ = feature_map(ens, ens.grid.m)
    phi_term = np.asarray(phi_term, dtype=np.float64)
    p = phi_term.shape[1]

    # b_j maps terminal coefficients to step-j regression coefficients; the
    # normal equations for c accumulate over steps.
    bmats = np.empty((m, p, p))
    hmat = np.zeros((p, p))
    gvec = np.zeros((p, d))
    for j in range(m):
        phi_j, _ = feature_map(ens, j)
        phi_j = np.asarray(phi_j, dtype=np.float64)
        g = (phi_j * w[:, None]).T @ phi_j / n
        c = (phi_j * w[:, None]).T @ phi_term / n
        if not np.isfinite(g).all():
            raise RankDeficiencyError("non-finite feature Gram matrix")
        b = np.linalg.pinv(g, rcond=rcond) @ c
        bmats[j] = b
        hmat += b.T @ g @ b * dt
        gvec += b.T @ ((phi_j * w[:, None]).T @ u.hdot[:, j] / n) * dt
    coef = np.linalg.pinv(hmat, rcond=rcond) @ gvec   # [p, d]

    mdot = np.empty_like(u.hdot)
    for j in range(m):
        phi_j, _ = feature_map(ens, j)
        mdot[:, j] = np.asarray(phi_j, dtype=np.float64) @ (bmats[j] @ coef)
    mpart = MaterializedShift(mdot, ens, f"proj_m({u.name})")
    h0 = MaterializedShift(u.hdot - mdot, ens, f"proj_h0({u.name})")
    ortho, ortho_se = h_inner(mpart, h0)
    term = h0.terminal()
    endpoint, _ = weighted_mean_stderr(np.einsum("nd,nd->n", term, term), ens.weights)
    return ProjectionResult(m=mpart, h0=h0, orthogonality=ortho,
                            orthogonality_se=ortho_se,
                            endpoint_defect=endpoint, terminal_coef=coef)
