"""Pushforward of ensembles by adapted shifts and by space-time maps.

``push_shift`` translates every path by epsilon times a materialized shift;
the drift records gain epsilon * hdot and the diffusion records are carried
unchanged.  ``lift`` applies a pointwise map y = h(t, x) to the paths and
transforms the recorded characteristics by the Ito rule: the new drift is
dt_h + (v . grad) h + (1/2) sum alpha_ij d2_ij h and the new diffusion factor
is (grad h) sigma.  ``harmonic_check`` evaluates the generator residual of a
space-time function along the paths and cross-checks it against a direct
martingale test of the composed process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .paths import PathEnsemble
from .shifts import MaterializedShift

__all__ = [
    "SpaceTimeMap",
    "push_shift",
    "lift",
    "harmonic_check",
    "HarmonicReport",
]


@dataclass(frozen=True)
class SpaceTimeMap:
    """A map h(t, x) with spatial derivatives and (optionally) an inverse.

    map_fn(t, x[n,d]) -> [n,d]; jacobian -> [n,d,d] (or constant [d,d]);
    hessian -> [n,d,d,d] with axes (path, output, i, j), or None for affine
    maps; dt_fn -> [n,d] or None when the map is time-independent.  inverse
    is required for maps registered as path-space transformations and may be
    None for scalar fields used only in ``harmonic_check``.
    """

    name: str
    map_fn: Callable
    jacobian: Callable
    hessian: Optional[Callable] = None
    dt_fn: Optional[Callable] = None
    inverse: Optional[Callable] = None


def push_shift(ensemble: PathEnsemble, shift: MaterializedShift,
               epsilon: float) -> PathEnsemble:
    """Image law under identity + epsilon * shift.

    States move by epsilon * h, drift records by epsilon * hdot, and the
    diffusion records are unchanged; weights carry over.
    """
    if shift.ensemble is not ensemble:
        raise ValueError("shift is not bound to this ensemble")
    states = ensemble.states + epsilon * shift.h
    drifts = ensemble.drifts + epsilon * shift.hdot
    states.setflags(write=False)
    drifts.setflags(write=False)
    return replace(ensemble, states=states, drifts=drifts,
                   label=f"{ensemble.label}+{epsilon}*{shift.name}")


def _ito(m: SpaceTimeMap, ensemble: PathEnsemble, j: int):
    """Jacobian [n, d, d] of h at step j and the Ito drift of h(t, X):
    dt_h + (v . grad) h + (1/2) alpha : hess h, shape [n, d]."""
    n, d = ensemble.n_paths, ensemble.dim
    t = j * ensemble.grid.dt
    x = ensemble.states[:, j]
    jac = np.broadcast_to(np.asarray(m.jacobian(t, x), dtype=np.float64), (n, d, d))
    drift = np.einsum("nij,nj->ni", jac, ensemble.drifts[:, j])
    if m.dt_fn is not None:
        drift = drift + np.asarray(m.dt_fn(t, x), dtype=np.float64)
    if m.hessian is not None:
        hess = np.broadcast_to(np.asarray(m.hessian(t, x), dtype=np.float64),
                               (n, d, d, d))
        drift = drift + 0.5 * np.einsum("nij,nkij->nk", ensemble.alpha(j), hess)
    return jac, drift


def lift(ensemble: PathEnsemble, m: SpaceTimeMap) -> PathEnsemble:
    """Image law under the pathwise application of the space-time map."""
    grid = ensemble.grid
    n, steps, d = ensemble.drifts.shape
    states = np.empty_like(ensemble.states)
    drifts = np.empty_like(ensemble.drifts)
    diffusions = np.empty((n, steps, d, d))
    for j in range(steps + 1):
        t = j * grid.dt
        states[:, j] = m.map_fn(t, ensemble.states[:, j])
    for j in range(steps):
        jac, drifts[:, j] = _ito(m, ensemble, j)
        diffusions[:, j] = np.einsum("nij,njk->nik", jac, ensemble.diffusions[:, j])
    if not (np.isfinite(states).all() and np.isfinite(drifts).all()):
        raise ValueError(f"map '{m.name}' produced non-finite values")
    for arr in (states, drifts, diffusions):
        arr.setflags(write=False)
    return replace(ensemble, states=states, drifts=drifts, diffusions=diffusions,
                   label=f"{m.name}*{ensemble.label}")


@dataclass(frozen=True)
class HarmonicReport:
    residual_max: float
    residual_mean: float
    residual_zero: bool
    martingale_report: object
    agree: bool


def harmonic_check(ensemble: PathEnsemble, field: SpaceTimeMap,
                   probe_fractions: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9),
                   threshold: float = 4.0, residual_tol: float = 1e-8):
    """Generator residual of ``field`` along the paths versus a martingale test.

    The residual at (t_j, W_j) is dt_u + (v . grad) u + (1/2) alpha : hess u;
    it vanishes identically iff u(t, W_t) has no finite-variation part.  The
    function reports both the pointwise residual and the martingale verdict on
    the composed process, plus whether the two diagnostics agree.
    """
    from .diagnostics import martingale_test

    grid = ensemble.grid
    worst = 0.0
    acc = 0.0
    steps = grid.steps_before(ensemble.t_max)
    for j in range(steps):
        _, res = _ito(field, ensemble, j)
        worst = max(worst, float(np.max(np.abs(res))))
        acc += float(np.mean(np.abs(res)))
    mean_abs = acc / max(1, steps)

    idx = grid.probe_indices(probe_fractions, ensemble.t_max)
    composed = np.stack([np.asarray(field.map_fn(j * grid.dt, ensemble.states[:, j]))
                         for j in idx], axis=1)
    report = martingale_test(composed, ensemble, idx, threshold=threshold)
    residual_zero = worst <= residual_tol
    return HarmonicReport(residual_max=worst, residual_mean=mean_abs,
                          residual_zero=residual_zero,
                          martingale_report=report,
                          agree=(residual_zero == report.verdict))
