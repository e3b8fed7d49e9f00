"""Pushforward of ensembles by adapted shifts and by space maps.

``push_shift`` translates every path by epsilon times a materialized shift;
the drift rows gain epsilon * hdot and the diffusion records are carried
unchanged.  ``lift`` applies a pointwise space map y = h(x) to the paths and
transforms the recorded characteristics by the time-free Ito rule: the new
drift is (v . grad) h + (1/2) sum alpha_ij d2_ij h and the new diffusion
factor is (grad h) sigma.  Both read the drift one row at a time through
``PathEnsemble.drift`` and return frozen, time-major drift records.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .paths import PathEnsemble, _freeze, _records
from .shifts import MaterializedShift

__all__ = [
    "SpaceTimeMap",
    "push_shift",
    "lift",
]


@dataclass(frozen=True)
class SpaceTimeMap:
    """A space map h(x) with its spatial derivatives and an inverse.

    map_fn(x[n,d]) -> [n,d]; jacobian(x) -> [n,d,d] (or constant [d,d]);
    hessian(x) -> [n,d,d,d] with axes (path, output, i, j), or None for
    affine maps; inverse(y[n,d]) -> [n,d] undoes map_fn, and every registered
    map supplies one.  None of them takes a time argument.
    """

    name: str
    map_fn: Callable
    jacobian: Callable
    hessian: Optional[Callable] = None
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
    drifts = _records(ensemble.n_paths, ensemble.grid.m, ensemble.dim)
    for j in range(ensemble.grid.m):
        drifts[:, j] = ensemble.drift(j) + epsilon * shift.hdot[:, j]
    _freeze(states, drifts)
    return replace(ensemble, states=states, drifts=drifts,
                   label=f"{ensemble.label}+{epsilon}*{shift.name}")


def lift(ensemble: PathEnsemble, m: SpaceTimeMap) -> PathEnsemble:
    """Image law under the pathwise application of the space map."""
    n, steps, d = ensemble.n_paths, ensemble.grid.m, ensemble.dim
    states, drifts = _records(n, steps + 1, d), _records(n, steps, d)
    diffusions = np.empty((n, steps, d, d))
    for j in range(steps + 1):
        states[:, j] = m.map_fn(ensemble.states[:, j])
    for j in range(steps):
        x = ensemble.states[:, j]
        jac = np.broadcast_to(np.asarray(m.jacobian(x), dtype=np.float64), (n, d, d))
        drifts[:, j] = np.einsum("nij,nj->ni", jac, ensemble.drift(j))
        if m.hessian is not None:
            hess = np.broadcast_to(np.asarray(m.hessian(x), dtype=np.float64),
                                   (n, d, d, d))
            drifts[:, j] += 0.5 * np.einsum("nij,nkij->nk", ensemble.alpha(j), hess)
        diffusions[:, j] = np.einsum("nij,njk->nik", jac, ensemble.diffusions[:, j])
    if not (np.isfinite(states).all() and np.isfinite(drifts).all()):
        raise ValueError(f"map '{m.name}' produced non-finite values")
    _freeze(states, drifts, diffusions)
    return replace(ensemble, states=states, drifts=drifts, diffusions=diffusions,
                   label=f"{m.name}*{ensemble.label}")
