"""Pluggable Lagrangians, the Monte Carlo action, and the Euler-Lagrange process.

A Lagrangian evaluates L(t, x, v, a) together with its gradients in x, v and
the matrix argument a.  All callables are vectorized: x, v carry shape
[..., d], a carries [..., d, d], and values come back with the leading shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ._accum import weighted_mean_stderr
from .paths import LawRecipe, PathEnsemble

__all__ = [
    "Lagrangian",
    "ActionEstimate",
    "action",
    "path_actions",
    "el_process",
]


@dataclass(frozen=True)
class Lagrangian:
    """L(t, x, v, a) with gradients.

    Evaluators must be pathwise (row ``i`` of the output reads only row ``i``
    of the inputs) and thread-safe: :func:`path_actions` and
    ``diagnostics.variational_derivative`` call them on ranges of the paths
    from pool threads.  ``v`` and ``a`` may be read-only broadcast views
    (``PathEnsemble.drift`` of a zero-drift law or before the weighted law's
    anchor, ``PathEnsemble.alpha`` of a constant diffusion); evaluators must
    not write into them.
    """

    name: str
    value: Callable
    grad_x: Callable
    grad_v: Callable
    grad_a: Callable


@dataclass(frozen=True)
class ActionEstimate:
    mean: float
    stderr: float
    n_paths: int
    m: int

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


def _fold_actions(law, lagrangian: Lagrangian, also=None):
    """Per-path left-rectangle sums of L over steps with t_j < ``law.t_max``,
    shape [n], and the law's weights.

    ``law`` is a :class:`~actionlab.paths.PathEnsemble`, whose block-aligned
    ranges are walked as views, or a :class:`~actionlab.paths.LawRecipe`,
    whose chunks are walked as they are simulated; one kernel sums both, and
    the sums are bit-identical either way and for any split.  ``also(lo,
    chunk)``, when given, is called on each chunk after its sums.
    """
    grid, dt = law.grid, law.grid.dt
    total = np.zeros(law.n_paths)

    def add(lo, ens):
        out = total[lo:lo + ens.n_paths]
        for j in range(grid.steps_before(ens.t_max)):
            val = lagrangian.value(j * dt, ens.states[:, j], ens.drift(j), ens.alpha(j))
            out += np.asarray(val, dtype=np.float64) * dt
        if also is not None:
            also(lo, ens)

    return total, law.fold(add)


def path_actions(ensemble: PathEnsemble, lagrangian: Lagrangian) -> np.ndarray:
    """Per-path left-rectangle sums of L over steps with t_j < ``ensemble.t_max``,
    shape [n].

    The paths are walked in the block-aligned ranges of
    :func:`~actionlab.paths.run_ranges`, one per usable CPU; the sums are
    bit-identical for any split.
    """
    return _fold_actions(ensemble, lagrangian)[0]


def action(law: Union[PathEnsemble, LawRecipe], lagrangian: Lagrangian,
           also: Optional[Callable] = None) -> ActionEstimate:
    """Monte Carlo estimate of the expected pathwise action up to
    ``law.t_max``.

    A :class:`~actionlab.paths.LawRecipe` is folded: its paths are simulated
    and summed a chunk at a time, never held whole, and the estimate has the
    bits of the estimate on its built ensemble.  ``also(lo, chunk)`` is then
    called on every chunk, so one walk of the law serves the caller too.
    """
    per_path, weights = _fold_actions(law, lagrangian, also)
    mean, se = weighted_mean_stderr(per_path, weights)
    return ActionEstimate(mean=mean, stderr=se, n_paths=law.n_paths, m=law.grid.m)


def _el_columns(ensemble: PathEnsemble, lagrangian: Lagrangian, steps):
    """Validate ``steps`` and yield ``(column, N_j)`` for each of them in time
    order, where ``column`` is the step's place in ``steps`` and
    ``N_j = grad_v L(t_j) - sum_{k<j} grad_x L(t_k) dt`` is an [n, d] array.
    ``grad_v`` is evaluated only at those steps and ``grad_x`` only before the
    last one."""
    n, m, d, dt = ensemble.n_paths, ensemble.grid.m, ensemble.dim, ensemble.grid.dt
    column = {j: c for c, j in enumerate(steps)}
    if len(column) != len(steps) or not all(0 <= j < m for j in column):
        raise ValueError("steps must be distinct step indices in [0, m)")
    last = max(column, default=-1)
    cum = np.zeros((n, d))
    for j in range(last + 1):
        t, x, v, a = j * dt, ensemble.states[:, j], ensemble.drift(j), ensemble.alpha(j)
        if j in column:
            yield column[j], (np.asarray(lagrangian.grad_v(t, x, v, a), dtype=np.float64)
                              - cum)
        if j < last:
            cum += np.asarray(lagrangian.grad_x(t, x, v, a), dtype=np.float64) * dt


def el_process(ensemble: PathEnsemble, lagrangian: Lagrangian,
               steps: Optional[Sequence[int]] = None) -> np.ndarray:
    """Sampled process N_j = grad_v L(t_j) - sum_{k<j} grad_x L(t_k) dt, [n, m, d].

    A law satisfies the Euler-Lagrange condition exactly when this process is
    a martingale; ``diagnostics.el_certify`` runs that test.  With ``steps``
    (distinct step indices in [0, m)) the result is [n, len(steps), d] and
    equals ``el_process(ensemble, lagrangian)[:, steps]``: ``grad_v`` is
    evaluated only at those steps and ``grad_x`` only before the last one.
    """
    n, m, d = ensemble.n_paths, ensemble.grid.m, ensemble.dim
    steps = range(m) if steps is None else [int(j) for j in steps]
    out = np.empty((n, len(steps), d))
    for c, col in _el_columns(ensemble, lagrangian, steps):
        out[:, c] = col
    return out

