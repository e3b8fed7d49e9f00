"""The discrete algebra of adapted shifts.

A shift is an absolutely continuous perturbation h = int hdot dt of every
path, with hdot adapted to the path filtration.  This module materializes
shifts along an ensemble and implements the constructive operators on them:
the block-delay operator ``delay_pn``, the endpoint operators ``endpoint_qn``
/ ``endpoint_rn`` (whose output vanishes at t = 1 on every path) and the
stop-and-recenter truncation ``stop_truncate`` and its norm ``stop_norm_sq``.

A materialized shift keeps the values of hdot on k equal blocks of the grid:
k = m for a general shift, k = n for the output of the block operators, which
is constant on each of their n blocks.  The norm ``h_norm_sq``, the distance
``h_dist_sq`` and ``terminal`` read the block values alone; the ``[n, m, d]``
``hdot`` and the integral ``h`` are built only when a caller reads them, and
no operator does.  The operators read h at the few grid steps they need (the
block edges, each path's stop) from one running sum over the block values,
added in ``np.cumsum``'s order, so those values carry the bits of ``h``.
Every ``[n, m, d]`` record here is stored time-major, as the path records
are, so the per-step walks read contiguous rows.

All operators are linear and act pathwise; the contraction inequalities they
satisfy are asserted per path in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .paths import PathEnsemble, _records, run_ranges

__all__ = [
    "AdaptedShift",
    "MaterializedShift",
    "GridCompatibilityError",
    "EndpointError",
    "materialize",
    "h_norm_sq",
    "h_dist_sq",
    "delay_pn",
    "endpoint_qn",
    "endpoint_rn",
    "stop_truncate",
    "stop_norm_sq",
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


def _rows(record: np.ndarray) -> np.ndarray:
    """The ``[m, n, d]`` step rows of an ``[n, m, d]`` record."""
    return record.transpose(1, 0, 2)


@dataclass(frozen=True)
class MaterializedShift:
    """A shift evaluated along one ensemble.

    values: [n, k, d], the derivative on each of k equal blocks of the m grid
    steps (k = m for a general shift).  hdot: [n, m, d] (``values`` itself
    when k = m) and h: [n, m+1, d], the cumulative integral with h[:, 0] = 0,
    are built on first read and kept, both time-major.  ``_edge_record`` is
    ``(stride, edges)``: h every ``stride`` steps, as the block operators
    last summed it (see :func:`_edges`).
    """

    values: np.ndarray
    ensemble: PathEnsemble
    name: str = ""
    _edge_record: Optional[tuple] = field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if self.ensemble.grid.m % self.values.shape[1]:
            raise GridCompatibilityError(f"{self.values.shape[1]} blocks do not divide "
                                         f"the grid's m={self.ensemble.grid.m}")

    @property
    def block(self) -> int:
        """Grid steps per block."""
        return self.ensemble.grid.m // self.values.shape[1]

    @cached_property
    def hdot(self) -> np.ndarray:
        if self.block == 1:
            return self.values
        return _rows(np.repeat(_rows(self.values), self.block, axis=0))

    @cached_property
    def h(self) -> np.ndarray:
        n, m, d = self.hdot.shape
        h = _records(n, m + 1, d)
        rows, hdot = _rows(h), _rows(self.hdot)

        def walk(lo, hi):
            # np.cumsum's order, one contiguous row at a time
            rows[0, lo:hi] = 0.0
            rows[1, lo:hi] = hdot[0, lo:hi]
            for j in range(1, m):
                np.add(rows[j, lo:hi], hdot[j, lo:hi], out=rows[j + 1, lo:hi])
            rows[1:, lo:hi] *= self.ensemble.grid.dt

        run_ranges(walk, n)
        return h

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    def terminal(self) -> np.ndarray:
        """h at t = 1, summed from the block values: no h is built."""
        return self.values.sum(axis=1) * (self.block * self.ensemble.grid.dt)


def materialize(shift: AdaptedShift, ensemble: PathEnsemble) -> MaterializedShift:
    """Evaluate a shift's derivative along every path prefix of the ensemble.

    The paths are walked in the block-aligned ranges of
    :func:`~actionlab.paths.run_ranges`, one per usable CPU; ``hdot`` is
    stored time-major, so each step's values are one contiguous row, and is
    bit-identical for any split.
    """
    n, m, d = ensemble.n_paths, ensemble.grid.m, ensemble.dim
    hdot = _records(n, m, d)

    def walk(lo, hi):
        states, out = ensemble.states[lo:hi], hdot[lo:hi]
        for j in range(m):
            out[:, j] = np.asarray(shift.derivative(j, states), dtype=np.float64)
        return np.isfinite(out).all()

    if not all(run_ranges(walk, n)):
        raise ValueError(f"shift '{shift.name}' produced non-finite derivative")
    return MaterializedShift(hdot, ensemble, shift.name)


def h_norm_sq(u: MaterializedShift) -> np.ndarray:
    """Pathwise squared Cameron-Martin norm: sum |hdot|^2 dt, shape [n],
    summed over the block values (the factor is exactly dt when k = m)."""
    return np.einsum("nkd,nkd->n", u.values, u.values) * (u.block * u.ensemble.grid.dt)


def h_dist_sq(u: MaterializedShift, v: MaterializedShift) -> np.ndarray:
    """Pathwise squared Cameron-Martin distance |u - v|_H^2, shape [n], of
    two shifts bound to the same ensemble (``ValueError`` otherwise), summed
    over the differences of their contiguous step rows (:func:`_step_rows`):
    neither ``hdot`` nor any ``[n, m, d]`` difference is built."""
    if u.ensemble is not v.ensemble:
        raise ValueError("shifts are bound to different ensembles")
    diff = np.empty((u.n_paths, u.dim))
    return _summed_sq((np.subtract(a, b, out=diff)
                       for a, b in zip(_step_rows(u), _step_rows(v))), u)


def _summed_sq(rows, u: MaterializedShift) -> np.ndarray:
    """sum |row|^2 dt over u's [n, d] step rows, shape [n], per coordinate first."""
    total, sq = np.zeros((u.n_paths, u.dim)), np.empty((u.n_paths, u.dim))
    for row in rows:
        np.multiply(row, row, out=sq)
        total += sq
    return total.sum(axis=1) * u.ensemble.grid.dt


def _step_rows(u: MaterializedShift):
    """Yield hdot's contiguous ``[n, d]`` row at each grid step.  A
    time-major record's rows are read in place; a path-major one's (the
    block operators' outputs) are copied into one buffer, once per block."""
    rows = _rows(u.values)
    if rows[0].flags.c_contiguous:
        for j in range(u.ensemble.grid.m):
            yield rows[j // u.block]
        return
    row = np.empty(rows.shape[1:])
    for j in range(u.ensemble.grid.m):
        if j % u.block == 0:
            np.copyto(row, rows[j // u.block])
        yield row


def _running_sums(u: MaterializedShift, lo: int, hi: int):
    """Yield ``(j, s)`` for j = 1 .. m: ``s`` is the sum of the first j steps
    of hdot on paths lo .. hi-1, added in ``np.cumsum``'s order into one
    reused ``[hi - lo, d]`` buffer, so ``s * dt`` has the bits of
    ``u.h[lo:hi, j]``."""
    rows = _rows(u.values)
    s = np.array(rows[0, lo:hi])
    yield 1, s
    for j in range(1, u.ensemble.grid.m):
        np.add(s, rows[j // u.block, lo:hi], out=s)
        yield j + 1, s


def _summed_edges(u: MaterializedShift, stride: int) -> np.ndarray:
    """h every ``stride`` grid steps, [paths, m // stride + 1, d], time-major,
    from the running sums of each range of :func:`~actionlab.paths.run_ranges`."""
    edges = _records(u.n_paths, u.ensemble.grid.m // stride + 1, u.dim)
    rows, dt = _rows(edges), u.ensemble.grid.dt
    rows[0] = 0.0

    def walk(lo, hi):
        for j, s in _running_sums(u, lo, hi):
            if j % stride == 0:
                np.multiply(s, dt, out=rows[j // stride, lo:hi])

    run_ranges(walk, u.n_paths)
    return edges


def _edges(u: MaterializedShift, n: int) -> np.ndarray:
    """h at the n + 1 edges of n equal blocks, [paths, n+1, d].

    One record of edges is kept on ``u``: a block count whose stride is a
    multiple of the kept stride is a slice of it, and any other sums the
    edges again at its own stride.  Asked finest first, a shift is summed
    once."""
    m = u.ensemble.grid.m
    if n < 3:
        raise GridCompatibilityError("block count n must be >= 3")
    if m % n != 0:
        raise GridCompatibilityError(f"grid m={m} not divisible by n={n}")
    stride = m // n
    kept = u._edge_record
    if kept is None or stride % kept[0]:
        kept = (stride, _summed_edges(u, stride))
        object.__setattr__(u, "_edge_record", kept)
    every, edges = kept
    return edges[:, ::stride // every]


def delay_pn(u: MaterializedShift, n: int) -> MaterializedShift:
    """Block-delay operator: on [k/n, (k+1)/n) for k = 2..n-1 the derivative
    is n * (u_{(k-1)/n} - u_{(k-2)/n}); zero on [0, 2/n)."""
    h = _edges(u, n)
    values = np.zeros((u.n_paths, n, u.dim))
    np.subtract(h[:, 1:-2], h[:, :-3], out=values[:, 2:])
    values[:, 2:] *= n
    return MaterializedShift(values, u.ensemble, f"p{n}({u.name})")


def endpoint_qn(u: MaterializedShift, n: int) -> MaterializedShift:
    """Endpoint carrier: derivative n * u_{1-2/n} on [1-1/n, 1], zero before."""
    values = np.zeros((u.n_paths, n, u.dim))
    values[:, -1] = n * _edges(u, n)[:, -3]
    return MaterializedShift(values, u.ensemble, f"q{n}({u.name})")


def endpoint_rn(u: MaterializedShift, n: int) -> MaterializedShift:
    """p_n - q_n; terminal value vanishes on every path (telescoping).

    q_n is zero before the last block, so it is subtracted there only."""
    values = delay_pn(u, n).values
    values[:, -1] -= n * _edges(u, n)[:, -3]
    return MaterializedShift(values, u.ensemble, f"r{n}({u.name})")


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
    values = _records(u.n_paths, u.ensemble.grid.m, u.dim)
    for j, row in enumerate(_stop_rows(u, level, stop_steps)):
        _rows(values)[j] = row
    return MaterializedShift(values, u.ensemble, f"k[{u.name}]")


def stop_norm_sq(u: MaterializedShift, level: float) -> np.ndarray:
    """``h_norm_sq(stop_truncate(u, level))``, shape [n], summed over the
    truncation's step rows: no ``[n, m, d]`` record (the same bits at d = 1)."""
    return _summed_sq(_stop_rows(u, level), u)


def _stop_rows(u: MaterializedShift, level: float,
               stop_steps: Optional[np.ndarray] = None):
    """Yield k[u]'s ``[n, d]`` row at each grid step: hdot before each
    path's stop, -u_tau / (1 - tau) from it on (0 if it never stops)."""
    if level <= 0:
        raise ValueError("level must be positive")
    if not np.max(np.abs(u.terminal())) <= ENDPOINT_TOL:
        raise EndpointError("the stop requires an endpoint-zero shift")
    n, m, dt = u.n_paths, u.ensemble.grid.m, u.ensemble.grid.dt
    if stop_steps is not None:
        stop_steps = np.asarray(stop_steps, dtype=int)
        if stop_steps.shape != (n,) or (stop_steps < 1).any() or (stop_steps > m).any():
            raise ValueError("stop_steps must be per-path indices in [1, m]")
    jstar, u_tau = _stop_walk(u, level, stop_steps)       # h at the stop time
    denom = np.where(jstar < m, 1.0 - jstar * dt, 1.0)
    recenter = np.where((jstar < m)[:, None], -u_tau / denom[:, None], 0.0)
    for j, row in enumerate(_step_rows(u)):
        yield np.where((j >= jstar)[:, None], recenter, row)


def _stop_walk(u: MaterializedShift, level: float,
               steps: Optional[np.ndarray] = None) -> tuple:
    """Each path's stop step, [n], and h there, [n, d], from one walk.

    Each range of :func:`~actionlab.paths.run_ranges` walks the steps in time
    order and carries the running h of :func:`_running_sums`.  Given
    ``steps``, it keeps h at them.  Otherwise it also carries the running sum
    of |hdot_j|^2 dt: the norm at index 0 is zero and never exceeds a
    positive level, so index j + 1 is the first whose sum, up to step j,
    exceeds ``level ** 2``, and the path keeps h there (m and zero if it
    never does).  A path's h is copied under a mask true at its stop alone:
    a sparse mask copies fast."""
    dt, m = u.ensemble.grid.dt, u.ensemble.grid.m
    given = steps is not None
    if not given:
        steps = np.full(u.n_paths, m, dtype=np.intp)
    u_tau = np.zeros((u.n_paths, u.dim))
    values = _rows(u.values)

    def walk(lo, hi):
        out, tau, running = steps[lo:hi], u_tau[lo:hi], np.zeros(hi - lo)
        for j, s in _running_sums(u, lo, hi):
            if given:
                hit = out == j
            else:
                row = values[(j - 1) // u.block, lo:hi]
                running += np.einsum("nd,nd->n", row, row) * dt
                hit = (out == m) & (running > level ** 2)
                out[hit] = j
            np.copyto(tau, s, where=hit[:, None])

    run_ranges(walk, u.n_paths)
    u_tau *= dt
    return steps, u_tau


def stop_steps_for(u: MaterializedShift, level: float) -> np.ndarray:
    """First grid index where the running H-norm exceeds ``level`` (m if
    never), walked as :func:`_stop_walk` walks it."""
    return _stop_walk(u, level)[0]
