"""Constructors of laws that are critical points of the kinetic action:
entropic bridges fitted by iterative proportional fitting, coupled
forward-backward simulation, and a decaying two-dimensional vortex flow.

The bridge solver works on a one-dimensional lattice: the endpoint coupling
of the Brownian reference is rescaled in the log domain until the marginals
match, the terminal potential is propagated backward through the one-step
heat kernel (so discrete space-time harmonicity holds exactly by
construction), and the drift field is the central-difference log-gradient of
that propagated function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.random import Generator

from .paths import (NOISE_BLOCK, PathEnsemble, SemimartingaleModel, TimeGrid, _fold_chunks,
                    _freeze, _records, _views, path_streams, run_ranges)

__all__ = [
    "BridgeProblem",
    "BridgeSolution",
    "ConvergenceError",
    "KernelUnderflowError",
    "UnsupportedSpecError",
    "gaussian_marginal",
    "delta_marginal",
    "reference_terminal",
    "sinkhorn_bridge",
    "bridge_to_model",
    "FbsdeSpec",
    "FbsdeResult",
    "FbsdeRecipe",
    "fbsde_simulate",
    "taylor_green_velocity",
    "taylor_green_pressure",
    "taylor_green_model",
    "navier_stokes_residual",
]

NS_SPACE, NS_TIME = 50, 10   # the navier_stokes_residual grid: points per axis, times


class ConvergenceError(RuntimeError):
    """Iterative proportional fitting did not reach tolerance."""


class KernelUnderflowError(RuntimeError):
    """Full-interval heat kernel underflows; shrink the lattice."""


class UnsupportedSpecError(ValueError):
    """Requested variant is outside the supported model class."""


@dataclass(frozen=True)
class BridgeProblem:
    """Initial and final marginals as histograms on a uniform 1-d lattice."""

    p0: np.ndarray
    p1: np.ndarray
    x_min: float = -6.0
    x_max: float = 6.0

    def __post_init__(self):
        for name, p in (("p0", self.p0), ("p1", self.p1)):
            p = np.asarray(p, dtype=np.float64)
            if (p < 0).any() or not np.isfinite(p).all():
                raise ValueError(f"{name} must be finite and nonnegative")
            if abs(p.sum() - 1.0) > 1e-12:
                raise ValueError(f"{name} mass must be 1 within 1e-12")
        if self.p0.shape != self.p1.shape:
            raise ValueError("marginals must share the lattice")

    @property
    def n_cells(self) -> int:
        return self.p0.shape[0]

    @property
    def centers(self) -> np.ndarray:
        dx = (self.x_max - self.x_min) / self.n_cells
        return self.x_min + dx * (np.arange(self.n_cells) + 0.5)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells


def _normalized(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    return p / p.sum()


def _ndtr(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise, as ``0.5 * erfc(-z / sqrt 2)``."""
    z = np.asarray(z, dtype=np.float64)
    cdf = [0.5 * math.erfc(-x / math.sqrt(2.0)) for x in z.ravel().tolist()]
    return np.array(cdf).reshape(z.shape)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(a)))`` along ``axis``, shifted by the maximum; a slice
    that is all ``-inf`` gives ``-inf``."""
    top = np.max(a, axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - top), axis=axis)) + np.squeeze(top, axis=axis)


def gaussian_marginal(mean: float, var: float, x_min: float = -6.0,
                      x_max: float = 6.0, n_cells: int = 481) -> np.ndarray:
    """Cell-integrated Gaussian masses, renormalized to total one."""
    dx = (x_max - x_min) / n_cells
    edges = x_min + dx * np.arange(n_cells + 1)
    z = (edges - mean) / np.sqrt(var)
    cdf = _ndtr(z)
    return _normalized(cdf[1:] - cdf[:-1])


def delta_marginal(at: float = 0.0, x_min: float = -6.0, x_max: float = 6.0,
                   n_cells: int = 481) -> np.ndarray:
    """Point mass on the lattice cell containing ``at``, which must lie in
    [x_min, x_max]."""
    if not x_min <= at <= x_max:
        raise ValueError(f"point mass at {at} lies outside the lattice "
                         f"[{x_min}, {x_max}]")
    dx = (x_max - x_min) / n_cells
    idx = min(int((at - x_min) / dx), n_cells - 1)
    p = np.zeros(n_cells)
    p[idx] = 1.0
    return p


def _cell_kernel(centers: np.ndarray, dx: float, tau: float) -> np.ndarray:
    """Row-stochastic heat transition between lattice cells over time tau.

    The mass moved from cell i to cell j depends only on the offset
    |i - j|, so it is computed once per offset, on the lower Gaussian tail
    (by symmetry): far cells keep their tiny but strictly positive
    probabilities instead of rounding to 1 - 1 = 0.
    """
    size = len(centers)
    tail = _ndtr(-(np.arange(size + 1) - 0.5) * (dx / np.sqrt(tau)))
    offset = np.arange(size)
    k = (tail[:-1] - tail[1:])[np.abs(offset[None, :] - offset[:, None])]
    rows = k.sum(axis=1, keepdims=True)
    return k / rows


def reference_terminal(problem: BridgeProblem) -> np.ndarray:
    """Terminal marginal of the Brownian reference started from p0."""
    k01 = _cell_kernel(problem.centers, problem.dx, 1.0)
    return _normalized(problem.p0 @ k01)


@dataclass
class BridgeSolution:
    problem: BridgeProblem
    grid: TimeGrid
    log_f: np.ndarray            # row potential on the lattice (log domain)
    log_g: np.ndarray            # column potential (log domain)
    h: np.ndarray                # [m+1, L] backward space-time-harmonic function
    drift_field: np.ndarray      # [m, L] log-gradient of h
    entropy: float               # KL of the fitted coupling w.r.t. the reference
    marginal_error: float        # total-variation misfit at convergence
    error_history: np.ndarray
    iterations: int


def sinkhorn_bridge(problem: BridgeProblem, grid: TimeGrid, tol: float = 1e-9,
                    max_iter: int = 10_000) -> BridgeSolution:
    """Fit the endpoint coupling by iterative proportional fitting.

    Runs in the log domain on log pi_ij = f_i + log p0_i + log K_ij + g_j.
    After convergence the terminal potential exp(g) is propagated backward by
    the one-step kernel to all grid times; the drift field is the central
    difference of log h on the lattice.
    """
    centers, dx = problem.centers, problem.dx
    k01 = _cell_kernel(centers, dx, 1.0)
    if k01.min() <= 0.0:
        raise KernelUnderflowError("full-interval kernel underflows; lattice too wide")
    logk = np.log(k01)
    with np.errstate(divide="ignore"):
        logp0 = np.log(problem.p0)
        logp1 = np.log(problem.p1)
    sup0 = problem.p0 > 0
    sup1 = problem.p1 > 0

    log_f = np.zeros(problem.n_cells)
    log_g = np.where(sup1, 0.0, -np.inf)
    history = []
    it = 0
    err = np.inf
    base = np.where(sup0, logp0, -np.inf)
    for it in range(1, max_iter + 1):
        # row fit (exact), then measure the column misfit before fitting it
        log_f = np.where(sup0, -_logsumexp(logk + log_g[None, :], axis=1), -np.inf)
        log_denom = _logsumexp((base + log_f)[:, None] + logk, axis=0)
        col = np.exp(log_g + log_denom)
        err = 0.5 * np.abs(col - problem.p1).sum()
        history.append(err)
        if err < tol:
            break
        log_g = np.where(sup1, logp1 - log_denom, -np.inf)
    else:
        raise ConvergenceError(
            f"marginal TV error {err:.3e} after {max_iter} iterations (tol {tol:.1e})")

    # coupling entropy relative to the reference: E_pi[f + g]
    with np.errstate(invalid="ignore"):
        logpi = (logp0 + log_f)[:, None] + logk + log_g[None, :]
    pi = np.exp(logpi)
    entropy = float(np.sum(pi * np.where(pi > 0, (log_f[:, None] + log_g[None, :]), 0.0)))

    kstep = _cell_kernel(centers, dx, grid.dt)
    h = np.empty((grid.m + 1, problem.n_cells))
    h[grid.m] = np.exp(log_g)
    for j in range(grid.m - 1, -1, -1):
        h[j] = kstep @ h[j + 1]

    logh = np.where(h[:-1] > 0, np.log(np.where(h[:-1] > 0, h[:-1], 1.0)), -np.inf)
    ok = np.isfinite(logh)
    drift = np.empty((grid.m, problem.n_cells))
    with np.errstate(invalid="ignore"):
        drift[:, 1:-1] = np.where(ok[:, 2:] & ok[:, :-2],
                                  (logh[:, 2:] - logh[:, :-2]) / (2 * dx), 0.0)
        drift[:, 0] = np.where(ok[:, 0] & ok[:, 1], (logh[:, 1] - logh[:, 0]) / dx, 0.0)
        drift[:, -1] = np.where(ok[:, -1] & ok[:, -2], (logh[:, -1] - logh[:, -2]) / dx, 0.0)
    return BridgeSolution(problem=problem, grid=grid, log_f=log_f, log_g=log_g,
                          h=h, drift_field=drift, entropy=entropy,
                          marginal_error=float(err),
                          error_history=np.array(history), iterations=it)


class _FieldDrift:
    """Linear lookup of a lattice drift field; clamps and counts excursions.

    A query is clipped to the lattice ``[c_0, c_L]``, and its cell is
    ``floor((x - c_0) / dx)``, capped at ``L`` and moved one cell down or up
    where rounding put it off by one (``c_{L+1} = +inf``).  The value is
    ``slope_k (x - c_k) + f_k``, with a zero slope past the last center, and
    has ``np.interp``'s bits: at ``x = c_k`` the product is a zero, and the
    sum is ``f_k`` because the field never holds ``-0.0`` (it is made of
    differences of logarithms and ``+0.0`` fills).  Pool workers query it at
    once and ``+=`` on a shared int can lose updates, so each count goes to a
    list (``append`` is atomic under the GIL)."""

    def __init__(self, solution: BridgeSolution):
        c = solution.problem.centers
        self.c0, self.cl, self.dx, self.last = c[0], c[-1], solution.problem.dx, len(c) - 1
        self.centers = np.append(c, np.inf)
        self.field = solution.drift_field
        slopes = np.diff(self.field, axis=1) / np.diff(c)
        self.slopes = np.concatenate([slopes, np.zeros((len(slopes), 1))], axis=1)
        self._clamps = []

    @property
    def clamped(self) -> int:
        return sum(self._clamps)

    def __call__(self, j: int, prefix: np.ndarray) -> np.ndarray:
        x = prefix[:, j, 0]
        out_of_range = np.count_nonzero(x < self.c0) + np.count_nonzero(x > self.cl)
        if out_of_range:
            self._clamps.append(int(out_of_range))
        c = self.centers
        x = np.clip(x, self.c0, self.cl)
        k = np.minimum(((x - self.c0) / self.dx).astype(np.intp), self.last)
        k -= x < c.take(k)
        k += x >= c.take(k + 1)
        return (self.slopes[j].take(k) * (x - c.take(k)) + self.field[j].take(k))[:, None]


def bridge_to_model(solution: BridgeSolution):
    """Unit-diffusion model whose drift interpolates the fitted field.

    The initial sampler draws lattice atoms from p0.  Returns
    ``(model, drift_holder)``; the holder exposes ``clamped``, the count of
    drift queries outside the lattice (clamped to the boundary cells).
    """
    cdf = np.cumsum(solution.problem.p0)
    atoms = solution.problem.centers[:, None]
    holder = _FieldDrift(solution)

    def initial_sampler(rng: Generator, size: int) -> np.ndarray:
        k = np.searchsorted(cdf, rng.random(size), side="right")
        return atoms[np.minimum(k, len(atoms) - 1)]

    model = SemimartingaleModel(name="sinkhorn_bridge", dim=1,
                                initial_sampler=initial_sampler,
                                drift=holder, diffusion_factor=None)
    return model, holder


# -- coupled forward-backward simulation --------------------------------------

@dataclass(frozen=True)
class FbsdeSpec:
    """Coupled system dX = sigma dB + Y dt, dY = dZ - grad V(t, X) dt.

    In the adapted variant Y_0 = y0_fn(X_0) and Z is constant, so Y is a
    functional of the X prefix and the drift records are Y itself.  ``y0_fn``
    is called once per noise block on its ``[k, d]`` initial points and must
    act row by row: it returns their ``[k, d]`` Y_0 rows, or one ``[d]`` row
    that every path takes.  In the filtering variant Y_0 is Gaussian and
    independent of X; the drift records are the exact linear-Gaussian
    posterior means E[Y_j | X prefix], which requires
    grad V(t, x) = curvature * x (scalar, d = 1).
    """

    dim: int
    grad_potential: Callable           # (t, x[n,d]) -> [n,d]
    y0_fn: Optional[Callable] = None   # adapted variant: g(x0[k,d]) -> [k,d]
    y0_gaussian: Optional[Tuple[float, float]] = None  # filtering: (mean, var)
    z_mode: str = "constant"           # "constant" | "independent_brownian"
    sigma: Optional[np.ndarray] = None  # constant factor, None = identity
    curvature: Optional[float] = None  # grad V = curvature * x when linear
    initial_sampler: Optional[Callable] = None  # (block gen, size) -> [size, d]


@dataclass(frozen=True)
class FbsdeResult:
    ensemble: PathEnsemble
    posterior_var: Optional[np.ndarray] = None  # [m] filtering variance P_j


def _fbsde_range(law: "FbsdeRecipe", lo: int, states: np.ndarray, drifts: np.ndarray,
                 znoise: Optional[np.ndarray]) -> None:
    """Initial points, ``Y_0``, noise records and coupled Euler steps of the
    law's paths ``lo .. lo + k - 1``, written into their own ``[k, ...]``
    records.  ``drifts`` and ``znoise`` (``None`` unless Z is an independent
    Brownian motion) first take the block normals scaled by sqrt(dt), and
    step ``j`` reads its increments before it writes its drift.  Every
    update acts row by row, so a path has the same bits in any range."""
    spec, n, m, d = law.spec, states.shape[0], law.grid.m, law.dim
    dt, sqdt, sigma, gains = law.grid.dt, np.sqrt(law.grid.dt), law.sigma, law._filter[1]
    x, y = states[:, 0], np.empty((n, d))
    noise = [drifts] if znoise is None else [drifts, znoise]
    for g, paths, cols in path_streams(law.seed, lo, lo + n, noise, sqdt):
        if spec.initial_sampler is not None:
            x0 = np.asarray(spec.initial_sampler(g, NOISE_BLOCK), dtype=np.float64)
            x[paths] = x0[cols]
        else:
            x[paths] = 0.0
        if gains is None:
            y[paths] = spec.y0_fn(x[paths])
        else:
            mu, var = spec.y0_gaussian
            y[paths] = (mu + np.sqrt(var) * g.standard_normal((NOISE_BLOCK, d)))[cols]
    if gains is not None:
        mean = np.full(n, spec.y0_gaussian[0])
    for j in range(m):
        dx = y * dt + drifts[:, j] @ sigma.T
        if gains is None:
            drifts[:, j] = y
        else:
            drifts[:, j, 0] = mean
        np.add(states[:, j], dx, out=states[:, j + 1])
        if gains is not None:
            mean = mean + gains[j] * (dx[:, 0] - mean * dt)
            mean = mean - spec.curvature * states[:, j, 0] * dt
        gv = np.asarray(spec.grad_potential(j * dt, states[:, j]), dtype=np.float64)
        y = y - gv * dt
        if znoise is not None:
            y = y + znoise[:, j]


@dataclass(frozen=True)
class FbsdeRecipe:
    """The coupled Euler scheme's law of the forward-backward system, given
    by how it is made: ``n_paths`` paths of ``spec`` on ``grid`` from
    ``seed``, in ``threads`` ranges (one per usable CPU when ``None``), read
    up to ``t_max``.

    The spec sets the variant: ``y0_fn`` alone means adapted, ``y0_gaussian``
    alone means filtering.  Initial points, filtering ``Y_0`` draws and noise
    come from the streams of :func:`~actionlab.paths.simulate`, and each
    block-aligned range runs its own Euler steps, so the spec's callables
    run concurrently on disjoint ranges and must act row by row.
    :meth:`build` holds the law whole, and :meth:`fold` walks it a chunk at
    a time, as ``LawRecipe.fold`` does; both give every path the same bits,
    for any split.  The ensembles are labelled ``fbsde_<variant>``.
    """

    spec: FbsdeSpec
    grid: TimeGrid
    n_paths: int
    seed: int
    threads: Optional[int] = None
    t_max: float = 1.0

    def __post_init__(self):
        spec = self.spec
        if not 0.0 < self.t_max <= 1.0:
            raise ValueError("t_max must lie in (0, 1]")
        if (spec.y0_fn is None) == (spec.y0_gaussian is None):
            raise UnsupportedSpecError(
                "spec needs exactly one of y0_fn (adapted) and y0_gaussian (filtering)")
        if self.variant == "adapted":
            if spec.z_mode != "constant":
                raise UnsupportedSpecError(
                    "adapted variant requires a constant martingale component")
        else:
            if spec.curvature is None:
                raise UnsupportedSpecError(
                    "filtering variant supports only linear grad V (quadratic potential)")
            if spec.dim != 1:
                raise UnsupportedSpecError("filtering variant is scalar (d = 1)")

    @property
    def variant(self) -> str:
        return "adapted" if self.spec.y0_fn is not None else "filtering"

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def sigma(self) -> np.ndarray:
        """The constant ``[d, d]`` diffusion factor."""
        spec = self.spec
        return np.eye(spec.dim) if spec.sigma is None else np.asarray(spec.sigma, dtype=np.float64)

    @cached_property
    def _filter(self):
        """The filtering variance ``P_j`` ([m]) and the Kalman gain of each
        step, one scalar recursion; ``(None, None)`` for the adapted variant."""
        if self.variant == "adapted":
            return None, None
        m, dt = self.grid.m, self.grid.dt
        pvar, s2 = float(self.spec.y0_gaussian[1]), float(self.sigma[0, 0] ** 2)
        qvar = 1.0 if self.spec.z_mode == "independent_brownian" else 0.0
        post_var, gains = np.empty(m), []
        for j in range(m):
            post_var[j] = pvar
            gains.append(pvar * dt / (pvar * dt * dt + s2 * dt))
            pvar = pvar * s2 / (pvar * dt + s2)
            pvar = pvar + qvar * dt
        return post_var, gains

    @property
    def posterior_var(self) -> Optional[np.ndarray]:
        """The filtering variance ``P_j`` of each step, [m], or ``None``."""
        return self._filter[0]

    def _allocate(self, n: int) -> list:
        """Empty ``[states, drifts, znoise]`` records of ``n`` paths."""
        m, d = self.grid.m, self.dim
        znoise = _records(n, m, d) if self.spec.z_mode == "independent_brownian" else None
        return [_records(n, m + 1, d), _records(n, m, d), znoise]

    def _ensemble(self, states, drifts, _znoise) -> PathEnsemble:
        n, m, d = states.shape[0], self.grid.m, self.dim
        return PathEnsemble(grid=self.grid, states=states, drifts=drifts,
                            diffusions=np.broadcast_to(self.sigma, (n, m, d, d)),
                            label=f"fbsde_{self.variant}", t_max=self.t_max)

    def build(self) -> PathEnsemble:
        """The law's ensemble, its states and drifts time-major and read-only."""
        records = self._allocate(self.n_paths)
        run_ranges(lambda lo, hi: _fbsde_range(self, lo, *_views(records, lo, hi)),
                   self.n_paths, self.threads)
        _freeze(*records[:2])
        return self._ensemble(*records)

    def fold(self, consume: Callable[[int, PathEnsemble], None]) -> None:
        """Call ``consume(lo, chunk)`` on the chunks of
        :func:`~actionlab.paths._fold_chunks`, each the ensemble of paths
        ``lo .. lo + chunk.n_paths - 1``; the law has no weights."""
        m, d = self.grid.m, self.dim
        per_path = 8 * d * ((m + 1) + m * (1 + (self.spec.z_mode == "independent_brownian")))
        _fold_chunks(self.n_paths, self.threads, per_path, self._allocate,
                     lambda c, views: _fbsde_range(self, c, *views),
                     lambda views: self._ensemble(*views), consume)


def fbsde_simulate(spec: FbsdeSpec, grid: TimeGrid, n_paths: int,
                   seed: int, threads: Optional[int] = None) -> FbsdeResult:
    """The :class:`FbsdeRecipe` law built, with the filtering variance
    ``P_j`` for the filtering variant; bit-identical for any split."""
    recipe = FbsdeRecipe(spec, grid, n_paths, seed, threads)
    return FbsdeResult(ensemble=recipe.build(), posterior_var=recipe.posterior_var)


# -- decaying vortex flow ------------------------------------------------------

def taylor_green_velocity(t, x: np.ndarray) -> np.ndarray:
    """Divergence-free velocity field with amplitude exp(-t)."""
    a = np.exp(-np.asarray(t, dtype=np.float64))
    u1 = a * np.sin(x[..., 0]) * np.cos(x[..., 1])
    u2 = -a * np.cos(x[..., 0]) * np.sin(x[..., 1])
    return np.stack([u1, u2], axis=-1)


def taylor_green_pressure(t, x: np.ndarray) -> np.ndarray:
    """Pressure paired with the vortex velocity (viscosity one half)."""
    a2 = np.exp(-2.0 * np.asarray(t, dtype=np.float64))
    return (a2 / 4.0) * (np.cos(2 * x[..., 0]) + np.cos(2 * x[..., 1]))


def taylor_green_pressure_gradient(t, x: np.ndarray) -> np.ndarray:
    a2 = np.exp(-2.0 * np.asarray(t, dtype=np.float64))
    g1 = -(a2 / 2.0) * np.sin(2 * x[..., 0])
    g2 = -(a2 / 2.0) * np.sin(2 * x[..., 1])
    return np.stack([g1, g2], axis=-1)


def navier_stokes_residual():
    """Pointwise momentum residual and divergence of the vortex pair.

    Evaluates d_t u + (u . grad)u + grad p - (1/2) lap u on a
    :data:`NS_SPACE` x :data:`NS_SPACE` x :data:`NS_TIME` space-time grid
    with every derivative written out explicitly; both returns should sit at
    rounding level for the implemented field.
    """
    xs = np.linspace(0.0, 2 * np.pi, NS_SPACE)
    ts = np.linspace(0.0, 1.0, NS_TIME)
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    worst_mom = 0.0
    worst_div = 0.0
    for t in ts:
        a = np.exp(-t)
        u1 = a * np.sin(xg) * np.cos(yg)
        u2 = -a * np.cos(xg) * np.sin(yg)
        dtu1, dtu2 = -u1, -u2
        du1x = a * np.cos(xg) * np.cos(yg)
        du1y = -a * np.sin(xg) * np.sin(yg)
        du2x = a * np.sin(xg) * np.sin(yg)
        du2y = -a * np.cos(xg) * np.cos(yg)
        lap_u1 = -2 * u1
        lap_u2 = -2 * u2
        a2 = np.exp(-2 * t)
        dpx = -(a2 / 2.0) * np.sin(2 * xg)
        dpy = -(a2 / 2.0) * np.sin(2 * yg)
        r1 = dtu1 + u1 * du1x + u2 * du1y + dpx - 0.5 * lap_u1
        r2 = dtu2 + u1 * du2x + u2 * du2y + dpy - 0.5 * lap_u2
        worst_mom = max(worst_mom, float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
        worst_div = max(worst_div, float(np.max(np.abs(du1x + du2y))))
    return worst_mom, worst_div


def taylor_green_model(grid: TimeGrid) -> SemimartingaleModel:
    """Unit-diffusion planar model with drift -u(1 - t, x), started uniformly
    on the periodic cell.  The matching potential for certification is
    p(1 - t, x), exposed in the Lagrangian registry."""
    dt = grid.dt

    def drift(j, prefix):
        return -taylor_green_velocity(1.0 - j * dt, prefix[:, j])

    def initial_sampler(rng: Generator, size: int) -> np.ndarray:
        return rng.random((size, 2)) * 2 * np.pi

    return SemimartingaleModel(name="taylor_green", dim=2,
                               initial_sampler=initial_sampler, drift=drift,
                               diffusion_factor=None)
