"""Named registries of laws, Lagrangians, shifts, maps, symmetry families
and forward-backward oscillators, shared by the CLI and the test suite.

Law builders have signature ``build(grid, n_paths, seed, threads=None, ...)``
and return a recipe: a :class:`~actionlab.paths.LawRecipe` for a law
:func:`~actionlab.paths.simulate` makes, and a
:class:`~actionlab.bridge.FbsdeRecipe` for a law the forward-backward scheme
makes.  :func:`build_law` materializes it, and its ``fold`` walks it chunk
by chunk.
``threads`` sets how many path ranges are simulated at once (one per usable
CPU when ``None``) and never changes a bit of the result.  Shift builders
take the grid first; everything else is a factory taking keyword
parameters.  Past those fixed arguments, every parameter named is read:
each registry entry is a plain function whose signature lists exactly the
settings it uses, with no ``**`` catch-all and none accepted and then
ignored.  Unknown names raise
``KeyError`` with the list of valid entries, and a keyword the builder does
not name raises ``TypeError`` before anything is simulated, so configuration
mistakes surface immediately.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import replace
from typing import Callable, Dict, Optional, Union

import numpy as np
from numpy.random import Generator

from . import bridge as _bridge
from .diagnostics import NoetherFamily
from .lagrangians import Lagrangian
from .paths import LawRecipe, PathEnsemble, SemimartingaleModel, TimeGrid
from .shifts import AdaptedShift
from .transform import SpaceTimeMap

__all__ = [
    "LAWS", "LAGRANGIANS", "SHIFTS", "MAPS", "FAMILIES", "OSCILLATORS",
    "get_lagrangian", "get_shift", "get_map", "get_family", "get_oscillator",
    "get_law", "build_law", "sinkhorn_bridge_law",
    "oscillator_adapted_spec", "oscillator_filtering_spec",
    "make_state_features", "make_test_feature_map", "point_sampler",
]


def _lookup(registry: Dict, kind: str, name: str):
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown {kind} '{name}'; registered: {known}") from None


# -- feature maps --------------------------------------------------------------

def make_state_features(degree: int = 2):
    """Prefix features at step j: 1, state coords, and second-order state
    monomials when degree >= 2."""

    def feature_map(ensemble: PathEnsemble, j: int):
        x = ensemble.states[:, j]
        n, d = x.shape
        feats = [np.ones(n)]
        names = ["1"]
        for k in range(d):
            feats.append(x[:, k])
            names.append(f"x{k}")
        if degree >= 2:
            for k in range(d):
                for l in range(k, d):
                    feats.append(x[:, k] * x[:, l])
                    names.append(f"x{k}*x{l}")
        return np.stack(feats, axis=1), names

    return feature_map


def make_test_feature_map(fns, names):
    """Feature map from explicit callables state -> column."""

    def feature_map(ensemble: PathEnsemble, j: int):
        x = ensemble.states[:, j]
        return np.stack([np.asarray(f(x), dtype=np.float64) for f in fns], axis=1), list(names)

    return feature_map


# -- initial samplers -----------------------------------------------------------

def point_sampler(x0):
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))

    def sampler(rng: Generator, size: int) -> np.ndarray:
        return np.broadcast_to(x0, (size, len(x0)))

    return sampler


# -- Lagrangians ----------------------------------------------------------------

def _kinetic():
    return Lagrangian(
        name="kinetic",
        value=lambda t, x, v, a: 0.5 * np.einsum("...d,...d->...", v, v),
        grad_x=lambda t, x, v, a: np.zeros_like(x),
        grad_v=lambda t, x, v, a: v,
        grad_a=lambda t, x, v, a: np.zeros_like(a))


def _kinetic_minus_potential(name, vfun, gfun):
    """Kinetic energy minus the potential ``vfun(t, x)`` with gradient ``gfun``."""
    return Lagrangian(
        name=name,
        value=lambda t, x, v, a: 0.5 * np.einsum("...d,...d->...", v, v) - vfun(t, x),
        grad_x=lambda t, x, v, a: -gfun(t, x),
        grad_v=lambda t, x, v, a: v,
        grad_a=lambda t, x, v, a: np.zeros_like(a))


def _grad_x1_squared(t, x):
    g = np.zeros_like(x)
    g[..., 0] = 2.0 * x[..., 0]
    return g


def _kinetic_quadratic(k=1.0):
    return _kinetic_minus_potential(
        "kinetic_quadratic", lambda t, x: 0.5 * k * np.einsum("...d,...d->...", x, x),
        lambda t, x: k * x)


def _kinetic_x1sq():
    return _kinetic_minus_potential("kinetic_x1sq", lambda t, x: x[..., 0] ** 2,
                                    _grad_x1_squared)


def _kinetic_taylor_green():
    # time-reversed pressure of the vortex pair
    return _kinetic_minus_potential(
        "kinetic_taylor_green",
        lambda t, x: _bridge.taylor_green_pressure(1.0 - t, x),
        lambda t, x: _bridge.taylor_green_pressure_gradient(1.0 - t, x))


def _trace_alpha_kinetic():
    return Lagrangian(
        name="trace_alpha_kinetic",
        value=lambda t, x, v, a: np.trace(a, axis1=-2, axis2=-1)
        * np.einsum("...d,...d->...", v, v),
        grad_x=lambda t, x, v, a: np.zeros_like(x),
        grad_v=lambda t, x, v, a: 2.0 * np.trace(a, axis1=-2, axis2=-1)[..., None] * v,
        grad_a=lambda t, x, v, a: np.einsum("...d,...d->...", v, v)[..., None, None]
        * np.eye(a.shape[-1]))


LAGRANGIANS: Dict[str, Callable[..., Lagrangian]] = {
    "kinetic": _kinetic,
    "kinetic_quadratic": _kinetic_quadratic,
    "kinetic_x1sq": _kinetic_x1sq,
    "kinetic_taylor_green": _kinetic_taylor_green,
    "trace_alpha_kinetic": _trace_alpha_kinetic,
}


# -- laws -----------------------------------------------------------------------

def _law_brownian(grid, n_paths, seed, threads=None, dim=1, x0=0.0):
    model = SemimartingaleModel(
        name="brownian", dim=dim,
        initial_sampler=point_sampler(np.full(dim, x0)),
        drift=None, diffusion_factor=None)
    return LawRecipe(model, grid, n_paths, seed, threads=threads)


def _law_brownian_drift_t(grid, n_paths, seed, threads=None, dim=1):
    dt = grid.dt

    def drift(j, prefix):
        v = np.zeros((prefix.shape[0], dim))
        v[:, 0] = j * dt
        return v

    model = SemimartingaleModel(name="brownian_drift_t", dim=dim,
                                initial_sampler=point_sampler(np.zeros(dim)),
                                drift=drift, diffusion_factor=None)
    return LawRecipe(model, grid, n_paths, seed, threads=threads)


def _law_ornstein_uhlenbeck(grid, n_paths, seed, threads=None, dim=1, rate=1.0, x0=0.0):
    def drift(j, prefix):
        return -rate * prefix[:, j]

    model = SemimartingaleModel(name="ornstein_uhlenbeck", dim=dim,
                                initial_sampler=point_sampler(np.full(dim, x0)),
                                drift=drift, diffusion_factor=None)
    return LawRecipe(model, grid, n_paths, seed, threads=threads)


def _law_pinned_brownian(grid, n_paths, seed, threads=None, dim=1, x0=0.0, y=1.0):
    dt = grid.dt
    target = np.full(dim, y, dtype=np.float64)

    def drift(j, prefix):
        return (target - prefix[:, j]) / (1.0 - j * dt)

    model = SemimartingaleModel(name="pinned_brownian", dim=dim,
                                initial_sampler=point_sampler(np.full(dim, x0)),
                                drift=drift, diffusion_factor=None)
    return LawRecipe(model, grid, n_paths, seed, threads=threads,
                     t_max=1.0 - grid.dt)


def _anchor_index(grid: TimeGrid, anchor: float) -> int:
    if not 0.0 <= anchor < 1.0:
        raise ValueError(f"anchor must lie in [0, 1), got {anchor}")
    a = anchor * grid.m
    if abs(a - round(a)) > 1e-9:
        raise ValueError("anchor time must sit on the grid (anchor * m integer)")
    return int(round(a))


def _squared_increment_drift(x, x_anchor, t):
    d = x - x_anchor
    return 2.0 * d / (1.0 - t + d * d)


def _law_squared_increment(grid, n_paths, seed, threads=None, anchor=0.5):
    """Law absolutely continuous w.r.t. the Wiener measure with density
    proportional to the squared increment after the anchor time, realized as
    its non-Markovian SDE."""
    dt = grid.dt
    ja = _anchor_index(grid, anchor)

    def drift(j, prefix):
        if j < ja:
            return np.zeros((prefix.shape[0], 1))
        return _squared_increment_drift(prefix[:, j, 0], prefix[:, ja, 0],
                                        j * dt)[:, None]

    model = SemimartingaleModel(name="squared_increment", dim=1,
                                initial_sampler=point_sampler(np.zeros(1)),
                                drift=drift, diffusion_factor=None)
    return LawRecipe(model, grid, n_paths, seed, threads=threads)


def _law_squared_increment_weighted(grid, n_paths, seed, threads=None, anchor=0.5):
    """Same law represented by density weights on Wiener paths.  Its drift is
    the closed-form drift along those paths, a row function of the states
    that ``PathEnsemble.drift`` evaluates where a row is read, so the law
    holds one record, the Brownian base's states.  The finish step gives a
    run of paths that drift and its raw weights ``(x_1 - x_a)^2 / (1 - a)``."""
    ja = _anchor_index(grid, anchor)
    times, zero = grid.times, np.zeros(1)

    def drift(j, states):
        if times[j] < anchor:
            return np.broadcast_to(zero, (states.shape[0], 1))
        return _squared_increment_drift(states[:, j, 0], states[:, ja, 0],
                                        times[j])[:, None]

    def finish(ens):
        x = ens.states[:, :, 0]
        w = (x[:, -1] - x[:, ja]) ** 2 / (1.0 - anchor)
        return replace(ens, drifts=drift, weights=w, label="squared_increment_weighted")

    base = _law_brownian(grid, n_paths, seed, threads=threads, dim=1)
    return replace(base, finish=finish)


def sinkhorn_bridge_law(grid, n_paths, seed, threads=None, final_mean=0.0,
                        final_var=2.0, initial_at=0.0, x_min=-6.0, x_max=6.0,
                        n_cells=481, tol=1e-9, max_iter=10_000):
    """Entropic bridge from a point mass at ``initial_at`` to the Gaussian
    N(``final_mean``, ``final_var``), fitted on the lattice.

    Returns ``(law, solution, holder)``: the recipe of the paths, the fitted
    :class:`~actionlab.bridge.BridgeSolution` and the drift holder whose
    ``clamped`` counts the drift queries outside the lattice of every
    simulation of the recipe.
    """
    p0 = _bridge.delta_marginal(initial_at, x_min, x_max, n_cells)
    p1 = _bridge.gaussian_marginal(final_mean, final_var, x_min, x_max, n_cells)
    problem = _bridge.BridgeProblem(p0=p0, p1=p1, x_min=x_min, x_max=x_max)
    solution = _bridge.sinkhorn_bridge(problem, grid, tol=tol, max_iter=max_iter)
    model, holder = _bridge.bridge_to_model(solution)
    return LawRecipe(model, grid, n_paths, seed, threads=threads), solution, holder


@functools.wraps(sinkhorn_bridge_law, assigned=())
def _law_sinkhorn_bridge(*args, **kwargs):
    """The recipe of :func:`sinkhorn_bridge_law`, whose signature this law has."""
    return sinkhorn_bridge_law(*args, **kwargs)[0]


def oscillator_adapted_spec(dim=1, curvature=1.0, x0=1.0, y0=0.0,
                            sigma_scale=1.0) -> _bridge.FbsdeSpec:
    """The forward-backward oscillator dX = sigma dB + Y dt,
    dY = dZ - curvature X dt, with X_0 = ``x0``, Y_0 = ``y0`` and
    sigma = ``sigma_scale`` * I in ``dim`` dimensions."""
    k, y0 = float(curvature), np.broadcast_to(y0, dim)
    return _bridge.FbsdeSpec(dim=dim, grad_potential=lambda t, x: k * x,
                             y0_fn=lambda x_init: y0,
                             sigma=float(sigma_scale) * np.eye(dim),
                             initial_sampler=point_sampler(np.broadcast_to(x0, dim)))


def oscillator_filtering_spec(curvature=1.0, x0=1.0, y0_mean=0.0,
                              y0_var=1.0) -> _bridge.FbsdeSpec:
    """The scalar oscillator of :func:`oscillator_adapted_spec` with unit
    sigma and Y_0 ~ N(``y0_mean``, ``y0_var``) drawn independent of X."""
    k = float(curvature)
    return _bridge.FbsdeSpec(dim=1, grad_potential=lambda t, x: k * x,
                             y0_gaussian=(float(y0_mean), float(y0_var)),
                             curvature=k, initial_sampler=point_sampler(x0))


OSCILLATORS: Dict[str, Callable[..., _bridge.FbsdeSpec]] = {
    "adapted": oscillator_adapted_spec,
    "filtering": oscillator_filtering_spec,
}


def _law_oscillator_adapted(grid, n_paths, seed, threads=None, dim=1,
                            curvature=1.0, x0=1.0, y0=0.0, sigma_scale=1.0):
    spec = oscillator_adapted_spec(dim, curvature, x0, y0, sigma_scale)
    return _bridge.FbsdeRecipe(spec, grid, n_paths, seed, threads=threads)


def _law_oscillator_nonradial(grid, n_paths, seed, threads=None, x0=(1.0, 0.0),
                              y0=0.0, sigma_scale=1.0):
    """Planar adapted oscillator in the potential x1^2 in place of the
    quadratic, which breaks the rotation symmetry."""
    spec = replace(oscillator_adapted_spec(2, 1.0, x0, y0, sigma_scale),
                   grad_potential=_grad_x1_squared)
    return _bridge.FbsdeRecipe(spec, grid, n_paths, seed, threads=threads)


def _law_oscillator_filtering(grid, n_paths, seed, threads=None, curvature=1.0,
                              x0=0.0, y0_mean=0.0, y0_var=1.0):
    spec = oscillator_filtering_spec(curvature, x0, y0_mean, y0_var)
    return _bridge.FbsdeRecipe(spec, grid, n_paths, seed, threads=threads)


def _law_classical_oscillator(grid, n_paths, seed, threads=None):
    """Deterministic harmonic oscillator (zero diffusion): the classical
    Euler-Lagrange solution embedded as a point law."""
    return _law_oscillator_adapted(grid, n_paths, seed, threads=threads, dim=1,
                                   x0=0.0, y0=1.0, sigma_scale=0.0)


def _law_taylor_green(grid, n_paths, seed, threads=None):
    model = _bridge.taylor_green_model(grid)
    return LawRecipe(model, grid, n_paths, seed, threads=threads)


Recipe = Union[LawRecipe, _bridge.FbsdeRecipe]

LAWS: Dict[str, Callable[..., Recipe]] = {
    "brownian": _law_brownian,
    "brownian_drift_t": _law_brownian_drift_t,
    "ornstein_uhlenbeck": _law_ornstein_uhlenbeck,
    "pinned_brownian": _law_pinned_brownian,
    "squared_increment": _law_squared_increment,
    "squared_increment_weighted": _law_squared_increment_weighted,
    "sinkhorn_bridge": _law_sinkhorn_bridge,
    "oscillator_adapted": _law_oscillator_adapted,
    "oscillator_nonradial": _law_oscillator_nonradial,
    "oscillator_filtering": _law_oscillator_filtering,
    "classical_oscillator": _law_classical_oscillator,
    "taylor_green": _law_taylor_green,
}


# -- shifts ---------------------------------------------------------------------

def _shift_constant(grid, coord=0, scale=1.0, dim=1):
    vec = np.zeros(dim)
    vec[coord] = scale

    def derivative(j, states):
        return np.broadcast_to(vec, (states.shape[0], dim))

    return AdaptedShift(name=f"constant[{coord}]", derivative=derivative)


def _shift_state(grid):
    def derivative(j, states):
        return states[:, j]

    return AdaptedShift(name="state", derivative=derivative)


def _shift_tanh_state(grid, scale=1.0):
    def derivative(j, states):
        return np.tanh(scale * states[:, j])

    return AdaptedShift(name="tanh_state", derivative=derivative)


def make_plus_minus_shift(grid: TimeGrid, coord=0, scale=1.0, dim=1, split=0.5):
    vec = np.zeros(dim)
    vec[coord] = scale
    j_split = int(round(split * grid.m))

    def derivative(j, states):
        sgn = 1.0 if j < j_split else -1.0
        return np.broadcast_to(sgn * vec, (states.shape[0], dim))

    return AdaptedShift(name=f"plus_minus[{coord}]", derivative=derivative)


def _wave_shift(fn, kind, grid, k, coord, dim, scale):
    vec = np.zeros(dim)
    vec[coord] = scale

    def derivative(j, states):
        return np.broadcast_to(fn(2 * np.pi * k * j * grid.dt) * vec,
                               (states.shape[0], dim))

    return AdaptedShift(name=f"{kind}{k}[{coord}]", derivative=derivative)


def _shift_sine(grid, k=1, coord=0, dim=1, scale=1.0):
    return _wave_shift(np.sin, "sine", grid, k, coord, dim, scale)


def _shift_cosine(grid, k=1, coord=0, dim=1, scale=1.0):
    return _wave_shift(np.cos, "cosine", grid, k, coord, dim, scale)


def _envelope(kind, x):
    """Bounded state envelope of a random shift term: 1, tanh(x0) or sin(x0)."""
    if kind == 0:
        return np.ones(x.shape[0])
    if kind == 1:
        return np.tanh(x[:, 0])
    return np.sin(x[:, 0])


def make_random_shift(grid: TimeGrid, seed: int, dim=1):
    """Randomized adapted shift: trigonometric time profiles times bounded
    state envelopes, with coefficients drawn from the given seed."""
    rng = np.random.default_rng(seed)
    n_terms = 3
    amps = rng.uniform(0.3, 1.0, size=n_terms)
    freqs = rng.integers(1, 5, size=n_terms)
    phases = rng.uniform(0, 2 * np.pi, size=n_terms)
    kinds = rng.integers(0, 3, size=n_terms)

    def derivative(j, states):
        t = j * grid.dt
        x = states[:, j]
        out = np.zeros((states.shape[0], dim))
        for a, f, ph, kind in zip(amps, freqs, phases, kinds):
            out[:, 0] += a * np.cos(2 * np.pi * f * t + ph) * _envelope(kind, x)
        return out

    return AdaptedShift(name=f"random[{seed}]", derivative=derivative)


def make_random_endpoint_zero_shift(grid: TimeGrid, seed: int, dim=1):
    """Randomized adapted shift that vanishes pathwise at t = 1.

    Each term freezes a bounded state envelope at a grid time s and rides a
    full-period wave on [s, 1]; the wave sums to zero over its own sub-grid,
    so the terminal value cancels exactly on every path while the derivative
    before s is zero and after s depends only on the frozen prefix value.
    Each thread keeps the frozen envelopes of the last ``states`` array it
    was called with, so they are computed once per term and array.
    """
    rng = np.random.default_rng(seed)
    m = grid.m
    n_terms = 3
    starts = rng.integers(0, m // 2, size=n_terms)
    amps = rng.uniform(0.3, 1.0, size=n_terms)
    kinds = rng.integers(0, 3, size=n_terms)
    use_sin = rng.integers(0, 2, size=n_terms)

    frozen = threading.local()

    def derivative(j, states):
        if getattr(frozen, "states", None) is not states:
            frozen.states, frozen.envelopes = states, [None] * n_terms
        out = np.zeros((states.shape[0], dim))
        for t, (j0, a, kind, sin_flag) in enumerate(zip(starts, amps, kinds, use_sin)):
            if j < j0:
                continue
            if frozen.envelopes[t] is None:
                frozen.envelopes[t] = _envelope(kind, states[:, j0])
            # one cycle per window: keeps the derivative slow relative to the
            # 2/n delay of the block operators, so reconstruction improves with n
            phase = 2 * np.pi * (j - j0) / (m - j0)
            wave = np.sin(phase) if sin_flag else np.cos(phase)
            out[:, 0] += a * wave * frozen.envelopes[t]
        return out

    return AdaptedShift(name=f"random_ez[{seed}]", derivative=derivative)


SHIFTS: Dict[str, Callable] = {
    "constant": _shift_constant,
    "state": _shift_state,
    "tanh_state": _shift_tanh_state,
    "plus_minus": make_plus_minus_shift,
    "sine": _shift_sine,
    "cosine": _shift_cosine,
    "random": make_random_shift,
    "random_ez": make_random_endpoint_zero_shift,
}


# -- space maps -----------------------------------------------------------------

def _map_identity(dim=1):
    eye = np.eye(dim)
    return SpaceTimeMap(name="identity",
                        map_fn=lambda x: x,
                        jacobian=lambda x: eye,
                        inverse=lambda y: y)


def _map_affine(matrix=None, offset=None, dim=1):
    a = np.asarray(matrix, dtype=np.float64) if matrix is not None else np.eye(dim)
    b = np.asarray(offset, dtype=np.float64) if offset is not None else np.zeros(a.shape[0])
    ainv = np.linalg.inv(a)
    return SpaceTimeMap(name="affine",
                        map_fn=lambda x: x @ a.T + b,
                        jacobian=lambda x: a,
                        inverse=lambda y: (y - b) @ ainv.T)


def _map_sine_squash(amplitude=0.2):
    amp = float(amplitude)
    if not abs(amp) < 1.0:
        raise ValueError("amplitude must lie in (-1, 1) for invertibility")

    def map_fn(x):
        return x + amp * np.sin(x)

    def jacobian(x):
        n, d = x.shape
        out = np.zeros((n, d, d))
        diag = 1.0 + amp * np.cos(x)
        for k in range(d):
            out[:, k, k] = diag[:, k]
        return out

    def hessian(x):
        n, d = x.shape
        out = np.zeros((n, d, d, d))
        second = -amp * np.sin(x)
        for k in range(d):
            out[:, k, k, k] = second[:, k]
        return out

    def inverse(y):
        x = y.copy()
        for _ in range(40):
            f = x + amp * np.sin(x) - y
            x = x - f / (1.0 + amp * np.cos(x))
            if np.max(np.abs(f)) < 1e-14:
                break
        return x

    return SpaceTimeMap(name="sine_squash", map_fn=map_fn, jacobian=jacobian,
                        hessian=hessian, inverse=inverse)


MAPS: Dict[str, Callable[..., SpaceTimeMap]] = {
    "identity": _map_identity,
    "affine": _map_affine,
    "sine_squash": _map_sine_squash,
}


# -- symmetry families ----------------------------------------------------------

def _family_translation(coord=0, dim=1):
    vec = np.zeros(dim)
    vec[coord] = 1.0
    zero = np.zeros((dim, dim))

    return NoetherFamily(name=f"translation[{coord}]",
                         generator=lambda x: np.broadcast_to(vec, x.shape),
                         grad_generator=lambda x: zero)


def _family_rotation():
    jmat = np.array([[0.0, -1.0], [1.0, 0.0]])

    return NoetherFamily(name="rotation",
                         generator=lambda x: x @ jmat.T,
                         grad_generator=lambda x: jmat)


FAMILIES: Dict[str, Callable[..., NoetherFamily]] = {
    "translation": _family_translation,
    "rotation": _family_rotation,
}


# -- lookups --------------------------------------------------------------------

def get_law(name: str, grid: TimeGrid, n_paths: int, seed: int,
            threads: Optional[int] = None, **params) -> Recipe:
    """The recipe of the law ``name``."""
    return _lookup(LAWS, "law", name)(grid, n_paths, seed, threads=threads, **params)


def build_law(name: str, grid: TimeGrid, n_paths: int, seed: int,
              threads: Optional[int] = None, **params) -> PathEnsemble:
    """The law ``name`` with its paths held whole."""
    return get_law(name, grid, n_paths, seed, threads=threads, **params).build()


def get_lagrangian(name: str, **params) -> Lagrangian:
    return _lookup(LAGRANGIANS, "lagrangian", name)(**params)


def get_shift(name: str, grid: TimeGrid, **params) -> AdaptedShift:
    return _lookup(SHIFTS, "shift", name)(grid, **params)


def get_map(name: str, **params) -> SpaceTimeMap:
    return _lookup(MAPS, "map", name)(**params)


def get_family(name: str, **params) -> NoetherFamily:
    return _lookup(FAMILIES, "family", name)(**params)


def get_oscillator(variant: str, **params) -> _bridge.FbsdeSpec:
    return _lookup(OSCILLATORS, "oscillator variant", variant)(**params)
