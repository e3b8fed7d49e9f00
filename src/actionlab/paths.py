"""Time grids, reproducible Euler-Maruyama simulation, and drift/covariance
re-estimation by least-squares regression.

A law of a continuous semi-martingale is represented at desk scale by a
:class:`PathEnsemble`: sampled paths on a uniform grid together with the
per-step drift and diffusion-factor evaluations that generated them.  The
drift and diffusion coefficients of a :class:`SemimartingaleModel` are
*adapted*: their value at step ``j`` may depend only on the path prefix up to
``j``.  That contract is enforced empirically by the prefix probe in
:func:`adaptedness_probe`.

Randomness is keyed per block and splittable: block ``b`` of
:data:`NOISE_BLOCK` paths draws from an SFC64 generator seeded by
``SeedSequence(seed mod 2**64, spawn_key=(b,))``, the ``b``-th child of the
seed's sequence, first its initial points in one call, then its whole
``[m, NOISE_BLOCK, d]`` normals per record, also for paths past ``n``.  So
path ``i``'s noise depends on neither ``n`` nor the split of the path axis
among worker threads, whose ranges start on block boundaries, one range per
usable CPU by default.  This module alone decides how records are stored:
time-major and indexed ``[n, m, d]``, so per-step reads ``states[:, j]`` are
contiguous; a hand-built path-major ensemble works the same, only more
slowly.
"""

from __future__ import annotations

import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Union

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from ._accum import weighted_mean_stderr

__all__ = [
    "TimeGrid",
    "SemimartingaleModel",
    "PathEnsemble",
    "SimulationError",
    "RankDeficiencyError",
    "simulate",
    "LawRecipe",
    "estimate_characteristics",
    "CharacteristicsEstimate",
    "adaptedness_probe",
    "export_paths_csv",
]


class SimulationError(RuntimeError):
    """A model coefficient produced a non-finite value during simulation."""


class RankDeficiencyError(RuntimeError):
    """Normal equations of a regression are singular; shrink the feature set."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j/m on [0, 1]."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("step count m must be >= 1")

    @property
    def dt(self) -> float:
        return 1.0 / self.m

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.m + 1) / self.m

    def index_of(self, t: float) -> int:
        """Nearest grid index for a time in [0, 1]."""
        j = int(round(t * self.m))
        return min(max(j, 0), self.m)

    def steps_before(self, t: float) -> int:
        """Number of steps ``j < m`` with ``t_j < t``; a ``t`` within rounding
        of a grid time counts as that time, so ``1 - dt`` leaves out step m-1."""
        x = t * self.m
        k = round(x)
        return min(max(k if abs(x - k) <= 1e-9 else math.ceil(x), 0), self.m)

    def probe_indices(self, fractions: Sequence[float], t_max: float = 1.0):
        """Distinct step indices (< m) at increasing ``fractions`` in [0, 1] of ``t_max``."""
        fr = list(fractions)
        if fr != sorted(set(fr)) or not all(0.0 <= f <= 1.0 for f in fr):
            raise ValueError(f"probe fractions must be strictly increasing in [0, 1], got {fr}")
        idx = []
        for f in fractions:
            j = min(self.index_of(f * t_max), self.m - 1)
            if not idx or j > idx[-1]:
                idx.append(j)
        return idx


DriftFn = Callable[[int, np.ndarray], np.ndarray]
DiffusionSpec = Union[None, np.ndarray, Callable[[int, np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class SemimartingaleModel:
    """Initial law plus adapted drift and diffusion-factor coefficients.

    ``drift(j, states)`` receives the states array with at least ``j+1``
    filled entries along axis 1 and must return the per-path drift [n, d]
    reading only ``states[:, :j+1, :]`` (:func:`simulate` keeps the normals
    in the later rows); ``drift = None`` is the zero drift, for which
    :func:`simulate` stores no drift record.  ``diffusion_factor`` is ``None``
    (identity), a constant [d, d] matrix, or a callable with the same
    signature returning [n, d, d] (or a broadcastable [d, d]).
    ``initial_sampler(gen, size)`` returns the ``[size, d]`` initial points
    of one block of paths, drawn from the block's generator ahead of its
    normals.
    """

    name: str
    dim: int
    initial_sampler: Callable[[Generator, int], np.ndarray]
    drift: Optional[DriftFn]
    diffusion_factor: DiffusionSpec = None


@dataclass(frozen=True)
class PathEnsemble:
    """Sampled paths with their per-step characteristics records, indexed
    ``[n, m, d]`` in any memory layout (:func:`simulate` stores time-major).

    states:     [n, m+1, d] path values
    drifts:     [n, m, d]   drift evaluations used at each step, or a row
                function ``fn(j, states) -> [n, d]`` for a drift the states
                determine, read through :meth:`drift`; it must be pathwise,
                keep no state and read only ``states[:, :j+1]``, since
                :meth:`path_range` carries it to ranges on pool threads
    diffusions: [n, m, d, d] diffusion-factor evaluations (alpha = sigma sigma^T)
                drifts and diffusions may be read-only broadcast views, stride
                0 on the path axis, as ``simulate`` gives for a ``None`` drift
                and a ``None`` or constant diffusion factor
    weights:    optional [n], nonnegative, mean one; present for laws defined
                by a density against the simulated reference
    t_max:      diagnostics horizon in (0, 1], read by every diagnostic
                (< 1 for laws whose drift is singular at t = 1); another
                horizon is ``dataclasses.replace(ensemble, t_max=...)``
    """

    grid: TimeGrid
    states: np.ndarray
    drifts: Union[np.ndarray, DriftFn]
    diffusions: np.ndarray
    weights: Optional[np.ndarray] = None
    label: str = ""
    t_max: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.t_max <= 1.0:
            raise ValueError("t_max must lie in (0, 1]")

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def drift(self, j: int) -> np.ndarray:
        """Drift at step j, shape [n, d]: a row of the record, or the row
        function's value, which may be a read-only broadcast view."""
        if callable(self.drifts):
            return self.drifts(j, self.states)
        return self.drifts[:, j]

    def alpha(self, j: int) -> np.ndarray:
        """sigma sigma^T at step j, shape [n, d, d].

        When the diffusion records are broadcast over the paths (stride 0 on
        the path axis, as ``simulate`` gives for a ``None`` or constant
        factor), the product is formed once and returned as a read-only
        broadcast view; callers must not write into it.
        """
        s = self.diffusions[:, j]
        if s.strides[0] == 0:
            return np.broadcast_to(np.einsum("nik,njk->nij", s[:1], s[:1]), s.shape)
        return np.einsum("nik,njk->nij", s, s)

    def path_range(self, lo: int, hi: int) -> "PathEnsemble":
        """Paths ``lo .. hi-1`` as an ensemble of views into these records,
        the unit :func:`run_ranges` hands each worker thread; a row-function
        drift is carried unchanged."""
        drifts = self.drifts if callable(self.drifts) else self.drifts[lo:hi]
        return replace(self, states=self.states[lo:hi], drifts=drifts,
                       diffusions=self.diffusions[lo:hi],
                       weights=None if self.weights is None else self.weights[lo:hi])

    def fold(self, consume: Callable[[int, "PathEnsemble"], None]) -> Optional[np.ndarray]:
        """Call ``consume(lo, view)`` on the :meth:`path_range` view of each
        block-aligned range of :func:`run_ranges`, as ``LawRecipe.fold``
        calls it on a chunk, and return the weights."""
        run_ranges(lambda lo, hi: consume(lo, self.path_range(lo, hi)), self.n_paths)
        return self.weights

    def validate(self) -> None:
        """Check structural invariants on a deterministic subsample of
        :data:`VALIDATE_SAMPLE` paths and steps; a row-function drift is
        called at the first and the last step."""
        n, m = self.n_paths, self.grid.m
        if self.states.shape != (n, m + 1, self.dim):
            raise ValueError("states shape mismatch")
        if callable(self.drifts):
            for j in (0, m - 1):
                v = np.asarray(self.drift(j))
                if v.shape != (n, self.dim) or not np.isfinite(v).all():
                    raise ValueError(f"drifts shape mismatch or non-finite at step {j}")
        elif self.drifts.shape != (n, m, self.dim):
            raise ValueError("drifts shape mismatch")
        if self.diffusions.shape != (n, m, self.dim, self.dim):
            raise ValueError("diffusions shape mismatch")
        if not np.isfinite(self.states).all():
            raise ValueError("non-finite states")
        if self.weights is not None:
            w = self.weights
            if w.shape != (n,) or not np.isfinite(w).all() or (w < 0).any():
                raise ValueError("weights must be finite and nonnegative")
            if abs(w.mean() - 1.0) > 1e-12:
                raise ValueError("weights must have mean one within 1e-12")
        take_p = np.linspace(0, n - 1, min(n, VALIDATE_SAMPLE)).astype(int)
        take_j = np.linspace(0, m - 1, min(m, VALIDATE_SAMPLE)).astype(int)
        for j in take_j:
            a = self.alpha(int(j))[take_p]
            if np.max(np.abs(a - np.swapaxes(a, 1, 2))) > 1e-12:
                raise ValueError(f"alpha not symmetric at step {j}")
            if np.min(np.linalg.eigvalsh(a)) < -1e-10:
                raise ValueError(f"alpha not PSD at step {j}")


# Paths per keyed noise block, a module constant because it sets every
# stream; the block's staging buffer adds [m, NOISE_BLOCK, d] to peak memory.
NOISE_BLOCK = 256
MIN_PATHS = 1000         # fewer give a regression or martingale test no power
VALIDATE_SAMPLE = 64     # paths and steps PathEnsemble.validate checks alpha on
PROBE_PATHS, PROBE_SEED = 256, 0   # paths adaptedness_probe perturbs; its seed
CSV_PATHS = 20           # paths export_paths_csv writes


def _records(n: int, m: int, d: int) -> np.ndarray:
    """An empty record of ``m`` steps of ``n`` paths, stored time-major
    (``[m, n, d]``) and returned as an ``[n, m, d]`` view."""
    return np.empty((m, n, d)).transpose(1, 0, 2)


def _freeze(*records: np.ndarray) -> None:
    """Make each record, and the array it views, read-only."""
    for rec in records:
        rec.setflags(write=False)
        if rec.base is not None:
            rec.base.setflags(write=False)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_ranges(fn: Callable[[int, int], object], n: int,
               threads: Optional[int] = None) -> List:
    """Call ``fn(lo, hi)`` on consecutive ranges of the ``n`` paths and return
    the results in path order.

    Every range starts on a :data:`NOISE_BLOCK` boundary.  There are
    ``threads`` ranges, one per usable CPU when it is ``None``, and never more
    than there are blocks: no block is drawn in two ranges, and a one-block
    run stays on the calling thread.  The first range always runs on the
    calling thread and the others on a pool of one thread fewer than there
    are ranges, which spares a thread and its allocator arena per call.
    """
    blocks = -(-n // NOISE_BLOCK)
    k = max(1, min(_usable_cpus() if threads is None else threads, blocks))
    if k == 1:
        return [fn(0, n)]
    edges = [min(i * blocks // k * NOISE_BLOCK, n) for i in range(k + 1)]
    with ThreadPoolExecutor(max_workers=k - 1) as ex:
        rest = [ex.submit(fn, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
        first = fn(edges[0], edges[1])
        return [first] + [f.result() for f in rest]


def path_streams(seed: int, lo: int, hi: int, records):
    """Yield ``(generator, paths, cols)`` once per block of :data:`NOISE_BLOCK`
    paths in ``lo .. hi-1``, where ``lo`` is a block boundary (as every range
    of :func:`run_ranges` is): ``paths`` slices the block's paths below
    ``hi``, counted from ``lo``, and ``cols`` the same paths within the
    block.  Then draw the block's ``[m, NOISE_BLOCK, d]`` normals for each
    record of the range's paths (``[hi - lo, m, d]``), in order, and copy the
    ``cols`` columns into the record's ``paths``.

    Block ``b`` draws from ``SFC64(SeedSequence(seed mod 2**64,
    spawn_key=(b,)))``.  The block index is a spawn key, not a second entropy
    word: ``SeedSequence([s, b])`` pads its words with zeros, so seed
    ``2**32 + 5``'s block 0 would repeat seed 5's block 1.
    """
    entropy = seed & 0xFFFFFFFFFFFFFFFF
    _, m, d = records[0].shape
    stage = np.empty((m, NOISE_BLOCK, d))
    for b in range(lo // NOISE_BLOCK, -(-hi // NOISE_BLOCK)):
        gen = Generator(SFC64(SeedSequence(entropy, spawn_key=(b,))))
        first = b * NOISE_BLOCK
        paths = slice(first - lo, min(hi, first + NOISE_BLOCK) - lo)
        cols = slice(0, paths.stop - paths.start)
        yield gen, paths, cols
        for rec in records:
            gen.standard_normal(out=stage)
            rec[paths] = stage[:, cols].transpose(1, 0, 2)


# What a failing step evaluated; a drift failure ranks before a diffusion
# failure at the same step, because one range checks the drift first.
_FAILED = ("drift", "diffusion")


def _first_bad_path(values: np.ndarray) -> int:
    """Index of the first row of ``values`` with a non-finite entry."""
    return int(np.argmin(np.isfinite(values).reshape(len(values), -1).all(axis=1)))


def _allocate(model: SemimartingaleModel, n: int, m: int):
    """Empty ``(states, drifts, diffusions)`` records of ``n`` paths of
    ``model``: ``drifts`` is ``None`` for a zero drift, and ``diffusions`` a
    read-only broadcast for a ``None`` or constant diffusion factor."""
    d, diff = model.dim, model.diffusion_factor
    if diff is None:
        diffusions = np.broadcast_to(np.eye(d), (n, m, d, d))
    elif isinstance(diff, np.ndarray):
        diffusions = np.broadcast_to(np.asarray(diff, dtype=np.float64), (n, m, d, d))
    else:
        diffusions = np.empty((n, m, d, d))
    drifts = None if model.drift is None else _records(n, m, d)
    return _records(n, m + 1, d), drifts, diffusions


def _views(records, lo: int, hi: int) -> list:
    """Paths ``lo .. hi-1`` of each record, ``None`` kept."""
    return [None if rec is None else rec[lo:hi] for rec in records]


def _simulate_range(model, grid, seed, lo, states, drifts, diffusions):
    """Initial points, normals and Euler steps of the paths ``lo ..
    lo + k - 1``, written into their own ``[k, ...]`` records.

    The normals are drawn into the state rows ``1 .. m``: step ``j`` reads
    them from ``states[:, j+1]`` after the coefficient calls, which see only
    ``states[:, :j+1]``, and before it writes the state there.  ``drifts``
    is ``None`` for a zero drift.  Returns ``None``, or ``(step, kind,
    path)`` of the range's first non-finite coefficient (``kind`` indexes
    :data:`_FAILED`), where the walk stops.
    """
    n, d = states.shape[0], states.shape[2]
    for g, paths, cols in path_streams(seed, lo, lo + n, [states[:, 1:]]):
        x0 = np.asarray(model.initial_sampler(g, NOISE_BLOCK), dtype=np.float64)
        states[paths, 0] = x0.reshape(NOISE_BLOCK, d)[cols]
    sqdt = np.sqrt(grid.dt)
    diff = model.diffusion_factor
    const_diff = diff is None or isinstance(diff, np.ndarray)
    for j in range(grid.m):
        prefix = states[:, : j + 1]
        # a zero drift adds v * dt = +0.0, as a zero drift record's row does
        v = 0.0
        if drifts is not None:
            v = np.asarray(model.drift(j, prefix), dtype=np.float64)
            v = np.broadcast_to(v, (n, d))
            if not np.isfinite(v).all():
                return j, 0, lo + _first_bad_path(v)
            drifts[:, j] = v
        db = states[:, j + 1] * sqdt
        if diff is None:
            inc = db
        elif const_diff:
            inc = db @ diff.T
        else:
            s = np.asarray(diff(j, prefix), dtype=np.float64)
            s = np.broadcast_to(s, (n, d, d))
            if not np.isfinite(s).all():
                return j, 1, lo + _first_bad_path(s)
            diffusions[:, j] = s
            inc = np.einsum("nij,nj->ni", s, db)
        states[:, j + 1] = states[:, j] + v * grid.dt + inc
    return None


def _raise_first(model: SemimartingaleModel, failures) -> None:
    """Raise :class:`SimulationError` for the least ``(step, kind, path)``
    among the ranges' failures, if there is one."""
    failed = [f for f in failures if f is not None]
    if failed:
        j, kind, i = min(failed)
        raise SimulationError(
            f"model '{model.name}': non-finite {_FAILED[kind]} at step {j}, path {i}")


def _ensemble(model, grid, t_max, states, drifts, diffusions) -> PathEnsemble:
    """The simulated records as an ensemble labelled with the model's name;
    a zero drift reads as a read-only broadcast of zeros."""
    if drifts is None:
        n, _, d = states.shape
        drifts = np.broadcast_to(np.zeros(d), (n, grid.m, d))
    return PathEnsemble(grid=grid, states=states, drifts=drifts,
                        diffusions=diffusions, label=model.name, t_max=t_max)


def simulate(model: SemimartingaleModel, grid: TimeGrid, n_paths: int,
             seed: int, threads: Optional[int] = None,
             t_max: float = 1.0) -> PathEnsemble:
    """Euler-Maruyama simulation of ``n_paths`` paths of ``model``.

    Increments for path ``i`` come from the stream of block
    ``i // NOISE_BLOCK`` (:func:`path_streams`).  The path axis is split by
    :func:`run_ranges` into block-aligned ranges, one per usable CPU unless
    ``threads`` says how many, and the result is bit-identical for any split.
    Each range is walked in one pass: its streams are drawn, then its Euler
    steps run, so ``drift``, a callable ``diffusion_factor`` and
    ``initial_sampler`` see the whole range per call and run concurrently on
    disjoint ranges.  A non-finite coefficient raises
    :class:`SimulationError` naming the first failing step, and within it the
    first failing path, whatever the split.  States and drifts are stored
    time-major and returned as ``[n, m, d]`` views; the state rows double
    as the noise buffer.  A ``None`` drift stores no drift record: ``drifts``
    is a read-only broadcast of zeros.  The ensemble is labelled with the
    model's name.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    records = _allocate(model, n_paths, grid.m)

    def walk(lo, hi):
        return _simulate_range(model, grid, seed, lo, *_views(records, lo, hi))

    _raise_first(model, run_ranges(walk, n_paths, threads))
    for rec in records:
        if rec is not None and rec.flags.writeable:
            _freeze(rec)
    return _ensemble(model, grid, t_max, *records)


# Bytes of records each range of LawRecipe.fold simulates at once: a chunk is
# the whole noise blocks that fit, and at least one block (16,640 paths of a
# zero-drift law at m = 500, d = 1).  Smaller chunks run more, smaller numpy calls per step, and
# two ranges then wait on each other for the GIL: on a 2-CPU VM, at 32 MiB the
# folded action of 10^5 paths ran 10% slower than on the built law.
CHUNK_BYTES = 64 << 20


def _mean_one(w: np.ndarray) -> np.ndarray:
    """Weights scaled to mean one over all their paths."""
    return w * (len(w) / w.sum())


@dataclass(frozen=True)
class LawRecipe:
    """A law given by how :func:`simulate` makes it rather than by its paths:
    ``n_paths`` paths of ``model`` on ``grid`` from ``seed``, in ``threads``
    ranges (one per usable CPU when ``None``), read up to ``t_max``.

    ``finish(ensemble)``, when given, turns the simulated ensemble of any run
    of whole noise blocks into the law's: a row-function drift, a label, raw
    weights.  It must be pathwise.  Raw weights need not have mean one; they
    are scaled to it once, over all ``n_paths`` paths.

    :meth:`build` holds the law's records whole, and :meth:`fold` walks them
    a chunk at a time and never holds them.  Both give every path the same
    bits.
    """

    model: SemimartingaleModel
    grid: TimeGrid
    n_paths: int
    seed: int
    threads: Optional[int] = None
    t_max: float = 1.0
    finish: Optional[Callable[[PathEnsemble], PathEnsemble]] = None

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not 0.0 < self.t_max <= 1.0:
            raise ValueError("t_max must lie in (0, 1]")

    @property
    def dim(self) -> int:
        return self.model.dim

    def _finished(self, ens: PathEnsemble) -> PathEnsemble:
        return ens if self.finish is None else self.finish(ens)

    def build(self) -> PathEnsemble:
        """The law's ensemble: :func:`simulate`, then the finish step, with
        the weights scaled to mean one."""
        ens = self._finished(simulate(self.model, self.grid, self.n_paths,
                                      self.seed, self.threads, self.t_max))
        if ens.weights is None:
            return ens
        return replace(ens, weights=_mean_one(ens.weights))

    def fold(self, consume: Callable[[int, PathEnsemble], None]) -> Optional[np.ndarray]:
        """Call ``consume(lo, chunk)`` on consecutive chunks of the law's
        paths, where ``chunk`` is the finished ensemble of paths ``lo ..
        lo + chunk.n_paths - 1``; return the law's weights, scaled to mean
        one, or ``None``.

        Each range of :func:`run_ranges` simulates its paths a chunk at a
        time into one set of chunk records, which the next chunk overwrites:
        ``consume`` copies what it keeps, runs on pool threads for other
        ranges, and ignores ``chunk.weights``, which are raw.  A chunk is the
        whole noise blocks whose records fill about :data:`CHUNK_BYTES`, at
        least one block, so it starts on a block boundary and its paths have
        the bits :meth:`build` gives them.  A non-finite coefficient raises
        the :class:`SimulationError` :func:`simulate` raises; a range
        consumes no chunk after its first failing one.
        """
        model, m, d = self.model, self.grid.m, self.model.dim
        per_path = 8 * ((m + 1) * d + (model.drift is not None) * m * d
                        + callable(model.diffusion_factor) * m * d * d)
        chunk = max(1, CHUNK_BYTES // (NOISE_BLOCK * per_path)) * NOISE_BLOCK
        raw, weighted = np.empty(self.n_paths), []

        def walk(lo, hi):
            records, failed = _allocate(model, min(chunk, hi - lo), m), []
            for c in range(lo, hi, chunk):
                views = _views(records, 0, min(chunk, hi - c))
                failure = _simulate_range(model, self.grid, self.seed, c, *views)
                if failure is not None:
                    failed.append(failure)
                elif not failed:
                    ens = self._finished(_ensemble(model, self.grid, self.t_max, *views))
                    if ens.weights is not None:
                        raw[c:c + ens.n_paths] = ens.weights
                        weighted.append(c)
                    consume(c, ens)
            return min(failed, default=None)

        _raise_first(model, run_ranges(walk, self.n_paths, self.threads))
        return _mean_one(raw) if weighted else None


def adaptedness_probe(fn, ensemble: PathEnsemble, steps: Sequence[int]) -> float:
    """Max change of ``fn(j, states)`` over the first :data:`PROBE_PATHS`
    paths when the data after step ``j`` is perturbed.

    Adapted coefficients return 0.0; a peeking coefficient returns a positive
    defect.
    """
    rng = np.random.default_rng(PROBE_SEED)
    n = min(ensemble.n_paths, PROBE_PATHS)
    base = np.array(ensemble.states[:n], dtype=np.float64)
    worst = 0.0
    for j in steps:
        ref = np.asarray(fn(j, base))
        tampered = base.copy()
        tampered[:, j + 1:] += 1.0 + rng.standard_normal(tampered[:, j + 1:].shape)
        out = np.asarray(fn(j, tampered))
        worst = max(worst, float(np.max(np.abs(out - ref))) if out.size else 0.0)
    return worst


@dataclass(frozen=True)
class CharacteristicsEstimate:
    """Per-probe regression estimates of drift and alpha on a feature basis."""

    step: int
    t: float
    feature_names: list
    drift_coef: np.ndarray      # [p, d]
    drift_se: np.ndarray        # [p, d]
    alpha_coef: np.ndarray      # [p, d, d]
    alpha_se: np.ndarray        # [p, d, d]


def _wls(phi, y, w):
    """Weighted least squares with coefficient standard errors."""
    n, p = phi.shape
    sw = np.sqrt(w) if w is not None else None
    a = phi if sw is None else phi * sw[:, None]
    b = y if sw is None else y * sw[:, None]
    g = a.T @ a
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > 1e12:
        raise RankDeficiencyError(
            f"singular normal equations (cond={cond:.3g}); shrink the feature set")
    ginv = np.linalg.inv(g)
    coef = ginv @ (a.T @ b)
    resid = b - a @ coef
    dof = max(n - p, 1)
    sigma2 = np.sum(resid ** 2, axis=0) / dof
    se = np.sqrt(np.outer(np.diag(ginv), sigma2))
    return coef, se


def estimate_characteristics(ensemble: PathEnsemble, feature_map,
                             probe_steps: Sequence[int]):
    """Regress increments on prefix features at each probe step.

    ``feature_map(ensemble, j)`` returns ``(features [n, p], names)``.  The
    drift regression targets ``dW/dt`` and the covariance regression targets
    ``dW dW^T / dt``; both return coefficients with standard errors.
    """
    if ensemble.n_paths < MIN_PATHS:
        raise ValueError(f"need at least {MIN_PATHS} paths for regression")
    dt = ensemble.grid.dt
    d = ensemble.dim
    out = []
    for j in probe_steps:
        phi, names = feature_map(ensemble, j)
        phi = np.asarray(phi, dtype=np.float64)
        inc = ensemble.states[:, j + 1] - ensemble.states[:, j]
        c_v, se_v = _wls(phi, inc / dt, ensemble.weights)
        outer = np.einsum("ni,nj->nij", inc, inc) / dt
        c_a, se_a = _wls(phi, outer.reshape(ensemble.n_paths, d * d), ensemble.weights)
        out.append(CharacteristicsEstimate(
            step=j, t=j * dt, feature_names=list(names),
            drift_coef=c_v, drift_se=se_v,
            alpha_coef=c_a.reshape(-1, d, d), alpha_se=se_a.reshape(-1, d, d)))
    return out


def export_paths_csv(ensemble: PathEnsemble, path) -> None:
    """Plot-ready CSV of the first :data:`CSV_PATHS` paths: t, then one column
    per path/coord."""
    n = min(ensemble.n_paths, CSV_PATHS)
    d = ensemble.dim
    cols = ["t"] + [f"path{i}_x{k}" for i in range(n) for k in range(d)]
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    for j, t in enumerate(ensemble.grid.times):
        vals = [repr(float(t))]
        vals += [repr(float(ensemble.states[i, j, k])) for i in range(n) for k in range(d)]
        buf.write(",".join(vals) + "\n")
    with open(path, "wb") as fh:
        fh.write(buf.getvalue().encode())


def summarize_terminal(ensemble: PathEnsemble):
    """Weighted mean and stderr of W_1 and of each coordinate's square."""
    x = ensemble.states[:, -1]
    mean, se = weighted_mean_stderr(x, ensemble.weights)
    mean2, se2 = weighted_mean_stderr(x ** 2, ensemble.weights)
    return (mean, se), (mean2, se2)
