import tracemalloc

import numpy as np
import pytest

from actionlab import TimeGrid, catalog, paths
from actionlab.diagnostics import verdict


class _PoolSpy(paths.ThreadPoolExecutor):
    """The pool ``run_ranges`` uses, recording each pool's worker count."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers=max_workers)


@pytest.fixture
def three_cpus(monkeypatch):
    # three usable CPUs on any host, and a record of the pools run_ranges opens
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(_PoolSpy, "sizes", [])
    monkeypatch.setattr(paths, "ThreadPoolExecutor", _PoolSpy)
    return _PoolSpy.sizes


@pytest.fixture
def no_simulation(monkeypatch):
    # a registry builder must reject its parameters before it simulates
    def simulated(*args, **kwargs):
        raise AssertionError("simulated before the parameters were checked")

    # simulate and LawRecipe.fold both walk their ranges through
    # _simulate_range, and FbsdeRecipe.build and fold through _fbsde_range
    monkeypatch.setattr(paths, "_simulate_range", simulated)
    monkeypatch.setattr(catalog._bridge, "_fbsde_range", simulated)
    monkeypatch.setattr(catalog._bridge, "sinkhorn_bridge", simulated)


@pytest.fixture(scope="session")
def grid200():
    return TimeGrid(200)


@pytest.fixture(scope="session")
def grid192():
    # divisible by every block count used by the delay/endpoint operators
    return TimeGrid(192)


@pytest.fixture(scope="session")
def bm_small(grid200):
    return catalog.build_law("brownian", grid200, 4000, seed=101)


@pytest.fixture(scope="session")
def bm_mid(grid200):
    return catalog.build_law("brownian", grid200, 20000, seed=102)


@pytest.fixture(scope="session")
def bm192(grid192):
    return catalog.build_law("brownian", grid192, 4000, seed=103)


@pytest.fixture(scope="session")
def pinned_mid(grid200):
    return catalog.build_law("pinned_brownian", grid200, 20000, seed=104, y=1.0)


@pytest.fixture(scope="session")
def squared_mid(grid200):
    return catalog.build_law("squared_increment", grid200, 20000, seed=105)


def passes(report):
    """Verdict on a martingale report's largest |z| at the default threshold."""
    return verdict([report.max_abs_statistic])[0]


def deterministic_law(grid, n_paths=1500, drift_value=None):
    """Point law with zero diffusion and a deterministic time-dependent drift."""
    from actionlab.paths import SemimartingaleModel, simulate

    if drift_value is None:
        drift_value = lambda t: np.cos(t)

    def drift(j, prefix):
        return np.full((prefix.shape[0], 1), drift_value(j * grid.dt))

    model = SemimartingaleModel(
        name="deterministic", dim=1,
        initial_sampler=catalog.point_sampler(np.zeros(1)),
        drift=drift, diffusion_factor=np.zeros((1, 1)))
    return simulate(model, grid, n_paths, seed=9)


def traced_peak(fn, *args, **kwargs):
    """Call ``fn`` and return ``(result, peak)``: the peak bytes allocated
    during the call above those held before it, as tracemalloc counts them
    (numpy reports its array buffers to tracemalloc)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def weighted_drift_record(ens, anchor=0.5):
    """The drift record the weighted squared-increment law used to store for
    ``ens``: time-major, zero before the anchor and, from it on, the closed
    form 2 (x_t - x_a) / (1 - t + (x_t - x_a)^2) written one column at a time."""
    g = ens.grid
    x = ens.states[:, :, 0]
    ja = int(round(anchor * g.m))
    record = np.zeros((g.m, ens.n_paths, 1)).transpose(1, 0, 2)
    for j in np.flatnonzero(g.times[:-1] >= anchor):
        d = x[:, j] - x[:, ja]
        record[:, j, 0] = 2.0 * d / (1.0 - g.times[j] + d * d)
    return record
