from dataclasses import astuple, replace

import numpy as np
import pytest
from numpy.random import SFC64, Generator, SeedSequence

from actionlab import (RankDeficiencyError, SimulationError,
                       TimeGrid, adaptedness_probe, catalog, el_certify,
                       estimate_characteristics, lift, materialize, push_shift,
                       simulate, variational_derivative)
from actionlab.bridge import FbsdeSpec, fbsde_simulate
from actionlab import paths
from actionlab.paths import (CSV_PATHS, NOISE_BLOCK, SemimartingaleModel,
                             export_paths_csv)
from actionlab.catalog import make_state_features, make_test_feature_map, point_sampler
from actionlab.lagrangians import action, path_actions
from conftest import passes, traced_peak, weighted_drift_record


def _drift_rows(ens):
    """Every drift row of ``ens``, read through its accessor, as [n, m, d]."""
    return np.stack([ens.drift(j) for j in range(ens.grid.m)], axis=1)


def test_timegrid_invariants():
    g = TimeGrid(200)
    t = g.times
    assert t[0] == 0.0 and t[-1] == 1.0
    assert np.all(np.diff(t) > 0)
    assert np.max(np.abs(np.diff(t) - g.dt)) < 1e-15
    with pytest.raises(ValueError):
        TimeGrid(0)


def test_brownian_terminal_moments(grid200):
    n = 100_000
    ens = catalog.build_law("brownian", grid200, n, seed=1)
    x1 = ens.states[:, -1, 0]
    assert abs(x1.mean()) < 4 / np.sqrt(n)
    assert abs(x1.var() - 1.0) < 5 * np.sqrt(2 / n)


def test_constant_drift_zero_diffusion_is_exact(grid200):
    c = 0.7

    def drift(j, prefix):
        return np.full((prefix.shape[0], 1), c)

    model = SemimartingaleModel(name="ramp", dim=1,
                                initial_sampler=point_sampler(np.zeros(1)),
                                drift=drift, diffusion_factor=np.zeros((1, 1)))
    ens = simulate(model, grid200, 8, seed=2)
    expected = c * grid200.times
    # cumulative float rounding only
    assert np.max(np.abs(ens.states[:, :, 0] - expected)) < 1e-12


def test_pinned_bridge_mean(grid200):
    # closed-form Gaussian bridge: E[W_t] = y * t
    n, y = 100_000, 1.0
    ens = catalog.build_law("pinned_brownian", grid200, n, seed=3, y=y)
    j = grid200.m - 1
    t = j * grid200.dt
    x = ens.states[:, j, 0]
    # Var W_t = t(1-t) for the bridge
    se = np.sqrt(t * (1 - t) / n)
    assert abs(x.mean() - y * t) < 4 * se + 2 / grid200.m


def test_bit_reproducibility_across_threads(grid200):
    a = catalog.build_law("pinned_brownian", grid200, 3000, seed=11)
    b = catalog.build_law("pinned_brownian", grid200, 3000, seed=11)
    c = catalog.build_law("pinned_brownian", grid200, 3000, seed=11, threads=4)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.states, c.states)
    assert np.array_equal(a.drifts, c.drifts)
    d = catalog.build_law("pinned_brownian", grid200, 3000, seed=12)
    assert not np.array_equal(a.states, d.states)


def test_path_extension_invariance(grid200):
    # first paths of a larger simulation coincide with the smaller one
    a = catalog.build_law("brownian", grid200, 100, seed=13)
    b = catalog.build_law("brownian", grid200, 300, seed=13)
    assert np.array_equal(a.states, b.states[:100])


def _random_start(rng, size):
    # consumes uniforms and normals before the increments
    return (rng.random(size) + rng.standard_normal(size))[:, None]


@pytest.mark.parametrize("seed", [7, -5, 2**63 + 12345])
def test_path_stream_pinned_to_sfc64_key(seed):
    # path i is column i % NOISE_BLOCK of the draws of a fresh SFC64 seeded
    # by SeedSequence(seed mod 2**64, spawn_key=(i // NOISE_BLOCK,)): the
    # block's initial points, then its [m, NOISE_BLOCK, d] normals
    g = TimeGrid(6)
    n = NOISE_BLOCK + 9
    model = SemimartingaleModel(name="stream", dim=1, initial_sampler=_random_start,
                                drift=lambda j, p: np.zeros((p.shape[0], 1)))
    ens = simulate(model, g, n, seed=seed)
    for i in (0, 5, NOISE_BLOCK, n - 1):
        ref = _stream(seed, i // NOISE_BLOCK)
        x0 = _random_start(ref, NOISE_BLOCK)[i % NOISE_BLOCK]
        steps = ref.standard_normal((g.m, NOISE_BLOCK, 1))[:, i % NOISE_BLOCK] * np.sqrt(g.dt)
        assert ens.states[i, 0, 0] == x0[0]
        assert ens.states[i, 1, 0] == x0[0] + steps[0, 0]
        assert np.allclose(np.diff(ens.states[i, :, 0]), steps[:, 0],
                           rtol=0, atol=1e-12)


def test_negative_seed_has_its_own_stream():
    g = TimeGrid(4)
    a = catalog.build_law("brownian", g, 3, seed=0)
    for seed in (-1, 2**64 - 1):
        b = catalog.build_law("brownian", g, 3, seed=seed)
        assert not np.array_equal(a.states, b.states)


def test_block_index_is_not_an_entropy_word():
    # SeedSequence([s, b]) pads its words with zeros, so seed 2**32 + 5's
    # block 0 (words 5, 1, 0) would repeat seed 5's block 1 (words 5, 1);
    # the block index is a spawn key, kept apart from the seed's words
    g, n = TimeGrid(4), 2 * NOISE_BLOCK
    low = catalog.build_law("brownian", g, n, seed=5)
    high = catalog.build_law("brownian", g, n, seed=2**32 + 5)
    assert not np.array_equal(high.states[:NOISE_BLOCK], low.states[NOISE_BLOCK:])


def test_range_and_stage_edges_are_invisible():
    # n spans three full noise blocks and a partial one, split into three
    # block-aligned thread ranges; neither kind of edge may show
    g = TimeGrid(8)
    n = 3 * NOISE_BLOCK + 7
    a = catalog.build_law("pinned_brownian", g, n, seed=21)
    b = catalog.build_law("pinned_brownian", g, n, seed=21, threads=3)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.drifts, b.drifts)
    head = catalog.build_law("pinned_brownian", g, NOISE_BLOCK + 3, seed=21)
    assert np.array_equal(head.states, a.states[:NOISE_BLOCK + 3])
    assert np.array_equal(head.drifts, a.drifts[:NOISE_BLOCK + 3])


@pytest.mark.parametrize("law", ["squared_increment", "squared_increment_weighted"])
@pytest.mark.parametrize("anchor", [-0.5, 1.0, 1.5])
def test_anchor_outside_the_unit_interval_is_rejected(law, anchor, no_simulation):
    # on the grid (anchor * m is an integer), yet no step of [0, 1) sits there
    with pytest.raises(ValueError, match=r"anchor must lie in \[0, 1\)"):
        catalog.build_law(law, TimeGrid(100), 1000, seed=3, anchor=anchor)


@pytest.mark.parametrize("law", sorted(catalog.LAWS))
def test_every_law_is_bit_identical_across_splits(law, three_cpus):
    # three full noise blocks and a partial one: the default split makes one
    # range per usable CPU, three here, and no bit may move against one range
    g, n = TimeGrid(8), 3 * NOISE_BLOCK + 7
    one = catalog.build_law(law, g, n, seed=41, threads=1)
    assert three_cpus == []
    split = catalog.build_law(law, g, n, seed=41)
    # the calling thread walks the first range, a pool of two the others
    assert three_cpus and set(three_cpus) == {2}
    for field in ("states", "diffusions"):
        assert np.array_equal(getattr(one, field), getattr(split, field)), field
    assert np.array_equal(_drift_rows(one), _drift_rows(split))
    assert (one.weights is None) == (split.weights is None)
    if one.weights is not None:
        assert np.array_equal(one.weights, split.weights)


@pytest.mark.parametrize("n", [1, NOISE_BLOCK, 2 * NOISE_BLOCK + 1, 3 * NOISE_BLOCK + 7,
                               9 * NOISE_BLOCK])
def test_each_noise_block_is_drawn_once(n, three_cpus, monkeypatch):
    keys = []

    def seed_sequence(entropy, spawn_key):
        keys.append(spawn_key)
        return SeedSequence(entropy, spawn_key=spawn_key)

    monkeypatch.setattr(paths, "SeedSequence", seed_sequence)
    catalog.build_law("ornstein_uhlenbeck", TimeGrid(4), n, seed=3)
    blocks = -(-n // NOISE_BLOCK)
    assert sorted(keys) == [(b,) for b in range(blocks)]
    # one range per CPU, capped at the block count; the calling thread walks
    # the first, so one block needs no pool
    assert three_cpus == ([] if blocks == 1 else [min(3, blocks) - 1])


def _nan_model(drift_fails=(), diffusion_fails=()):
    """A 1-d model whose drift, and whose diffusion factor, is NaN on path
    ``i`` from step ``j`` on, for each ``(j, i)`` of the two lists; a path is
    recognised by its initial point, drawn uniform.  n = 1000, m = 12."""
    g, n = TimeGrid(12), 1000
    sampler = lambda gen, size: gen.random((size, 1))
    probe = SemimartingaleModel(name="probe", dim=1, initial_sampler=sampler,
                                drift=lambda j, p: np.zeros((len(p), 1)))
    x0 = simulate(probe, g, n, seed=5, threads=1).states[:, 0, 0]

    def nan_where(fails, value):
        marks = [(j, x0[i]) for j, i in fails]

        def coefficient(j, prefix):
            bad = np.zeros(len(prefix), dtype=bool)
            for j_bad, x in marks:
                bad |= (prefix[:, 0, 0] == x) & (j >= j_bad)
            return np.where(bad, np.nan, value).reshape(len(prefix), *[1] * value.ndim)

        return coefficient

    model = SemimartingaleModel(
        name="nan", dim=1, initial_sampler=sampler,
        drift=nan_where(drift_fails, np.zeros(1)),
        diffusion_factor=nan_where(diffusion_fails, np.ones((1, 1))))
    return model, g, n


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("what", ["drift", "diffusion"])
def test_simulation_error_names_first_failing_step(threads, what):
    # the later path fails first in time; every split names the same
    # (step, path), the one a single range meets first
    model, g, n = _nan_model(**{f"{what}_fails": [(10, 100), (3, 900)]})
    with pytest.raises(SimulationError) as err:
        simulate(model, g, n, seed=5, threads=threads)
    assert str(err.value) == f"model 'nan': non-finite {what} at step 3, path 900"


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_drift_failure_ranks_before_diffusion_at_one_step(threads):
    # one range checks every drift of a step before any diffusion factor
    model, g, n = _nan_model(drift_fails=[(3, 900)], diffusion_fails=[(3, 100)])
    with pytest.raises(SimulationError) as err:
        simulate(model, g, n, seed=5, threads=threads)
    assert str(err.value) == "model 'nan': non-finite drift at step 3, path 900"


def _stream(seed, b):
    return Generator(SFC64(SeedSequence(seed % 2**64).spawn(b + 1)[b]))


def _blocks(n):
    """``(b, rows)`` of each noise block: its index and its paths below n."""
    for b in range(-(-n // NOISE_BLOCK)):
        yield b, slice(b * NOISE_BLOCK, min(n, (b + 1) * NOISE_BLOCK))


def _block_normals(g, m, d, rows):
    """The block's next [m, NOISE_BLOCK, d] normals, path-major, kept to ``rows``."""
    return g.standard_normal((m, NOISE_BLOCK, d))[:, :rows.stop - rows.start].transpose(1, 0, 2)


def _reference_simulate(model, grid, n, seed):
    """Path-major reference: every path's stream drawn first, then the Euler loop."""
    m, d, dt = grid.m, model.dim, grid.dt
    states, drifts = np.empty((n, m + 1, d)), np.empty((n, m, d))
    diffusions, noise = np.empty((n, m, d, d)), np.empty((n, m, d))
    for b, rows in _blocks(n):
        g = _stream(seed, b)
        states[rows, 0] = model.initial_sampler(g, NOISE_BLOCK)[:rows.stop - rows.start]
        noise[rows] = _block_normals(g, m, d, rows)
    sig = model.diffusion_factor
    for j in range(m):
        prefix = states[:, :j + 1]
        v = np.zeros(d) if model.drift is None else model.drift(j, prefix)
        v = np.broadcast_to(np.asarray(v, dtype=np.float64), (n, d))
        db = noise[:, j] * np.sqrt(dt)
        if sig is None:
            s, inc = np.eye(d), db
        elif isinstance(sig, np.ndarray):
            s, inc = sig, db @ sig.T
        else:
            s = np.broadcast_to(sig(j, prefix), (n, d, d))
            inc = np.einsum("nij,nj->ni", s, db)
        diffusions[:, j] = s
        drifts[:, j] = v
        states[:, j + 1] = states[:, j] + v * dt + inc
    return states, drifts, diffusions


_SIGMA = np.array([[1.0, 0.3], [0.0, 0.8]])


def _zero_drift_models(d, diffusion, start=None):
    """The zero drift stated as ``drift=None`` and as an all-zeros callable,
    with the identity, a constant or a state-dependent diffusion factor."""
    sig = _SIGMA[:d, :d]
    factor = {"identity": None, "constant": sig,
              "callable": lambda j, p: sig * (1.0 + 0.1 * np.tanh(p[:, j, :1]))[..., None]
              }[diffusion]
    sampler = (lambda g, size: g.standard_normal((size, d))) if start is None \
        else point_sampler(np.full(d, start))
    kw = dict(name="zero", dim=d, initial_sampler=sampler, diffusion_factor=factor)
    return (SemimartingaleModel(drift=None, **kw),
            SemimartingaleModel(drift=lambda j, p: np.zeros((len(p), d)), **kw))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("diffusion", ["identity", "constant", "callable"])
def test_zero_drift_matches_explicit_zeros(threads, d, diffusion):
    # drift=None stores no drift record; every state bit equals the
    # all-zeros callable's and the reference
    g, n = TimeGrid(6), 3 * NOISE_BLOCK + 7
    none, zeros = _zero_drift_models(d, diffusion)
    a = simulate(none, g, n, seed=33, threads=threads)
    b = simulate(zeros, g, n, seed=33, threads=threads)
    ref_states, _, ref_diffusions = _reference_simulate(none, g, n, 33)
    assert _same_bits(a.states, b.states) and _same_bits(a.states, ref_states)
    assert np.array_equal(a.diffusions, ref_diffusions)
    assert np.array_equal(a.drifts, b.drifts)
    assert a.drifts.strides[0] == 0 and not a.drifts.flags.writeable
    assert not a.states.flags.writeable and not a.states.base.flags.writeable


class _NegativeZeroNormals:
    """A block generator whose every normal is -0.0."""

    def __init__(self, bit_generator):
        pass

    def standard_normal(self, out):
        out[...] = -0.0


@pytest.mark.parametrize("threads", [1, 3])
def test_zero_drift_keeps_the_sign_of_zero(threads, monkeypatch):
    # a -0.0 start and -0.0 increments: the explicit drift adds v * dt = +0.0
    # before the increment, so every later state is +0.0, and drift=None
    # must give the same bits
    monkeypatch.setattr(paths, "Generator", _NegativeZeroNormals)
    g, n = TimeGrid(4), 2 * NOISE_BLOCK + 1
    none, zeros = _zero_drift_models(1, "identity", start=-0.0)
    a = simulate(none, g, n, seed=34, threads=threads)
    b = simulate(zeros, g, n, seed=34, threads=threads)
    assert _same_bits(a.states, b.states)
    assert not np.signbit(a.states[:, 1:]).any()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_zero_drift_names_first_failing_diffusion(threads):
    model, g, n = _nan_model(diffusion_fails=[(10, 100), (3, 900)])
    with pytest.raises(SimulationError) as err:
        simulate(replace(model, drift=None), g, n, seed=5, threads=threads)
    assert str(err.value) == "model 'nan': non-finite diffusion at step 3, path 900"


def test_zero_drift_push_and_lift_match_explicit_zeros():
    # the catalog's Brownian law against the same law with a drift record
    g, n = TimeGrid(8), NOISE_BLOCK + 5
    a = catalog.build_law("brownian", g, n, seed=35)
    b = simulate(_zero_drift_models(1, "identity", start=0.0)[1], g, n, seed=35)
    assert _same_bits(a.states, b.states)
    for shift in ("sine", "state"):
        ua = materialize(catalog.get_shift(shift, g), a)
        ub = materialize(catalog.get_shift(shift, g), b)
        pa, pb = push_shift(a, ua, 0.3), push_shift(b, ub, 0.3)
        assert _same_bits(pa.states, pb.states) and _same_bits(pa.drifts, pb.drifts)
    for name in ("identity", "sine_squash"):
        la, lb = lift(a, catalog.get_map(name)), lift(b, catalog.get_map(name))
        for field in ("states", "drifts", "diffusions"):
            assert _same_bits(getattr(la, field), getattr(lb, field)), (name, field)
        # time-major, though the zero drift's record is a stride-0 broadcast
        assert la.drifts.strides[0] < la.drifts.strides[1]


def _reference_fbsde(spec, grid, n, seed, variant):
    """Path-major reference of the coupled Euler scheme of ``fbsde_simulate``."""
    m, d, dt = grid.m, spec.dim, grid.dt
    sqdt = np.sqrt(dt)
    sigma = np.eye(d) if spec.sigma is None else spec.sigma
    states, drifts = np.empty((n, m + 1, d)), np.empty((n, m, d))
    noise, znoise, y = np.empty((n, m, d)), np.zeros((n, m, d)), np.empty((n, d))
    for b, rows in _blocks(n):
        g = _stream(seed, b)
        k = rows.stop - rows.start
        states[rows, 0] = spec.initial_sampler(g, NOISE_BLOCK)[:k]
        if variant == "filtering":
            mu, var = spec.y0_gaussian
            y[rows] = mu + np.sqrt(var) * g.standard_normal((NOISE_BLOCK, d))[:k]
        noise[rows] = _block_normals(g, m, d, rows)
        if spec.z_mode == "independent_brownian":
            znoise[rows] = _block_normals(g, m, d, rows)
    if variant == "adapted":
        for i in range(n):
            y[i] = spec.y0_fn(states[i, 0])
    if variant == "filtering":
        mean, pvar = np.full(n, mu), float(var)
        s2 = float(sigma[0, 0] ** 2)
        qvar = 1.0 if spec.z_mode == "independent_brownian" else 0.0
    for j in range(m):
        db = noise[:, j] * sqdt
        drifts[:, j] = y if variant == "adapted" else mean[:, None]
        dx = y * dt + db @ sigma.T
        states[:, j + 1] = states[:, j] + dx
        if variant == "filtering":
            gain = pvar * dt / (pvar * dt * dt + s2 * dt)
            mean = mean + gain * (dx[:, 0] - mean * dt)
            pvar = pvar * s2 / (pvar * dt + s2)
            mean = mean - spec.curvature * states[:, j, 0] * dt
            pvar = pvar + qvar * dt
        y = y - spec.grad_potential(j * dt, states[:, j]) * dt
        if spec.z_mode == "independent_brownian":
            y = y + znoise[:, j] * sqdt
    return states, drifts, np.broadcast_to(sigma, (n, m, d, d))


def _assert_time_major_equal(ens, ref):
    # states and drifts are stored [m, n, d]: consecutive paths of one step
    # sit next to each other
    assert ens.states.strides[0] < ens.states.strides[1]
    assert ens.drifts.strides[0] < ens.drifts.strides[1]
    for got, want in zip((ens.states, ens.drifts, ens.diffusions), ref):
        assert np.array_equal(got, want)


def _normal_start(rng, size):
    return rng.standard_normal((size, 2))


def _prefix_drift(j, prefix):
    return -0.5 * prefix[:, j] + 0.25 * np.tanh(prefix[:, 0])


def _state_diffusion(j, prefix):
    scale = 1.0 + 0.1 * np.tanh(prefix[:, j, :1])
    return np.array([[1.0, 0.3], [0.0, 0.8]]) * scale[..., None]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("diffusion", [None, np.array([[1.0, 0.3], [0.0, 0.8]]),
                                       _state_diffusion],
                         ids=["identity", "constant", "callable"])
def test_time_major_records_match_reference(threads, diffusion):
    # spans full noise blocks and a partial one; at threads 3 the three
    # block-aligned ranges hold one, one and two blocks
    g = TimeGrid(6)
    n = 3 * NOISE_BLOCK + 7
    model = SemimartingaleModel(name="tm", dim=2, initial_sampler=_normal_start,
                                drift=_prefix_drift, diffusion_factor=diffusion)
    ens = simulate(model, g, n, seed=31, threads=threads)
    _assert_time_major_equal(ens, _reference_simulate(model, g, n, 31))


@pytest.mark.parametrize("variant,z_mode", [("adapted", "constant"),
                                            ("filtering", "constant"),
                                            ("filtering", "independent_brownian")])
def test_time_major_fbsde_records_match_reference(variant, z_mode):
    g = TimeGrid(7)
    n = 2 * NOISE_BLOCK + 3
    if variant == "adapted":
        spec = FbsdeSpec(dim=2, grad_potential=lambda t, x: 0.5 * x,
                         y0_fn=lambda x0: -0.5 * x0, sigma=np.array([[1.0, 0.3], [0.0, 0.8]]),
                         initial_sampler=_normal_start)
    else:
        spec = FbsdeSpec(dim=1, grad_potential=lambda t, x: x, y0_gaussian=(0.2, 1.5),
                         curvature=1.0, z_mode=z_mode,
                         initial_sampler=lambda rng, size: rng.standard_normal((size, 1)))
    ens = fbsde_simulate(spec, g, n, seed=32).ensemble
    assert ens.label == f"fbsde_{variant}"
    _assert_time_major_equal(ens, _reference_fbsde(spec, g, n, 32, variant))


def test_adaptedness_probe_on_registry_drifts(grid200):
    ens = catalog.build_law("brownian", grid200, 200, seed=14)
    dt = grid200.dt

    def pinned(j, prefix):
        return (1.0 - prefix[:, j]) / (1.0 - j * dt)

    def ou(j, prefix):
        return -prefix[:, j]

    def anchored(j, prefix):
        ja = grid200.m // 2
        if j < ja:
            return np.zeros((prefix.shape[0], 1))
        d = prefix[:, j, 0] - prefix[:, ja, 0]
        return (2 * d / (1 - j * dt + d * d))[:, None]

    for fn in (pinned, ou, anchored):
        assert adaptedness_probe(fn, ens, steps=[30, 100, 150]) == 0.0

    def peeking(j, prefix):
        look = min(j + 1, prefix.shape[1] - 1)
        return prefix[:, look]

    assert adaptedness_probe(peeking, ens, steps=[50]) > 0.0


def test_alpha_psd_and_validate(grid200, bm_small):
    bm_small.validate()
    sig = np.array([[1.0, 0.0], [0.5, 0.2]])
    model = SemimartingaleModel(name="corr", dim=2,
                                initial_sampler=point_sampler(np.zeros(2)),
                                drift=lambda j, p: np.zeros((p.shape[0], 2)),
                                diffusion_factor=sig)
    ens = simulate(model, grid200, 500, seed=15)
    ens.validate()
    a = ens.alpha(0)
    assert np.min(np.linalg.eigvalsh(a)) >= -1e-10
    # a constant factor is recorded broadcast over the paths, and alpha is then
    # one [d, d] product broadcast read-only, with the per-path einsum's bits
    assert ens.diffusions.strides[0] == 0
    full = np.array(ens.diffusions)
    for j in (0, 117, 199):
        a = ens.alpha(j)
        assert a.shape == (500, 2, 2) and a.strides[0] == 0 and not a.flags.writeable
        assert np.array_equal(a, np.einsum("nik,njk->nij", full[:, j], full[:, j]))


def test_weights_must_have_mean_one(grid200, bm_small):
    from dataclasses import replace
    bad = replace(bm_small, weights=np.full(bm_small.n_paths, 2.0))
    with pytest.raises(ValueError, match="mean one"):
        bad.validate()


def test_simulation_error_names_step():
    g = TimeGrid(50)

    def drift(j, prefix):
        out = np.zeros((prefix.shape[0], 1))
        if j == 7:
            out[3] = np.nan
        return out

    model = SemimartingaleModel(name="broken", dim=1,
                                initial_sampler=point_sampler(np.zeros(1)),
                                drift=drift)
    with pytest.raises(SimulationError, match="step 7.*path 3"):
        simulate(model, g, 10, seed=1)


def test_brownian_passes_martingale_test(bm_mid):
    # self-consistency: the canonical process itself is a martingale
    from actionlab import martingale_test
    idx = bm_mid.grid.probe_indices((0.1, 0.25, 0.5, 0.75, 0.9))
    proc = bm_mid.states[:, idx, :]
    report = martingale_test(proc, bm_mid, idx)
    assert passes(report), report.max_abs_statistic


def test_estimate_characteristics_constant_drift(grid200):
    def drift(j, prefix):
        return np.full((prefix.shape[0], 1), 0.4)

    model = SemimartingaleModel(name="cd", dim=1,
                                initial_sampler=point_sampler(np.zeros(1)),
                                drift=drift)
    ens = simulate(model, grid200, 20000, seed=16)
    est = estimate_characteristics(ens, make_state_features(degree=0), [60])[0]
    assert abs(est.drift_coef[0, 0] - 0.4) < 4 * est.drift_se[0, 0]


def test_estimate_characteristics_brownian(bm_mid):
    est = estimate_characteristics(bm_mid, make_state_features(degree=1), [100])[0]
    assert np.all(np.abs(est.drift_coef) < 4 * est.drift_se)
    # alpha intercept near one, state coefficient near zero
    assert abs(est.alpha_coef[0, 0, 0] - 1.0) < 4 * est.alpha_se[0, 0, 0] + 0.01
    assert abs(est.alpha_coef[1, 0, 0]) < 4 * est.alpha_se[1, 0, 0]


def test_estimate_characteristics_pinned(pinned_mid):
    # drift (y - x)/(1 - t): intercept y/(1-t), slope -1/(1-t)
    j = 100
    t = j * pinned_mid.grid.dt
    est = estimate_characteristics(pinned_mid, make_state_features(degree=1), [j])[0]
    assert abs(est.drift_coef[0, 0] - 1.0 / (1 - t)) < 4 * est.drift_se[0, 0]
    assert abs(est.drift_coef[1, 0] + 1.0 / (1 - t)) < 4 * est.drift_se[1, 0]


def test_estimate_characteristics_rank_deficiency(bm_mid):
    dup = make_test_feature_map(
        [lambda x: np.ones(x.shape[0]), lambda x: 3.0 * np.ones(x.shape[0])],
        ["1", "3"])
    with pytest.raises(RankDeficiencyError):
        estimate_characteristics(bm_mid, dup, [50])


def test_export_paths_csv(tmp_path, bm_small):
    target = tmp_path / "paths.csv"
    export_paths_csv(bm_small.path_range(0, 3), target)
    lines = target.read_bytes().decode().strip().split("\n")
    assert lines[0] == "t,path0_x0,path1_x0,path2_x0"
    assert len(lines) == 1 + len(bm_small.grid.times)
    export_paths_csv(bm_small, target)      # the first CSV_PATHS paths only
    header = target.read_bytes().decode().split("\n")[0]
    assert header.split(",")[1:] == [f"path{i}_x0" for i in range(CSV_PATHS)]


def test_weighted_law_holds_one_record():
    # the Brownian base stores its states alone, its noise drawn into the
    # state rows; the weighted law stores nothing more, since its drift rows
    # are computed from the states where they are read
    g, n = TimeGrid(500), 20000
    record = 8 * n * g.m
    base, peak = traced_peak(catalog.build_law, "brownian", g, n, seed=7)
    assert peak < 1.1 * record, peak / record
    assert base.drifts.strides[0] == 0 and not base.drifts.flags.writeable
    del base
    ens, peak = traced_peak(catalog.build_law, "squared_increment_weighted", g, n, seed=7)
    assert peak < 1.1 * record, peak / record
    assert callable(ens.drifts)
    # summing the action holds [n, d] rows, not a record
    _, peak = traced_peak(path_actions, ens, catalog.get_lagrangian("kinetic"))
    assert peak < 0.1 * record, peak / record


@pytest.mark.parametrize("threads", [1, None])
def test_weighted_drift_rows_match_the_stored_record(threads, three_cpus):
    # drift(j) has the bits of the record the law used to store, before, at
    # and after the anchor (step 5 of 10), on one range and on three, and a
    # path range reads that record's rows
    g, n = TimeGrid(10), 3 * NOISE_BLOCK + 7
    ens = catalog.build_law("squared_increment_weighted", g, n, seed=43, threads=threads)
    assert three_cpus == ([] if threads == 1 else [2])
    ref = weighted_drift_record(ens)
    ranges = paths.run_ranges(lambda lo, hi: (lo, hi), n, threads)
    assert len(ranges) == (1 if threads == 1 else 3)
    for j in range(g.m):
        row = ens.drift(j)
        assert _same_bits(row, ref[:, j]), j
        if j < 5:
            assert row.strides[0] == 0 and not row.flags.writeable
        for lo, hi in ranges + [(5, NOISE_BLOCK + 9)]:
            assert _same_bits(ens.path_range(lo, hi).drift(j), ref[lo:hi, j]), (j, lo)


def test_validate_calls_a_row_function_drift(bm_small):
    g, n = bm_small.grid, bm_small.n_paths
    calls = []

    def rows(j, states):
        calls.append(j)
        return np.zeros((states.shape[0], 1))

    replace(bm_small, drifts=rows).validate()
    assert calls == [0, g.m - 1]
    with pytest.raises(ValueError, match="drifts shape mismatch or non-finite at step 0"):
        replace(bm_small, drifts=lambda j, s: np.zeros((n, 2))).validate()
    last_nan = lambda j, s: np.full((s.shape[0], 1), np.nan if j == g.m - 1 else 0.0)
    with pytest.raises(ValueError, match=f"non-finite at step {g.m - 1}"):
        replace(bm_small, drifts=last_nan).validate()


def test_ensembles_are_immutable(bm_small):
    with pytest.raises(ValueError):
        bm_small.states[0, 0, 0] = 1.0


def _record_bytes(law):
    """Bytes of the records ``LawRecipe.fold`` holds per path of a 1-d
    recipe: the states, and the drift record unless the drift is zero."""
    m = law.grid.m
    return 8 * ((m + 1) + (law.model.drift is not None) * m)


def _bits(est):
    return (est.mean, est.stderr, est.n_paths, est.m)


FOLDED = [("brownian", {}), ("pinned_brownian", {"y": 1.0}),
          ("squared_increment_weighted", {}), ("oscillator_adapted", {})]


@pytest.mark.parametrize("threads", [1, None])
@pytest.mark.parametrize("blocks", [1, 2, 4])
@pytest.mark.parametrize("name,params", FOLDED, ids=[name for name, _ in FOLDED])
def test_folded_action_has_the_bits_of_the_built_law(name, params, blocks, threads,
                                                     three_cpus, monkeypatch):
    # three full noise blocks and a partial one, in chunks of one block, two
    # blocks and all of them, on one range and on three; the pinned law keeps
    # its own t_max, and the oscillator is an ensemble, folded over its views
    g, n = TimeGrid(10), 3 * NOISE_BLOCK + 7
    lag = catalog.get_lagrangian("kinetic")
    law = catalog.get_law(name, g, n, seed=47, threads=threads, **params)
    built = catalog.build_law(name, g, n, seed=47, threads=threads, **params)
    if isinstance(law, paths.LawRecipe):
        monkeypatch.setattr(paths, "CHUNK_BYTES", blocks * NOISE_BLOCK * _record_bytes(law))
        assert law.t_max == built.t_max
    else:
        assert name == "oscillator_adapted"
    seen = []
    folded = action(law, lag, also=lambda lo, ens: seen.append((lo, ens.n_paths)))
    assert _bits(folded) == _bits(action(built, lag))
    # a recipe's chunks are whole blocks from the start of each range, and an
    # ensemble's are its ranges
    if isinstance(law, paths.LawRecipe):
        chunk = blocks * NOISE_BLOCK
        ranges = paths.run_ranges(lambda lo, hi: (lo, hi), n, threads)
        expected = [(c, min(chunk, hi - c)) for lo, hi in ranges
                    for c in range(lo, hi, chunk)]
    else:
        expected = paths.run_ranges(lambda lo, hi: (lo, hi - lo), n)
    assert sorted(seen) == expected


def test_fold_hands_out_the_chunks_build_holds(three_cpus):
    # each chunk's states, drift rows, diffusions and raw weights are the
    # built law's rows; the weights come back scaled to mean one
    g, n = TimeGrid(10), 3 * NOISE_BLOCK + 7
    law = catalog.get_law("squared_increment_weighted", g, n, seed=49)
    built = law.build()
    raw = np.empty(n)

    def check(lo, ens):
        view = built.path_range(lo, lo + ens.n_paths)
        assert np.array_equal(ens.states, view.states)
        assert np.array_equal(_drift_rows(ens), _drift_rows(view))
        assert np.array_equal(ens.diffusions, view.diffusions)
        raw[lo:lo + ens.n_paths] = ens.weights

    weights = law.fold(check)
    assert np.array_equal(weights, built.weights) and abs(weights.mean() - 1) < 1e-12
    assert np.array_equal(raw * (n / raw.sum()), built.weights)


@pytest.mark.parametrize("threads", [1, None])
@pytest.mark.parametrize("what", ["drift", "diffusion"])
def test_fold_raises_the_simulation_error_of_simulate(what, threads, three_cpus,
                                                      monkeypatch):
    # path 300 sits in the second one-block chunk and fails first in time;
    # the first chunk fails later, at step 10, and is met first
    model, g, n = _nan_model(**{f"{what}_fails": [(10, 100), (3, 300)]})
    monkeypatch.setattr(paths, "CHUNK_BYTES", 1)
    with pytest.raises(SimulationError) as direct:
        simulate(model, g, n, seed=5, threads=threads)
    consumed = []
    with pytest.raises(SimulationError) as folded:
        paths.LawRecipe(model, g, n, seed=5, threads=threads).fold(
            lambda lo, ens: consumed.append(lo))
    assert str(folded.value) == str(direct.value) == (
        f"model 'nan': non-finite {what} at step 3, path 300")
    # a range consumes no chunk from its first failing one on: the one range,
    # or the first two of three, consume nothing
    assert consumed == ([] if threads == 1 else [512, 768])


def test_folded_weighted_action_holds_no_record(three_cpus, monkeypatch):
    # the fold holds one set of chunk records per range, here three ranges
    # of 4 MiB (1024 paths), each with its 1 MiB staging buffer, and [n] sums
    # and weights, about 16 MB; the law's states would be 80 MB.  At the
    # default 64 MiB a chunk would outgrow each range of these 20,000 paths.
    g, n = TimeGrid(500), 20000
    record = 8 * n * g.m
    monkeypatch.setattr(paths, "CHUNK_BYTES", 4 << 20)
    law = catalog.get_law("squared_increment_weighted", g, n, seed=7)
    est, peak = traced_peak(action, law, catalog.get_lagrangian("kinetic"))
    assert peak < 0.25 * record, peak / record
    assert est.n_paths == n


def _hex(values):
    """Each float as hex, so that -0.0 and 0.0 differ."""
    return [float(v).hex() for v in values]


def _report_bits(rep):
    assert np.isfinite(rep.statistics).all() and rep.statistics.size
    return rep.probe_pairs, rep.test_names, _hex(rep.statistics.ravel())


FOLDED_DIAGNOSTICS = [("pinned_brownian", {"y": 1.0}), ("brownian_drift_t", {}),
                      ("squared_increment_weighted", {})]


@pytest.mark.parametrize("threads", [1, None])
@pytest.mark.parametrize("blocks", [1, 2, 4])
@pytest.mark.parametrize("name,params", FOLDED_DIAGNOSTICS,
                         ids=[name for name, _ in FOLDED_DIAGNOSTICS])
def test_folded_diagnostics_have_the_bits_of_the_built_law(name, params, blocks, threads,
                                                           three_cpus, monkeypatch):
    # four full noise blocks and a partial one (a martingale test needs
    # MIN_PATHS = 1000 paths), in chunks of one block, two blocks and four,
    # on one range and on three: el_certify and variational_derivative on
    # the recipe give the bits they give on the built law; the pinned law
    # keeps its own t_max, and the potential makes x enter both
    g, n = TimeGrid(10), 4 * NOISE_BLOCK + 7
    lag = catalog.get_lagrangian("kinetic_quadratic")
    shift = catalog.get_shift("random_ez", g, seed=5)
    law = catalog.get_law(name, g, n, seed=47, threads=threads, **params)
    built = law.build()
    monkeypatch.setattr(paths, "CHUNK_BYTES", blocks * NOISE_BLOCK * _record_bytes(law))
    assert _report_bits(el_certify(law, lag)) == _report_bits(el_certify(built, lag))
    assert (_hex(astuple(variational_derivative(law, lag, shift)))
            == _hex(astuple(variational_derivative(built, lag, shift))))


def test_folded_diagnostics_hold_no_record(three_cpus, monkeypatch):
    # as for the folded action: three ranges of 4 MiB chunk records (2,560
    # paths) with their staging buffers, and the [n] or [n, P, d] per-path
    # values, about 18 MB; the law's states would be 80 MB
    g, n = TimeGrid(200), 50000
    record = 8 * n * g.m
    monkeypatch.setattr(paths, "CHUNK_BYTES", 4 << 20)
    law = catalog.get_law("squared_increment_weighted", g, n, seed=7)
    kin = catalog.get_lagrangian("kinetic")
    report, peak = traced_peak(el_certify, law, kin)
    assert peak < 0.25 * record, peak / record
    assert report.statistics.shape == (4, 3)
    shift = catalog.get_shift("plus_minus", g)
    res, peak = traced_peak(variational_derivative, law, kin, shift)
    assert peak < 0.25 * record, peak / record
    assert res.epsilon > 0
