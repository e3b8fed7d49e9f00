import numpy as np
import pytest

from actionlab import (AdaptedShift, EndpointError, GridCompatibilityError,
                       MaterializedShift, TimeGrid, catalog, delay_pn, endpoint_qn,
                       endpoint_rn, h_dist_sq, h_norm_sq, materialize, stop_norm_sq,
                       stop_truncate)
from actionlab import paths, shifts
from actionlab._accum import weighted_mean_stderr
from actionlab.shifts import _edges, stop_steps_for
from actionlab.paths import adaptedness_probe
from actionlab.catalog import make_random_endpoint_zero_shift
from conftest import deterministic_law, traced_peak


def w_norm(u):
    """Pathwise sup over time of |h| (Euclidean in space), shape [n]."""
    return np.sqrt(np.einsum("nmd->nm", u.h ** 2)).max(axis=1)


def test_materialize_constant(grid200, bm_small):
    u = materialize(catalog.get_shift("constant", grid200), bm_small)
    assert np.max(np.abs(u.h[:, :, 0] - grid200.times)) < 1e-12
    assert np.all(u.h[:, 0] == 0.0)


def test_materialize_hand_cumsum():
    # 3-step path, hdot = state value: h is the left-rectangle time integral
    g = TimeGrid(3)
    states = np.array([[[0.0], [0.3], [-0.6], [1.2]]])
    drifts = np.zeros((1, 3, 1))
    diffusions = np.broadcast_to(np.eye(1), (1, 3, 1, 1))
    from actionlab.paths import PathEnsemble
    ens = PathEnsemble(grid=g, states=states, drifts=drifts,
                       diffusions=diffusions)
    u = materialize(catalog.get_shift("state", g), ens)
    dt = 1.0 / 3
    expected = [0.0, 0.0, 0.3 * dt, (0.3 - 0.6) * dt]
    assert np.allclose(u.h[0, :, 0], expected, atol=1e-15)


def test_h_built_once_and_only_when_read(grid192, bm192):
    u = materialize(catalog.get_shift("state", grid192), bm192)
    assert "h" not in vars(u)
    assert u.h is u.h
    p = delay_pn(u, 4)            # sums its edges from u.values, builds no h of its own
    h_norm_sq(p)
    p.terminal()
    assert "h" not in vars(p) and "hdot" not in vars(p)


def test_peeking_derivative_rejected(bm_small):
    def peek(j, states):
        look = min(j + 1, states.shape[1] - 1)
        return states[:, look]

    assert adaptedness_probe(peek, bm_small, steps=[40, 120]) > 0.0
    sh = catalog.get_shift("state", bm_small.grid)
    assert adaptedness_probe(sh.derivative, bm_small, steps=[40, 120]) == 0.0


def test_h_norm_sq_constant_shift(grid200):
    ens = deterministic_law(grid200, n_paths=1200)
    e1 = materialize(catalog.get_shift("constant", grid200), ens)
    assert h_norm_sq(e1) == pytest.approx(np.ones(1200), abs=1e-12)


def test_h_norm_sq_sums_coordinates(grid200):
    # unit constant shifts in the two coordinates are orthogonal: the squared
    # norm of their sum is the sum of their squared norms, 1 + 1
    ens = catalog.build_law("brownian", grid200, 1200, seed=7, dim=2)
    a = materialize(catalog.get_shift("constant", grid200, coord=0, dim=2), ens)
    b = materialize(catalog.get_shift("constant", grid200, coord=1, dim=2), ens)
    both = MaterializedShift(a.hdot + b.hdot, ens)
    assert np.array_equal(h_norm_sq(both), h_norm_sq(a) + h_norm_sq(b))
    assert h_norm_sq(both) == pytest.approx(np.full(1200, 2.0), abs=1e-12)


def test_state_shift_brownian_energy(grid200):
    # E int_0^1 W_t^2 dt = int_0^1 t dt = 1/2
    ens = catalog.build_law("brownian", grid200, 100_000, seed=8)
    u = materialize(catalog.get_shift("state", grid200), ens)
    mean, se = weighted_mean_stderr(h_norm_sq(u), ens.weights)
    assert abs(mean - 0.5) < 4 * se + 1 / (2 * grid200.m)


def test_delay_pn_zero_before_two_blocks(bm192, grid192):
    u = materialize(catalog.get_shift("state", grid192), bm192)
    for n in (4, 8):
        p = delay_pn(u, n)
        cut = 2 * grid192.m // n
        assert np.all(p.hdot[:, :cut] == 0.0)


def test_delay_pn_pathwise_contraction(bm192, grid192):
    for seed in range(4):
        u = materialize(catalog.get_shift("random", grid192, seed=seed), bm192)
        base = h_norm_sq(u)
        for n in (4, 8, 16, 32):
            assert np.all(h_norm_sq(delay_pn(u, n)) <= base * (1 + 1e-12) + 1e-15)


def test_delay_pn_constant_closed_form(grid192, bm192):
    # derivative c everywhere: p_n keeps c on [2/n, 1), so the squared error
    # is exactly (2/n)|c|^2, decreasing in n
    c = 0.8
    u = materialize(catalog.get_shift("constant", grid192, scale=c), bm192)
    prev = np.inf
    for n in (4, 8, 16, 32):
        p = delay_pn(u, n)
        err = h_dist_sq(p, u)
        expected = 2.0 / n * c ** 2
        assert np.max(np.abs(err - expected)) < 1e-12
        assert expected < prev
        prev = expected


def test_delay_pn_grid_compatibility(grid200, bm_small):
    u = materialize(catalog.get_shift("constant", grid200), bm_small)
    with pytest.raises(GridCompatibilityError):
        delay_pn(u, 16)  # 200 not divisible by 16
    with pytest.raises(GridCompatibilityError):
        delay_pn(u, 2)


def test_delay_pn_lag_probe(grid192, bm192):
    # p_n at step j only uses ensemble data up to time t_j - 1/n: re-running
    # the whole pipeline on a tampered ensemble changes nothing at step j
    n = 8
    block = grid192.m // n
    sh = catalog.get_shift("tanh_state", grid192)

    def pipeline(states):
        from dataclasses import replace
        ens = replace(bm192, states=states)
        return delay_pn(materialize(sh, ens), n)

    ref = pipeline(bm192.states)
    for j in (2 * block, 3 * block + 1, grid192.m - 1):
        tampered = np.array(bm192.states)
        tampered[:, j - block + 1:] += 5.0
        out = pipeline(tampered)
        assert np.array_equal(out.hdot[:, j], ref.hdot[:, j])


def test_endpoint_rn_terminal_zero(bm192, grid192):
    for seed in range(4):
        u = materialize(catalog.get_shift("random", grid192, seed=seed), bm192)
        for n in (4, 8, 32):
            r = endpoint_rn(u, n)
            assert np.max(np.abs(r.terminal())) <= 1e-10


def test_endpoint_rn_is_delay_minus_endpoint_bitwise(bm192, grid192):
    u = materialize(catalog.get_shift("random", grid192, seed=3), bm192)
    for n in (4, 8, 32):
        assert np.array_equal(endpoint_rn(u, n).hdot,
                              delay_pn(u, n).hdot - endpoint_qn(u, n).hdot)


def test_endpoint_qn_w_norm_bound(bm192, grid192):
    # |q_n(u)|_W <= |u|_W pathwise
    for seed in range(4):
        u = materialize(catalog.get_shift("random", grid192, seed=seed), bm192)
        for n in (4, 8):
            q = endpoint_qn(u, n)
            assert np.all(w_norm(q) <= w_norm(u) * (1 + 1e-12) + 1e-15)


def test_endpoint_rn_block_oracle(grid192, bm192):
    # endpoint-zero piecewise-constant derivative: per-block hand computation
    u = materialize(catalog.get_shift("plus_minus", grid192), bm192)
    m = grid192.m
    for n in (4, 8, 16, 32):
        r = endpoint_rn(u, n)
        block = m // n
        # independent oracle: blockwise averages delayed by two blocks minus
        # the terminal carrier, assembled directly from the definition
        hdot = np.zeros(m)
        hvals = u.h[0, :, 0]
        for k in range(2, n):
            hdot[k * block:(k + 1) * block] = n * (hvals[(k - 1) * block]
                                                   - hvals[(k - 2) * block])
        hdot[(n - 1) * block:] -= n * hvals[(n - 2) * block]
        assert np.max(np.abs(r.hdot[0, :, 0] - hdot)) < 1e-10


def test_endpoint_rn_convergence_monotone(grid192, bm192):
    # reconstruction error at n = 32 strictly below n = 4 for endpoint-zero shifts
    for seed in range(6):
        sh = make_random_endpoint_zero_shift(grid192, seed=500 + seed)
        u = materialize(sh, bm192)
        errs = {n: float(np.mean(h_dist_sq(endpoint_rn(u, n), u)))
                for n in (4, 32)}
        assert errs[32] < errs[4]


def test_stop_truncate_untriggered_identity(grid192, bm192):
    u = materialize(make_random_endpoint_zero_shift(grid192, seed=1), bm192)
    big = float(np.max(np.sqrt(h_norm_sq(u)))) * 10 + 1
    k = stop_truncate(u, big)
    assert np.array_equal(k.hdot, u.hdot)


def test_stop_truncate_contraction_and_equality(grid192, bm192):
    u = materialize(make_random_endpoint_zero_shift(grid192, seed=2), bm192)
    norms = h_norm_sq(u)
    level = float(np.median(np.sqrt(norms)))
    k = stop_truncate(u, level)
    out = h_norm_sq(k)
    assert np.all(out <= norms * (1 + 1e-12) + 1e-15)
    stops = stop_steps_for(u, level)
    triggered = stops < grid192.m
    assert triggered.any() and (~triggered).any()
    assert np.allclose(out[~triggered], norms[~triggered], rtol=0, atol=1e-15)
    # each triggered path keeps its derivative before the stop, bit for bit,
    # and reads the recentring value -h_tau / (1 - tau) from the stop on
    dt = grid192.dt
    for i in np.flatnonzero(triggered):
        j = stops[i]
        assert np.array_equal(k.hdot[i, :j], u.hdot[i, :j])
        assert np.all(k.hdot[i, j:] == -u.h[i, j] / (1.0 - j * dt))
    # a stop at step m-1 recentres the last derivative to -h_{m-1}/dt, which
    # is the original one for an endpoint-zero shift up to the rounding of
    # its terminal value: only earlier stops contract strictly
    last = stops == grid192.m - 1
    assert last.any()
    assert np.all(out[triggered & ~last] < norms[triggered & ~last])
    assert np.allclose(out[last], norms[last], rtol=0, atol=1e-15)
    # |k[u]|_W <= 2 |pi_tau u|_W
    stopped_sup = np.array([
        np.max(np.sqrt(np.sum(u.h[i, : stops[i] + 1] ** 2, axis=-1)))
        for i in range(u.n_paths)])
    assert np.all(w_norm(k) <= 2 * stopped_sup * (1 + 1e-12) + 1e-15)
    assert np.max(np.abs(k.terminal())) <= 1e-10


def test_stop_truncate_hand_built_path():
    # 4-step endpoint-zero shift; the stop triggers at step 2, after which the
    # derivative is the recentering value -u_tau/(1-tau)
    g = TimeGrid(4)
    from actionlab.paths import PathEnsemble
    states = np.zeros((1, 5, 1))
    ens = PathEnsemble(grid=g, states=states, drifts=np.zeros((1, 4, 1)),
                       diffusions=np.broadcast_to(np.eye(1), (1, 4, 1, 1)))
    hdot = np.array([[[2.0], [2.0], [-2.0], [-2.0]]])
    h = np.empty((1, 5, 1))
    h[:, 0] = 0
    np.cumsum(hdot, axis=1, out=h[:, 1:])
    h[:, 1:] *= g.dt
    u = MaterializedShift(hdot, ens)
    # running norms: |pi_{t_j}u|_H^2 = j * (2^2) * dt; level 1.25 trips at j=2
    k = stop_truncate(u, np.sqrt(1.25))
    tau = 2 * g.dt
    u_tau = h[0, 2, 0]
    expected = np.array([2.0, 2.0, -u_tau / (1 - tau), -u_tau / (1 - tau)])
    assert np.allclose(k.hdot[0, :, 0], expected, atol=1e-14)
    assert abs(k.terminal()[0, 0]) < 1e-15


def test_stop_truncate_at_last_step_keeps_the_shift():
    # 4-step endpoint-zero shift with dyadic values; running norms 0, 1/16,
    # 1/8, 3/16, 3/4, so level^2 = 0.15 trips at step m-1 = 3 and the
    # recentring value -h_3/dt = -1.5 is the last derivative itself
    g = TimeGrid(4)
    from actionlab.paths import PathEnsemble
    ens = PathEnsemble(grid=g, states=np.zeros((1, 5, 1)), drifts=np.zeros((1, 4, 1)),
                       diffusions=np.broadcast_to(np.eye(1), (1, 4, 1, 1)))
    u = MaterializedShift(np.array([[[0.5], [0.5], [0.5], [-1.5]]]), ens)
    assert stop_steps_for(u, np.sqrt(0.15))[0] == g.m - 1
    k = stop_truncate(u, np.sqrt(0.15))
    assert np.array_equal(k.hdot, u.hdot)
    assert h_norm_sq(k)[0] == h_norm_sq(u)[0] == 0.75


def test_stop_truncate_rejects_non_endpoint_zero(grid192, bm192):
    u = materialize(catalog.get_shift("constant", grid192), bm192)
    with pytest.raises(EndpointError):
        stop_truncate(u, 1.0)


def test_operator_linearity(grid192, bm192):
    u = materialize(catalog.get_shift("state", grid192), bm192)
    v = materialize(catalog.get_shift("tanh_state", grid192), bm192)
    combo = MaterializedShift(2.5 * u.hdot - 1.5 * v.hdot, bm192)
    for op in (lambda w: delay_pn(w, 8), lambda w: endpoint_qn(w, 8),
               lambda w: endpoint_rn(w, 8)):
        lhs = op(combo).hdot
        rhs = 2.5 * op(u).hdot - 1.5 * op(v).hdot
        assert np.max(np.abs(lhs - rhs)) < 1e-10
    # truncation at a fixed stopping time is linear as well
    uez = endpoint_rn(u, 8)
    vez = endpoint_rn(v, 8)
    combo_ez = MaterializedShift(2.5 * uez.hdot - 1.5 * vez.hdot, bm192)
    stops = stop_steps_for(uez, float(np.median(np.sqrt(h_norm_sq(uez)))))
    lhs = stop_truncate(combo_ez, 1.0, stop_steps=stops).hdot
    rhs = (2.5 * stop_truncate(uez, 1.0, stop_steps=stops).hdot
           - 1.5 * stop_truncate(vez, 1.0, stop_steps=stops).hdot)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def _running_norm_stops(u, level):
    # reference: the running squared norm as a full [paths, m+1] record with
    # a leading zero column, and the first index above level^2 (m if none)
    n, m, _ = u.hdot.shape
    running = np.concatenate(
        [np.zeros((n, 1)),
         np.cumsum(np.einsum("nmd->nm", u.hdot ** 2) * u.ensemble.grid.dt, axis=1)],
        axis=1)
    trig = running > level ** 2
    return np.where(~trig.any(axis=1), m, np.argmax(trig, axis=1))


def test_stop_steps_for_matches_the_running_norm_formula(grid192, bm192):
    for seed in range(20):
        u = materialize(make_random_endpoint_zero_shift(grid192, seed=700 + seed), bm192)
        for q in (0.1, 0.5, 0.9, 1.0):
            level = float(np.quantile(np.sqrt(h_norm_sq(u)), q))
            assert np.array_equal(stop_steps_for(u, level), _running_norm_stops(u, level))
    # the dyadic hand case of test_stop_truncate_at_last_step_keeps_the_shift,
    # at levels that trip at each step and at none
    g = TimeGrid(4)
    from actionlab.paths import PathEnsemble
    ens = PathEnsemble(grid=g, states=np.zeros((1, 5, 1)), drifts=np.zeros((1, 4, 1)),
                       diffusions=np.broadcast_to(np.eye(1), (1, 4, 1, 1)))
    u = MaterializedShift(np.array([[[0.5], [0.5], [0.5], [-1.5]]]), ens)
    for level_sq in (0.01, 0.0625, 0.1, 0.15, 0.5, 0.75, 1.0):
        level = np.sqrt(level_sq)
        assert np.array_equal(stop_steps_for(u, level), _running_norm_stops(u, level))


def test_random_endpoint_zero_shift_follows_the_states_array(grid192, bm192):
    # seed 1 has tanh and sin envelopes: the frozen values depend on the
    # states, and a call on another array must not reuse the last one's
    j = grid192.m - 1
    a = np.array(bm192.states[:64])
    b = a + 1.0
    sh = make_random_endpoint_zero_shift(grid192, seed=1)
    ra, rb, ra2 = sh.derivative(j, a), sh.derivative(j, b), sh.derivative(j, a)
    assert not np.array_equal(ra, rb)
    assert np.array_equal(ra, ra2)
    assert np.array_equal(ra, make_random_endpoint_zero_shift(grid192, seed=1).derivative(j, a))
    assert np.array_equal(rb, make_random_endpoint_zero_shift(grid192, seed=1).derivative(j, b))


def test_random_endpoint_zero_shift_keeps_one_array_per_thread(grid192, bm192):
    # more threads than cores walk their own arrays in lockstep through one
    # shift, switching often; each gets what a fresh shift gives on its
    # array alone
    import sys
    from concurrent.futures import ThreadPoolExecutor
    from threading import Barrier
    arrays = [np.array(bm192.states[i * 32:(i + 1) * 32]) for i in range(4)]
    sh = make_random_endpoint_zero_shift(grid192, seed=1)
    barrier = Barrier(len(arrays), timeout=30)

    def walk(states):
        out = []
        for j in range(grid192.m):
            barrier.wait()
            out.append(sh.derivative(j, states))
        return np.stack(out, axis=1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(arrays)) as ex:
            got = [f.result(timeout=60) for f in [ex.submit(walk, a) for a in arrays]]
    finally:
        sys.setswitchinterval(interval)
    for states, out in zip(arrays, got):
        fresh = make_random_endpoint_zero_shift(grid192, seed=1)
        ref = np.stack([fresh.derivative(j, states) for j in range(grid192.m)], axis=1)
        assert np.array_equal(out, ref)


def test_materialized_shift_blocks_divide_the_grid(grid192, bm192):
    with pytest.raises(GridCompatibilityError):
        MaterializedShift(np.zeros((4, 5, 1)), bm192)
    u = MaterializedShift(np.zeros((4, 8, 1)), bm192)
    assert u.block == 24 and u.hdot.shape == (4, 192, 1)


PROPERTY_BLOCKS = (3, 4, 6, 8, 12, 16, 24, 32, 48)


@pytest.fixture(scope="module")
def few192(grid192):
    return catalog.build_law("brownian", grid192, 48, seed=5)


@pytest.mark.parametrize("seed", range(20))
def test_operator_properties_on_random_shifts(seed, grid192, few192):
    # linearity of p_n, q_n, r_n and of k at a fixed stop, the pathwise
    # contraction |p_n u|_H <= |u|_H and the zero terminal of r_n, on random
    # derivative records of random size and dimension
    rng = np.random.default_rng(seed)
    m, n_paths, dim = grid192.m, few192.n_paths, int(rng.integers(1, 3))

    def random_shift():
        scale = 10.0 ** rng.uniform(-2, 1)
        return MaterializedShift(scale * rng.standard_normal((n_paths, m, dim)), few192)

    u, v = random_shift(), random_shift()
    a, b = rng.uniform(-3, 3, size=2)
    combo = MaterializedShift(a * u.values + b * v.values, few192)
    norm = h_norm_sq(u)
    for n in PROPERTY_BLOCKS:
        for op in (delay_pn, endpoint_qn, endpoint_rn):
            lhs = op(combo, n).values
            rhs = a * op(u, n).values + b * op(v, n).values
            assert np.max(np.abs(lhs - rhs)) <= 1e-11 * (1 + np.max(np.abs(rhs)))
        assert np.all(h_norm_sq(delay_pn(u, n)) <= norm * (1 + 1e-12) + 1e-15)
        uez, vez = endpoint_rn(u, n), endpoint_rn(v, n)
        assert np.max(np.abs(uez.terminal())) <= 1e-10
        stops = rng.integers(1, m + 1, size=n_paths)
        combo_ez = MaterializedShift(a * uez.values + b * vez.values, few192)
        lhs = stop_truncate(combo_ez, 1.0, stop_steps=stops).hdot
        rhs = (a * stop_truncate(uez, 1.0, stop_steps=stops).hdot
               + b * stop_truncate(vez, 1.0, stop_steps=stops).hdot)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11 * (1 + np.max(np.abs(rhs)))


def _per_block_records(u, n):
    # reference: p_n, q_n and r_n assigned block by block into [paths, m, d]
    # records, straight from their definitions on u.h
    b = u.ensemble.grid.m // n
    p = np.empty_like(u.hdot)
    p[:, : 2 * b] = 0.0
    for k in range(2, n):
        p[:, k * b: (k + 1) * b] = (n * (u.h[:, (k - 1) * b] - u.h[:, (k - 2) * b]))[:, None, :]
    q = np.empty_like(u.hdot)
    q[:, : (n - 1) * b] = 0.0
    q[:, (n - 1) * b:] = (n * u.h[:, (n - 2) * b])[:, None, :]
    r = p.copy()
    r[:, (n - 1) * b:] -= (n * u.h[:, (n - 2) * b])[:, None, :]
    return p, q, r


def test_block_operators_expand_to_the_per_block_records(grid192, bm192):
    dt = grid192.dt
    for seed in range(3):
        u = materialize(make_random_endpoint_zero_shift(grid192, seed=800 + seed), bm192)
        for n in PROPERTY_BLOCKS:
            shifts = (delay_pn(u, n), endpoint_qn(u, n), endpoint_rn(u, n))
            for w, record in zip(shifts, _per_block_records(u, n)):
                assert w.values.shape == (bm192.n_paths, n, 1)
                assert np.array_equal(w.hdot, record)
                expanded = np.einsum("nmd,nmd->n", record, record) * dt
                assert np.all(np.abs(h_norm_sq(w) - expanded) <= 1e-13 * expanded)
                diff = record - u.hdot
                expanded = np.einsum("nmd,nmd->n", diff, diff) * dt
                assert np.all(np.abs(h_dist_sq(w, u) - expanded) <= 1e-13 * expanded)
                assert np.array_equal(h_dist_sq(w, u), h_dist_sq(u, w))
                cumsum = np.cumsum(record, axis=1)[:, -1] * dt
                assert np.all(np.abs(w.terminal() - cumsum)
                              <= 1e-13 * np.maximum(1.0, np.abs(cumsum)))


def test_h_dist_sq_between_block_shifts(grid192, bm192):
    # nested (8 in 32) and not nested (8 and 12) block counts
    u = materialize(make_random_endpoint_zero_shift(grid192, seed=5), bm192)
    r8 = endpoint_rn(u, 8)
    for other in (endpoint_rn(u, 32), endpoint_rn(u, 12)):
        diff = other.hdot - r8.hdot
        expanded = np.einsum("nmd,nmd->n", diff, diff) * grid192.dt
        assert np.all(np.abs(h_dist_sq(r8, other) - expanded) <= 1e-13 * expanded)
    assert np.array_equal(h_dist_sq(u, u), np.zeros(bm192.n_paths))


def test_h_dist_sq_rejects_shifts_on_different_ensembles(grid192):
    # the same shift materialized on two laws of equal shape: the paths
    # differ, so a per-path distance between them means nothing
    shift = catalog.get_shift("tanh_state", grid192)
    u, v = (materialize(shift, catalog.build_law("brownian", grid192, 500, seed=s))
            for s in (1, 2))
    with pytest.raises(ValueError, match="bound"):
        h_dist_sq(u, v)
    with pytest.raises(ValueError, match="bound"):
        h_dist_sq(endpoint_rn(u, 8), v)


def test_operator_checks_build_no_record(grid192, bm192):
    # the runner's checks allocate far less than one [paths, m, d] record:
    # the kept edges of u's integral, block values and per-step rows only,
    # and the stop's contraction check builds no truncated shift
    u = materialize(make_random_endpoint_zero_shift(grid192, seed=6), bm192)
    record = u.values.nbytes
    level = float(np.median(np.sqrt(h_norm_sq(u))))
    checks = (lambda: h_norm_sq(delay_pn(u, 4)),
              lambda: endpoint_rn(u, 8).terminal(),
              lambda: h_dist_sq(endpoint_rn(u, 4), u),
              lambda: h_dist_sq(endpoint_rn(u, 32), u),
              lambda: stop_norm_sq(u, level))
    for check in checks:
        assert traced_peak(check)[1] < record / 2


def test_shift_walks_are_bit_identical_across_splits(three_cpus, monkeypatch):
    # five full noise blocks and a partial one, walked in three path ranges
    # and in one: materialize, the integral h and the stop steps keep their
    # bits, and h keeps those of one cumulative sum over the whole record
    g, n = TimeGrid(32), 5 * paths.NOISE_BLOCK + 7
    ens = catalog.build_law("brownian", g, n, seed=45)
    sh = make_random_endpoint_zero_shift(g, seed=7)

    def run():
        three_cpus.clear()
        u = materialize(sh, ens)
        level = float(np.median(np.sqrt(h_norm_sq(u))))
        walked = u.hdot, u.h, stop_steps_for(u, level), list(three_cpus)
        k = stop_truncate(u, level)
        return walked + (k.hdot, h_dist_sq(endpoint_rn(u, 4), u), h_dist_sq(k, u))

    hdot3, h3, stops3, pools, k3, dist3, kdist3 = run()
    assert pools == [2, 2, 2]
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 1)
    hdot1, h1, stops1, pools, k1, dist1, kdist1 = run()
    assert pools == []
    assert np.array_equal(hdot1, hdot3)
    assert np.array_equal(h1, h3)
    assert np.array_equal(stops1, stops3)
    assert np.array_equal(k1, k3)
    assert np.array_equal(dist1, dist3)
    assert np.array_equal(kdist1, kdist3)
    h = np.zeros((n, g.m + 1, 1))
    np.cumsum(hdot1, axis=1, out=h[:, 1:])
    h[:, 1:] *= g.dt
    assert np.array_equal(h1, h)


def test_shift_records_are_time_major(grid192, bm192):
    # materialize and stop_truncate store their [n, m, d] records time-major,
    # as the path records are, so each step's values are one contiguous row
    u = materialize(make_random_endpoint_zero_shift(grid192, seed=2), bm192)
    k = stop_truncate(u, float(np.median(np.sqrt(h_norm_sq(u)))))
    for record in (u.hdot, u.h, k.hdot, endpoint_rn(u, 8).hdot):
        assert record.strides[0] < record.strides[1]
        assert record.transpose(1, 0, 2).flags.c_contiguous


# coarse first, each count summed again, and the runner's fine first
EDGE_ORDERS = [(3, 4, 8, 16, 32), (32, 16, 8, 4)]


@pytest.mark.parametrize("cpus", [1, 3])
def test_edges_have_the_bits_of_h(three_cpus, monkeypatch, cpus):
    # edges summed from the block values of a general shift and of block-valued
    # ones, in each order of EDGE_ORDERS, on 1 or 3 path ranges, are the
    # integral h at the block edges, bit for bit; in the runner's order a
    # shift sums them once
    monkeypatch.setattr(paths, "_usable_cpus", lambda: cpus)
    g, n = TimeGrid(96), 5 * paths.NOISE_BLOCK + 7
    ens = catalog.build_law("brownian", g, n, seed=45)
    general = materialize(make_random_endpoint_zero_shift(g, seed=7), ens)
    rng = np.random.default_rng(3)
    records = (general.values, endpoint_rn(general, 8).values,
               rng.standard_normal((n, 12, 2)))
    sums = []
    summed = shifts._summed_edges
    monkeypatch.setattr(shifts, "_summed_edges", lambda u, stride: sums.append(stride)
                        or summed(u, stride))
    for order in EDGE_ORDERS:
        for values in records:
            h = MaterializedShift(values, ens).h
            u = MaterializedShift(values, ens)
            sums.clear()
            for nb in order:
                assert np.array_equal(_edges(u, nb), h[:, ::g.m // nb])
            assert "h" not in vars(u)
            if order == (32, 16, 8, 4):
                assert sums == [g.m // 32]
    assert bool(three_cpus) == (cpus == 3)


def _stop_reference(u, ref, jstar):
    """k[u] at the stop steps ``jstar``, recentred by h read from ``ref.h``."""
    m, dt = u.ensemble.grid.m, u.ensemble.grid.dt
    u_tau = ref.h[np.arange(u.n_paths), jstar]
    denom = np.where(jstar < m, 1.0 - jstar * dt, 1.0)
    recenter = np.where((jstar < m)[:, None], -u_tau / denom[:, None], 0.0)
    stopped = np.arange(m)[None, :] >= jstar[:, None]
    return u_tau, np.where(stopped[:, :, None], recenter[:, None], ref.hdot)


@pytest.mark.parametrize("cpus", [1, 3])
def test_stop_truncate_keeps_its_bits_without_h(three_cpus, monkeypatch, cpus):
    # the stop reads h at each path's stop from its walk: that h and the
    # truncated values are those recentred by the built integral, under the
    # level rule and at given stop steps, for a general and a block-valued shift
    monkeypatch.setattr(paths, "_usable_cpus", lambda: cpus)
    g, n = TimeGrid(96), 5 * paths.NOISE_BLOCK + 7
    ens = catalog.build_law("brownian", g, n, seed=46)
    general = materialize(make_random_endpoint_zero_shift(g, seed=8), ens)
    given = np.random.default_rng(4).integers(1, g.m + 1, size=n)
    for values in (general.values, endpoint_rn(general, 8).values):
        u, ref = MaterializedShift(values, ens), MaterializedShift(values, ens)
        level = float(np.median(np.sqrt(h_norm_sq(u))))
        stops = stop_steps_for(u, level)
        assert (stops < g.m).any() and (stops == g.m).any()
        for steps, kwargs in ((stops, {}), (given, {"stop_steps": given})):
            u_tau, expected = _stop_reference(u, ref, steps)
            walked, tau = shifts._stop_walk(u, level, kwargs.get("stop_steps"))
            hit = steps < g.m                 # an untriggered path recentres by 0
            assert np.array_equal(walked, steps) and np.array_equal(tau[hit], u_tau[hit])
            assert np.array_equal(stop_truncate(u, level, **kwargs).values, expected)
        assert "h" not in vars(u)


@pytest.mark.parametrize("cpus", [1, 3])
def test_stop_norm_sq_is_the_norm_of_the_truncation(grid192, bm192, three_cpus,
                                                    monkeypatch, cpus):
    # the runner's contraction check sums the truncation's step rows and keeps
    # the bits of h_norm_sq(stop_truncate(u, level)) at d = 1, at levels that
    # stop some paths, none and all of them, on one path range and on three
    monkeypatch.setattr(paths, "_usable_cpus", lambda: cpus)
    m = grid192.m
    for seed in range(20):
        u = materialize(make_random_endpoint_zero_shift(grid192, seed=900 + seed), bm192)
        root = np.sqrt(h_norm_sq(u))
        some, none = float(np.median(root)), float(root.max()) * 10 + 1
        every = float(root.min()) / 2
        assert (stop_steps_for(u, none) == m).all()
        assert (stop_steps_for(u, every) < m).all()
        for level in (some, none, every):
            assert np.array_equal(stop_norm_sq(u, level),
                                  h_norm_sq(stop_truncate(u, level)))
    assert bool(three_cpus) == (cpus == 3)
    # at d = 2 the coordinates are summed after the steps, h_norm_sq sums
    # both at once: the same value up to the order of the additions
    ens = catalog.build_law("brownian", grid192, 2000, seed=105, dim=2)
    a, b = (make_random_endpoint_zero_shift(grid192, seed=s, dim=2) for s in (11, 12))
    planar = AdaptedShift("planar", lambda j, x: a.derivative(j, x)
                          + b.derivative(j, x)[:, ::-1])
    u = materialize(planar, ens)
    assert (u.values != 0).any(axis=(0, 1)).all()
    level = float(np.median(np.sqrt(h_norm_sq(u))))
    expected = h_norm_sq(stop_truncate(u, level))
    assert np.allclose(stop_norm_sq(u, level), expected, rtol=1e-13, atol=0)


def test_stop_norm_sq_rejects_what_stop_truncate_rejects(grid192, bm192):
    ez = materialize(make_random_endpoint_zero_shift(grid192, seed=3), bm192)
    drifting = materialize(catalog.get_shift("constant", grid192), bm192)
    for u, level, error in ((ez, 0.0, ValueError), (ez, -1.0, ValueError),
                            (drifting, 1.0, EndpointError),
                            (drifting, 0.0, ValueError)):
        for op in (stop_truncate, stop_norm_sq):
            with pytest.raises(error) as caught:
                op(u, level)
            assert type(caught.value) is error
    for op in (stop_truncate, stop_norm_sq):
        op(ez, 1.0)


def test_operators_build_no_integral(grid192, bm192):
    # the runner's operator calls on one shift read h from running sums alone
    u = materialize(make_random_endpoint_zero_shift(grid192, seed=6), bm192)
    for nb in (32, 16, 8, 4):
        delay_pn(u, nb)
    for nb in (8, 4, 32):
        endpoint_rn(u, nb)
    stop_truncate(u, float(np.median(np.sqrt(h_norm_sq(u)))))
    assert "h" not in vars(u)
