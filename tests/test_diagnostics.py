from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy import integrate

from actionlab import (AdaptedShift, EndpointError, PowerError, TimeGrid, catalog,
                       drift_representation_check, el_certify, martingale_test,
                       materialize, noether_invariant, paths, variational_derivative)
from actionlab.catalog import make_random_endpoint_zero_shift
from actionlab.diagnostics import (DEFAULT_PROBE_FRACTIONS, DEFAULT_THRESHOLD,
                                   NoetherFamily, verdict)
from actionlab._accum import weighted_mean_stderr
from actionlab.lagrangians import Lagrangian, action, el_process, path_actions
from actionlab.transform import push_shift
from actionlab.paths import NOISE_BLOCK, PathEnsemble, SemimartingaleModel, simulate
from conftest import passes, traced_peak


def _probe_idx(ens, fr=DEFAULT_PROBE_FRACTIONS):
    return ens.grid.probe_indices(fr, ens.t_max)


def test_martingale_test_brownian_passes(bm_mid):
    idx = _probe_idx(bm_mid)
    rep = martingale_test(bm_mid.states[:, idx, :], bm_mid, idx)
    assert passes(rep)
    assert rep.statistics.shape == (len(idx) - 1, 3)


@pytest.mark.parametrize("fractions", [(), (0.5,), (0.5, 0.502)],
                         ids=["none", "one", "colliding"])
def test_fewer_than_two_probe_steps_raise(bm_mid, fractions):
    # none gives no probe step, the others one at m = 200: no pair to test
    # (and for none no statistic at all), which must not read as a PASS
    idx = _probe_idx(bm_mid, fractions)
    assert len(idx) == min(len(fractions), 1)
    with pytest.raises(ValueError, match="two distinct probe steps"):
        martingale_test(bm_mid.states[:, idx, :], bm_mid, idx)
    if not idx:
        with pytest.raises(ValueError, match="at least one probe step"):
            drift_representation_check(bm_mid, probe_fractions=fractions)


def test_martingale_test_squared_process_fails(bm_mid):
    # W^2 has deterministic increment mean (t - s): the constant feature
    # statistic grows like sqrt(n) and blows past any fixed threshold
    idx = _probe_idx(bm_mid)
    proc = bm_mid.states[:, idx, 0] ** 2
    rep = martingale_test(proc, bm_mid, idx)
    assert not passes(rep)
    n = bm_mid.n_paths
    s, t = 0.5, 0.75
    predicted = (t - s) * np.sqrt(n) / np.sqrt(2 * (t ** 2 - s ** 2))
    assert rep.max_abs_statistic > predicted / 3


@pytest.mark.parametrize("field", [lambda t, x: x, lambda t, x: x ** 2 - t],
                         ids=["coordinate", "square_minus_t"])
def test_martingale_test_space_time_harmonic_fields(bm_mid, field):
    # W and W^2 - t have no finite-variation part, so both pass
    idx = _probe_idx(bm_mid, (0.1, 0.25, 0.5, 0.75, 0.9))
    dt = bm_mid.grid.dt
    proc = np.stack([field(j * dt, bm_mid.states[:, j, 0]) for j in idx], axis=1)
    rep = martingale_test(proc, bm_mid, idx)
    assert passes(rep), rep.max_abs_statistic


def test_martingale_test_bridge_drift_process(pinned_mid):
    # the bridge drift (y - W_t)/(1 - t) is itself a martingale
    idx = _probe_idx(pinned_mid)
    dt = pinned_mid.grid.dt
    proc = np.stack([(1.0 - pinned_mid.states[:, j, 0]) / (1.0 - j * dt)
                     for j in idx], axis=1)
    rep = martingale_test(proc, pinned_mid, idx)
    assert passes(rep), rep.max_abs_statistic


def test_verdict_is_monotone_in_the_threshold(bm_mid):
    idx = _probe_idx(bm_mid)
    stat = martingale_test(bm_mid.states[:, idx, 0] ** 2, bm_mid, idx).max_abs_statistic
    assert verdict([stat], 4.0) == (False, stat)
    assert verdict([stat], stat + 1) == (True, stat)
    thresholds = np.linspace(0.0, 2 * stat, 41)
    passed = [verdict([0.5 * stat, stat], c)[0] for c in thresholds]
    assert passed == sorted(passed) and passed[0] is False and passed[-1] is True


def test_verdict_passes_at_the_threshold_itself():
    assert verdict([1.0, DEFAULT_THRESHOLD]) == (True, DEFAULT_THRESHOLD)
    assert verdict([np.nextafter(DEFAULT_THRESHOLD, np.inf)])[0] is False


@pytest.mark.parametrize("stats", [[float("nan")], [1.0, float("nan")],
                                   [float("nan"), 1.0], [float("inf")]],
                         ids=["nan", "nan_after_number", "nan_first", "inf"])
def test_verdict_fails_a_non_finite_statistic(stats):
    # at any threshold, however large
    assert verdict(stats, threshold=float("inf"))[0] is False


def test_verdict_on_no_statistic_raises():
    # no statistic is no evidence, not a PASS
    with pytest.raises(ValueError):
        verdict([])


def test_martingale_test_refuses_low_power(grid200):
    ens = catalog.build_law("brownian", grid200, 500, seed=1)
    idx = _probe_idx(ens)
    with pytest.raises(PowerError):
        martingale_test(ens.states[:, idx, :], ens, idx)


def test_el_certify_positive_and_negative(pinned_mid, squared_mid, grid200):
    kin = catalog.get_lagrangian("kinetic")
    assert passes(el_certify(pinned_mid, kin))
    assert passes(el_certify(squared_mid, kin))
    neg = catalog.build_law("brownian_drift_t", grid200, 2000, seed=7)
    assert not passes(el_certify(neg, kin))
    ou = catalog.build_law("ornstein_uhlenbeck", grid200, 20000, seed=8)
    assert not passes(el_certify(ou, kin))


def test_variational_critical_brownian(bm_mid):
    kin = catalog.get_lagrangian("kinetic")
    res = variational_derivative(bm_mid, kin, catalog.get_shift("plus_minus", bm_mid.grid))
    assert res.fd == 0.0 and res.formula == 0.0
    assert res.gaps() == (0.0, 0.0, 0.0)
    assert verdict(res.gaps()[:1])[0] and verdict(res.gaps()[1:])[0]


def test_variational_deterministic_constant_drift(grid200):
    # deterministic line: the endpoint-zero profile kills the constant drift
    from conftest import deterministic_law
    ens = deterministic_law(grid200, n_paths=256, drift_value=lambda t: 2.0)
    kin = catalog.get_lagrangian("kinetic")
    res = variational_derivative(ens, kin, catalog.get_shift("plus_minus", grid200))
    # fd carries rounding amplified by the 1/(2 eps) division
    assert abs(res.fd) < 1e-10 and abs(res.formula) < 1e-12


def test_variational_noncritical_quadrature_oracle(grid200):
    # drift v_t = t against the two-level profile: independent quadrature gives
    # int_0^1/2 t dt - int_1/2^1 t dt = -1/4
    oracle = (integrate.quad(lambda t: t, 0, 0.5)[0]
              - integrate.quad(lambda t: t, 0.5, 1.0)[0])
    assert oracle == pytest.approx(-0.25, abs=1e-14)
    ens = catalog.build_law("brownian_drift_t", grid200, 20000, seed=9)
    kin = catalog.get_lagrangian("kinetic")
    res = variational_derivative(ens, kin, catalog.get_shift("plus_minus", grid200))
    assert verdict(res.gaps()[:1])[0]
    assert res.formula == pytest.approx(oracle, abs=2 / grid200.m)
    assert res.fd == pytest.approx(oracle, abs=2 / grid200.m)
    assert not verdict(res.gaps()[1:])[0]


_BAD_EPS = "eps must be finite and positive"


@pytest.mark.parametrize("t_max,eps_list,error,message", [
    (0.0, (1e-2, 1e-3), ValueError, r"t_max must lie in \(0, 1\]"),
    (1.5, (1e-2, 1e-3), ValueError, r"t_max must lie in \(0, 1\]"),
    (1.0, (1e-2, 1e-3), EndpointError, "requires an endpoint-zero shift"),
    (1.0, (0.0,), ValueError, _BAD_EPS),
    (1.0, (float("nan"),), ValueError, _BAD_EPS),
    (1.0, (float("inf"),), ValueError, _BAD_EPS),
    (1.0, (-1e-2,), ValueError, _BAD_EPS),
    (1.0, (1e-2, 0.0), ValueError, _BAD_EPS),
    (1.0, (), ValueError, _BAD_EPS),
], ids=["t_max_zero", "t_max_above_one", "not_endpoint_zero", "eps_zero",
        "eps_nan", "eps_inf", "eps_negative", "eps_second_zero", "eps_empty"])
def test_variational_argument_checks(bm_small, t_max, eps_list, error, message):
    # the constant shift is not endpoint-zero, so the t_max and epsilon
    # errors must be raised before the endpoint-zero check; the horizon is
    # checked when the ensemble with it is made
    kin = catalog.get_lagrangian("kinetic")
    shift = catalog.get_shift("constant", bm_small.grid)
    ens = bm_small
    with pytest.raises(error, match=message):
        if t_max != ens.t_max:
            ens = replace(ens, t_max=t_max)
        variational_derivative(ens, kin, shift, eps_list=eps_list)


def _bits(values):
    """Each float as hex, so that -0.0 and 0.0 differ."""
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("eps_list", [(1e-2,), (1e-2, 1e-3)], ids=["one_eps", "two_eps"])
@pytest.mark.parametrize("shift", ["plus_minus", "random_ez"])
@pytest.mark.parametrize("law,t_max", [("brownian", 1.0), ("brownian_drift_t", 1.0),
                                       ("squared_increment_weighted", 0.8)],
                         ids=["brownian", "drift_t", "weighted"])
def test_variational_is_bit_identical_across_splits(law, t_max, shift, eps_list,
                                                    three_cpus, monkeypatch):
    # three full noise blocks and a partial one, walked in three path ranges
    # and in one: materialize, path_actions and every field of the result
    # must keep their bits; the potential makes x + e h enter the action.
    # variational_derivative evaluates the shift along its walk, never
    # materialized
    g, n = TimeGrid(16), 3 * NOISE_BLOCK + 7
    ens = replace(catalog.build_law(law, g, n, seed=43), t_max=t_max)
    lag = catalog.get_lagrangian("kinetic_quadratic")
    sh = (make_random_endpoint_zero_shift(g, seed=6) if shift == "random_ez"
          else catalog.get_shift("plus_minus", g))

    def run():
        three_cpus.clear()
        u = materialize(sh, ens)
        res = variational_derivative(ens, lag, sh, eps_list=eps_list)
        return u.hdot, path_actions(ens, lag), _bits(astuple(res)), list(three_cpus)

    hdot3, act3, res3, pools = run()
    # each of the three calls runs its first range on the calling thread
    assert pools == [2, 2, 2]
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 1)
    hdot1, act1, res1, pools = run()
    assert pools == []
    assert np.array_equal(hdot1, hdot3)
    assert _bits(act1) == _bits(act3)
    assert res1 == res3


def _off_on_the_last_path(ens, shift, value):
    """``shift`` with its derivative set to ``value`` from step 1 on, on the
    last path of ``ens`` alone, found by its first state after the start;
    the derivative calls are recorded as ``(step, paths)``."""
    marker, calls = ens.states[-1, 1, 0], []

    def derivative(j, states):
        out = np.array(shift.derivative(j, states), dtype=np.float64)
        if j >= 1:
            out[states[:, 1, 0] == marker] = value
        calls.append((j, states.shape[0]))
        return out

    return AdaptedShift(shift.name, derivative), calls


@pytest.mark.parametrize("cpus", [1, 3])
def test_variational_endpoint_error_after_the_pass(cpus, three_cpus, monkeypatch):
    # only the last path misses the endpoint, so at three ranges only the
    # last range sees it; the error still comes, after the pass: every
    # path has been walked through every step
    monkeypatch.setattr(paths, "_usable_cpus", lambda: cpus)
    g, n = TimeGrid(16), 3 * NOISE_BLOCK + 7
    ens = catalog.build_law("brownian", g, n, seed=44)
    shift, calls = _off_on_the_last_path(ens, catalog.get_shift("plus_minus", g), 1.0)
    three_cpus.clear()
    with pytest.raises(EndpointError, match="requires an endpoint-zero shift"):
        variational_derivative(ens, catalog.get_lagrangian("kinetic"), shift)
    assert three_cpus == ([2] if cpus == 3 else [])
    for j in range(g.m):
        assert sum(k for i, k in calls if i == j) == n


@pytest.mark.parametrize("cpus", [1, 3])
def test_variational_raises_the_non_finite_error_of_materialize(cpus, three_cpus,
                                                                monkeypatch):
    # a NaN derivative on the last path, which also makes its endpoint NaN:
    # the error is materialize's, at one range and at three, and comes first
    monkeypatch.setattr(paths, "_usable_cpus", lambda: cpus)
    g = TimeGrid(16)
    law = catalog.get_law("brownian", g, 3 * NOISE_BLOCK + 7, seed=44)
    ens = law.build()
    shift, _ = _off_on_the_last_path(ens, catalog.get_shift("plus_minus", g), np.nan)
    with pytest.raises(ValueError) as direct:
        materialize(shift, ens)
    kin = catalog.get_lagrangian("kinetic")
    for folded in (ens, law):
        with pytest.raises(ValueError) as walked:
            variational_derivative(folded, kin, shift)
        assert str(walked.value) == str(direct.value) == (
            f"shift '{shift.name}' produced non-finite derivative")


def test_variational_holds_no_working_record(bm_mid):
    # h and the Euler-Lagrange process are streamed one step at a time, so
    # only [n] and [n, d] arrays are held above the inputs: 0.075-0.079 of
    # one [n, m, d] record at m = 200 when split into 1 to 8 ranges
    kin = catalog.get_lagrangian("kinetic")
    shift = catalog.get_shift("plus_minus", bm_mid.grid)
    record = 8 * bm_mid.n_paths * bm_mid.grid.m * bm_mid.dim
    res, peak = traced_peak(variational_derivative, bm_mid, kin, shift)
    assert verdict(res.gaps()[1:])[0]
    assert peak < 0.1 * record, peak / record


def _reference_variational(ens, lag, u, eps_list):
    """The finite difference through pushed ensembles (which keep the
    ensemble's ``t_max``) and ``path_actions``, and the formula from the
    whole ``el_process`` record, which the step loop of
    ``variational_derivative`` must match bit for bit."""
    xi, formula_pp = el_process(ens, lag), np.zeros(ens.n_paths)
    for j in range(ens.grid.m):    # the step loop's order: step by step
        formula_pp += np.einsum("nd,nd->n", xi[:, j], u.hdot[:, j])
    formula_pp *= ens.grid.dt
    fd_by_eps = {}
    for eps in eps_list:
        plus = path_actions(push_shift(ens, u, +eps), lag)
        minus = path_actions(push_shift(ens, u, -eps), lag)
        fd_by_eps[eps] = (plus - minus) / (2 * eps)
    eps_sorted = sorted(fd_by_eps, reverse=True)
    gaps = {b: abs(float(np.mean(fd_by_eps[a] - fd_by_eps[b])))
            for a, b in zip(eps_sorted[:-1], eps_sorted[1:])}
    eps_star = min(gaps, key=gaps.get) if gaps else eps_sorted[0]
    fd_pp = fd_by_eps[eps_star]
    w = ens.weights
    return (*weighted_mean_stderr(fd_pp, w), *weighted_mean_stderr(formula_pp, w),
            *weighted_mean_stderr(fd_pp - formula_pp, w), 2.0 / ens.grid.m, eps_star)


@pytest.mark.parametrize("law,lag_name,shift,eps_list,t_max", [
    ("pinned_brownian", "kinetic", {"name": "plus_minus"}, (1e-2, 1e-3), 0.85),
    ("squared_increment_weighted", "kinetic_quadratic", {"name": "random_ez", "seed": 3},
     (1e-2,), 1.0),
    ("ornstein_uhlenbeck", "kinetic_x1sq", {"name": "random_ez", "seed": 4},
     (3e-2, 1e-2, 1e-3), 1.0),
], ids=["t_max", "weighted", "three_eps"])
def test_streaming_fd_matches_pushed_ensembles(grid200, law, lag_name, shift, eps_list,
                                               t_max):
    ens = replace(catalog.build_law(law, grid200, 1500, seed=41), t_max=t_max)
    lag = catalog.get_lagrangian(lag_name)
    sh = catalog.get_shift(grid=grid200, **shift)
    u = materialize(sh, ens)
    res = variational_derivative(ens, lag, sh, eps_list=eps_list)
    assert np.array_equal(astuple(res), _reference_variational(ens, lag, u, eps_list))


def _explicit_action(ens, lag, steps):
    total = np.zeros(ens.n_paths)
    for j in range(steps):
        t = j * ens.grid.dt
        total += lag.value(t, ens.states[:, j], ens.drifts[:, j], ens.alpha(j)) * ens.grid.dt
    return total


@pytest.mark.parametrize("m", [6, 29, 200])
def test_pinned_horizon_stops_before_the_last_step(m):
    # the pinned law's t_max = 1 - 1/m; at m = 6 and 29 the rounded j * dt of
    # step m-1 falls below it, but the horizon must still hold steps j < m-1
    g = TimeGrid(m)
    ens = catalog.build_law("pinned_brownian", g, 1000, seed=61)
    assert g.steps_before(ens.t_max) == m - 1
    kin = catalog.get_lagrangian("kinetic")
    assert np.array_equal(path_actions(ens, kin), _explicit_action(ens, kin, m - 1))

    shift = catalog.get_shift("random_ez", g, seed=5)
    u = materialize(shift, ens)
    eps = 1e-2
    fd_pp = (_explicit_action(push_shift(ens, u, eps), kin, m - 1)
             - _explicit_action(push_shift(ens, u, -eps), kin, m - 1)) / (2 * eps)
    res = variational_derivative(ens, kin, shift, eps_list=(eps,))
    assert (res.fd, res.fd_se) == weighted_mean_stderr(fd_pp, ens.weights)


# The bits of action(ens, kin) (mean, stderr) and of every field of
# variational_derivative(ens, kin, u) on the pinned law of 1000 paths, seed
# 61, and the random_ez shift of seed 5, whose horizon is the law's t_max.
# Pinned on the SFC64 block streams, where they equal the bits of
# _explicit_action over the m - 1 steps and of _reference_variational.
_PINNED_AT_HORIZON = {
    29: (["0x1.a82d76dd80eabp+0", "0x1.594f322e4f42ap-5"],
         ["-0x1.8c287fee605dfp-6", "0x1.4b70e122bf6f2p-8", "-0x1.96ef877aef993p-7",
          "0x1.838aab042483bp-8", "-0x1.81617861d122ep-7", "0x1.8d28e9d6abde8p-9",
          "0x1.1a7b9611a7b96p-4", "0x1.0624dd2f1a9fcp-10"]),
    200: (["0x1.44e6238197509p+1", "0x1.f8a231e7bc5ebp-5"],
          ["0x1.509fb6a1f077fp-9", "0x1.666fb84cf8cfdp-8", "0x1.705a9c7939fb3p-8",
           "0x1.8887399e855a0p-8", "-0x1.90158250837e9p-9", "0x1.7ba322fe5d562p-10",
           "0x1.47ae147ae147bp-7", "0x1.0624dd2f1a9fcp-10"]),
}


@pytest.mark.parametrize("m", sorted(_PINNED_AT_HORIZON))
def test_action_and_variational_stop_at_the_law_horizon(m):
    # the pinned law carries t_max = 1 - 1/m, and both read it: the
    # singular last step is left out without a horizon argument
    g = TimeGrid(m)
    ens = catalog.build_law("pinned_brownian", g, 1000, seed=61)
    assert ens.t_max == 1.0 - g.dt
    kin = catalog.get_lagrangian("kinetic")
    est = action(ens, kin)
    res = variational_derivative(ens, kin, catalog.get_shift("random_ez", g, seed=5))
    assert (_bits((est.mean, est.stderr)), _bits(astuple(res))) == _PINNED_AT_HORIZON[m]
    # the whole horizon integrates the singular last step: another value
    whole = replace(ens, t_max=1.0)
    assert action(whole, kin).mean != est.mean


@pytest.mark.parametrize("t_max", [0.0, -0.5, 1.5, float("nan")])
def test_ensemble_rejects_a_horizon_outside_zero_one(bm_small, t_max):
    # one check, made by the ensemble itself and so by replace as well
    with pytest.raises(ValueError, match=r"t_max must lie in \(0, 1\]"):
        replace(bm_small, t_max=t_max)
    with pytest.raises(ValueError, match=r"t_max must lie in \(0, 1\]"):
        PathEnsemble(grid=bm_small.grid, states=bm_small.states, drifts=bm_small.drifts,
                     diffusions=bm_small.diffusions, t_max=t_max)


def test_oscillator_mean_follows_classical_ode(grid200):
    # classical averaged dynamics: the path means satisfy the linear system
    # m_x' = m_v, m_v' = -m_x started from (1, 0); closed form m_v = -sin t
    osc = catalog.build_law("oscillator_adapted", grid200, 50_000, seed=12)
    mv = osc.drifts[:, :, 0].mean(axis=0)
    t = grid200.times[:-1]
    assert np.max(np.abs(mv + np.sin(t))) < 0.02


def test_drift_representation_three_laws(bm_mid, pinned_mid, squared_mid):
    for ens in (bm_mid, pinned_mid, squared_mid):
        rep = drift_representation_check(ens)
        assert passes(rep), (ens.label, rep.max_abs_statistic)
        assert rep.probe_pairs == [(0.6, 1.0), (0.75, 1.0), (0.9, 1.0)]


def test_drift_representation_with_potential_term(grid200):
    # oscillator with quadratic potential: the pull-to-endpoint variable needs
    # the forward potential integral
    osc = catalog.build_law("oscillator_adapted", grid200, 50_000, seed=13)
    rep = drift_representation_check(osc, grad_potential=lambda t, x: x)
    assert passes(rep), rep.max_abs_statistic
    # and without the potential term the check fails (wrong representation)
    rep_wrong = drift_representation_check(osc)
    assert not passes(rep_wrong)


def test_drift_representation_negative_control(grid200):
    ou = catalog.build_law("ornstein_uhlenbeck", grid200, 20000, seed=14)
    rep = drift_representation_check(ou)
    assert not passes(rep)


def test_noether_translation_collapses_to_momentum(pinned_mid):
    kin = catalog.get_lagrangian("kinetic")
    family = catalog.get_family("translation")
    inv, rep = noether_invariant(pinned_mid, kin, family)
    idx = _probe_idx(pinned_mid)
    # with zero generator gradient the invariant is the first momentum coord
    expected = np.stack([pinned_mid.drifts[:, j, 0] for j in idx], axis=1)
    assert np.allclose(inv, expected, atol=1e-12)
    assert passes(rep)


def test_noether_rotation_radial_passes(grid200):
    osc = catalog.build_law("oscillator_adapted", grid200, 20000, seed=15,
                            dim=2, x0=(1.0, 0.0))
    kq = catalog.get_lagrangian("kinetic_quadratic")
    assert passes(el_certify(osc, kq))
    _, rep = noether_invariant(osc, kq, catalog.get_family("rotation"))
    assert passes(rep), rep.max_abs_statistic


def test_noether_rotation_nonradial_fails(grid200):
    bad = catalog.build_law("oscillator_nonradial", grid200, 20000, seed=15)
    kx = catalog.get_lagrangian("kinetic_x1sq")
    assert passes(el_certify(bad, kx))  # satisfies its own dynamics
    _, rep = noether_invariant(bad, kx, catalog.get_family("rotation"))
    assert not passes(rep)


def test_noether_rejects_a_time_dependent_generator(pinned_mid):
    family = NoetherFamily(name="timed", generator=lambda t, x: np.ones_like(x) * t,
                           grad_generator=lambda t, x: np.zeros((1, 1)))
    with pytest.raises(TypeError, match="positional argument"):
        noether_invariant(pinned_mid, catalog.get_lagrangian("kinetic"), family)


def test_noether_alpha_dependent_theta_term(grid200):
    # trace(a)|v|^2 exercises the grad_a pathway; the invariant assembles and
    # the translation family still collapses the kappa term to zero gradient
    osc = catalog.build_law("oscillator_adapted", grid200, 5000, seed=16,
                            dim=2, x0=(1.0, 0.0))
    ta = catalog.get_lagrangian("trace_alpha_kinetic")
    inv, rep = noether_invariant(osc, ta, catalog.get_family("rotation"))
    assert np.isfinite(rep.max_abs_statistic)
    assert inv.shape[1] == len(_probe_idx(osc))


def _noether_full_arrays(ens, lag, family, idx):
    """Reference assembly of the invariant from full [n, m, d] path arrays."""
    n, m, d = ens.drifts.shape
    dt = ens.grid.dt
    p = np.empty((n, m, d))
    theta = np.empty((n, m))
    gen = np.empty((n, m + 1, d))
    for j in range(m + 1):
        gen[:, j] = np.asarray(family.generator(ens.states[:, j]), dtype=np.float64)
    for j in range(m):
        t = j * dt
        x, v = ens.states[:, j], ens.drifts[:, j]
        s = ens.diffusions[:, j]
        alpha = np.einsum("nik,njk->nij", s, s)
        p[:, j] = np.asarray(lag.grad_v(t, x, v, alpha), dtype=np.float64)
        gu = np.broadcast_to(np.asarray(family.grad_generator(x), dtype=np.float64),
                             (n, d, d))
        g_alpha = np.einsum("nik,nkj->nij", gu, alpha)
        kappa = g_alpha + np.swapaxes(g_alpha, 1, 2)
        ga = np.asarray(lag.grad_a(t, x, v, alpha), dtype=np.float64)
        theta[:, j] = np.einsum("nij,nij->n", kappa, np.broadcast_to(ga, (n, d, d)))
    dgen = gen[:, 1:m] - gen[:, : m - 1]
    dp = p[:, 1:] - p[:, :-1]
    cov_cum = np.concatenate(
        [np.zeros((n, 1)), np.cumsum(np.einsum("nmd,nmd->nm", dgen, dp), axis=1)], axis=1)
    theta_cum = np.concatenate([np.zeros((n, 1)), np.cumsum(theta, axis=1) * dt], axis=1)
    inv = np.empty((n, len(idx)))
    for a, j in enumerate(idx):
        inv[:, a] = (np.einsum("nd,nd->n", gen[:, j], p[:, j])
                     - cov_cum[:, min(j, m - 1)] + theta_cum[:, j])
    return inv


def _anisotropic_factor(dim):
    return np.tril(np.ones((dim, dim))) + np.diag(np.linspace(0.0, -0.8, dim))


def _correlated_law(grid, dim):
    """Law with a constant, non-isotropic diffusion: the rotation family then
    has a non-zero kappa, so theta can enter the invariant."""
    model = SemimartingaleModel(name="corr", dim=dim,
                                initial_sampler=catalog.point_sampler(np.eye(dim)[0]),
                                drift=lambda j, p: -0.5 * p[:, j],
                                diffusion_factor=_anisotropic_factor(dim))
    return simulate(model, grid, 1000, seed=16)


# v^T a v: grad_a = v v^T is not a multiple of the identity, so theta is
# non-zero under rotations (kappa is traceless, and trace(a) |v|^2 sees only
# its trace); grad_v comes back in Fortran order
_VAV = Lagrangian(
    name="vav", value=lambda t, x, v, a: np.einsum("ni,nij,nj->n", v, a, v),
    grad_x=lambda t, x, v, a: np.zeros_like(x),
    grad_v=lambda t, x, v, a: 2.0 * np.einsum("nij,nj->ni", a, v),
    grad_a=lambda t, x, v, a: np.einsum("ni,nj->nij", v, v))


def test_noether_invariant_needs_its_theta_term(grid200):
    # a constant drift v0 with the anisotropic factor of _correlated_law: under
    # L = v^T a v the momentum p = 2 a v0 is constant, so the law is critical,
    # and the drift of <G X, p>, -2 v0^T G a v0, is cancelled by theta alone
    v0 = np.array([1.0, 0.5])
    model = SemimartingaleModel(name="const_corr", dim=2,
                                initial_sampler=catalog.point_sampler(np.eye(2)[0]),
                                drift=lambda j, p: v0,
                                diffusion_factor=_anisotropic_factor(2))
    ens = simulate(model, grid200, 10_000, seed=16)
    rotation = catalog.get_family("rotation")
    _, full = noether_invariant(ens, _VAV, rotation)
    assert passes(full), full.max_abs_statistic
    no_theta = replace(_VAV, name="vav_no_theta", grad_a=lambda t, x, v, a: np.zeros(a.shape))
    _, dropped = noether_invariant(ens, no_theta, rotation)
    assert not passes(dropped), dropped.max_abs_statistic


def _rotation(dim):
    if dim == 2:
        return catalog.get_family("rotation")
    gen = np.array([[0.0, -1.0, 0.5], [1.0, 0.0, -2.0], [-0.5, 2.0, 0.0]])
    return NoetherFamily(name="rotation3", generator=lambda x: x @ gen.T,
                         grad_generator=lambda x: gen)


@pytest.mark.parametrize("law, dim", [("oscillator", 2), ("correlated", 2),
                                      ("correlated", 3)])
@pytest.mark.parametrize("lag_name", ["kinetic_quadratic", "trace_alpha_kinetic", "vav"])
@pytest.mark.parametrize("family_name", ["rotation", "translation"])
def test_noether_streaming_matches_full_array_assembly(grid200, law, dim, lag_name,
                                                       family_name):
    ens = (_correlated_law(grid200, dim) if law == "correlated" else
           catalog.build_law("oscillator_adapted", grid200, 1000, seed=16, dim=2,
                             x0=(1.0, 0.0)))
    assert ens.diffusions.strides[0] == 0
    contiguous = replace(ens, diffusions=np.array(ens.diffusions))
    lag = _VAV if lag_name == "vav" else catalog.get_lagrangian(lag_name)
    family = (_rotation(dim) if family_name == "rotation" else
              catalog.get_family("translation", dim=dim, coord=dim - 1))
    for fractions in (DEFAULT_PROBE_FRACTIONS, (0.0, 0.5, 1.0)):
        idx = _probe_idx(ens, fractions)
        results = []
        for e in (ens, contiguous):
            oracle = _noether_full_arrays(e, lag, family, idx)
            inv, rep = noether_invariant(e, lag, family, probe_fractions=fractions)
            assert np.array_equal(inv, oracle)
            assert np.array_equal(rep.statistics, martingale_test(oracle, e, idx).statistics)
            results.append(inv)
        if lag_name != "vav":
            # vav's einsums over a, and the reference's theta sum, run in an
            # order set by the memory layout of alpha, so for vav broadcast and
            # contiguous records may differ in the last bits, as they always have
            assert np.array_equal(*results)


def test_noether_invariant_needs_its_bracket(grid200):
    # dX = G X dt + dW with G the rotation generator, under kinetic_quadratic
    # (grad_x L = -x = G G x): the law is critical and p = G X, so the
    # realized bracket [G X, p] is |G dX|^2 summed, about 2t, and the
    # invariant is |X|^2 - 2t; without the bracket <G X, p> = |X|^2 drifts
    G = catalog.get_family("rotation").grad_generator(None)
    model = SemimartingaleModel(name="rotating", dim=2,
                                initial_sampler=catalog.point_sampler(np.eye(2)[0]),
                                drift=lambda j, p: p[:, j] @ G.T)
    ens = simulate(model, grid200, 10_000, seed=16)
    kq = catalog.get_lagrangian("kinetic_quadratic")
    assert passes(el_certify(ens, kq))
    inv, full = noether_invariant(ens, kq, catalog.get_family("rotation"))
    assert passes(full), full.max_abs_statistic
    idx = _probe_idx(ens)
    no_bracket = np.stack([np.einsum("nd,nd->n", ens.states[:, j] @ G.T, ens.drift(j))
                           for j in idx], axis=1)
    assert np.allclose(np.mean(no_bracket - inv, axis=0), 2 * grid200.times[idx],
                       atol=0.02)
    dropped = martingale_test(no_bracket, ens, idx)
    assert not passes(dropped), dropped.max_abs_statistic
