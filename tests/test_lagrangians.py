from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import pytest
from scipy import integrate, special

from actionlab import TimeGrid, action, catalog, el_process, path_actions
from actionlab.diagnostics import el_constancy
from actionlab.lagrangians import Lagrangian
from conftest import deterministic_law, traced_peak


def test_action_brownian_kinetic_exact_zero(bm_small):
    est = action(bm_small, catalog.get_lagrangian("kinetic"))
    assert est.mean == 0.0 and est.stderr == 0.0


def test_action_deterministic_exact(grid200):
    c = 1.3
    ens = deterministic_law(grid200, n_paths=64, drift_value=lambda t: c)
    for t_max in (0.5, 1.0):
        est = action(replace(ens, t_max=t_max), catalog.get_lagrangian("kinetic"))
        assert est.mean == pytest.approx(c ** 2 * t_max / 2, abs=1e-12)


def test_action_rejects_bad_horizon(bm_small):
    with pytest.raises(ValueError):
        action(replace(bm_small, t_max=0.0), catalog.get_lagrangian("kinetic"))


def test_action_linearity(pinned_mid):
    kin = catalog.get_lagrangian("kinetic")
    kq = catalog.get_lagrangian("kinetic_quadratic")
    lam = 0.7
    combo = Lagrangian(
        name="combo",
        value=lambda t, x, v, a: kin.value(t, x, v, a) + lam * kq.value(t, x, v, a),
        grad_x=lambda t, x, v, a: kin.grad_x(t, x, v, a) + lam * kq.grad_x(t, x, v, a),
        grad_v=lambda t, x, v, a: kin.grad_v(t, x, v, a) + lam * kq.grad_v(t, x, v, a),
        grad_a=lambda t, x, v, a: kin.grad_a(t, x, v, a) + lam * kq.grad_a(t, x, v, a))
    lhs = path_actions(pinned_mid, combo)
    rhs = path_actions(pinned_mid, kin) + lam * path_actions(pinned_mid, kq)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_squared_increment_action_oracle(grid200):
    # independent quadrature: E[Z^2 ln Z^2] for the chi-square density equals
    # ln 2 + digamma(3/2); the kinetic action of the law must match
    f = lambda z: z * z * np.log(z * z) * np.exp(-z * z / 2) / np.sqrt(2 * np.pi)
    quad, _ = integrate.quad(f, 1e-12, 14, limit=400)
    oracle = 2 * quad
    assert oracle == pytest.approx(np.log(2) + special.digamma(1.5), abs=1e-12)

    kin = catalog.get_lagrangian("kinetic")
    n = 20000
    sde = catalog.build_law("squared_increment", grid200, n, seed=201)
    est = action(sde, kin)
    assert abs(est.mean - oracle) < 4 * est.stderr + 2.5 / grid200.m
    weighted = catalog.build_law("squared_increment_weighted", grid200, n, seed=202)
    estw = action(weighted, kin)
    assert abs(estw.mean - oracle) < 4 * estw.stderr + 2.5 / grid200.m
    # reweighting consistency between the two representations
    comb = np.hypot(est.stderr, estw.stderr)
    assert abs(est.mean - estw.mean) < 4 * comb + 1 / grid200.m


@dataclass(frozen=True)
class GradCheckReport:
    worst_x: float
    worst_v: float
    worst_a: float
    epsilon: dict

    @property
    def worst(self) -> float:
        return max(self.worst_x, self.worst_v, self.worst_a)


def grad_check(lagrangian: Lagrangian, sample_points: Sequence,
               eps_list: Sequence[float] = (1e-4, 1e-5, 1e-6)) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    ``sample_points`` is an iterable of (t, x, v, a) tuples.  For every block
    the report carries the worst relative error at the epsilon that minimizes
    it (the smallest stable epsilon of the list).
    """
    errs = {"x": {}, "v": {}, "a": {}}
    for eps in eps_list:
        worst = {"x": 0.0, "v": 0.0, "a": 0.0}
        for t, x, v, a in sample_points:
            x = np.asarray(x, dtype=np.float64)
            v = np.asarray(v, dtype=np.float64)
            a = np.asarray(a, dtype=np.float64)
            d = x.shape[0]
            gx = np.asarray(lagrangian.grad_x(t, x, v, a), dtype=np.float64)
            gv = np.asarray(lagrangian.grad_v(t, x, v, a), dtype=np.float64)
            ga = np.asarray(lagrangian.grad_a(t, x, v, a), dtype=np.float64)
            for k in range(d):
                e = np.zeros(d)
                e[k] = eps
                fd = (lagrangian.value(t, x + e, v, a)
                      - lagrangian.value(t, x - e, v, a)) / (2 * eps)
                worst["x"] = max(worst["x"], abs(fd - gx[k]) / max(1.0, abs(gx[k])))
                fd = (lagrangian.value(t, x, v + e, a)
                      - lagrangian.value(t, x, v - e, a)) / (2 * eps)
                worst["v"] = max(worst["v"], abs(fd - gv[k]) / max(1.0, abs(gv[k])))
            for i in range(d):
                for k in range(d):
                    em = np.zeros((d, d))
                    em[i, k] = eps
                    fd = (lagrangian.value(t, x, v, a + em)
                          - lagrangian.value(t, x, v, a - em)) / (2 * eps)
                    worst["a"] = max(worst["a"],
                                     abs(fd - ga[i, k]) / max(1.0, abs(ga[i, k])))
        for key in errs:
            errs[key][eps] = worst[key]
    best = {key: min(errs[key], key=errs[key].get) for key in errs}
    return GradCheckReport(worst_x=errs["x"][best["x"]],
                           worst_v=errs["v"][best["v"]],
                           worst_a=errs["a"][best["a"]],
                           epsilon=best)


def test_grad_check_kinetic():
    rng = np.random.default_rng(5)
    pts = [(rng.random(), rng.standard_normal(2), rng.standard_normal(2),
            np.eye(2) + 0.1 * rng.standard_normal((2, 2))) for _ in range(5)]
    rep = grad_check(catalog.get_lagrangian("kinetic"), pts)
    assert rep.worst_v < 1e-8 and rep.worst_x < 1e-8


def test_grad_check_quadratic_potential():
    rng = np.random.default_rng(6)
    pts = [(rng.random(), rng.standard_normal(2), rng.standard_normal(2),
            np.eye(2)) for _ in range(5)]
    rep = grad_check(catalog.get_lagrangian("kinetic_quadratic"), pts)
    assert rep.worst < 1e-8


def test_grad_check_trace_alpha():
    rng = np.random.default_rng(7)
    pts = [(rng.random(), rng.standard_normal(2), rng.standard_normal(2),
            np.eye(2) + 0.2 * abs(rng.standard_normal()) * np.eye(2))
           for _ in range(5)]
    rep = grad_check(catalog.get_lagrangian("trace_alpha_kinetic"), pts)
    assert rep.worst_a < 1e-7 and rep.worst_v < 1e-7


def test_grad_check_taylor_green_pressure():
    rng = np.random.default_rng(8)
    pts = [(rng.random(), rng.random(2) * 2 * np.pi, rng.standard_normal(2),
            np.eye(2)) for _ in range(5)]
    rep = grad_check(catalog.get_lagrangian("kinetic_taylor_green"), pts)
    assert rep.worst < 1e-7


def test_el_process_brownian_zero(bm_small):
    n = el_process(bm_small, catalog.get_lagrangian("kinetic"))
    assert np.max(np.abs(n)) == 0.0


def test_el_process_equals_drift_for_free_lagrangian(pinned_mid):
    n = el_process(pinned_mid, catalog.get_lagrangian("kinetic"))
    assert np.array_equal(n, pinned_mid.drifts)


def test_el_process_pinned_spot_check(pinned_mid):
    # N_t = (y - W_t)/(1 - t) along one path, evaluated by hand
    n = el_process(pinned_mid, catalog.get_lagrangian("kinetic"))
    dt = pinned_mid.grid.dt
    for j in (0, 77, 150):
        w = pinned_mid.states[0, j, 0]
        assert n[0, j, 0] == pytest.approx((1.0 - w) / (1.0 - j * dt), rel=1e-12)


def test_el_process_classical_oscillator_constant():
    # discrete harmonic oscillator: momentum plus force integral telescopes
    g = TimeGrid(1000)
    ens = catalog.build_law("classical_oscillator", g, 4, seed=1)
    n = el_process(ens, catalog.get_lagrangian("kinetic_quadratic"))
    assert np.max(np.abs(n - 1.0)) < 1e-6
    # and the trajectory tracks the classical solution sin(t)
    assert np.max(np.abs(ens.states[0, :, 0] - np.sin(g.times))) < 1e-2


@pytest.mark.parametrize("law, law_kw, lag, lag_kw", [
    ("pinned_brownian", {"y": 1.0}, "kinetic", {}),
    ("oscillator_adapted", {"dim": 2, "x0": (1.0, 0.0)}, "kinetic_quadratic", {}),
    ("taylor_green", {}, "kinetic_taylor_green", {}),
])
def test_el_process_at_steps_equals_full_columns(grid200, law, law_kw, lag, lag_kw):
    ens = catalog.build_law(law, grid200, 300, seed=21, **law_kw)
    lagrangian = catalog.get_lagrangian(lag, **lag_kw)
    full = el_process(ens, lagrangian)
    for steps in ([20, 50, 100, 150, 180], [0], [199, 3], []):
        assert np.array_equal(el_process(ens, lagrangian, steps), full[:, steps])
    for bad in ([5, 5], [-1], [200]):
        with pytest.raises(ValueError, match="distinct step indices"):
            el_process(ens, lagrangian, bad)


@pytest.mark.parametrize("lag, defect_is_zero", [("kinetic_quadratic", True),
                                                 ("kinetic", False)])
def test_el_constancy_defect_streams_el_process(lag, defect_is_zero):
    # the fbsde runner's defect: max |N_j - N_0| with the bits of the full
    # el_process difference, while holding well under one [n, m, d] record
    # beside a held law, and the same value from the folded recipe
    g, n = TimeGrid(200), 4000
    law = catalog.get_law("oscillator_adapted", g, n, seed=23)
    ens = law.build()
    lagrangian = catalog.get_lagrangian(lag)
    full = el_process(ens, lagrangian)
    expected = float(np.max(np.abs(full - full[:, :1])))
    (defect, report), peak = traced_peak(el_constancy, ens, lagrangian)
    assert defect == expected and report is None
    assert (defect < 1e-9) == defect_is_zero
    assert peak < full.nbytes / 8, peak / full.nbytes
    assert el_constancy(law, lagrangian)[0] == expected
