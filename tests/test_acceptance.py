"""Acceptance gate: every shipped claim exercised at full scale, one printed
pass/fail line per criterion.

Scales: n_paths = 1e5 and m = 200 unless a criterion needs a different grid
(the operator suite needs m divisible by 32; the per-path constancy check
runs at m = 1000; the action of the reweighted law runs at m = 500 where the
left-rectangle bias sits well inside the statistical tolerance).
"""

import numpy as np
import pytest
from scipy import integrate, special

import actionlab as al
from actionlab import catalog
from actionlab.catalog import (make_random_endpoint_zero_shift,
                               make_state_features, make_test_feature_map)
from actionlab.cli import load_config, run_scenario
from actionlab.diagnostics import verdict
from conftest import passes

N_FULL = 100_000
SEED = 2024


def report(criterion, passed, detail=""):
    print(f"[acceptance {criterion}] {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def grid():
    return al.TimeGrid(200)


@pytest.fixture(scope="module")
def bm(grid):
    return catalog.build_law("brownian", grid, N_FULL, seed=SEED)


@pytest.fixture(scope="module")
def pinned(grid):
    return catalog.build_law("pinned_brownian", grid, N_FULL, seed=SEED + 1)


@pytest.fixture(scope="module")
def squared(grid):
    return catalog.build_law("squared_increment", grid, N_FULL, seed=SEED + 2)


@pytest.fixture(scope="module")
def bridge_ens(grid):
    return catalog.build_law("sinkhorn_bridge", grid, N_FULL, seed=SEED + 3)


@pytest.fixture(scope="module")
def kin():
    return catalog.get_lagrangian("kinetic")


def test_criterion_1_operator_suite():
    grid = al.TimeGrid(192)   # divisible by 4, 8, 16, 32
    ens = catalog.build_law("brownian", grid, N_FULL, seed=SEED + 4)
    failures = []
    for k in range(20):
        u = al.materialize(make_random_endpoint_zero_shift(grid, seed=9000 + k), ens)
        norm = al.h_norm_sq(u)
        slack = 1e-12 * max(1.0, float(norm.max()))
        for n in (4, 8, 16, 32):
            if not np.all(al.h_norm_sq(al.delay_pn(u, n)) <= norm + slack):
                failures.append((k, f"p_{n} contraction"))
        term = float(np.max(np.abs(al.endpoint_rn(u, 8).terminal())))
        if term > 1e-10:
            failures.append((k, f"r_n terminal {term:.2e}"))
        err4 = float(np.mean(al.h_dist_sq(al.endpoint_rn(u, 4), u)))
        err32 = float(np.mean(al.h_dist_sq(al.endpoint_rn(u, 32), u)))
        if not err32 < err4:
            failures.append((k, f"convergence {err4:.3f} -> {err32:.3f}"))
        level = float(np.median(np.sqrt(norm)))
        if not np.all(al.h_norm_sq(al.stop_truncate(u, level)) <= norm + slack):
            failures.append((k, "k_tau contraction"))
        del u
    report(1, not failures, f"20 shifts, failures={failures}")


def test_criterion_2_least_action_principle(grid, bm, squared, kin):
    drifted = catalog.build_law("brownian_drift_t", grid, N_FULL, seed=SEED + 5)
    shifts = [("plus_minus", lambda g: catalog.get_shift("plus_minus", g)),
              ("sine1", lambda g: catalog.get_shift("sine", g, k=1)),
              ("cosine2", lambda g: catalog.get_shift("cosine", g, k=2)),
              ("random_ez_a", lambda g: make_random_endpoint_zero_shift(g, seed=7001)),
              ("random_ez_b", lambda g: make_random_endpoint_zero_shift(g, seed=7002))]
    failures = []
    for law_name, ens, certified in (("brownian", bm, True),
                                     ("drifted", drifted, False),
                                     ("squared_increment", squared, True)):
        for sname, build in shifts:
            res = al.variational_derivative(ens, kin, build(grid))
            agree, *critical = res.gaps()
            if not verdict([agree])[0]:
                failures.append((law_name, sname,
                                 f"fd {res.fd:.4f} vs formula {res.formula:.4f}"))
            if certified and not verdict(critical)[0]:
                failures.append((law_name, sname, f"not critical: {res.formula:.4f}"))
        if not certified:
            res = al.variational_derivative(ens, kin, catalog.get_shift("plus_minus", grid))
            if verdict(res.gaps()[1:])[0]:
                failures.append((law_name, "plus_minus", "negative control critical"))
    report(2, not failures, f"3 laws x 5 shifts, failures={failures}")


def test_criterion_3_el_certification(grid, pinned, squared, bridge_ens, kin):
    osc = catalog.build_law("oscillator_adapted", grid, N_FULL, seed=SEED + 6)
    tg = catalog.build_law("taylor_green", grid, N_FULL, seed=SEED + 7)
    drifted = catalog.build_law("brownian_drift_t", grid, N_FULL, seed=SEED + 8)
    ou = catalog.build_law("ornstein_uhlenbeck", grid, N_FULL, seed=SEED + 9)
    kq = catalog.get_lagrangian("kinetic_quadratic")
    ktg = catalog.get_lagrangian("kinetic_taylor_green")
    stats = {}
    ok = True
    for name, ens, lag, expect in (("pinned", pinned, kin, True),
                                   ("squared_increment", squared, kin, True),
                                   ("bridge", bridge_ens, kin, True),
                                   ("oscillator", osc, kq, True),
                                   ("taylor_green", tg, ktg, True),
                                   ("drift_t", drifted, kin, False),
                                   ("ornstein_uhlenbeck", ou, kin, False)):
        rep = al.el_certify(ens, lag)
        stats[name] = round(rep.max_abs_statistic, 2)
        ok = ok and (passes(rep) == expect)
    report(3, ok, f"max|z|: {stats}")


def test_criterion_4_entropy_action_identities(kin):
    # oracle constants recomputed by independent quadrature
    f = lambda z: z * z * np.log(z * z) * np.exp(-z * z / 2) / np.sqrt(2 * np.pi)
    oracle_density = 2 * integrate.quad(f, 1e-12, 14, limit=400)[0]
    assert abs(oracle_density - (np.log(2) + special.digamma(1.5))) < 1e-12
    p = lambda x: np.exp(-x * x / 4) / np.sqrt(4 * np.pi)
    q = lambda x: np.exp(-x * x / 2) / np.sqrt(2 * np.pi)
    oracle_kl = integrate.quad(lambda x: p(x) * np.log(p(x) / q(x)), -20, 20,
                               limit=200)[0]
    assert abs(oracle_kl - 0.5 * (1 - np.log(2))) < 1e-12

    g500 = al.TimeGrid(500)
    weighted = catalog.build_law("squared_increment_weighted", g500, N_FULL,
                                 seed=SEED + 10)
    est = al.action(weighted, kin)
    gap1 = abs(est.mean - oracle_density)
    ok1 = gap1 < 4 * est.stderr

    grid = al.TimeGrid(200)
    bridge = catalog.build_law("sinkhorn_bridge", grid, N_FULL, seed=SEED + 11)
    est2 = al.action(bridge, kin)
    gap2 = abs(est2.mean - oracle_kl)
    ok2 = gap2 < 4 * est2.stderr + 2e-3
    report(4, ok1 and ok2,
           f"density-law action {est.mean:.5f} (|gap| {gap1:.5f} vs 4se "
           f"{4 * est.stderr:.5f}); bridge action {est2.mean:.5f} "
           f"(|gap| {gap2:.5f} vs 4se+2e-3 {4 * est2.stderr + 2e-3:.5f})")


def _coef_match(ens, fm, probe, values):
    est = al.estimate_characteristics(ens, fm, [probe])[0]
    phi, _ = fm(ens, probe)
    ref, *_ = np.linalg.lstsq(phi, values, rcond=None)
    z = np.abs(est.drift_coef[:, 0] - ref) / est.drift_se[:, 0]
    return float(np.max(z))


def test_criterion_5_transformation_formulas(grid, bm):
    probes = [60, 120, 180]
    failures = []
    # space-time maps: formula-transformed characteristics vs re-estimation
    cases = [("identity", catalog.get_map("identity"),
              lambda x, t: np.zeros_like(x[:, 0]), lambda x: np.ones_like(x[:, 0])),
             ("affine", catalog.get_map("affine", matrix=[[1.5]], offset=[0.3]),
              lambda x, t: np.zeros_like(x[:, 0]), lambda x: 2.25 * np.ones_like(x[:, 0])),
             ("sine_squash", catalog.get_map("sine_squash"),
              lambda x, t: -0.1 * np.sin(x[:, 0]),
              lambda x: (1 + 0.2 * np.cos(x[:, 0])) ** 2)]
    for name, mp, drift_formula, alpha_formula in cases:
        lifted = al.lift(bm, mp)
        inv = mp.inverse
        fm = make_test_feature_map(
            [lambda y: np.ones(y.shape[0]), lambda y: np.sin(inv(y))[:, 0]],
            ["1", "sin(preimage)"])
        for j in probes:
            x = bm.states[:, j]
            z = _coef_match(lifted, fm, j, drift_formula(x, j * grid.dt))
            if z > 4:
                failures.append((name, "drift", j, round(z, 2)))
            est = al.estimate_characteristics(lifted, make_state_features(degree=0),
                                              [j])[0]
            target = float(np.mean(alpha_formula(x)))
            za = abs(est.alpha_coef[0, 0, 0] - target) / est.alpha_se[0, 0, 0]
            if za > 4.5:   # drift^2 dt bias allowance folded into half a unit
                failures.append((name, "alpha", j, round(za, 2)))
        del lifted
    # adapted shifts: pushed drift records vs regression re-estimation; the
    # covariance records are untouched by the translation
    shift_cases = [(name, catalog.get_shift(name, grid))
                   for name in ("constant", "state", "tanh_state", "plus_minus",
                                "sine", "cosine")]
    shift_cases += [("random", catalog.get_shift("random", grid, seed=1)),
                    ("random_ez", catalog.get_shift("random_ez", grid, seed=1))]
    fm = make_state_features(degree=1)
    for sname, sh in shift_cases:
        u = al.materialize(sh, bm)
        pushed = al.push_shift(bm, u, 0.5)
        for j in probes:
            z = _coef_match(pushed, fm, j, pushed.drifts[:, j, 0])
            if z > 4:
                failures.append((sname, "drift", j, round(z, 2)))
        est = al.estimate_characteristics(pushed, make_state_features(degree=0),
                                          [probes[1]])[0]
        za = abs(est.alpha_coef[0, 0, 0] - 1.0) / est.alpha_se[0, 0, 0]
        if za > 4.5:
            failures.append((sname, "alpha", probes[1], round(za, 2)))
    report(5, not failures, f"maps+shifts at 3 probes, failures={failures}")


def test_criterion_6_noether_invariants(grid, pinned, squared, bridge_ens, bm, kin):
    translation = catalog.get_family("translation")
    rotation = catalog.get_family("rotation")
    failures = []
    for name, ens in (("brownian", bm), ("pinned", pinned),
                      ("squared_increment", squared), ("bridge", bridge_ens)):
        _, rep = al.noether_invariant(ens, kin, translation)
        if not passes(rep):
            failures.append(("translation", name, round(rep.max_abs_statistic, 2)))
    osc2 = catalog.build_law("oscillator_adapted", grid, N_FULL, seed=SEED + 12,
                             dim=2, x0=(1.0, 0.0))
    kq2 = catalog.get_lagrangian("kinetic_quadratic")
    _, rep = al.noether_invariant(osc2, kq2, rotation)
    if not passes(rep):
        failures.append(("rotation", "radial", round(rep.max_abs_statistic, 2)))
    bad = catalog.build_law("oscillator_nonradial", grid, N_FULL, seed=SEED + 13)
    kx = catalog.get_lagrangian("kinetic_x1sq")
    _, rep_bad = al.noether_invariant(bad, kx, rotation)
    if passes(rep_bad):
        failures.append(("rotation", "nonradial passed", 0))
    report(6, not failures, f"failures={failures}")


def test_criterion_7_drift_representation(bm, pinned, squared):
    stats = {}
    ok = True
    for name, ens in (("brownian", bm), ("pinned", pinned),
                      ("squared_increment", squared)):
        rep = al.drift_representation_check(ens)
        assert rep.probe_pairs == [(0.6, 1.0), (0.75, 1.0), (0.9, 1.0)]
        stats[name] = round(rep.max_abs_statistic, 2)
        ok = ok and passes(rep)
    report(7, ok, f"max|z|: {stats}")


def test_criterion_8_fbsde(grid):
    g1000 = al.TimeGrid(1000)
    adapted = catalog.build_law("oscillator_adapted", g1000, 4000, seed=SEED + 14)
    kq = catalog.get_lagrangian("kinetic_quadratic")
    nproc = al.el_process(adapted, kq)
    constancy = float(np.max(np.abs(nproc - nproc[:, :1])))
    ok1 = constancy < 1e-3

    spec = al.FbsdeSpec(dim=1, grad_potential=lambda t, x: x,
                        y0_gaussian=(0.0, 1.0), curvature=1.0,
                        initial_sampler=catalog.point_sampler(np.zeros(1)))
    res = al.fbsde_simulate(spec, grid, N_FULL, seed=SEED + 15)
    t = grid.times[:-1]
    riccati = float(np.max(np.abs(res.posterior_var - 1.0 / (1.0 + t))))
    ok2 = riccati < 1e-8
    rep = al.el_certify(res.ensemble, kq)
    report(8, ok1 and ok2 and passes(rep),
           f"constancy {constancy:.2e}, riccati {riccati:.2e}, "
           f"certify max|z| {rep.max_abs_statistic:.2f}")


SCALED_CONFIGS = {
    "simulate": """
[scenario]
kind = simulate
law = brownian
m = 200
n_paths = 3000
seed = 44
expected_mean = 0.0
expected_var = 1.0
""",
    "action": """
[scenario]
kind = action
law = squared_increment_weighted
lagrangian = kinetic
m = 200
n_paths = 3000
seed = 44
expected = 0.7296371545385218
""",
    "el-certify": """
[scenario]
kind = el-certify
law = pinned_brownian
lagrangian = kinetic
m = 200
n_paths = 3000
seed = 44
""",
    "variational": """
[scenario]
kind = variational
law = brownian
lagrangian = kinetic
shift = plus_minus
m = 200
n_paths = 3000
seed = 44
""",
    "noether": """
[scenario]
kind = noether
law = pinned_brownian
lagrangian = kinetic
family = translation
m = 200
n_paths = 3000
seed = 44
""",
    "bridge": """
[scenario]
kind = bridge
lagrangian = kinetic
m = 200
n_paths = 3000
seed = 44
tv_tol = 0.08
""",
    "fbsde": """
[scenario]
kind = fbsde
variant = filtering
lagrangian = kinetic_quadratic
m = 200
n_paths = 3000
seed = 44
""",
    "navier-stokes": """
[scenario]
kind = navier-stokes
lagrangian = kinetic_taylor_green
m = 200
n_paths = 3000
seed = 44
""",
    "operators": """
[scenario]
kind = operators
m = 192
n_paths = 3000
seed = 44
shift_count = 2
""",
}


def test_criterion_9_determinism(tmp_path):
    failures = []
    for kind, body in SCALED_CONFIGS.items():
        blobs = []
        for tag in ("run", "rerun"):
            cfg_path = tmp_path / f"{kind}-{tag}.ini"
            cfg_path.write_text(body)
            out = tmp_path / f"{kind}-{tag}"
            code = run_scenario(load_config(cfg_path), out)
            if code not in (0, 1):
                failures.append((kind, f"exit {code}"))
            blobs.append((out / "report.csv").read_bytes())
        if blobs[0] != blobs[1]:
            failures.append((kind, "rerun differs"))
    report(9, not failures, f"9 scenario kinds x 2 runs, failures={failures}")


def test_criterion_10_navier_stokes_oracle():
    assert (al.bridge.NS_SPACE, al.bridge.NS_TIME) == (50, 10)
    residual, div = al.navier_stokes_residual()
    report(10, residual < 1e-10 and div < 1e-12,
           f"momentum residual {residual:.2e}, divergence {div:.2e}")
