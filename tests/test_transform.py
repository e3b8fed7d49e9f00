from dataclasses import replace

import numpy as np
import pytest

from actionlab import (MaterializedShift, SpaceTimeMap, TimeGrid, catalog,
                       estimate_characteristics, lift, materialize, push_shift)
from actionlab.catalog import make_state_features, make_test_feature_map
from actionlab.paths import NOISE_BLOCK
from conftest import weighted_drift_record


def homeomorphism_defect(m, points) -> float:
    """Max |inverse(map(x)) - x| over the sampled points."""
    if m.inverse is None:
        raise ValueError(f"map '{m.name}' has no inverse")
    pts = np.asarray(points, dtype=np.float64)
    back = np.asarray(m.inverse(np.asarray(m.map_fn(pts))))
    return float(np.max(np.abs(back - pts)))


def test_push_shift_zero_epsilon_identity(bm_small):
    u = materialize(catalog.get_shift("constant", bm_small.grid), bm_small)
    out = push_shift(bm_small, u, 0.0)
    assert np.array_equal(out.states, bm_small.states)
    assert np.array_equal(out.drifts, bm_small.drifts)
    assert out.diffusions is bm_small.diffusions


def test_push_shift_constant_drift_and_regression(bm_mid):
    eps = 0.4
    u = materialize(catalog.get_shift("constant", bm_mid.grid), bm_mid)
    out = push_shift(bm_mid, u, eps)
    assert np.allclose(out.drifts[:, :, 0], eps, atol=1e-14)
    assert np.allclose(out.states[:, -1, 0] - bm_mid.states[:, -1, 0], eps,
                       atol=1e-12)
    est = estimate_characteristics(out, make_state_features(degree=0), [100])[0]
    assert abs(est.drift_coef[0, 0] - eps) < 4 * est.drift_se[0, 0]


def test_push_shift_binding(bm_small, bm_mid):
    u = materialize(catalog.get_shift("constant", bm_small.grid), bm_small)
    with pytest.raises(ValueError, match="bound"):
        push_shift(bm_mid, u, 0.1)


def test_push_shift_endpoint_zero_preserves_joint_endpoints(pinned_mid):
    from actionlab import endpoint_rn
    u = endpoint_rn(materialize(catalog.get_shift("tanh_state", pinned_mid.grid),
                                pinned_mid), 8)
    out = push_shift(pinned_mid, u, 0.7)
    assert np.array_equal(out.states[:, 0], pinned_mid.states[:, 0])
    assert np.max(np.abs(out.states[:, -1] - pinned_mid.states[:, -1])) < 1e-9


def test_push_shift_composition_deterministic(bm_small):
    u = materialize(catalog.get_shift("sine", bm_small.grid), bm_small)
    once = push_shift(bm_small, u, 0.5)
    u_on_once = materialize(catalog.get_shift("sine", bm_small.grid), once)
    twice = push_shift(once, u_on_once, 0.25)
    direct = push_shift(bm_small, u, 0.75)
    assert np.allclose(twice.states, direct.states, atol=1e-12)
    assert np.allclose(twice.drifts, direct.drifts, atol=1e-12)


def test_lift_identity(bm_small):
    out = lift(bm_small, catalog.get_map("identity"))
    assert np.array_equal(out.states, bm_small.states)
    assert np.array_equal(out.drifts, bm_small.drifts)


def test_lift_affine_exact(pinned_mid):
    a, b = 2.0, -1.0
    mp = catalog.get_map("affine", matrix=[[a]], offset=[b])
    out = lift(pinned_mid, mp)
    assert np.allclose(out.states, a * pinned_mid.states + b, atol=1e-12)
    assert np.allclose(out.drifts, a * pinned_mid.drifts, atol=1e-12)
    assert np.allclose(out.diffusions, a * np.asarray(pinned_mid.diffusions),
                       atol=1e-12)


def test_lift_commutes_with_push_for_affine(bm_small):
    a = 1.7
    mp = catalog.get_map("affine", matrix=[[a]])
    u = materialize(catalog.get_shift("cosine", bm_small.grid), bm_small)
    left = lift(push_shift(bm_small, u, 0.3), mp)
    lifted = lift(bm_small, mp)
    u_on_lifted = materialize(catalog.get_shift("cosine", bm_small.grid), lifted)
    scaled = MaterializedShift(a * u_on_lifted.hdot, lifted, u_on_lifted.name)
    right = push_shift(lifted, scaled, 0.3)
    assert np.allclose(left.states, right.states, atol=1e-12)
    assert np.allclose(left.drifts, right.drifts, atol=1e-12)


def test_lift_square_field_ito_drift(pinned_mid):
    # Ito's rule for h(x) = x^2 under unit diffusion: drift 2 x v + 1 and
    # diffusion 2 x, with the second-order term read from the hessian
    sq = SpaceTimeMap(name="square", map_fn=lambda x: x ** 2,
                      jacobian=lambda x: 2.0 * x[:, :, None],
                      hessian=lambda x: np.full((x.shape[0], 1, 1, 1), 2.0))
    out = lift(pinned_mid, sq)
    x = pinned_mid.states[:, :-1, 0]
    assert np.array_equal(out.states, pinned_mid.states ** 2)
    assert np.allclose(out.drifts[:, :, 0], 2.0 * x * pinned_mid.drifts[:, :, 0] + 1.0,
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(out.diffusions[:, :, 0, 0], 2.0 * x, rtol=1e-12, atol=1e-12)


def test_lift_rejects_a_time_dependent_map(bm_small):
    # the Ito rule of lift has no d_t h term: a map written as h(t, x)
    # fails at its first call instead of losing that term
    shifted = SpaceTimeMap(name="plus_t", map_fn=lambda t, x: x + t,
                           jacobian=lambda t, x: np.eye(1),
                           inverse=lambda t, y: y - t)
    with pytest.raises(TypeError, match="positional argument"):
        lift(bm_small, shifted)


def test_state_features_columns_by_degree(grid200):
    # every degree has the constant and the coordinates; degree >= 2 adds
    # the second-order monomials
    ens = catalog.build_law("brownian", grid200, 1200, seed=7, dim=2)
    x = ens.states[:, 50]
    linear = (["1", "x0", "x1"], [np.ones(1200), x[:, 0], x[:, 1]])
    quadratic = (linear[0] + ["x0*x0", "x0*x1", "x1*x1"],
                 linear[1] + [x[:, 0] ** 2, x[:, 0] * x[:, 1], x[:, 1] ** 2])
    for degree, (names, cols) in ((0, linear), (1, linear), (2, quadratic)):
        phi, got = make_state_features(degree=degree)(ens, 50)
        assert got == names
        assert np.array_equal(phi, np.stack(cols, axis=1))


def test_registered_maps_are_homeomorphisms():
    pts = np.linspace(-4, 4, 101)[:, None]
    for name, kwargs in (("identity", {}), ("affine", {"matrix": [[1.5]], "offset": [0.2]}),
                         ("sine_squash", {})):
        mp = catalog.get_map(name, **kwargs)
        assert homeomorphism_defect(mp, pts) < 1e-8


def _coef_compare(ensemble, feature_map, probe, formula_values):
    """Regression of increments vs regression of closed-form drift values."""
    est = estimate_characteristics(ensemble, feature_map, [probe])[0]
    phi, _ = feature_map(ensemble, probe)
    ref, *_ = np.linalg.lstsq(phi, formula_values, rcond=None)
    z = np.abs(est.drift_coef[:, 0] - ref) / est.drift_se[:, 0]
    return float(np.max(z))


def test_lift_sine_squash_drift_formula(bm_mid):
    # alpha/2 * h'' = -0.1 sin(x): regression on the lifted ensemble recovers
    # the transformation formula coefficients
    mp = catalog.get_map("sine_squash")
    lifted = lift(bm_mid, mp)
    inv = mp.inverse
    fm = make_test_feature_map(
        [lambda y: np.ones(y.shape[0]), lambda y: np.sin(inv(y))[:, 0]],
        ["1", "sin(preimage)"])
    for probe in (60, 120, 180):
        x = bm_mid.states[:, probe, 0]
        formula = -0.1 * np.sin(x)
        assert _coef_compare(lifted, fm, probe, formula) < 4.0


def test_lift_transformed_alpha_matches_regression(bm_mid):
    mp = catalog.get_map("sine_squash")
    lifted = lift(bm_mid, mp)
    probe = 120
    est = estimate_characteristics(lifted, make_state_features(degree=0), [probe])[0]
    x = bm_mid.states[:, probe, 0]
    formula_alpha = float(np.mean((1 + 0.2 * np.cos(x)) ** 2))
    assert abs(est.alpha_coef[0, 0, 0] - formula_alpha) \
        < 4 * est.alpha_se[0, 0, 0] + 0.01


def _frozen_time_major(record):
    base = record if record.base is None else record.base
    return (record.strides[0] < record.strides[1] and not record.flags.writeable
            and not base.flags.writeable)


def test_push_and_lift_of_row_function_drift_match_the_stored_record():
    # the weighted law computes its drift rows where they are read; the maps
    # must give the arrays they give the same law holding the stored record
    g, n = TimeGrid(10), NOISE_BLOCK + 5
    rows = catalog.build_law("squared_increment_weighted", g, n, seed=36)
    stored = replace(rows, drifts=weighted_drift_record(rows))
    for shift in ("sine", "state"):
        pr = push_shift(rows, materialize(catalog.get_shift(shift, g), rows), 0.3)
        ps = push_shift(stored, materialize(catalog.get_shift(shift, g), stored), 0.3)
        assert np.array_equal(pr.states, ps.states)
        assert np.array_equal(pr.drifts, ps.drifts), shift
        assert _frozen_time_major(pr.states) and _frozen_time_major(pr.drifts)
    for name in ("affine", "sine_squash"):
        lr, ls = lift(rows, catalog.get_map(name)), lift(stored, catalog.get_map(name))
        for field in ("states", "drifts", "diffusions"):
            assert np.array_equal(getattr(lr, field), getattr(ls, field)), (name, field)
        assert _frozen_time_major(lr.states) and _frozen_time_major(lr.drifts)
