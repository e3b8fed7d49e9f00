import bisect

import numpy as np
import pytest
from scipy import integrate, special

from actionlab import (BridgeProblem, FbsdeSpec, TimeGrid, action, bridge_to_model,
                       catalog, delta_marginal, el_certify, el_process,
                       fbsde_simulate, gaussian_marginal,
                       navier_stokes_residual, simulate, sinkhorn_bridge)
from actionlab.bridge import (NS_SPACE, NS_TIME, ConvergenceError, KernelUnderflowError,
                              UnsupportedSpecError, _cell_kernel, _logsumexp, _ndtr,
                              reference_terminal)
from conftest import passes


def kl_oracle():
    # relative entropy of N(0,2) against N(0,1) by independent quadrature
    p = lambda x: np.exp(-x * x / 4) / np.sqrt(4 * np.pi)
    q = lambda x: np.exp(-x * x / 2) / np.sqrt(2 * np.pi)
    val, _ = integrate.quad(lambda x: p(x) * np.log(p(x) / q(x)), -20, 20,
                            limit=200)
    return val


def test_marginal_helpers():
    p = gaussian_marginal(0.0, 2.0)
    assert p.shape == (481,) and abs(p.sum() - 1.0) < 1e-12
    d = delta_marginal(0.0)
    assert d.sum() == 1.0 and d[240] == 1.0
    with pytest.raises(ValueError, match="mass"):
        BridgeProblem(p0=d, p1=p * 0.5)


def test_delta_marginal_rejects_a_point_off_the_lattice(grid200, no_simulation):
    # the edges stay on the lattice, in its first and last cells
    assert delta_marginal(-6.0)[0] == 1.0 and delta_marginal(6.0)[-1] == 1.0
    for at in (-6.5, 40.0):
        with pytest.raises(ValueError, match="outside"):
            delta_marginal(at)
    with pytest.raises(ValueError, match="at 40.0 lies outside"):
        catalog.sinkhorn_bridge_law(grid200, 1000, seed=3, initial_at=40.0)


def test_kernel_rows_stochastic():
    centers = delta_marginal(0.0) * 0 + np.linspace(-6, 6, 481)
    k = _cell_kernel(np.linspace(-5.9875, 5.9875, 481), 0.025, 0.005)
    assert np.allclose(k.sum(axis=1), 1.0, atol=1e-12)
    assert k.min() >= 0.0


def test_ndtr_matches_scipy():
    # down to 1e-300 the two CDFs differ by at most 3.3e-13 relative (the
    # erfc of the deep tail) and 2.3e-16 absolute
    z = np.linspace(-37.0, 37.0, 20001)
    ours, ref = _ndtr(z), special.ndtr(z)
    assert np.allclose(ours, ref, rtol=1e-12, atol=3e-16)
    assert _ndtr(z.reshape(-1, 1)).shape == (20001, 1)
    assert _ndtr(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("axis", [0, 1])
def test_logsumexp_matches_scipy(axis):
    # including a row and a column that are all -inf, as the Sinkhorn
    # potentials are off the marginals' support
    a = np.random.default_rng(8).normal(size=(40, 481)) * 30.0
    a[3] = -np.inf
    a[:, 5] = -np.inf
    ours, ref = _logsumexp(a, axis=axis), special.logsumexp(a, axis=axis)
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(ours), finite)
    assert np.all(ours[~finite] == -np.inf)
    assert np.allclose(ours[finite], ref[finite], rtol=1e-15, atol=0)


def _scipy_cell_kernel(centers, dx, tau):
    """The kernel as it was computed with scipy's ndtr, cell pair by cell pair."""
    s = np.sqrt(tau)
    gap = centers[None, :] - centers[:, None]
    lo, hi = (gap - dx / 2) / s, (gap + dx / 2) / s
    k = np.where(gap > 0, special.ndtr(-lo) - special.ndtr(-hi),
                 special.ndtr(hi) - special.ndtr(lo))
    return k / k.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("tau", [1.0, 1 / 200, 1 / 500])
def test_cell_kernel_matches_the_scipy_formula(tau):
    # measured: at most 1.9e-13 (tau 1), 8.9e-13 (1/200) and 1.4e-12 (1/500)
    # relative on every entry above 1e-300; below the smallest normal float
    # the two round differently, so they agree there to that float
    problem = BridgeProblem(p0=delta_marginal(0.0), p1=delta_marginal(0.0))
    ours = _cell_kernel(problem.centers, problem.dx, tau)
    ref = _scipy_cell_kernel(problem.centers, problem.dx, tau)
    assert np.allclose(ours, ref, rtol=2e-12, atol=np.finfo(float).tiny)


def test_kernel_underflow_on_a_wide_lattice(grid200):
    # 80 units wide: the lower tail of the farthest cells rounds to zero
    p0 = delta_marginal(0.0, -40.0, 40.0)
    p1 = gaussian_marginal(0.0, 2.0, -40.0, 40.0)
    with pytest.raises(KernelUnderflowError, match="lattice too wide"):
        sinkhorn_bridge(BridgeProblem(p0=p0, p1=p1, x_min=-40.0, x_max=40.0), grid200)


def test_trivial_bridge_reference_marginal(grid200):
    # final marginal equal to the reference heat marginal: potentials vanish
    # and the drift is numerically zero well inside the lattice
    p0 = gaussian_marginal(0.0, 0.25)
    problem = BridgeProblem(p0=p0, p1=p0, x_min=-6, x_max=6)
    p1 = reference_terminal(problem)
    problem = BridgeProblem(p0=p0, p1=p1, x_min=-6, x_max=6)
    sol = sinkhorn_bridge(problem, grid200)
    assert sol.iterations <= 2
    assert np.max(np.abs(sol.log_f[problem.p0 > 0])) < 1e-9
    assert np.max(np.abs(sol.log_g[problem.p1 > 0])) < 1e-9
    centers = problem.centers
    inner = np.abs(centers) <= 2.0
    assert np.max(np.abs(sol.drift_field[:, inner])) < 1e-4


def test_sinkhorn_entropy_matches_kl(grid200):
    problem = BridgeProblem(p0=delta_marginal(0.0), p1=gaussian_marginal(0.0, 2.0))
    sol = sinkhorn_bridge(problem, grid200)
    assert sol.marginal_error < 1e-9
    assert abs(sol.entropy - kl_oracle()) < 2e-3
    # marginal misfit history is monotone
    assert np.all(np.diff(sol.error_history) <= 1e-15)


def test_sinkhorn_harmonic_propagation_exact(grid200):
    problem = BridgeProblem(p0=delta_marginal(0.0), p1=gaussian_marginal(0.0, 2.0))
    sol = sinkhorn_bridge(problem, grid200)
    kstep = _cell_kernel(problem.centers, problem.dx, grid200.dt)
    for j in (0, 57, 133, 199):
        assert np.max(np.abs(sol.h[j] - kstep @ sol.h[j + 1])) < 1e-10


def test_sinkhorn_nonconvergence_error(grid200):
    # a point initial mass fits in two iterations, so cap below that
    problem = BridgeProblem(p0=delta_marginal(0.0), p1=gaussian_marginal(1.5, 0.5))
    with pytest.raises(ConvergenceError):
        sinkhorn_bridge(problem, grid200, tol=1e-12, max_iter=1)


def test_bridge_simulation_terminal_fit_and_entropy_identity(grid200):
    problem = BridgeProblem(p0=delta_marginal(0.0), p1=gaussian_marginal(0.0, 2.0))
    sol = sinkhorn_bridge(problem, grid200)
    model, holder = bridge_to_model(sol)
    ens = simulate(model, grid200, 50_000, seed=71)
    # terminal histogram vs the target on quarter-width bins
    edges = np.linspace(-6, 6, 49)
    hist, _ = np.histogram(ens.states[:, -1, 0], bins=edges)
    hist = hist / ens.n_paths
    centers = problem.centers
    target = np.array([problem.p1[(centers >= a) & (centers < b)].sum()
                       for a, b in zip(edges[:-1], edges[1:])])
    tv = 0.5 * np.abs(hist - target / target.sum()).sum()
    assert tv < 0.02
    # rare excursions past the lattice edge are clamped and counted
    assert holder.clamped < 1e-4 * ens.n_paths * grid200.m
    # action equals the entropy of the fitted coupling (relative-entropy identity)
    est = action(ens, catalog.get_lagrangian("kinetic"))
    assert abs(est.mean - sol.entropy) < 4 * est.stderr + 2e-3
    assert passes(el_certify(ens, catalog.get_lagrangian("kinetic")))


@pytest.mark.parametrize("threads", [1, 3])
def test_clamped_counts_every_excursion(grid200, threads):
    # a lattice far narrower than the paths' spread forces many clamps, which
    # pool workers report at once; none may be lost
    law, sol, holder = catalog.sinkhorn_bridge_law(
        grid200, 3000, seed=23, threads=threads, final_var=0.5,
        x_min=-1.0, x_max=1.0, n_cells=41)
    ens = law.build()
    centers = sol.problem.centers
    x = ens.states[:, :grid200.m, 0]
    expected = int(((x < centers[0]) | (x > centers[-1])).sum())
    assert expected > 1000
    assert holder.clamped == expected


def _same_bits(a, b):
    # equal as float64 bit patterns, so -0.0 differs from +0.0
    return np.array_equal(np.asarray(a, np.float64).view(np.int64),
                          np.asarray(b, np.float64).view(np.int64))


def test_field_drift_matches_interp(grid200):
    # the direct cell index must give np.interp's bits, sign of zero included:
    # at the nodes, one ulp either side of them, the midpoints, outside the
    # lattice and inside it
    law, sol, holder = catalog.sinkhorn_bridge_law(
        grid200, 3000, seed=23, final_var=0.5, x_min=-1.0, x_max=1.0, n_cells=41)
    ens = law.build()
    c, field = sol.problem.centers, sol.drift_field
    # the lookup's x == c[k] case relies on a field without -0.0
    assert not np.signbit(field[field == 0.0]).any()
    m = grid200.m
    x = ens.states[:, :m, 0]
    assert holder.clamped == int(((x < c[0]) | (x > c[-1])).sum())
    for j in range(m):
        assert _same_bits(ens.drifts[:, j, 0], np.interp(x[:, j], c, field[j]))

    rng = np.random.default_rng(5)
    q = np.concatenate([c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf),
                        0.5 * (c[:-1] + c[1:]), [-100.0, 100.0],
                        c[0] - rng.uniform(0, 3, 50), c[-1] + rng.uniform(0, 3, 50),
                        rng.uniform(c[0], c[-1], 5000)])
    _, fresh = bridge_to_model(sol)
    for j in range(m):
        prefix = np.broadcast_to(q[:, None, None], (q.size, j + 1, 1))
        assert _same_bits(fresh(j, prefix)[:, 0], np.interp(q, c, field[j])), j
    outside = int(((q < c[0]) | (q > c[-1])).sum())
    assert outside == 2 + 2 + 100 and fresh.clamped == m * outside


def test_bridge_sampler_keeps_the_bisect_rule():
    # the block sampler picks, for each uniform, the atom the per-path
    # bisect_right rule picked, clamped to the last atom above cdf[-1]
    problem = BridgeProblem(p0=gaussian_marginal(0.0, 1.0), p1=gaussian_marginal(0.0, 2.0))
    model, _ = bridge_to_model(sinkhorn_bridge(problem, TimeGrid(16)))
    cdf = np.cumsum(problem.p0)
    atoms = problem.centers
    u = np.concatenate([np.random.default_rng(5).random(2000), cdf[[0, 10, 200]],
                        [0.0, np.nextafter(cdf[-1], 2.0)]])

    class Uniforms:
        def random(self, size):
            assert size == len(u)
            return u

    want = [atoms[min(bisect.bisect_right(cdf.tolist(), x), len(atoms) - 1)] for x in u]
    assert np.array_equal(model.initial_sampler(Uniforms(), len(u))[:, 0], want)
    assert want[-1] == atoms[-1]


def test_zero_drift_field_gives_brownian(grid200):
    problem = BridgeProblem(p0=delta_marginal(0.0), p1=gaussian_marginal(0.0, 2.0))
    sol = sinkhorn_bridge(problem, grid200)
    sol.drift_field[:] = 0.0
    model, _ = bridge_to_model(sol)
    ens = simulate(model, grid200, 20000, seed=72)
    x1 = ens.states[:, -1, 0]
    assert abs(x1.mean()) < 4 / np.sqrt(ens.n_paths)
    assert abs(x1.var() - 1.0) < 5 * np.sqrt(2 / ens.n_paths)


def test_fbsde_adapted_constancy(grid200):
    from actionlab import TimeGrid
    g = TimeGrid(1000)
    ens = catalog.build_law("oscillator_adapted", g, 1000, seed=73)
    n = el_process(ens, catalog.get_lagrangian("kinetic_quadratic"))
    assert np.max(np.abs(n - n[:, :1])) < 1e-3


def test_fbsde_filtering_riccati_and_certification(grid200):
    spec = FbsdeSpec(dim=1, grad_potential=lambda t, x: x,
                     y0_gaussian=(0.0, 1.0), curvature=1.0,
                     initial_sampler=catalog.point_sampler(np.zeros(1)))
    res = fbsde_simulate(spec, grid200, 20000, seed=74)
    t = grid200.times[:-1]
    assert np.max(np.abs(res.posterior_var - 1.0 / (1.0 + t))) < 1e-8
    assert passes(el_certify(res.ensemble,
                             catalog.get_lagrangian("kinetic_quadratic")))


def test_fbsde_filtering_with_martingale_noise(grid200):
    # independent Brownian component in the backward equation: still certified
    spec = FbsdeSpec(dim=1, grad_potential=lambda t, x: x,
                     y0_gaussian=(0.0, 1.0), curvature=1.0,
                     z_mode="independent_brownian",
                     initial_sampler=catalog.point_sampler(np.zeros(1)))
    res = fbsde_simulate(spec, grid200, 20000, seed=75)
    assert passes(el_certify(res.ensemble,
                             catalog.get_lagrangian("kinetic_quadratic")))


def test_fbsde_spec_validation(grid200):
    with pytest.raises(UnsupportedSpecError, match="linear grad V"):
        fbsde_simulate(FbsdeSpec(dim=1, grad_potential=lambda t, x: x ** 3,
                                 y0_gaussian=(0.0, 1.0)),
                       grid200, 2000, seed=1)
    with pytest.raises(UnsupportedSpecError, match="constant martingale"):
        fbsde_simulate(FbsdeSpec(dim=1, grad_potential=lambda t, x: x,
                                 y0_fn=lambda x0: np.zeros(1),
                                 z_mode="independent_brownian"),
                       grid200, 2000, seed=1)
    # the spec sets the variant, so it needs exactly one of y0_fn and y0_gaussian
    for y0 in ({}, dict(y0_fn=lambda x0: np.zeros(1), y0_gaussian=(0.0, 1.0))):
        with pytest.raises(UnsupportedSpecError, match="exactly one of y0_fn"):
            fbsde_simulate(FbsdeSpec(dim=1, grad_potential=lambda t, x: x,
                                     curvature=1.0, **y0),
                           grid200, 2000, seed=1)


def test_oscillator_laws_match_oscillator_spec(grid200):
    def grad_x1_squared(t, x):
        return np.stack([2.0 * x[..., 0], np.zeros_like(x[..., 1])], axis=-1)

    nonradial = FbsdeSpec(dim=2, grad_potential=grad_x1_squared,
                          y0_fn=lambda x0: np.zeros(2),
                          initial_sampler=catalog.point_sampler((1.0, 0.0)))
    for law, spec in (
            ("oscillator_adapted", catalog.OSCILLATORS["adapted"]()),
            ("oscillator_nonradial", nonradial),
            ("oscillator_filtering", catalog.OSCILLATORS["filtering"](x0=0.0))):
        ens = catalog.build_law(law, grid200, 1000, seed=77)
        ref = fbsde_simulate(spec, grid200, 1000, seed=77).ensemble
        for name in ("states", "drifts", "diffusions"):
            assert np.array_equal(getattr(ens, name), getattr(ref, name)), (law, name)
    with pytest.raises(TypeError, match="y0_var"):
        catalog.get_oscillator("adapted", y0_var=2.0)
    with pytest.raises(TypeError, match="sigma_scale"):
        catalog.get_oscillator("filtering", sigma_scale=2.0)


def test_navier_stokes_oracles():
    assert (NS_SPACE, NS_TIME) == (50, 10)
    residual, div = navier_stokes_residual()
    assert residual < 1e-10
    assert div < 1e-12


def test_taylor_green_certification(grid200):
    ens = catalog.build_law("taylor_green", grid200, 20000, seed=76)
    assert ens.dim == 2
    rep = el_certify(ens, catalog.get_lagrangian("kinetic_taylor_green"))
    assert passes(rep), rep.max_abs_statistic
    # wrong potential is detected
    rep_bad = el_certify(ens, catalog.get_lagrangian("kinetic_quadratic"))
    assert not passes(rep_bad)
