"""Statistical certification: martingale tests, the variational derivative two
ways, the drift-representation check, and the symmetry invariant.

The workhorse is :func:`martingale_test`: for consecutive probe times s < t
and bounded prefix functions phi, the normalized statistic

    z = mean_i [ w_i (X_t - X_s) phi_i(s) ] / stderr

is approximately standard normal when X is a martingale.  The diagnostics
only measure: :func:`verdict` alone compares statistics with the threshold
(default 4.0, sized so that a family of up to ~50 statistics has a false-
failure probability below one percent under normality).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ._accum import weighted_mean_stderr, zscores
from .lagrangians import Lagrangian, _el_columns, el_process
from .paths import MIN_PATHS, LawRecipe, PathEnsemble
from .shifts import ENDPOINT_TOL, AdaptedShift, EndpointError

__all__ = [
    "verdict",
    "gap",
    "MartingaleReport",
    "PowerError",
    "martingale_test",
    "default_test_functions",
    "el_certify",
    "variational_derivative",
    "VariationalResult",
    "drift_representation_check",
    "NoetherFamily",
    "noether_invariant",
]

DEFAULT_PROBE_FRACTIONS = (0.1, 0.25, 0.5, 0.75, 0.9)
DEFAULT_THRESHOLD = 4.0
CLIP_QUANTILE = 0.995   # of |W| and W^2, where the prefix features are clipped


class PowerError(ValueError):
    """Too few paths for the test to have meaningful power."""


def verdict(stats, threshold: float = DEFAULT_THRESHOLD):
    """``(passed, max_stat)``: PASS when all are finite and none exceeds
    ``threshold``; ``np.max`` keeps a NaN, and no statistic raises ``ValueError``."""
    arr = np.asarray(stats, dtype=np.float64)
    max_stat = float(np.max(arr))
    return bool(np.isfinite(arr).all() and max_stat <= threshold), max_stat


def gap(value, expected, se, allowance=0.0):
    """Gap between ``value`` and ``expected`` beyond ``allowance``, in units of
    ``se``, as a verdict statistic; a NaN value or standard error gives NaN."""
    return max(abs(value - expected) - allowance, 0.0) / max(se, 1e-300)


@dataclass(frozen=True)
class MartingaleReport:
    """Normalized increment statistics per probe pair and test function."""

    probe_pairs: list            # [(s, t), ...]
    test_names: list             # column labels: feature x process coordinate
    statistics: np.ndarray       # [n_pairs, n_columns]

    @property
    def max_abs_statistic(self) -> float:
        return float(np.max(np.abs(self.statistics)))

    def rows(self):
        """(s, t, column, z) tuples for CSV serialization."""
        for (s, t), row in zip(self.probe_pairs, self.statistics):
            for name, z in zip(self.test_names, row):
                yield s, t, name, float(z)


def default_test_functions(x: np.ndarray):
    """Bounded prefix features of the ``[n, d]`` states ``x`` at a probe step:
    1, W, clip(W^2).

    The state features are clipped at the :data:`CLIP_QUANTILE` quantile of
    their absolute value so the statistics stay well behaved for heavy-tailed
    laws.
    """
    d = x.shape[1]
    feats = [np.ones(x.shape[0])]
    names = ["1"]
    for k in range(d):
        c = np.quantile(np.abs(x[:, k]), CLIP_QUANTILE)
        feats.append(np.clip(x[:, k], -c, c) if c > 0 else x[:, k])
        names.append(f"W[{k}]")
    for k in range(d):
        sq = x[:, k] ** 2
        c = np.quantile(sq, CLIP_QUANTILE)
        feats.append(np.clip(sq, 0.0, c) if c > 0 else sq)
        names.append(f"W[{k}]^2")
    return np.stack(feats, axis=1), names


def _orthogonality(resid: np.ndarray, x: np.ndarray, weights):
    """z-scores of E[w resid phi] for each prefix feature phi of the ``[n, d]``
    states ``x`` and coordinate of ``resid`` [n, d], with their column names."""
    feats, feat_names = default_test_functions(x)
    n, d = resid.shape
    prod = resid[:, None, :] * feats[:, :, None]              # [n, k, d]
    mean, se = weighted_mean_stderr(prod.reshape(n, -1), weights)
    names = [f"{f}|x{c}" if d > 1 else f for f in feat_names for c in range(d)]
    return zscores(mean, se), names


def _check_power(n_paths: int, probe_indices: Sequence[int]) -> None:
    """Raise unless a martingale test on these paths and probes has power."""
    if n_paths < MIN_PATHS:
        raise PowerError(f"martingale test needs >= {MIN_PATHS} paths")
    if len(probe_indices) < 2:   # no pair: an empty report, not a PASS
        raise ValueError(f"need two distinct probe steps, got {len(probe_indices)}")


def martingale_test(process: np.ndarray, ensemble: Union[PathEnsemble, LawRecipe],
                    probe_indices: Sequence[int], *,
                    probe_states: Optional[np.ndarray] = None,
                    weights: Optional[np.ndarray] = None) -> MartingaleReport:
    """Test that a process sampled at the probe steps is a martingale.

    ``process`` has shape [n, P] or [n, P, d_proc] with P = len(probe_indices);
    the statistic matrix has one row per consecutive probe pair and one column
    per (test function, process coordinate).  The prefix features are read
    from the states ``ensemble.states[:, j]`` at each probe step and weighted
    by ``ensemble.weights``.  A law walked by ``fold`` holds no states: its
    caller passes the law as ``ensemble``, whose ``n_paths`` and grid are
    read, with the ``[n, d]`` states it kept at each probe step
    (``probe_states``, [P, n, d]) and the ``weights`` ``fold`` returned.
    """
    _check_power(ensemble.n_paths, probe_indices)
    if probe_states is None:
        probe_states = [ensemble.states[:, j] for j in probe_indices]
        weights = ensemble.weights
    proc = np.asarray(process, dtype=np.float64)
    if proc.ndim == 2:
        proc = proc[:, :, None]
    p = proc.shape[1]
    if p != len(probe_indices):
        raise ValueError("process probe axis does not match probe_indices")
    dt = ensemble.grid.dt
    pairs, stats, names = [], [], None
    for a in range(p - 1):
        ja, jb = probe_indices[a], probe_indices[a + 1]
        z, names = _orthogonality(proc[:, a + 1] - proc[:, a], probe_states[a], weights)
        stats.append(z)
        pairs.append((ja * dt, jb * dt))
    return MartingaleReport(probe_pairs=pairs, test_names=names or [],
                            statistics=np.array(stats))


def el_certify(law: Union[PathEnsemble, LawRecipe], lagrangian: Lagrangian,
               probe_fractions: Sequence[float] = DEFAULT_PROBE_FRACTIONS
               ) -> MartingaleReport:
    """Martingale test of the Euler-Lagrange process at ``probe_fractions``
    of the law's ``t_max``; the laboratory's central statistic.

    The law is walked once by ``law.fold``: each chunk, or each range view of
    a held ensemble, writes its rows of the process and of the states at the
    probe steps, so a :class:`~actionlab.paths.LawRecipe` is never held
    whole.  The test then runs on the joined ``[n, P, d]`` arrays, so the
    report has the bits of the report on the built law.  Too few paths or
    probe steps raise before the walk.

    The chunks' ``el_process`` calls take turns, under a lock.  Each is a
    small part of its chunk's work (about 25 ms for 10^5 paths at m = 200 on
    a 2-CPU Xeon VM, against 0.3-0.6 s to simulate them), and ``el_process`` is a traced
    layer of the benchmark, whose one span stack must see each call begin
    and end under this one, not two calls interleaved from two threads.
    """
    idx = law.grid.probe_indices(probe_fractions, law.t_max)
    _check_power(law.n_paths, idx)
    n, p, d = law.n_paths, len(idx), law.dim
    process, states = np.empty((n, p, d)), np.empty((p, n, d))
    one_at_a_time = threading.Lock()

    def keep(lo, chunk):
        rows = slice(lo, lo + chunk.n_paths)
        with one_at_a_time:
            process[rows] = el_process(chunk, lagrangian, idx)
        for a, j in enumerate(idx):
            states[a, rows] = chunk.states[:, j]

    weights = law.fold(keep)
    return martingale_test(process, law, idx, probe_states=states, weights=weights)


@dataclass(frozen=True)
class VariationalResult:
    """Finite-difference action derivative versus the inner-product formula."""

    fd: float
    fd_se: float
    formula: float
    formula_se: float
    diff: float
    diff_se: float
    allowance: float
    epsilon: float

    def gaps(self):
        """:func:`gap` from zero of (diff, formula, fd): the first says the two
        ways agree, the other two that the action is critical."""
        return (gap(self.diff, 0.0, self.diff_se, self.allowance),
                gap(self.formula, 0.0, self.formula_se, self.allowance),
                gap(self.fd, 0.0, max(self.fd_se, self.formula_se), self.allowance))


def variational_derivative(law: Union[PathEnsemble, LawRecipe], lagrangian: Lagrangian,
                           shift: AdaptedShift,
                           eps_list: Sequence[float] = (1e-2, 1e-3)
                           ) -> VariationalResult:
    """Derivative of the action along the pushforward curve, two ways.

    The finite difference uses common random numbers (the same paths are
    shifted by +-epsilon), differenced per path against the formula value
    <xi, h>_H with xi the Euler-Lagrange process, so the comparison noise is
    the noise of the difference.  One step loop sums ``L(t, x + e h, v + e
    hdot, alpha) dt`` over the steps before ``law.t_max`` per signed
    epsilon ``e``: the bits of ``path_actions`` on ``push_shift(ensemble,
    materialize(shift, ensemble), e)``, without the pushed ensembles.  The
    gaps allow 2/m, which absorbs the left-rectangle mismatch.

    The epsilon check comes first.  The law is then walked once by
    ``law.fold``, so a :class:`~actionlab.paths.LawRecipe` is never held
    whole.  Each chunk, or range view of a held ensemble, runs one step
    loop: it evaluates ``shift.derivative`` at step j (the call
    :func:`~actionlab.shifts.materialize` makes), adds ``<xi_j, hdot_j>`` to
    the formula value, with xi_j streamed from the Euler-Lagrange columns,
    and streams h as the running sum of hdot times dt (the bits of
    ``shift.h``), so neither the shift nor any ``[n, m, d]`` record is held.
    After the walk, a non-finite derivative raises materialize's
    ``ValueError``, and then a nonzero streamed terminal value raises
    :class:`EndpointError`.  The epsilon choice and the weighted means run on
    the per-path values of all chunks, so the result is bit-identical for
    any split.
    """
    if not eps_list or not all(isinstance(e, Real) and 0.0 < e < math.inf
                               for e in eps_list):
        raise ValueError(f"eps must be finite and positive, got {list(eps_list)}")
    n, m, d = law.n_paths, law.grid.m, law.dim
    dt = law.grid.dt
    steps = law.grid.steps_before(law.t_max)
    formula_pp, terminal, finite = np.zeros(n), np.empty((n, d)), []
    actions = {e: np.zeros(n) for eps in eps_list for e in (eps, -eps)}

    def walk(lo, ens):
        rows = slice(lo, lo + ens.n_paths)
        sums = {e: total[rows] for e, total in actions.items()}
        formula, hd = formula_pp[rows], np.empty((ens.n_paths, d))
        # h_j = (hdot_0 + ... + hdot_{j-1}) dt, summed in np.cumsum's order
        # from -0.0, the exact additive identity
        h, cum = np.zeros((ens.n_paths, d)), np.full((ens.n_paths, d), -0.0)
        for j, xi in _el_columns(ens, lagrangian, range(m)):
            hd[...] = shift.derivative(j, ens.states)   # materialize's row of hdot
            finite.append(np.isfinite(hd).all())
            formula += np.einsum("nd,nd->n", xi, hd)
            if j < steps:
                t = j * dt
                x, v, a = ens.states[:, j], ens.drift(j), ens.alpha(j)
                for e, total in sums.items():
                    val = lagrangian.value(t, x + e * h, v + e * hd, a)
                    total += np.asarray(val, dtype=np.float64) * dt
            cum = cum + hd
            h = cum * dt
        terminal[rows] = h

    weights = law.fold(walk)
    if not all(finite):
        raise ValueError(f"shift '{shift.name}' produced non-finite derivative")
    formula_pp *= dt
    if not np.max(np.abs(terminal)) <= ENDPOINT_TOL:
        raise EndpointError("variational_derivative requires an endpoint-zero shift")
    fd_by_eps = {eps: (actions[eps] - actions[-eps]) / (2 * eps) for eps in eps_list}
    eps_sorted = sorted(fd_by_eps, reverse=True)
    if len(eps_sorted) == 1:
        eps_star = eps_sorted[0]
    else:
        gaps = {}
        for a, b in zip(eps_sorted[:-1], eps_sorted[1:]):
            gaps[b] = abs(float(np.mean(fd_by_eps[a] - fd_by_eps[b])))
        eps_star = min(gaps, key=gaps.get)
    fd_pp = fd_by_eps[eps_star]

    fd, fd_se = weighted_mean_stderr(fd_pp, weights)
    formula, formula_se = weighted_mean_stderr(formula_pp, weights)
    diff, diff_se = weighted_mean_stderr(fd_pp - formula_pp, weights)
    return VariationalResult(fd=fd, fd_se=fd_se, formula=formula,
                             formula_se=formula_se, diff=diff, diff_se=diff_se,
                             allowance=2.0 / m, epsilon=eps_star)


def drift_representation_check(ensemble: PathEnsemble,
                               grad_potential: Optional[Callable] = None,
                               probe_fractions: Sequence[float] = (0.6, 0.75, 0.9)
                               ) -> MartingaleReport:
    """Check that the recorded drift is the conditional mean of the pull-to-
    endpoint variable xi^V_t = (W_1 - W_t)/(1-t) + int_t^1 ((1-s)/(1-t)) grad V ds.

    Under the Euler-Lagrange condition E[xi^V_t | prefix] equals the drift, so
    (xi^V_t - v_t) must be orthogonal to every bounded prefix feature; the
    report normalizes those inner products by their standard errors, one row
    per probe pair (t, 1), since xi^V_t reads the path up to the terminal time.
    """
    grid = ensemble.grid
    n, m, d = ensemble.n_paths, grid.m, ensemble.dim
    dt = grid.dt
    idx = grid.probe_indices(probe_fractions, 1.0)
    if not idx:   # no statistic: an empty report, not a PASS
        raise ValueError("need at least one probe step, got 0")

    grad_term = {}
    if grad_potential is not None:
        # backward left-rectangle sums of (1-s) grad V(W_s), kept at the probes
        acc = np.zeros((n, d))
        for j in range(m - 1, idx[0] - 1, -1):
            t = j * dt
            acc = acc + (1.0 - t) * np.asarray(
                grad_potential(t, ensemble.states[:, j]), dtype=np.float64) * dt
            if j in idx:
                grad_term[j] = acc

    stats, names, pairs = [], None, []
    terminal = ensemble.states[:, m]
    for j in idx:
        t = j * dt
        xi = (terminal - ensemble.states[:, j]) / (1.0 - t)
        if grad_potential is not None:
            xi = xi + grad_term[j] / (1.0 - t)
        z, names = _orthogonality(xi - ensemble.drift(j), ensemble.states[:, j],
                                  ensemble.weights)
        stats.append(z)
        pairs.append((t, 1.0))
    return MartingaleReport(probe_pairs=pairs, test_names=names or [],
                            statistics=np.array(stats))


@dataclass(frozen=True)
class NoetherFamily:
    """A one-parameter family of space maps with identity at parameter zero.

    ``generator(x[n, d])`` is the parameter-derivative of the family at zero,
    an [n, d] field u~(x), and ``grad_generator(x)`` its spatial Jacobian
    [.., d, d]; neither takes a time argument.
    """

    name: str
    generator: Callable
    grad_generator: Callable


def noether_invariant(ensemble: PathEnsemble, lagrangian: Lagrangian,
                      family: NoetherFamily,
                      probe_fractions: Sequence[float] = DEFAULT_PROBE_FRACTIONS):
    """Assemble the symmetry invariant and run the martingale test on it.

    I_t = <u~(W_t), p_t> - sum_i [u~^i, p^i]_t + int_0^t theta_s ds, with
    p the momentum grad_v L, the bracket the realized covariation on the
    simulation grid, theta = sum_ij kappa_ij dL/da_ij and
    kappa = alpha grad_u~^T + grad_u~ alpha.  Returns (I at probes, report).
    """
    grid = ensemble.grid
    n, d = ensemble.n_paths, ensemble.dim
    dt = grid.dt
    idx = grid.probe_indices(probe_fractions, ensemble.t_max)
    column = {j: a for a, j in enumerate(idx)}

    # Running covariation and theta sums, one step at a time up to the last
    # probe.  They start from -0.0, the exact additive identity, so they hold
    # the bits a cumulative sum over the steps would.
    cov = np.full(n, -0.0)
    theta_sum = np.full(n, -0.0)
    inv = np.empty((n, len(idx)))
    gen_prev = p_prev = None
    for j in range(max(idx, default=-1) + 1):
        t = j * dt
        x, v = ensemble.states[:, j], ensemble.drift(j)
        alpha = ensemble.alpha(j)
        # C order, as rows of a path array: einsum's summation order over d
        # depends on the operands' memory layout
        gen = np.ascontiguousarray(family.generator(x), dtype=np.float64)
        p = np.ascontiguousarray(lagrangian.grad_v(t, x, v, alpha), dtype=np.float64)
        if j > 0:
            cov = cov + np.einsum("nd,nd->n", gen - gen_prev, p - p_prev)
        if j in column:
            inv[:, column[j]] = np.einsum("nd,nd->n", gen, p) - cov + theta_sum * dt
        gu = np.broadcast_to(np.asarray(family.grad_generator(x),
                                        dtype=np.float64), (n, d, d))
        # one product when neither factor varies over the paths; alpha is
        # symmetric, so alpha grad_u~^T is the transpose of grad_u~ alpha
        rows = slice(0, 1) if gu.strides[0] == 0 and alpha.strides[0] == 0 else slice(None)
        g_alpha = np.einsum("nik,nkj->nij", gu[rows], alpha[rows])
        kappa = np.broadcast_to(g_alpha + np.swapaxes(g_alpha, 1, 2), (n, d, d))
        ga = np.asarray(lagrangian.grad_a(t, x, v, alpha), dtype=np.float64)
        theta_sum = theta_sum + np.einsum("nij,nij->n", kappa, np.broadcast_to(ga, (n, d, d)))
        gen_prev, p_prev = gen, p
    report = martingale_test(inv, ensemble, idx)
    return inv, report
