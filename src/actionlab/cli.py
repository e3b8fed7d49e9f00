"""Config-driven scenario runner.

A scenario is a line-oriented ``key = value`` file with square-bracket
sections: ``[scenario]`` holds the experiment kind and scale, and the
optional ``[law]``, ``[lagrangian]``, ``[shift]``, ``[family]``,
``[bridge]``, ``[fbsde]`` sections hold parameters forwarded to the
registries.  Each kind accepts only the keys and sections its runner reads
(``_ACCEPTS``), and each registry builder only the parameters it reads;
anything else is a configuration error.  Every run writes ``report.csv``
(statistics) and ``verdict.txt`` (one line: kind, PASS or FAIL, max
statistic); ``simulate`` also writes ``paths.csv``, and ``--plot`` renders
figures.  The exit status is 0 on PASS, 1 on FAIL, 2 on configuration errors
and 3 on internal errors.
Reruns with the same config and seed are byte-identical.

Each runner in ``_RUNNERS`` returns ``(header, rows, stats, report, ensemble)``:
the ``report.csv`` header and rows, the nonnegative statistics, and what to
plot (or ``None``).  :func:`run_scenario` hands the statistics to
:func:`~actionlab.diagnostics.verdict`.  A runner whose config would give no
statistic raises :class:`ConfigError` before it simulates: no statistic is no
evidence, not a PASS.  Each runner also builds its registry objects and
reads its typed ``[scenario]`` values (:func:`_typed`: integers, booleans
and numbers) before it simulates, so a bad key in any section is rejected
first.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import traceback
from dataclasses import replace

import numpy as np

from . import bridge as bridge_mod
from . import catalog, diagnostics, reporting
from .lagrangians import action, el_constancy_defect
from .paths import (NOISE_BLOCK, LawRecipe, TimeGrid, adaptedness_probe,
                    export_paths_csv, summarize_terminal)
from .shifts import (delay_pn, endpoint_rn, h_dist_sq, h_norm_sq, materialize,
                     stop_truncate)

_COMMON_KEYS = ("kind", "m", "n_paths", "seed", "threshold", "out")
# kind -> (further [scenario] keys, parameter sections) that its runner reads
_ACCEPTS = {
    "simulate": (("law", "expected_mean", "expected_var"), ("law",)),
    "action": (("law", "lagrangian", "t_max", "expected", "allowance"),
               ("law", "lagrangian")),
    "el-certify": (("law", "lagrangian", "t_max", "probes"), ("law", "lagrangian")),
    "variational": (("law", "lagrangian", "shift", "expect_critical", "eps"),
                    ("law", "lagrangian", "shift")),
    "noether": (("law", "lagrangian", "family", "t_max", "probes"),
                ("law", "lagrangian", "family")),
    "bridge": (("lagrangian", "expected_action", "expected_entropy", "tv_tol"),
               ("lagrangian", "bridge")),
    "fbsde": (("lagrangian", "variant", "constancy_tol", "riccati_tol", "probes"),
              ("lagrangian", "fbsde")),
    "navier-stokes": (("lagrangian", "probes"), ("lagrangian",)),
    "operators": (("law", "shift_count", "peeking"), ("law",)),
}
KINDS = tuple(_ACCEPTS)


class ConfigError(ValueError):
    pass


def _parse_value(raw: str):
    s = raw.strip()
    low = s.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    for number in (int, float):
        try:
            return number(s)
        except ValueError:
            pass
    if "," in s:
        try:
            return tuple(float(tok) for tok in s.split(","))
        except ValueError:
            return tuple(tok.strip() for tok in s.split(","))
    return s


def load_config(path) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        raw = {sec: dict(parser[sec]) for sec in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if "scenario" not in raw:
        raise ConfigError("config must contain a [scenario] section")
    scen = {k: _parse_value(v) for k, v in raw["scenario"].items()}
    kind = scen.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {', '.join(KINDS)}")
    keys, sections = _ACCEPTS[kind]
    allowed = sorted(_COMMON_KEYS + keys)
    bad = set(scen) - set(allowed)
    if bad:
        raise ConfigError(f"unknown [scenario] keys {sorted(bad)} for kind "
                          f"'{kind}'; valid keys: {', '.join(allowed)}")
    bad = set(raw) - {"scenario", *sections}
    if bad:
        raise ConfigError(f"unknown sections {sorted(bad)} for kind '{kind}'; "
                          f"valid sections: scenario, {', '.join(sections)}")
    cfg = {"scenario": scen}
    for sec in sections:
        cfg[sec] = {k: _parse_value(v) for k, v in raw.get(sec, {}).items()}
    return cfg


_TYPE_NAMES = {int: "an integer", bool: "true or false", float: "a number"}


def _typed(s, key, kind, default=None):
    """``s[key]`` if :func:`_parse_value` read it as a ``kind``, an ``int``, a
    ``bool`` or a ``float``, or ``default`` if the key is unset.  A bool is
    neither number here, and an int is read as a float."""
    if key not in s:
        return default
    value = s[key]
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise ConfigError(f"[scenario] {key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _scale(cfg):
    s = cfg["scenario"]
    grid = TimeGrid(_typed(s, "m", int, 200))
    n = _typed(s, "n_paths", int, 100_000)
    seed = _typed(s, "seed", int, 7)
    threshold = _typed(s, "threshold", float, diagnostics.DEFAULT_THRESHOLD)
    probes = s.get("probes", diagnostics.DEFAULT_PROBE_FRACTIONS)
    if isinstance(probes, float):
        probes = (probes,)
    return grid, n, seed, threshold, probes


def _law(cfg, grid, n, seed, default=None, fold=False):
    """The configured law, with its paths held whole, or as the builder gives
    it when ``fold`` is set: a recipe for ``LawRecipe.fold``."""
    s = cfg["scenario"]
    name = s.get("law", default)
    if name is None:
        raise ConfigError("this scenario kind requires a 'law' key")
    t_max = _typed(s, "t_max", float)
    # threads is passed here, so a [law] threads key is a TypeError
    make = catalog.get_law if fold else catalog.build_law
    law = make(str(name), grid, n, seed, threads=None, **cfg.get("law", {}))
    return law if t_max is None else replace(law, t_max=t_max)


def _first_block(law):
    """What ``--plot`` draws of a folded law: a recipe's first noise block,
    built, or an ensemble already held."""
    if isinstance(law, LawRecipe):
        return replace(law, n_paths=min(law.n_paths, NOISE_BLOCK)).build()
    return law


def _lagrangian(cfg, default="kinetic"):
    name = str(cfg["scenario"].get("lagrangian", default))
    return catalog.get_lagrangian(name, **cfg["lagrangian"])


def _martingale_result(report, ens):
    return (["probe_s", "probe_t", "column", "z"], report.rows(),
            [report.max_abs_statistic], report, ens)


def run_simulate(cfg, grid, n, seed, threshold, probes):
    s = cfg["scenario"]
    expected_mean = _typed(s, "expected_mean", float)
    expected_var = _typed(s, "expected_var", float)
    if expected_mean is None and expected_var is None:
        raise ConfigError("kind 'simulate' computes no statistic; set "
                          "expected_mean or expected_var")
    ens = _law(cfg, grid, n, seed)
    ens.validate()
    (mean, se), (mean2, se2) = summarize_terminal(ens)
    rows, stats = [], []
    for k in range(ens.dim):
        var_k = mean2[k] - mean[k] ** 2
        rows.append((f"terminal_mean[{k}]", float(mean[k]), float(se[k])))
        rows.append((f"terminal_var[{k}]", float(var_k), float(se2[k])))
        if expected_mean is not None:
            stats.append(diagnostics.gap(float(mean[k]), expected_mean, float(se[k])))
        if expected_var is not None:
            stats.append(diagnostics.gap(var_k, expected_var, float(se2[k])))
    return ["quantity", "value", "stderr"], rows, stats, None, ens


def run_action(cfg, grid, n, seed, threshold, probes):
    s = cfg["scenario"]
    expected = _typed(s, "expected", float)
    if expected is None:
        raise ConfigError("kind 'action' computes no statistic; set expected")
    allowance = _typed(s, "allowance", float, 0.0)
    lag = _lagrangian(cfg)
    law = _law(cfg, grid, n, seed, fold=True)
    est = action(law, lag)
    rows = [("action", est.mean, est.stderr), ("n_paths", est.n_paths, 0.0),
            ("m", est.m, 0.0), ("expected", expected, allowance)]
    stats = [diagnostics.gap(est.mean, expected, est.stderr, allowance)]
    return ["quantity", "value", "stderr"], rows, stats, None, _first_block(law)


def run_el_certify(cfg, grid, n, seed, threshold, probes):
    lag = _lagrangian(cfg)
    law = _law(cfg, grid, n, seed, fold=True)
    report = diagnostics.el_certify(law, lag, probe_fractions=probes)
    return _martingale_result(report, _first_block(law))


def run_variational(cfg, grid, n, seed, threshold, probes):
    s = cfg["scenario"]
    critical = _typed(s, "expect_critical", bool, False)
    lag = _lagrangian(cfg)
    shift = catalog.get_shift(str(s.get("shift", "plus_minus")), grid, **cfg["shift"])
    law = _law(cfg, grid, n, seed, fold=True)
    eps = s.get("eps", (1e-2, 1e-3))
    if not isinstance(eps, tuple):
        eps = (eps,)
    res = diagnostics.variational_derivative(law, lag, shift, eps_list=eps)
    stats = list(res.gaps() if critical else res.gaps()[:1])
    rows = [("fd", res.fd, res.fd_se), ("formula", res.formula, res.formula_se),
            ("difference", res.diff, res.diff_se),
            ("allowance", res.allowance, 0.0), ("epsilon", res.epsilon, 0.0)]
    return ["quantity", "value", "stderr"], rows, stats, None, _first_block(law)


def run_noether(cfg, grid, n, seed, threshold, probes):
    lag = _lagrangian(cfg)
    family = catalog.get_family(str(cfg["scenario"].get("family", "translation")),
                                **cfg["family"])
    ens = _law(cfg, grid, n, seed)
    _, report = diagnostics.noether_invariant(ens, lag, family, probe_fractions=probes)
    return _martingale_result(report, ens)


def run_bridge(cfg, grid, n, seed, threshold, probes):
    s = cfg["scenario"]
    tv_tol = _typed(s, "tv_tol", float, 0.02)
    expected_action = _typed(s, "expected_action", float)
    expected_entropy = _typed(s, "expected_entropy", float)
    lag = _lagrangian(cfg)
    law, solution, holder = catalog.sinkhorn_bridge_law(grid, n, seed, threads=None,
                                                        **cfg["bridge"])
    terminal = np.empty(n)

    def keep_terminal(lo, ens):
        terminal[lo:lo + ens.n_paths] = ens.states[:, -1, 0]

    est = action(law, lag, also=keep_terminal)

    # terminal histogram against the target marginal on coarse bins
    tv_bins = 48
    problem = solution.problem
    edges = np.linspace(problem.x_min, problem.x_max, tv_bins + 1)
    hist, _ = np.histogram(terminal, bins=edges)
    hist = hist / n
    centers = problem.centers
    target = np.array([problem.p1[(centers >= a) & (centers < b)].sum()
                       for a, b in zip(edges[:-1], edges[1:])])
    tv = 0.5 * float(np.abs(hist - target / target.sum()).sum())

    stats = [threshold * tv / tv_tol]
    rows = [("entropy", solution.entropy, solution.marginal_error),
            ("action", est.mean, est.stderr),
            ("terminal_tv", tv, tv_tol),
            ("sinkhorn_iterations", solution.iterations, 0.0),
            ("clamped_queries", holder.clamped, 0.0)]
    if expected_action is not None:
        allowance = 2e-3
        stats.append(diagnostics.gap(est.mean, expected_action, est.stderr, allowance))
        rows.append(("expected_action", expected_action, allowance))
    if expected_entropy is not None:
        etol = 2e-3
        stats.append(threshold * abs(solution.entropy - expected_entropy) / etol)
        rows.append(("expected_entropy", expected_entropy, etol))
    # built after the rows, so its drift queries leave clamped_queries as it is
    return ["quantity", "value", "tolerance_or_stderr"], rows, stats, None, _first_block(law)


def run_fbsde(cfg, grid, n, seed, threshold, probes):
    s = cfg["scenario"]
    variant = str(s.get("variant", "adapted"))
    constancy_tol = _typed(s, "constancy_tol", float, 1e-3)
    riccati_tol = _typed(s, "riccati_tol", float, 1e-8)
    spec = catalog.get_oscillator(variant, **cfg["fbsde"])
    lag = _lagrangian(cfg, default="kinetic_quadratic")
    result = bridge_mod.fbsde_simulate(spec, grid, n, seed)
    ens = result.ensemble
    if variant == "adapted":
        tol = constancy_tol
        name, defect = "el_constancy_defect", el_constancy_defect(ens, lag)
    else:
        tol = riccati_tol
        v0 = float(spec.y0_gaussian[1])
        oracle = v0 / (1.0 + v0 * grid.times[:-1])
        name = "riccati_defect"
        defect = float(np.max(np.abs(result.posterior_var - oracle)))
    rows, stats = [(name, defect, tol)], [threshold * defect / tol]
    report = None
    if float(np.max(np.abs(ens.diffusions))) > 0 and n >= diagnostics.MIN_PATHS:
        report = diagnostics.el_certify(ens, lag, probe_fractions=probes)
        rows.append(("el_certify_max_stat", report.max_abs_statistic, threshold))
        stats.append(report.max_abs_statistic)
    return ["quantity", "value", "tolerance"], rows, stats, report, ens


def run_navier_stokes(cfg, grid, n, seed, threshold, probes):
    residual, div = bridge_mod.navier_stokes_residual()
    res_tol, div_tol = 1e-10, 1e-12
    lag = _lagrangian(cfg, default="kinetic_taylor_green")
    ens = _law(cfg, grid, n, seed, default="taylor_green")
    report = diagnostics.el_certify(ens, lag, probe_fractions=probes)
    stats = [threshold * residual / res_tol, threshold * div / div_tol,
             report.max_abs_statistic]
    rows = [("ns_residual", residual, res_tol), ("divergence", div, div_tol),
            ("el_certify_max_stat", report.max_abs_statistic, threshold)]
    return ["quantity", "value", "tolerance"], rows, stats, report, ens


def run_operators(cfg, grid, n, seed, threshold, probes):
    """Property suite for the shift operators on randomized adapted shifts.

    Each shift is checked for adaptedness, the pathwise contraction of the
    block-delay and truncation operators, the exact terminal zero of the
    endpoint operator, and the decrease of the reconstruction error between
    block counts 4 and 32.  Any violated property drives the statistic to
    infinity (FAIL); the ``peeking`` flag swaps in a non-adapted shift as a
    negative control.
    """
    s = cfg["scenario"]
    if grid.m % 32 != 0:
        raise ConfigError("operators scenario needs m divisible by 32")
    count = _typed(s, "shift_count", int, 5)
    if count < 1:
        raise ConfigError("kind 'operators' computes no statistic; set "
                          "shift_count >= 1")
    peeking = _typed(s, "peeking", bool, False)
    ens = _law(cfg, grid, n, seed, default="brownian")
    rows, stats = [], []
    for k in range(count):
        if peeking:
            def derivative(j, states):
                look = min(j + 1, states.shape[1] - 1)
                return states[:, look]

            base = catalog.AdaptedShift(name="peeking", derivative=derivative)
        else:
            base = catalog.make_random_endpoint_zero_shift(grid, seed=1000 + seed + k)
        probe = adaptedness_probe(base.derivative, ens,
                                  steps=[grid.m // 4, grid.m // 2])
        rows.append((f"shift{k}_adaptedness_defect", probe, 0.0))
        if probe > 0:
            stats.append(float("inf"))
            continue
        u = materialize(base, ens)
        norm = h_norm_sq(u)
        slack = 1e-10 * max(1.0, float(norm.max()))
        for nblocks in (4, 8, 16, 32):
            excess = float(np.max(h_norm_sq(delay_pn(u, nblocks)) - norm))
            stats.append(0.0 if excess <= slack else float("inf"))
        term = float(np.max(np.abs(endpoint_rn(u, 8).terminal())))
        rows.append((f"shift{k}_rn_terminal", term, 1e-10))
        stats.append(0.0 if term <= 1e-10 else float("inf"))
        err4 = float(np.mean(h_dist_sq(endpoint_rn(u, 4), u)))
        err32 = float(np.mean(h_dist_sq(endpoint_rn(u, 32), u)))
        rows.append((f"shift{k}_r4_err", err4, 0.0))
        rows.append((f"shift{k}_r32_err", err32, 0.0))
        stats.append(0.0 if err32 < err4 else float("inf"))
        level = float(np.median(np.sqrt(norm)))
        excess = float(np.max(h_norm_sq(stop_truncate(u, level)) - norm))
        stats.append(0.0 if excess <= slack else float("inf"))
        del u   # the next shift's record is built without this one's beside it
    return ["check", "value", "tolerance"], rows, stats, None, ens


_RUNNERS = {"simulate": run_simulate, "action": run_action,
            "el-certify": run_el_certify, "variational": run_variational,
            "noether": run_noether, "bridge": run_bridge, "fbsde": run_fbsde,
            "navier-stokes": run_navier_stokes, "operators": run_operators}


def run_scenario(cfg: dict, out_dir, seed=None, plot=False) -> int:
    s = cfg["scenario"]
    if seed is not None:
        s["seed"] = int(seed)
    grid, n, seed_v, threshold, probes = _scale(cfg)
    kind = s["kind"]
    header, rows, stats, report, ens = _RUNNERS[kind](
        cfg, grid, n, seed_v, threshold, probes)
    passed, max_stat = diagnostics.verdict(stats, threshold)
    os.makedirs(out_dir, exist_ok=True)
    reporting.write_csv(os.path.join(out_dir, "report.csv"), header, rows)
    line = reporting.write_verdict(os.path.join(out_dir, "verdict.txt"),
                                   kind, passed, max_stat)
    print(line)
    if kind == "simulate":
        export_paths_csv(ens, os.path.join(out_dir, "paths.csv"))
    if plot:
        reporting.render_figures(out_dir, ensemble=ens, report=report,
                                 z_line=threshold)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="actionlab",
        description="Monte Carlo laboratory for variational diagnostics on "
                    "laws of semi-martingales")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario config")
    runp.add_argument("--config", required=True, help="scenario config path")
    runp.add_argument("--seed", type=int, default=None, help="seed override")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--plot", action="store_true",
                      help="also render figures next to the CSV output")
    sub.add_parser("list", help="list registered laws, Lagrangians, shifts, "
                                "maps and families")
    args = parser.parse_args(argv)

    if args.command == "list":
        for title, reg in (("laws", catalog.LAWS),
                           ("lagrangians", catalog.LAGRANGIANS),
                           ("shifts", catalog.SHIFTS),
                           ("maps", catalog.MAPS),
                           ("families", catalog.FAMILIES)):
            print(f"{title}: {', '.join(sorted(reg))}")
        return 0

    try:
        cfg = load_config(args.config)
        out_dir = args.out or cfg["scenario"].get("out") or "run_output"
        return run_scenario(cfg, out_dir, seed=args.seed, plot=args.plot)
    except (KeyError, TypeError, ValueError, bridge_mod.ConvergenceError,
            bridge_mod.KernelUnderflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
