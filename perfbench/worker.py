"""One pass of one workload, in a fresh single-threaded interpreter.

Imports actionlab from the checkout's ``src``, prints ``ready``, writes the
workload's configs with the seed offset applied, then runs every scenario
once through ``actionlab.cli.main`` and checks its exit status, verdict
token and report.  With ``--trace 1`` the pass is traced, and on the
thread-pool probe's workload the threads = 1 vs 2 probe follows it.  The
pass result goes to ``<out>/worker.json``; a traced pass also writes its
spans and per-layer table to ``<out>/trace.json``.  ``--setup-probe`` stops
after ``ready``: run.py times fresh interpreters with it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def import_cli(root: Path):
    sys.path.insert(0, str(root / "src"))
    import actionlab.cli

    where = Path(actionlab.__file__).resolve().parent
    if where != (root / "src" / "actionlab").resolve():
        raise ImportError(f"actionlab imported from {where}, not from the checkout")
    return actionlab.cli


def probe_shapes(cli) -> list:
    """Append the shape of the ensemble each scenario runner returns."""
    seen = []

    def wrap(fn):
        @functools.wraps(fn)
        def runner(*args):
            result = fn(*args)
            if result[4] is not None:
                seen.append(result[4].states.shape)
            return result
        return runner

    for kind, fn in list(cli._RUNNERS.items()):
        cli._RUNNERS[kind] = wrap(fn)
    return seen


def _non_finite(field: str) -> bool:
    try:
        return not math.isfinite(float(field))
    except ValueError:
        return False


def check(scenario, rc, out_dir: Path):
    """Return ``(problem or None, digest of report.csv and verdict.txt)``."""
    if rc != scenario.exit_code:
        return f"exit status {rc}, expected {scenario.exit_code}", None
    try:
        verdict = (out_dir / "verdict.txt").read_bytes()
        report = (out_dir / "report.csv").read_bytes()
    except OSError as exc:
        return f"missing output: {exc}", None
    digest = hashlib.sha256(report + b"\0" + verdict).hexdigest()
    tokens = verdict.decode().split()
    if (len(tokens) != 3 or tokens[1] != scenario.verdict
            or not tokens[2].startswith("max_stat=")):
        return f"verdict {verdict!r}, expected {scenario.verdict}", digest
    if scenario.verdict == "PASS":
        fields = [tokens[2][len("max_stat="):]]
        fields += [f for line in report.decode().splitlines()[1:]
                   for f in line.split(",")]
        bad = [f for f in fields if _non_finite(f)]
        if bad:
            return f"non-finite value {bad[0]} on an expected PASS", digest
    return None, digest


def one_pass(cli, scenarios, configs, out: Path, main, tracer=None):
    """Run every scenario once; return the pass wall time and per-run records."""
    seen = probe_shapes(cli)
    timed = []
    start = time.perf_counter()
    for scn in scenarios:
        if tracer is not None:
            tracer.run_id = scn.name
        seen.clear()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["run", "--config", str(configs[scn.name]),
                           "--out", str(out / scn.name)])
            error = None
        except Exception:
            rc, error = None, traceback.format_exc()
        timed.append((scn, rc, error, time.perf_counter() - t0,
                      seen[-1] if seen else None))
    wall = time.perf_counter() - start
    runs = []
    for scn, rc, error, seconds, shape in timed:
        problem, digest = (error, None) if error else check(scn, rc, out / scn.name)
        s = cli.load_config(str(configs[scn.name]))["scenario"]
        runs.append({"scenario": scn.name, "seconds": seconds, "problem": problem,
                     "digest": digest, "shape": shape, "seed": int(s["seed"]),
                     "threads": int(s.get("threads", 1))})
    return wall, runs


def t2_speedup(cli, config: Path):
    """Wall ratio of simulating the scenario's law at threads 1 and 2, and
    whether the two ensembles are bit-identical."""
    import numpy as np
    from actionlab import TimeGrid, catalog

    cfg = cli.load_config(str(config))
    s = cfg["scenario"]
    walls, digests = [], []
    for threads in (1, 2):
        t0 = time.perf_counter()
        ens = catalog.build_law(str(s["law"]), TimeGrid(int(s["m"])),
                                int(s["n_paths"]), int(s["seed"]),
                                threads=threads, **cfg["law"])
        walls.append(time.perf_counter() - t0)
        h = hashlib.sha256()
        for arr in (ens.states, ens.drifts, ens.diffusions):
            h.update(np.ascontiguousarray(arr).tobytes())
        digests.append(h.hexdigest())
        del ens
    return {"speedup": walls[0] / walls[1], "identical": digests[0] == digests[1]}


def run(args) -> dict:
    root, out = Path(args.root), Path(args.out)
    cli = import_cli(root)
    print("ready", flush=True)
    import numpy
    import scipy
    from workloads import T2_PROBE, WORKLOADS, scenario_config

    scenarios = WORKLOADS[args.workload]
    configs = {}
    (out / "configs").mkdir(parents=True)
    for scn in scenarios:
        configs[scn.name] = out / "configs" / f"{scn.name}.ini"
        configs[scn.name].write_text(scenario_config(root, scn, args.seed))

    result = {"context": {"python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__,
                          "nproc": os.cpu_count(),
                          "affinity": len(os.sched_getaffinity(0))}}
    if not args.trace:
        result["wall"], result["runs"] = one_pass(cli, scenarios, configs, out,
                                                  cli.main)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return result

    from tracing import Tracer, install, layer_metrics, self_times

    tracer = Tracer()
    names, uninstall = install(tracer)
    try:
        wall, runs = one_pass(cli, scenarios, configs, out,
                              tracer.wrap("scenario", cli.main), tracer)
    finally:
        uninstall()
    layers = layer_metrics(tracer, names + ["scenario"])
    spans = [dict(zip(("name", "start", "end", "parent", "run_id"), s), self_s=own)
             for s, own in zip(tracer.spans, self_times(tracer.spans))]
    result.update(wall=wall, runs=runs, layers=layers, spans=spans)
    if args.workload == T2_PROBE[0]:
        result["t2"] = t2_speedup(cli, configs[T2_PROBE[1]])
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", required=True)
    p.add_argument("--setup-probe", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    if args.setup_probe:
        import_cli(Path(args.root))
        print("ready", flush=True)
        return 0
    result = run(args)
    (Path(args.out) / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
