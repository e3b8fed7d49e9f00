"""actionlab benchmark: scenario workloads through the CLI, verdict-checked.

    python3 perfbench/run.py --workload {wide-1d,planar-2d,small-n,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the benchmark imports actionlab from the
checkout's ``src`` and reads the bundled ``scenarios``.  ``--seed`` is an
offset added to every bundled scenario seed (0 runs the shipped configs).

With ``--trace 0`` it reports the end-to-end metrics listed in
``BENCHMARK.json``: ``wall_s``, the median wall time of one pass over the
workload's scenarios, each pass in its own fresh single-threaded process;
``setup_s``, the median time from starting a fresh interpreter to actionlab
imported (at least nine interpreters); ``peak_rss_mb``, the median over
those processes of their peak resident memory.  With ``--trace 1`` it adds
one traced pass and reports the per-layer metrics: self time, calls and
counters per module function, and the tracing overhead.  Every scenario run
must give its pinned exit status and verdict token, a finite report on an
expected PASS, and the same ``report.csv``/``verdict.txt`` bytes as its first
run; the last stdout line is a JSON object whose ``failed`` counts the runs
that did not.  Results, configs, outputs and spans are written under
``.bench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9          # fresh interpreters timed for setup_s, worker included
DEADLINE_S = 170.0         # a run must end well inside 180 s


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _start(args: list, deadline: float):
    """Start a worker; return it and the seconds until it printed ``ready``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(),
                            cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise BenchError(f"worker did not start: {line!r}")
    return proc, ready


def _finish(proc, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"),
                        *(ROOT / "scenarios").glob("*.ini")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _pass(workload: str, seed: int, trace: int, out: Path, deadline: float):
    """Run one pass in a fresh worker; return its result and its setup time."""
    proc, ready = _start(["--workload", workload, "--seed", str(seed),
                          "--trace", str(trace), "--out", str(out)], deadline)
    _finish(proc, deadline)
    return json.loads((out / "worker.json").read_text()), ready


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Untraced passes, each in a fresh process, until the next would end past
    ``seconds`` (at least one); then, with ``trace``, one traced pass.  Every
    scenario run must also match the bytes of the workload's first run."""
    deadline = time.monotonic() + DEADLINE_S
    out = ROOT / ".bench_runs" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    passes, setup, took = [], [], []
    start = time.monotonic()
    while not took or time.monotonic() - start + statistics.median(took) <= seconds:
        t0 = time.monotonic()
        result, ready = _pass(workload, seed, 0, out / f"pass{len(passes)}", deadline)
        took.append(time.monotonic() - t0)
        passes.append(result)
        setup.append(ready)
    traced = None
    if trace:
        traced, ready = _pass(workload, seed, 1, out / "traced", deadline)
        setup.append(ready)
    while len(setup) < SETUP_SAMPLES:
        proc, ready = _start(["--setup-probe"], deadline)
        _finish(proc, deadline)
        setup.append(ready)

    first, failures, attempted = {}, [], 0
    for tag, result in [*((f"pass{k}", r) for k, r in enumerate(passes)),
                        *([("traced", traced)] if traced else [])]:
        for run in result["runs"]:
            attempted += 1
            why = run["problem"]
            if why is None and run["digest"] != first.setdefault(
                    run["scenario"], run["digest"]):
                why = "report.csv/verdict.txt differ from the first run"
            if why:
                failures.append(f"{tag}/{run['scenario']}: {why}")
    walls = [r["wall"] for r in passes]
    summary = {
        "workload": workload, "seed_offset": seed, "seconds": seconds,
        "walls": walls, "setup": setup, "attempted": attempted,
        "failures": failures,
        "context": {**passes[0]["context"], "git_sha": git_sha(),
                    "source_sha256": source_digest()},
        "scenarios": {run["scenario"]: {
            "n": run["shape"][0], "m": run["shape"][1] - 1, "d": run["shape"][2],
            "path_steps": run["shape"][0] * (run["shape"][1] - 1),
            "seed": run["seed"], "threads": run["threads"],
            "seconds": [r["runs"][i]["seconds"] for r in passes]}
            for i, run in enumerate(passes[0]["runs"]) if run["shape"]},
        "end_to_end": {"wall_s": statistics.median(walls),
                       "setup_s": statistics.median(setup),
                       "peak_rss_mb": statistics.median(
                           r["peak_rss_mb"] for r in passes)},
    }
    if traced:
        layers = traced["layers"]
        layers["trace.wall_s"] = traced["wall"]
        layers["trace.overhead"] = traced["wall"] / statistics.median(walls)
        layers["trace.runner_share"] = layers["cli.runner.total_s"] / traced["wall"]
        t2 = traced.get("t2")
        layers["paths.simulate.t2_speedup"] = t2["speedup"] if t2 else 0.0
        if t2:
            summary["attempted"] += 1
            if not t2["identical"]:
                failures.append("t2 probe: threads 1 and 2 ensembles differ")
        summary["layers"] = layers
        (out / "trace.json").write_text(json.dumps(
            {"layers": layers, "spans": traced["spans"]}, indent=1))
    (out / "result.json").write_text(json.dumps(summary, indent=1))
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed is an offset added to scenario seeds and must be >= 0")
    missing = [rel for rel in ("BENCHMARK.json", "src/actionlab/__init__.py",
                               "scenarios") if not (ROOT / rel).exists()]
    if missing:
        print(f"benchmark: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    metrics, attempted, failed = {}, 0, 0
    for workload in names:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"benchmark: {workload}: {exc}", file=sys.stderr)
            return 1
        values = result["layers"] if args.trace else result["end_to_end"]
        prefix = f"{workload}." if len(names) > 1 else ""
        attempted += result["attempted"]
        failed += len(result["failures"])
        for why in result["failures"]:
            print(f"{workload}: FAILED {why}")
        print(f"{workload}: context {json.dumps(result['context'])}")
        print(f"{workload}: seed offset {args.seed}, {len(result['walls'])} "
              f"untraced passes (one fresh process each), failed "
              f"{len(result['failures'])}/{result['attempted']} runs")
        for m in section:
            metrics[prefix + m["name"]] = {"value": values[m["name"]],
                                           "unit": m["unit"]}
            print(f"{workload}: {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
