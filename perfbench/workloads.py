"""The benchmark's workloads: which bundled scenarios each one runs, at what
scale, and the exit status and verdict token each run must give.

Every workload is a closed loop with one client: one single-threaded process
runs the scenarios back to back through ``actionlab.cli.main``.  The
benchmark seed is an offset added to every bundled scenario seed, so seed 0
runs the shipped configs unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Scenario:
    name: str                      # scenarios/<name>.ini
    exit_code: int                 # expected CLI exit status
    verdict: str                   # expected verdict token, PASS or FAIL
    n_paths: Optional[int] = None  # replaces the config's n_paths when set


WORKLOADS = {
    # Acceptance-width 1-d laws (n = 10^5): per-path noise generation and the
    # Euler loop in paths.simulate take most of the time, next to
    # push_shift, path_actions, el_process, the Sinkhorn solve and the
    # weighted-law assembly.
    "wide-1d": (
        Scenario("el_certify_pinned", 0, "PASS"),
        Scenario("variational_brownian", 0, "PASS"),
        Scenario("action_squared_increment", 0, "PASS"),
        Scenario("bridge_gaussian", 0, "PASS"),
    ),
    # d = 2: the [n, d, d] alpha einsums and strided [:, j] slice reads in
    # noether_invariant and el_process dominate.  Run at an eighth of the
    # shipped n_paths: a full-width pass takes about 47 s and 2.7 GB on a
    # 2-core Xeon VM, so a 30 s run could not repeat it, and on that machine
    # these memory-bound passes vary by over 20% from pass to pass, so the
    # run needs several of them for a steady median.
    "planar-2d": (
        Scenario("noether_rotation_oscillator", 0, "PASS", n_paths=12_500),
        Scenario("navier_stokes", 0, "PASS", n_paths=12_500),
    ),
    # Few paths and many steps: the shift algebra and per-step loops dominate
    # and per-path RNG is a small share, the opposite proportion to wide-1d.
    "small-n": (
        Scenario("operators_random", 0, "PASS"),
        Scenario("operators_peeking", 1, "FAIL"),
        Scenario("fbsde_adapted", 0, "PASS"),
    ),
}

# The thread-pool probe re-simulates this scenario's law at threads 1 and 2.
T2_PROBE = ("wide-1d", "el_certify_pinned")


def _replace_int(text: str, key: str, fn) -> str:
    pattern = re.compile(rf"^({key}\s*=\s*)(\d+)\s*$", re.MULTILINE)
    if len(pattern.findall(text)) != 1:
        raise ValueError(f"expected exactly one '{key} = <int>' line")
    return pattern.sub(lambda mo: f"{mo.group(1)}{fn(int(mo.group(2)))}", text)


def scenario_config(root: Path, scenario: Scenario, seed_offset: int) -> str:
    """Text of the bundled config with the seed offset (and scale) applied."""
    text = (root / "scenarios" / f"{scenario.name}.ini").read_text()
    text = _replace_int(text, "seed", lambda s: s + seed_offset)
    if scenario.n_paths is not None:
        text = _replace_int(text, "n_paths", lambda _: scenario.n_paths)
    return text
