"""Measured false-failure rate of the verdict threshold on critical laws.

    PYTHONPATH=src python3 tools/threshold_false_failures.py [--out PATH]

Each row is a scenario whose law satisfies the claim it tests, run through
``actionlab.cli.main`` at n = 1000 paths (``MIN_PATHS``) and m = 200 for
``--seed`` 0 to N-1, with N fixed per row in ``ROWS``.  Every statistic is
then close to a standard normal, so each exceedance of the threshold is a
false failure.  The script reads
``max_stat`` from each run's ``verdict.txt`` and ``k``, the number of
statistics, from its ``report.csv``.  For c = 3 and 4 it writes the measured
P(max > c) beside Sidak's 1 - (1 - P(|Z| > c))^k, the rate for k independent
standard normals, to ``tools/threshold_false_failures.json``.  The script
is a measurement, not a gate; the test suite does not run it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

import actionlab
from actionlab import cli

HERE = Path(__file__).resolve().parent
N_PATHS, M = 1000, 200
LEVELS = (3.0, 4.0)

# (name, seeds, scenario body without n_paths, m and seed)
ROWS = (
    ("pinned Brownian el_certify", 1500, """
[scenario]
kind = el-certify
law = pinned_brownian
lagrangian = kinetic
[law]
y = 1.0
"""),
    ("Noether rotation, d = 2 oscillator", 800, """
[scenario]
kind = noether
law = oscillator_adapted
lagrangian = kinetic_quadratic
family = rotation
[law]
dim = 2
x0 = 1.0, 0.0
"""),
    ("Taylor-Green el_certify", 800, """
[scenario]
kind = el-certify
law = taylor_green
lagrangian = kinetic_taylor_green
"""),
    ("weighted squared-increment el_certify", 1500, """
[scenario]
kind = el-certify
law = squared_increment_weighted
lagrangian = kinetic
"""),
)


def sidak(c: float, k: int) -> float:
    return 1.0 - (1.0 - math.erfc(c / math.sqrt(2.0))) ** k


def measure(name, seeds, body, work: Path) -> dict:
    config = work / "scenario.ini"
    config.write_text(body.replace("[scenario]\n",
                                   f"[scenario]\nn_paths = {N_PATHS}\nm = {M}\n", 1))
    out = work / "out"
    maxima, k = [], None
    for seed in range(seeds):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(config), "--seed", str(seed),
                             "--out", str(out)])
        if code not in (0, 1):
            raise RuntimeError(f"{name}, seed {seed}: exit {code}")
        token = (out / "verdict.txt").read_text().split()[2]
        maxima.append(float(token.removeprefix("max_stat=")))
        rows = len((out / "report.csv").read_text().splitlines()) - 1
        if k not in (None, rows):
            raise RuntimeError(f"{name}: {rows} statistics at seed {seed}, {k} before")
        k = rows
    maxima = np.array(maxima)
    row = {"name": name, "k": k, "seeds": seeds,
           "max_of_max_stat": float(maxima.max())}
    for c in LEVELS:
        row[f"p_max_gt_{c:g}"] = float(np.mean(maxima > c))
        row[f"sidak_gt_{c:g}"] = sidak(c, k)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(HERE / "threshold_false_failures.json"))
    args = parser.parse_args(argv)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, seeds, body in ROWS:
            rows.append(measure(name, seeds, body, Path(tmp)))
            print(json.dumps(rows[-1]), file=sys.stderr)
    result = {"n_paths": N_PATHS, "m": M, "levels": list(LEVELS),
              "actionlab": actionlab.__version__, "numpy": np.__version__,
              "python": platform.python_version(), "rows": rows}
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
