"""Report serialization: delimited statistics, one-line verdicts, and the
optional figure rendering used by the CLI report path.

Floats are written with ``repr`` (shortest round-trip form) and files in
binary mode, so a rerun with the same seed produces byte-identical output on
any platform or thread count.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

__all__ = ["fmt", "write_csv", "write_verdict", "render_figures"]

PLOT_PATHS = 12   # paths drawn in paths.png


def fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())


def write_verdict(path, scenario: str, passed: bool, max_stat: float) -> str:
    """Frozen one-line verdict: three whitespace-separated tokens."""
    line = f"{scenario} {'PASS' if passed else 'FAIL'} max_stat={fmt(float(max_stat))}"
    with open(path, "wb") as fh:
        fh.write((line + "\n").encode())
    return line


def render_figures(out_dir, ensemble=None, report=None, *, z_line) -> list:
    """Render matplotlib figures next to the delimited output (opt-in), the
    statistics with a dashed line at ``z_line``, the verdict's threshold.

    Returns the list of files written; silently renders nothing when
    matplotlib is unavailable so the report path never hard-depends on it.
    """
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return []

    written = []
    if ensemble is not None:
        fig, ax = plt.subplots(figsize=(7, 4))
        times = ensemble.grid.times
        for i in range(min(ensemble.n_paths, PLOT_PATHS)):
            ax.plot(times, ensemble.states[i, :, 0], lw=0.8)
        ax.set_xlabel("t")
        ax.set_ylabel("first coordinate")
        ax.set_title(ensemble.label or "sampled paths")
        target = os.path.join(out_dir, "paths.png")
        fig.savefig(target, dpi=150)
        plt.close(fig)
        written.append(target)
    if report is not None and report.statistics.size:
        fig, ax = plt.subplots(figsize=(7, 4))
        flat = abs(report.statistics).ravel()
        ax.bar(range(len(flat)), flat, color="#1f77b4")
        ax.axhline(z_line, color="#d62728", ls="--", label="threshold")
        ax.set_xlabel("statistic index")
        ax.set_ylabel("|z|")
        ax.legend()
        target = os.path.join(out_dir, "statistics.png")
        fig.savefig(target, dpi=150)
        plt.close(fig)
        written.append(target)
    return written
