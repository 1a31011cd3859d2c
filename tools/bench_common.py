"""Shared plumbing for ``tools/bench_fault_overhead.py``.

A BENCH_*.json artifact starts with a metadata header::

    {schema, benchmark, cpu_count, platform, python, git_rev, timestamp}

recording the host the numbers came from.  ``schema`` versions the
header itself, not the benchmark's payload.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from datetime import datetime, timezone

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))

from repro.ioutil import atomic_write_json  # noqa: E402

BENCH_SCHEMA = "teapot-bench/1"


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)))
    except OSError:
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def bench_meta(benchmark: str) -> dict:
    """The metadata header a bench artifact leads with."""
    return {
        "schema": BENCH_SCHEMA,
        "benchmark": benchmark,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
    }


def summarize_times(samples) -> dict:
    """Median-of-repeats with the spread, for wall-time rows.

    Overhead percentages built on best-of-N compare two *minima*, and
    the minimum of the noisier configuration dips lower -- which is how
    a pure observer once benchmarked at -4.2% overhead.  The median is
    a consistent estimator of the typical run, and reporting the spread
    (max-min as a fraction of the median) tells the reader how much of
    any overhead delta is just host noise.
    """
    ordered = sorted(samples)
    count = len(ordered)
    mid = count // 2
    if count % 2:
        median = ordered[mid]
    else:
        median = (ordered[mid - 1] + ordered[mid]) / 2.0
    spread = (100.0 * (ordered[-1] - ordered[0]) / median) if median \
        else 0.0
    return {
        "median_seconds": median,
        "min_seconds": ordered[0],
        "max_seconds": ordered[-1],
        "spread_pct": spread,
        "samples": count,
    }


def timing_row(samples) -> dict:
    """The shared wall-time fields every bench row leads with."""
    stats = summarize_times(samples)
    return {
        "wall_seconds": round(stats["median_seconds"], 4),
        "wall_seconds_min": round(stats["min_seconds"], 4),
        "wall_seconds_max": round(stats["max_seconds"], 4),
        "wall_spread_pct": round(stats["spread_pct"], 1),
    }


def write_bench(path: str, report: dict) -> None:
    # Atomic (tmp + fsync + rename): a bench run killed mid-write must
    # not leave a torn BENCH_*.json behind.
    atomic_write_json(path, report, indent=2)
    print(f"wrote {path}")
