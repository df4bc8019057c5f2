"""Helpers shared by the workloads: paths, timing, percentiles, memory."""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from perfbench.checks import CheckFailed

#: The checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Per-run scratch directories (each removed when its run ends) and the
#: span files traced runs leave behind.
WORK_ROOT = ROOT / ".perfbench"


@dataclass
class Options:
    """One invocation's settings, shared by every workload."""

    workload: str
    seed: int
    seconds: float
    #: This run's scratch directory (removed when the run ends).
    work: Path
    smoke: bool = False
    #: Fresh set-ups timed for ``setup_s`` (the median is reported).
    setup_samples: int = 3


@dataclass
class Ops:
    """Operation accounting: attempts, failures, latencies and the
    output checks, each of which counts as one more operation."""

    attempted: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)  # seconds
    problems: List[str] = field(default_factory=list)

    def ok(self, seconds: float) -> None:
        self.attempted += 1
        self.latencies.append(seconds)

    def fail(self) -> None:
        # A failed or refused operation misses every latency target.
        self.attempted += 1
        self.failed += 1
        self.latencies.append(math.inf)

    def merge(self, other: "Ops") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies += other.latencies
        self.problems += other.problems

    def check(self, fn: Callable[..., None], *args, **kwargs) -> None:
        """Run one output check; a failure is recorded, not raised."""
        self.attempted += 1
        try:
            fn(*args, **kwargs)
        except CheckFailed as exc:
            self.failed += 1
            self.problems.append(f"{fn.__name__}: {exc}")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_ms(ops: Ops, q: float, elapsed: float) -> float:
    """Percentile latency in ms.  A failure has infinite latency; when one
    lands on the percentile it reads as the whole timed phase, a finite
    stand-in for "never answered"."""
    value = percentile(ops.latencies, q)
    return 1e3 * (elapsed if math.isinf(value) else value)


def end_to_end(*, setup: Sequence[float], units: Sequence[float],
               ops: Ops, elapsed: float, peak_rss_kb: float) -> Dict[str, float]:
    """The end-to-end metric values every workload reports."""
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(units),
        # Operations completed per unit, over the median unit's time.
        "req_per_s": (sum(map(math.isfinite, ops.latencies)) / len(units)
                      / statistics.median(units)),
        "p50_ms": latency_ms(ops, 50, elapsed),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "ok_ratio": (ops.attempted - ops.failed) / ops.attempted,
    }


def self_peak_rss_kb() -> float:
    """Peak resident set of this process, KiB (Linux ``ru_maxrss``)."""
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def proc_status_kb(pid: int, key: str) -> float:
    """One ``/proc/<pid>/status`` field in KiB (``VmHWM``, ``VmRSS``)."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    raise KeyError(f"{key} not in /proc/{pid}/status")


def python_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def time_fresh_interpreter(code: str, samples: int) -> List[float]:
    """Wall time of ``samples`` fresh interpreters each running ``code``
    from the checkout root (import, boot and warm-up as a user pays it)."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=python_env(),
            check=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
    return times


def make_workdir(label: str) -> Path:
    """A fresh scratch directory inside the checkout."""
    path = WORK_ROOT / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
