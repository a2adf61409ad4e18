"""Shared pieces of the benchmark: paths, statistics, memory, outcomes."""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout (ignored by git), one subdir per run.
WORK_ROOT = ROOT / ".perfbench"

#: The seed whose results are recorded in ``expected.json``.
DEFAULT_SEED = 7


def expected(workload: str) -> dict:
    """Recorded default-seed outcomes of one workload."""
    return json.loads((HERE / "expected.json").read_text())[workload]


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); ``inf`` entries count."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set size of a live process, in MiB (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def children_cpu_s() -> float:
    """CPU seconds (user + system) of this process's reaped children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def process_cpu_s(pid: int) -> float:
    """CPU seconds of a live process, all its threads (dead ones too).

    Reads the process's CPU-time clock, whose id Linux derives from the
    pid as ``clock_getcpuclockid(3)`` does: nanoseconds, where
    ``/proc/<pid>/stat`` counts 10 ms ticks.
    """
    return time.clock_gettime((~pid << 3) | 2)


def children_peak_mb() -> float:
    """Largest peak RSS among this process's reaped children, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: Metric values by name (units come from ``BENCHMARK.json``).
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Human-readable problems found by the correctness checks.
    problems: list[str] = field(default_factory=list)
    #: Extra report lines printed above the JSON result.
    report: list[str] = field(default_factory=list)

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def fail(self, problem: str, n: int = 1) -> None:
        self.failed += n
        self.problems.append(problem)
