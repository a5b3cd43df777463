"""What every workload shares: operation records, statistics, metrics."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "END_TO_END", "PER_LAYER", "Operation",
    "WorkloadResult", "machine_record", "median", "percentile",
    "peak_rss_mb", "src_dir", "work_dir",
]

#: The repository root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent

#: (name, unit) of every end-to-end metric, printed by every workload.
END_TO_END = (
    ("tests_per_s", "tests/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("jobs_in_limit", "ratio"),
    ("jobs_per_s", "jobs/s"),
    ("ok_ratio", "ratio"),
)

#: (name, unit) of every per-layer metric of the traced run.
PER_LAYER = (
    ("search.propose_us", "us"),
    ("search.observe_us", "us"),
    ("injection.plan_us", "us"),
    ("sim.run_us", "us"),
    ("sim.setup_us", "us"),
    ("sim.invariants_us", "us"),
    ("sim.body_us", "us"),
    ("sim.steps_per_test", "steps"),
    ("sim.fired_ratio", "ratio"),
    ("impact.score_us", "us"),
    ("quality.online_us", "us"),
    ("cluster.dispatch_us", "us"),
    ("cluster.encode_us", "us"),
    ("cluster.batches", "count"),
    ("cluster.retries", "count"),
    ("cluster.requeued", "count"),
    ("cluster.corrupt_reports", "count"),
    ("cluster.bringup_s", "s"),
    ("wire.bytes_per_test", "B"),
    ("wire.frames_per_test", "frames"),
    ("fleet.stolen", "count"),
    ("fleet.steal_duplicates", "count"),
    ("fleet.late_reports", "count"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes", "B"),
    ("service.queue_wait_ms", "ms"),
    ("service.explore_ms", "ms"),
    ("service.engines_built", "count"),
    ("service.engines_reused", "count"),
    ("api.submit_ms", "ms"),
    ("store.record_ms", "ms"),
    ("store.mark_done_ms", "ms"),
    ("store.dup_ratio", "ratio"),
    ("documents.build_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("trace_overhead", "ratio"),
    ("loadgen.late_p90_ms", "ms"),
)


def src_dir() -> Path:
    """The program's source tree; the benchmark refuses to run without it."""
    return ROOT / "src"


def work_dir() -> Path:
    """Scratch space for stores, checkpoints and span dumps."""
    path = ROOT / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 < q < 1) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low])
                 * (position - low))


def peak_rss_mb(with_child: bool) -> float:
    """Peak RSS of this process plus, optionally, its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
             if with_child else 0)
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def machine_record(seed: int) -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "seed": seed,
    }


@dataclass
class Operation:
    """One campaign or service job: its outcome and its latency."""

    name: str
    ok: bool = True
    reason: str = ""
    #: due (or start) to done, seconds; None when it never finished.
    latency_s: float | None = None
    tests: int = 0
    #: counted in the timed window (warm-up and reference runs are not).
    timed: bool = True

    def fail(self, reason: str) -> None:
        self.ok = False
        self.reason = self.reason or reason


@dataclass
class WorkloadResult:
    """Everything a workload run produced, before it is printed."""

    operations: list[Operation] = field(default_factory=list)
    #: measured metrics only; a layer that does not run in this
    #: process on this workload has no entry (printed as 0).
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.operations)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.operations if not op.ok)

    def failures(self) -> list[str]:
        return [f"{op.name}: {op.reason}" for op in self.operations
                if not op.ok]
