"""Batch testing campaigns: the §4 "certification service" mode.

"This makes AFEX a good fit for generic testing, such as that done in a
certification service" — a service points AFEX at a list of systems and
gets back, per system, the explored results and the §6.3 report.  A
:class:`Campaign` bundles multiple exploration jobs, runs them
(sequentially or over a shared cluster fabric), and renders a combined
scorecard for everything certified.

Jobs choose an **execution fabric** (serial loop, thread pool, process
pool, or virtual-time model) and a **speculative batch size**, and may
share a :class:`~repro.core.cache.ResultCache` so re-certifying a system
— or certifying overlapping spaces — replays memoized executions instead
of re-running the simulator.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.cache import ResultCache
from repro.core.checkpoint import Checkpoint
from repro.core.faultspace import FaultSpace
from repro.core.impact import ImpactMetric, standard_impact
from repro.core.results import ResultSet
from repro.core.runner import TargetRunner
from repro.core.search import FitnessGuidedSearch
from repro.core.search.base import SearchStrategy
from repro.core.targets import SearchTarget
from repro.errors import ReportError
from repro.quality.report import ExplorationReport, build_report
from repro.service.documents import verdict_of
from repro.service.engine import FABRICS, CampaignEngine
from repro.sim.testsuite import Target
from repro.util.tables import TextTable

__all__ = ["CampaignJob", "CampaignOutcome", "Campaign", "FABRICS"]


@dataclass
class CampaignJob:
    """One system to certify: a target, a space, a budget.

    ``fabric`` selects the execution substrate: ``serial`` is the
    in-process loop, ``threads``/``processes``/``virtual`` run the job on
    a cluster of ``nodes`` node managers (``auto``, the default, picks
    ``serial`` for ``nodes <= 1`` and ``threads`` otherwise, preserving
    the historical behaviour).  ``batch_size`` controls speculative
    proposal width (default: 1 in the serial loop, cluster width
    otherwise).  ``cache`` memoizes executions; the same cache object may
    be shared across jobs — and re-runs of the whole campaign — to make
    duplicate tests free.  The process fabric needs a picklable
    ``target_factory``; without one it degrades gracefully to in-process
    execution.  ``socket`` runs the job over the networked multi-node
    fabric: the job binds ``listen``, waits up to ``node_wait`` seconds
    for ``nodes`` explorer-node processes to register (launch them from
    the ``on_fabric`` hook or out of band with ``afex node``), and
    partitions the fault space among them dynamically by sensitivity.

    Jobs are **fault-tolerant and resumable**: every parallel fabric is
    wrapped in a :class:`~repro.cluster.FaultTolerantFabric` governed by
    ``retry_policy`` / ``dispatch_deadline`` (its
    :class:`~repro.cluster.FabricHealth` record lands in the outcome and
    report), and ``checkpoint_path`` / ``checkpoint_every`` /
    ``resume_from`` snapshot and restore the exploration so a killed
    campaign continues byte-identically (see
    :mod:`repro.core.checkpoint`).
    """

    name: str
    target: Target
    space: FaultSpace
    iterations: int = 250
    seed: int = 0
    strategy_factory: Callable[[], SearchStrategy] = FitnessGuidedSearch
    metric_factory: Callable[[], ImpactMetric] = standard_impact
    stop: SearchTarget | None = None  # defaults to the iteration budget
    nodes: int = 1
    fabric: str = "auto"
    batch_size: int | None = None
    #: ``host:port`` the ``socket`` fabric's manager listens on (port 0
    #: binds an ephemeral port — see ``on_fabric`` to learn it).
    listen: str = "127.0.0.1:0"
    #: how long the ``socket`` fabric waits for ``nodes`` explorer
    #: nodes to register before the job fails.
    node_wait: float = 60.0
    #: called with the live :class:`~repro.cluster.SocketFabric` right
    #: after it binds, *before* the job waits for nodes — the hook a
    #: caller uses to learn the bound port and launch node processes
    #: (``afex node --connect host:port``).
    on_fabric: Callable[[object], None] | None = None
    cache: ResultCache | None = None
    target_factory: Callable[[], Target] | None = None
    #: recovery policy for parallel fabrics (None = library default).
    retry_policy: "object | None" = None
    #: per-dispatch deadline in seconds for parallel fabrics.
    dispatch_deadline: float | None = None
    checkpoint_path: str | Path | None = None
    checkpoint_every: int = 0
    #: a Checkpoint, or a path to one, to resume from.
    resume_from: Checkpoint | str | Path | None = None
    #: run the streaming §5 clustering stage alongside the exploration,
    #: so redundancy is known while the job runs, not after it.
    online_quality: bool = False
    #: edit-distance bound for the online clustering stage.
    cluster_distance: int = 1
    #: similarity below this is treated as fully novel by the feedback.
    similarity_threshold: float = 0.0
    #: feed the live novelty signal back into the strategy (sets
    #: ``use_novelty`` on strategies that support it); implies
    #: ``online_quality``.
    live_feedback: bool = False
    #: optional :class:`~repro.obs.metrics.MetricsRegistry` every layer
    #: of the job (session/explorer, fabric, cache, simulator) reports
    #: into; its snapshot lands in the outcome and the scorecard.
    metrics: "object | None" = None
    #: optional :class:`~repro.obs.trace.Tracer` threaded through the
    #: exploration so the job's rounds are reconstructable.
    tracer: "object | None" = None
    #: fabric health of the last execution (set by :meth:`execute`).
    fabric_health: "object | None" = field(default=None, compare=False)
    #: online-clustering counters of the last execution (an
    #: ``OnlineClusters.stats()`` dict; set by :meth:`execute`).
    quality_stats: "dict | None" = field(default=None, compare=False)
    #: the lazily-built :class:`~repro.service.engine.CampaignEngine`
    #: executing this job; kept warm across repeated :meth:`execute`
    #: calls (same processes/nodes, no re-bring-up) until :meth:`close`.
    _engine: "CampaignEngine | None" = field(
        default=None, repr=False, compare=False
    )
    _engine_signature: "tuple | None" = field(
        default=None, repr=False, compare=False
    )

    def engine(self) -> CampaignEngine:
        """This job's (warm) engine, rebuilt if fabric knobs changed."""
        signature = (
            self.fabric, max(self.nodes, 1), id(self.target),
            id(self.cache), id(self.metrics), id(self.tracer),
            id(self.target_factory), id(self.retry_policy),
            self.dispatch_deadline, self.listen, self.node_wait,
            id(self.on_fabric), id(self.metric_factory),
        )
        if self._engine is None or self._engine_signature != signature:
            if self._engine is not None:
                self._engine.close()
            self._engine = CampaignEngine(
                self.target,
                fabric=self.fabric,
                workers=max(self.nodes, 1),
                name=self.name,
                cache=self.cache,
                metrics=self.metrics,
                tracer=self.tracer,
                metric_factory=self.metric_factory,
                target_factory=self.target_factory,
                retry_policy=self.retry_policy,
                dispatch_deadline=self.dispatch_deadline,
                listen=self.listen,
                node_wait=self.node_wait,
                on_fabric=self.on_fabric,
            )
            self._engine_signature = signature
        return self._engine

    def close(self) -> None:
        """Tear down the job's warm fabric (idempotent)."""
        if self._engine is not None:
            self._engine.close()
            self._engine = None
            self._engine_signature = None

    def execute(self) -> tuple[TargetRunner, ResultSet, SearchStrategy]:
        """Run the job, returning (runner for re-execution, results,
        the strategy instance that drove the search).

        Repeated calls reuse the warm fabric (the digest is a pure
        function of space/strategy/seed/batch size, so reuse never
        changes outcomes); call :meth:`close` when done with the job.
        """
        engine = self.engine()
        strategy = self.strategy_factory()
        online = self.online_quality or self.live_feedback
        if self.live_feedback and hasattr(strategy, "use_novelty"):
            strategy.use_novelty = True
        meta = {
            "job": self.name, "seed": self.seed,
            "fabric": engine.resolved_fabric,
        }
        run = engine.explore(
            self.space,
            strategy,
            iterations=self.iterations,
            stop=self.stop,
            seed=self.seed,
            batch_size=self.batch_size,
            checkpoint_path=self.checkpoint_path,
            checkpoint_every=self.checkpoint_every,
            checkpoint_meta=meta,
            resume_from=self.resume_from,
            online_quality=online,
            cluster_distance=self.cluster_distance,
            similarity_threshold=self.similarity_threshold,
        )
        self.fabric_health = run.health
        self.quality_stats = run.quality_stats
        return run.runner, run.results, strategy


@dataclass
class CampaignOutcome:
    """What one campaign job produced."""

    job: CampaignJob
    results: ResultSet
    report: ExplorationReport
    seconds: float
    #: name of the strategy instance that actually ran the job.
    strategy_name: str = ""
    #: the fabric's fault-tolerance record (None on serial jobs).
    fabric_health: object | None = None
    #: metrics snapshot taken right after the job (None without a
    #: :attr:`CampaignJob.metrics` registry).
    metrics_snapshot: dict | None = None
    #: online-clustering counters (None unless the job ran with
    #: :attr:`CampaignJob.online_quality` or live feedback on).
    quality_stats: dict | None = None

    @property
    def verdict(self) -> str:
        """A coarse certification verdict from the outcome counts."""
        return verdict_of(self.results)


@dataclass
class Campaign:
    """A batch of certification jobs, executed back to back."""

    jobs: list[CampaignJob] = field(default_factory=list)

    def add(self, job: CampaignJob) -> "Campaign":
        if any(existing.name == job.name for existing in self.jobs):
            raise ReportError(f"duplicate campaign job name {job.name!r}")
        self.jobs.append(job)
        return self

    def run(self, report_top_n: int = 5) -> list[CampaignOutcome]:
        if not self.jobs:
            raise ReportError("campaign has no jobs")
        outcomes: list[CampaignOutcome] = []
        try:
            for job in self.jobs:
                started = time.perf_counter()
                runner, results, strategy = job.execute()
                report = build_report(
                    results,
                    runner,
                    job.name,
                    strategy_name=strategy.name,
                    top_n=report_top_n,
                    of=lambda t: t.failed,
                    fabric_health=job.fabric_health,
                    quality_stats=job.quality_stats,
                )
                outcomes.append(CampaignOutcome(
                    job=job,
                    results=results,
                    report=report,
                    seconds=time.perf_counter() - started,
                    strategy_name=strategy.name,
                    fabric_health=job.fabric_health,
                    quality_stats=job.quality_stats,
                    metrics_snapshot=(
                        job.metrics.snapshot()  # type: ignore[attr-defined]
                        if job.metrics is not None else None
                    ),
                ))
        finally:
            # Fabrics stay warm only *within* a run (repeated execute()
            # of one job); the batch tears everything down on the way out.
            for job in self.jobs:
                job.close()
        return outcomes

    @staticmethod
    def scorecard(outcomes: list[CampaignOutcome]) -> TextTable:
        """The combined certification summary across all jobs."""
        table = TextTable(
            ["system", "verdict", "tests", "failed", "crashes", "hangs",
             "clusters", "live", "non-red%", "retries", "cache hit%",
             "time (s)"],
            title="certification campaign scorecard",
        )
        for outcome in outcomes:
            health = outcome.fabric_health
            snapshot = outcome.metrics_snapshot or {}
            hit_ratio = snapshot.get("gauges", {}).get("cache.hit_ratio")
            quality = outcome.quality_stats
            table.add_row([
                outcome.job.name,
                outcome.verdict,
                len(outcome.results),
                outcome.results.failed_count(),
                outcome.results.crash_count(),
                len(outcome.results.hangs()),
                outcome.report.cluster_count,
                "-" if quality is None else quality.get("clusters", 0),
                "-" if quality is None
                else f"{100 * float(quality.get('novelty_ratio', 0)):.0f}",
                "-" if health is None else getattr(health, "retries", 0),
                "-" if hit_ratio is None else f"{hit_ratio * 100:.0f}",
                f"{outcome.seconds:.1f}",
            ])
        return table
