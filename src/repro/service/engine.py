"""The reusable campaign engine: one fabric, many campaigns.

Extracted from the previously duplicated exploration flows in
:mod:`repro.campaign` (``CampaignJob.execute``) and :mod:`repro.cli`
(``afex run``): both are now thin clients of :class:`CampaignEngine`,
and the extraction is gated on **byte-identical campaign digests** —
an engine-driven run reproduces the exact
:func:`~repro.core.checkpoint.history_digest` the pre-refactor code
produced for every fabric.

Every campaign runs the one
:class:`~repro.core.session.ExplorationSession` loop; the fabric only
picks its executor — a :class:`~repro.core.session.SerialExecutor`
around the engine's :class:`~repro.core.runner.TargetRunner`, or a
:class:`~repro.cluster.executor.FabricExecutor` around the parallel
fabric.  The engine owns what a one-shot run used to rebuild on every
call:

* **fabric lifecycle** — the thread/virtual node managers, the warm
  process pool, or the networked socket fabric are built once on first
  use and *reused* across campaigns (``warm_reuses`` counts how often
  the setup cost was skipped).  Teardown is explicit via
  :meth:`CampaignEngine.close`;
* **checkpointing** — per-campaign snapshot/resume threading;
* **online quality** — the streaming §5 clustering stage;
* **observability** — one metrics registry / tracer pair threaded
  through every layer.

This is what makes a long-running campaign *service* viable: the
per-campaign cost collapses to proposing and executing tests (ZOFI's
near-zero orchestration overhead, PAPERS.md), instead of re-paying
process startup, fabric bring-up, and cache warm-up per submission.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.cache import ResultCache
from repro.core.checkpoint import Checkpoint, history_digest, load_checkpoint
from repro.core.faultspace import FaultSpace
from repro.core.impact import ImpactMetric, standard_impact
from repro.core.results import ResultSet
from repro.core.runner import TargetRunner
from repro.core.search.base import SearchStrategy
from repro.core.session import (
    BatchExecutor,
    ExplorationSession,
    SerialExecutor,
)
from repro.core.targets import IterationBudget, SearchTarget
from repro.errors import ClusterError
from repro.sim.testsuite import Target

__all__ = ["CampaignEngine", "EngineRun", "FABRICS"]

#: the selectable execution fabrics ("auto" = serial unless workers > 1).
FABRICS = ("auto", "serial", "threads", "processes", "virtual", "socket")


@dataclass
class EngineRun:
    """What one engine-driven campaign produced."""

    results: ResultSet
    strategy: SearchStrategy
    #: a runner suitable for re-execution (precision trials, reports).
    runner: TargetRunner
    #: the resolved fabric the campaign actually ran on.
    fabric: str
    seconds: float
    #: the fabric's fault-tolerance record (None on serial runs).  With
    #: a warm fabric the counters are cumulative across the engine's
    #: campaigns, exactly like a long-lived cluster's would be.
    health: object | None = None
    #: the live :class:`~repro.quality.online.OnlineClusters` stage
    #: (None unless the campaign ran with online quality on).
    quality: object | None = None
    quality_stats: dict | None = None
    cache_stats: dict | None = None

    @property
    def digest(self) -> str:
        """Stable content digest of the campaign's result history."""
        return history_digest(list(self.results))


class CampaignEngine:
    """Runs exploration campaigns on one owned, reusable fabric.

    Construction is cheap and lazy: nothing is built until the first
    :meth:`explore`.  Subsequent campaigns on the same engine reuse the
    warm fabric — the same node managers, worker processes, or
    registered socket nodes — and any shared
    :class:`~repro.core.cache.ResultCache`.  Call :meth:`close` when
    done; an engine is also a context manager.

    Thread-safety: one engine runs one campaign at a time (the service
    layer pools engines and never shares a busy one).
    """

    def __init__(
        self,
        target: Target,
        *,
        fabric: str = "serial",
        workers: int = 1,
        name: str = "engine",
        injector: object | None = None,
        injector_factory: Callable[[], object] | None = None,
        target_factory: Callable[[], Target] | None = None,
        cache: ResultCache | None = None,
        metrics: object | None = None,
        tracer: object | None = None,
        metric_factory: Callable[[], ImpactMetric] = standard_impact,
        retry_policy: object | None = None,
        dispatch_deadline: float | None = None,
        # -- socket-fabric knobs ------------------------------------------------
        listen: str = "127.0.0.1:0",
        node_wait: float = 60.0,
        #: how many registrations to wait for before the first campaign
        #: (None = all ``workers``); the rest may join mid-campaign.
        wait_count: int | None = None,
        #: None keeps the fabric's own default (open fleet).
        allow_join: bool | None = None,
        fleet_cache: object | None = None,
        #: called with the live SocketFabric right after it binds and
        #: before the engine waits for nodes — learn the bound port and
        #: launch ``afex node`` processes here.
        on_fabric: Callable[[object], None] | None = None,
        #: called with the registered node count once the fleet is up.
        on_nodes: Callable[[int], None] | None = None,
        #: node-manager name prefix (thread/virtual fabrics); the CLI
        #: historically used bare ``node0``/``node1`` names.
        node_prefix: str | None = None,
    ) -> None:
        if fabric not in FABRICS:
            raise ClusterError(
                f"unknown fabric {fabric!r}; available: {FABRICS}"
            )
        self.target = target
        self.fabric = fabric
        self.workers = max(int(workers), 1)
        self.name = name
        self.injector = injector
        self.injector_factory = injector_factory
        self.target_factory = target_factory
        self.cache = cache
        self.metrics = metrics
        self.tracer = tracer
        self.metric_factory = metric_factory
        self.retry_policy = retry_policy
        self.dispatch_deadline = dispatch_deadline
        self.listen = listen
        self.node_wait = node_wait
        self.wait_count = wait_count
        self.allow_join = allow_join
        self.fleet_cache = fleet_cache
        self.on_fabric = on_fabric
        self.on_nodes = on_nodes
        self.node_prefix = f"{name}-" if node_prefix is None else node_prefix
        #: campaigns completed by this engine.
        self.runs = 0
        #: campaigns that skipped fabric bring-up because it was warm.
        self.warm_reuses = 0
        self._runner: TargetRunner | None = None
        self._cluster: object | None = None  # the explorer-facing fabric
        self._pool: object | None = None
        self._net: object | None = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def resolved_fabric(self) -> str:
        """The concrete fabric ``auto`` resolves to for this engine."""
        if self.fabric == "auto":
            return "serial" if self.workers <= 1 else "threads"
        return self.fabric

    @property
    def warm(self) -> bool:
        """True once the fabric has been built and not yet closed."""
        if self.resolved_fabric == "serial":
            return self._runner is not None
        return self._cluster is not None

    def close(self) -> None:
        """Tear the fabric down (idempotent).

        The engine may be used again afterwards — the next campaign
        pays the bring-up cost once more.
        """
        pool, net = self._pool, self._net
        self._runner = None
        self._cluster = None
        self._pool = None
        self._net = None
        if pool is not None:
            pool.close()
        if net is not None:
            net.close()

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- fabric construction ---------------------------------------------------

    def _target_runner(self) -> TargetRunner:
        """The in-process runner: executes serial campaigns and
        re-executes tests for reports on every fabric."""
        if self._runner is None:
            self._runner = TargetRunner(
                self.target, self.injector,  # type: ignore[arg-type]
                cache=self.cache, metrics=self.metrics, tracer=self.tracer,
            )
        return self._runner

    def _ensure_cluster(self) -> object:
        """Build (or reuse) the parallel fabric for this engine."""
        if self._cluster is not None:
            return self._cluster

        from repro.cluster import (
            FaultTolerantFabric,
            LocalCluster,
            NodeManager,
            ProcessPoolCluster,
            RetryPolicy,
            SocketFabric,
            VirtualCluster,
        )

        fabric = self.resolved_fabric
        policy = self.retry_policy or RetryPolicy()
        if fabric == "processes":
            # The pool carries its own retry/deadline machinery, so it
            # is not wrapped again.  Without a picklable factory it
            # degrades gracefully to in-process execution on its own.
            factory = self.target_factory or (lambda: self.target)
            self._pool = self._cluster = ProcessPoolCluster(
                factory,
                workers=self.workers,
                name=self.name,
                retry_policy=policy,
                dispatch_deadline=self.dispatch_deadline,
                injector_factory=self.injector_factory,
            )
            return self._cluster
        if fabric == "socket":
            kwargs: dict = {}
            if self.allow_join is not None:
                kwargs["allow_join"] = self.allow_join
            if self.fleet_cache is not None:
                kwargs["fleet_cache"] = self.fleet_cache
            net = SocketFabric(
                self.listen, expected_nodes=self.workers, **kwargs
            )
            try:
                if self.on_fabric is not None:
                    self.on_fabric(net)
                registered = net.wait_for_nodes(
                    count=self.wait_count, timeout=self.node_wait
                )
                if self.on_nodes is not None:
                    self.on_nodes(registered)
            except BaseException:
                net.close()
                raise
            inner = self._net = net
        else:
            self.target.suite  # pre-build once; managers then share it safely
            managers = [
                NodeManager(
                    f"{self.node_prefix}node{i}", self.target,
                    injector=self.injector,  # type: ignore[arg-type]
                    cache=self.cache, metrics=self.metrics,
                )
                for i in range(self.workers)
            ]
            inner = (LocalCluster(managers) if fabric == "threads"
                     else VirtualCluster(managers))
        self._cluster = FaultTolerantFabric(
            inner, policy=policy, dispatch_deadline=self.dispatch_deadline,
        )
        return self._cluster

    # -- campaigns -------------------------------------------------------------

    def explore(
        self,
        space: FaultSpace,
        strategy: SearchStrategy,
        *,
        iterations: int = 250,
        stop: SearchTarget | None = None,
        seed: int = 0,
        batch_size: "int | str | None" = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 0,
        checkpoint_meta: dict[str, object] | None = None,
        resume_from: Checkpoint | str | Path | None = None,
        online_quality: bool = False,
        cluster_distance: int = 1,
        similarity_threshold: float = 0.0,
        on_test: Callable[[object], None] | None = None,
    ) -> EngineRun:
        """Run one campaign on the (possibly warm) fabric.

        The trajectory is a pure function of ``(space, strategy, seed,
        batch size, fabric kind)`` — warm reuse shares processes and
        sockets, never search state, so repeated identical campaigns
        produce byte-identical digests.
        """
        stop = stop or IterationBudget(iterations)
        if isinstance(resume_from, (str, Path)):
            resume_from = load_checkpoint(resume_from)
        if self.warm:
            self.warm_reuses += 1
        started = time.perf_counter()
        executor = self._executor()
        session = ExplorationSession(
            executor,
            space,
            self.metric_factory(),
            strategy,
            stop,
            rng=seed,
            batch_size=batch_size,
            on_test=on_test,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            checkpoint_meta=checkpoint_meta,
            resume_from=resume_from,
            metrics=self.metrics,
            tracer=self.tracer,
            online_quality=online_quality,
            cluster_distance=cluster_distance,
            similarity_threshold=similarity_threshold,
        )
        results = session.run()
        self.runs += 1
        return EngineRun(
            results=results,
            strategy=strategy,
            runner=self._target_runner(),
            fabric=self.resolved_fabric,
            seconds=time.perf_counter() - started,
            health=executor.health,
            quality=session.quality,
            quality_stats=(
                session.quality.stats()
                if session.quality is not None else None
            ),
            cache_stats=(
                self.cache.stats() if self.cache is not None else None
            ),
        )

    def _executor(self) -> BatchExecutor:
        """The campaign's executor on the (possibly warm) fabric."""
        if self.resolved_fabric == "serial":
            return SerialExecutor(self._target_runner())
        from repro.cluster import FabricExecutor

        return FabricExecutor(self._ensure_cluster())
