"""The exploration session: AFEX's generate → execute → evaluate loop.

This is the explorer of §6.1: it asks the strategy for the next
*generation* of faults, hands the generation to an executor, scores
each outcome with the impact metric (optionally weighted by an
environment model, §7.5), feeds the results back to the strategy, and
stops when the search target is met or the strategy exhausts the space.

The loop is the same whether it drives one process or a fleet of node
managers; only the executor differs:

* a per-fault runner (a :class:`~repro.core.runner.TargetRunner`, or
  any ``fault -> RunResult`` callable) runs in the
  :class:`SerialExecutor`, which maps each generation over it
  in-process, so results keep full fidelity;
* a :class:`~repro.cluster.executor.FabricExecutor` ships each
  generation to a cluster fabric (threads, virtual time, a process
  pool, or networked nodes) and turns the reports back into results.

``batch_size=1`` (the serial default) is the paper's single-process
loop: one proposal, one execution, one observation per iteration.
``batch_size=k`` dispatches ``k`` speculative candidates per round —
sound for every bundled strategy (Algorithm 1 is stochastic beam
search; see
:meth:`~repro.core.search.base.SearchStrategy.propose_batch`).

Sessions are also **resumable**: with ``checkpoint_path`` /
``checkpoint_every`` set, the session snapshots its state between
rounds (see :mod:`repro.core.checkpoint`), and a session constructed
with ``resume_from`` replays the recorded history through the strategy
before going live, so a killed run continues byte-identically from its
last checkpoint.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from pathlib import Path

from repro.core.checkpoint import Checkpoint, CheckpointWriter, replay_history
from repro.core.faultspace import FaultSpace
from repro.core.fault import Fault
from repro.core.impact import ImpactMetric
from repro.core.results import ExecutedTest, ResultSet
from repro.core.search.base import SearchStrategy
from repro.core.targets import SearchTarget
from repro.errors import CheckpointError, ClusterError, SearchError
from repro.quality.online import OnlineClusters, QualityDelta
from repro.quality.relevance import EnvironmentModel
from repro.sim.process import RunResult
from repro.util.rng import ensure_rng

__all__ = ["BatchExecutor", "ExplorationSession", "SerialExecutor"]

#: runner signature: fault -> run outcome.
Runner = Callable[[Fault], RunResult]

#: one executed fault: its outcome plus the worker-computed stack digest
#: (None when the executor computes none).
Outcome = tuple[RunResult, "str | None"]

#: impact scores are small non-negative reals; these buckets resolve
#: the paper's 0-10 composite range (and a tail for weighted metrics).
FITNESS_BUCKETS: tuple[float, ...] = (
    0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 15.0, 25.0, 50.0,
)


class BatchExecutor:
    """Executes the session's generations, one ``Outcome`` per fault.

    The other hooks let an executor own what only it needs; their
    defaults suit an in-process executor.
    """

    #: the fabric's fault-tolerance record (None in-process).
    health: object | None = None

    def instrument(self, metrics: object, tracer: object) -> None:
        """Adopt the session's metrics registry and tracer (or None)."""

    def resolve_batch_size(
        self, requested: "int | str | None", checkpointing: bool
    ) -> int:
        """The first round's width for the session's ``batch_size``."""
        if requested is None:
            return 1
        if requested == "auto":
            raise ClusterError(
                "adaptive batch sizing ('auto') needs a parallel fabric"
            )
        if not isinstance(requested, int) or requested < 1:
            raise SearchError(f"batch size must be >= 1, got {requested!r}")
        return requested

    def execute(
        self, faults: Sequence[Fault], dispatch: object | None = None
    ) -> list[Outcome]:
        """Run one generation; ``dispatch`` is the round's open trace
        span (None when the round is not instrumented)."""
        raise NotImplementedError

    def next_batch_size(self, current: int) -> int:
        """The next round's width, after a generation executed."""
        return current

    def resumed(self, replayed: int) -> None:
        """Checkpoint replay re-accounted ``replayed`` recorded tests."""

    def checkpoint_meta(self) -> dict[str, object]:
        """Executor state recorded next to each checkpoint."""
        return {}


class SerialExecutor(BatchExecutor):
    """Maps each generation over a per-fault runner, in-process."""

    def __init__(self, runner: Runner) -> None:
        self.runner = runner

    def execute(
        self, faults: Sequence[Fault], dispatch: object | None = None
    ) -> list[Outcome]:
        return [(self.runner(fault), None) for fault in faults]


class ExplorationSession:
    """Drives one strategy against one target until the goal is met.

    ``runner`` is either a per-fault runner, executed serially, or a
    :class:`BatchExecutor`.  ``batch_size`` is the round width; None
    lets the executor choose (1 in-process, the fleet width on a
    fabric, which also accepts ``"auto"``).
    """

    def __init__(
        self,
        runner: Runner | BatchExecutor,
        space: FaultSpace,
        metric: ImpactMetric,
        strategy: SearchStrategy,
        target: SearchTarget,
        rng: random.Random | int | None = None,
        environment: EnvironmentModel | None = None,
        on_test: Callable[[ExecutedTest], None] | None = None,
        batch_size: "int | str | None" = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 0,
        checkpoint_meta: dict[str, object] | None = None,
        resume_from: Checkpoint | None = None,
        metrics: "object | None" = None,
        tracer: "object | None" = None,
        online_quality: bool = False,
        cluster_distance: int = 1,
        similarity_threshold: float = 0.0,
    ) -> None:
        self.executor = (
            runner if isinstance(runner, BatchExecutor)
            else SerialExecutor(runner)
        )
        self.executor.instrument(metrics, tracer)
        self.batch_size = self.executor.resolve_batch_size(
            batch_size,
            checkpointing=(
                checkpoint_path is not None or resume_from is not None
            ),
        )
        self.space = space
        self.metric = metric
        self.strategy = strategy
        self.target = target
        self.rng = ensure_rng(rng)
        self.environment = environment
        self.on_test = on_test
        self.resume_from = resume_from
        #: optional :class:`~repro.obs.metrics.MetricsRegistry` — the
        #: session reports per-round fitness, round latency, and
        #: proposal throughput into it.
        self.metrics = metrics
        #: optional :class:`~repro.obs.trace.Tracer` — every round
        #: emits round/propose/dispatch/verdict spans.
        self.tracer = tracer
        #: the streaming §5 quality stage: every executed result is
        #: assigned to a redundancy cluster as it arrives, and the
        #: per-result novelty flows into :meth:`SearchStrategy.observe`
        #: (strategies act on it only when opted in via ``use_novelty``,
        #: so the default trajectory is untouched).
        self.quality: OnlineClusters | None = (
            OnlineClusters(
                max_distance=cluster_distance,
                similarity_threshold=similarity_threshold,
            )
            if online_quality else None
        )
        #: per-round cluster movement (populated when online quality is
        #: on; campaigns and the CLI surface it as live non-redundancy).
        self.quality_deltas: list[QualityDelta] = []
        self._quality_prev: dict[str, object] | None = None
        if self.quality is not None and metrics is not None:
            self.quality.bind_metrics(metrics)
        if metrics is not None:
            # Resolved once: series lookups are string formatting plus a
            # dict probe, which adds up on the per-test path the <5 %
            # overhead budget covers.
            self._tests_counter = metrics.counter("session.tests")
            self._fitness_hist = metrics.histogram(
                "session.fitness", boundaries=FITNESS_BUCKETS
            )
            self._rounds_counter = metrics.counter("session.rounds")
            self._round_hist = metrics.histogram("session.round_seconds")
            self._proposals_gauge = metrics.gauge("session.proposals_per_s")
        self.checkpointer = (
            CheckpointWriter(
                checkpoint_path, checkpoint_every, space, self.batch_size,
                meta=checkpoint_meta,
                meta_provider=self._checkpoint_meta,
            )
            if checkpoint_path is not None else None
        )
        self.executed: list[ExecutedTest] = []
        self._started = False
        self._round = 0

    def _checkpoint_meta(self) -> dict[str, object]:
        """Dynamic checkpoint metadata: the executor's state, the
        metrics snapshot plus the trace schema version, and the
        versioned cluster-state summary.  All of it lives in ``meta``,
        which the history digest does not cover — adding it cannot
        shift a resumed trajectory."""
        meta = self.executor.checkpoint_meta()
        if self.metrics is not None:
            from repro.obs.trace import TRACE_SCHEMA_VERSION

            meta["trace_schema"] = TRACE_SCHEMA_VERSION
            meta["metrics"] = self.metrics.snapshot()
        if self.quality is not None:
            meta["quality"] = self.quality.state_payload()
        return meta

    def run(self) -> ResultSet:
        """Run the session to completion and return the result set.

        Each round proposes up to ``batch_size`` candidates *before* any
        of their results are observed, executes the whole generation,
        then applies feedback in proposal order.  The stop criterion is
        consulted between rounds, so a session may overshoot its target
        by at most one batch — the §6.1 price of dispatch width (zero at
        ``batch_size=1``).
        """
        if self._started:
            raise SearchError(
                "a session cannot be run twice; create a new session "
                "(impact metrics and strategies carry per-session state)"
            )
        self._started = True
        self.strategy.bind(self.space, self.rng)
        if self.resume_from is not None:
            self.executor.resumed(replay_history(
                self.resume_from, self.strategy, self.batch_size,
                self.space, self._account, rng=self.rng,
            ))
            self._verify_quality_resume()
        while not self.target.done(self.executed):
            if self.tracer is None and self.metrics is None:
                batch = self.strategy.propose_batch(self.batch_size)
                if not batch:
                    break  # space exhausted (or strategy gave up)
                for fault, (result, digest) in zip(
                    batch, self._execute(batch)
                ):
                    self._account(fault, result, digest)
                self._publish_quality_delta()
            elif not self._observed_round():
                break
            if self.checkpointer is not None:
                self.checkpointer.maybe_write(self.executed, self.rng)
        if self.checkpointer is not None:
            self.checkpointer.maybe_write(self.executed, self.rng, force=True)
        return ResultSet(self.executed)

    def _observed_round(self) -> bool:
        """One instrumented round; returns False when the space is dry."""
        from repro.obs.trace import Tracer

        tracer = self.tracer or Tracer(sinks=[])
        clock = self.metrics.clock if self.metrics is not None else None
        started = clock() if clock is not None else 0.0
        self._round += 1
        with tracer.span("round", round=self._round,
                         batch_size=self.batch_size):
            with tracer.span("propose"):
                batch = self.strategy.propose_batch(self.batch_size)
            if not batch:
                return False
            with tracer.span("dispatch", requests=len(batch)) as dispatch:
                outcomes = self._execute(batch, dispatch)
            for fault, (result, digest) in zip(batch, outcomes):
                test = self._account(fault, result, digest)
                with tracer.span("verdict", index=test.index) as span:
                    span.set(impact=test.impact, failed=test.result.failed)
            if self.quality is not None:
                with tracer.span("quality") as span:
                    delta = self._publish_quality_delta()
                    if delta is not None:
                        span.set(**delta.as_dict())
        if self.metrics is not None and clock is not None:
            elapsed = clock() - started
            self._rounds_counter.inc()
            self._round_hist.observe(elapsed)
            if elapsed > 0:
                self._proposals_gauge.set(len(batch) / elapsed)
        return True

    def _execute(
        self, batch: list[Fault], dispatch: object | None = None
    ) -> list[Outcome]:
        """Execute one generation through the executor."""
        outcomes = self.executor.execute(batch, dispatch)
        if len(outcomes) != len(batch):
            raise SearchError(
                f"executor returned {len(outcomes)} results "
                f"for {len(batch)} faults"
            )
        self.batch_size = self.executor.next_batch_size(self.batch_size)
        return outcomes

    def _account(
        self,
        fault: Fault,
        result: RunResult,
        stack_digest: str | None = None,
    ) -> ExecutedTest:
        """Score, feed back, and record one result (live or replayed).

        Checkpoint replay drives this path too (without a worker
        digest), so a resumed session rebuilds its strategy, metric and
        cluster state exactly as recorded.
        """
        impact = self.metric.score(result)
        if self.environment is not None:
            impact = self.environment.weight_impact(fault, impact)
        if self.metrics is not None:
            self._tests_counter.inc()
            self._fitness_hist.observe(impact)
        if self.quality is not None:
            update = self.quality.add(
                result.injection_stack, digest=stack_digest
            )
            self.strategy.observe(fault, impact, result,
                                  novelty=update.novelty)
        else:
            self.strategy.observe(fault, impact, result)
        executed = ExecutedTest(
            index=len(self.executed),
            fault=fault,
            result=result,
            impact=impact,
            fitness=impact,
        )
        self.executed.append(executed)
        if self.on_test is not None:
            self.on_test(executed)
        return executed

    def _publish_quality_delta(self) -> QualityDelta | None:
        """Record the round's cluster movement (online quality only)."""
        if self.quality is None:
            return None
        delta = self.quality.delta(
            len(self.quality_deltas) + 1, self._quality_prev
        )
        self._quality_prev = self.quality.stats()
        self.quality_deltas.append(delta)
        return delta

    def _verify_quality_resume(self) -> None:
        """Cross-check the replay-rebuilt cluster state against what the
        checkpoint recorded (replay re-feeds every recorded result
        through :meth:`_account`, so the engine must land exactly where
        it was)."""
        if self.quality is None or self.resume_from is None:
            return
        persisted = self.resume_from.meta.get("quality")
        if not isinstance(persisted, dict):
            return  # checkpoint predates online quality (or it was off)
        try:
            self.quality.verify_state(persisted)
        except ValueError as exc:
            raise CheckpointError(str(exc)) from None
