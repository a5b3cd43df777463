"""The fabric executor: a session's generations run on a cluster (§6.1).

:class:`~repro.core.session.ExplorationSession` is the one explore
loop; on a cluster, this adapter ships each generation to a fabric as
:class:`~repro.cluster.messages.TestRequest` messages.  It owns
everything only fabrics need: request ids (continued after a checkpoint
resume), trace context in the requests and the worker-side spans the
reports ship back, report → result conversion, ``--batch-size auto``,
the ``fabric_health``/``fleet`` checkpoint metadata, and the fabric
metric collectors and gauges.

Impact scoring stays explorer-side (unlike the prototype, whose managers
aggregate a local impact value) because the standard metric's
newly-covered-block component needs the *global* set of blocks seen —
a deliberate, documented deviation that only moves where a sum is
computed, not what is measured.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.cluster.autobatch import AdaptiveBatchController
from repro.cluster.fault_tolerance import FabricHealth
from repro.cluster.messages import TestReport, TestRequest
from repro.core.fault import Fault
from repro.core.session import BatchExecutor, Outcome
from repro.errors import ClusterError
from repro.injection.plan import InjectionPlan
from repro.sim.process import RunResult

__all__ = ["FabricExecutor"]


class FabricExecutor(BatchExecutor):
    """Executes each generation as one ``run_batch`` on a fabric.

    ``cluster`` is any fabric — ``__len__`` (its width) plus
    ``run_batch(requests) -> reports`` in request order — possibly
    wrapped in a :class:`~repro.cluster.fault_tolerance.
    FaultTolerantFabric`.
    """

    def __init__(self, cluster: object) -> None:
        self.cluster = cluster
        self.metrics: "object | None" = None
        self.tracer: "object | None" = None
        #: the ``--batch-size auto`` controller; None for a fixed size.
        self.autobatch: AdaptiveBatchController | None = None
        self._next_request_id = 0

    def _reach(self, attr: str) -> object | None:
        """``attr`` of the fabric, or of the fabric a fault-tolerance
        wrapper holds."""
        value = getattr(self.cluster, attr, None)
        if value is None:
            value = getattr(getattr(self.cluster, "inner", None), attr, None)
        return value

    # -- the session's executor hooks -----------------------------------------

    def instrument(self, metrics: object, tracer: object) -> None:
        self.metrics = metrics
        self.tracer = tracer
        if metrics is not None:
            metrics.register_collector(self._collect_fabric)
            # Fabrics with their own export surface (the socket fabric's
            # wire/fleet gauges) hook into the same registry; the bind is
            # idempotent fabric-side.
            bind = self._reach("bind_metrics")
            if bind is not None:
                bind(metrics)

    def resolve_batch_size(
        self, requested: "int | str | None", checkpointing: bool
    ) -> int:
        if requested == "auto":
            if checkpointing:
                raise ClusterError(
                    "adaptive batch sizing ('auto') cannot be combined "
                    "with checkpointing: replay requires a fixed batch "
                    "size to reproduce round boundaries"
                )
            self.autobatch = AdaptiveBatchController(len(self.cluster))
            if self.metrics is not None:
                self.autobatch.bind_metrics(self.metrics)
            return self.autobatch.batch_size()
        if isinstance(requested, str):
            raise ClusterError(
                f"batch size must be a positive int or 'auto', "
                f"got {requested!r}"
            )
        size = len(self.cluster) if requested is None else requested
        if size < 1:
            raise ClusterError(f"batch size must be >= 1, got {size}")
        return size

    def execute(
        self, faults: Sequence[Fault], dispatch: object | None = None
    ) -> list[Outcome]:
        """Dispatch one generation; the ``dispatch`` span's id rides in
        every request so worker-side ``execute``/``inject`` spans —
        possibly produced in another process — nest under it."""
        trace_id = parent = None
        if self.tracer is not None and dispatch is not None:
            trace_id = self.tracer.trace_id
            parent = dispatch.span_id  # type: ignore[attr-defined]
        first = self._next_request_id
        self._next_request_id += len(faults)
        requests = [
            TestRequest(
                request_id=first + offset,
                subspace=fault.subspace,
                scenario=fault.as_dict(),
                trace_id=trace_id,
                parent_span=parent,
            )
            for offset, fault in enumerate(faults)
        ]
        started = time.perf_counter()
        if self.metrics is not None:
            self.metrics.gauge("fabric.queue_depth").set(len(requests))
            self.metrics.gauge("fabric.batch.size").set(len(requests))
            with self.metrics.timer("fabric.dispatch_seconds"):
                reports = self.cluster.run_batch(requests)  # type: ignore[attr-defined]
        else:
            reports = self.cluster.run_batch(requests)  # type: ignore[attr-defined]
        if self.autobatch is not None:
            self.autobatch.observe(
                len(requests), time.perf_counter() - started
            )
        if self.tracer is not None:
            for report in reports:
                for span_event in getattr(report, "spans", ()):
                    self.tracer.emit(span_event)
        return [
            (_report_to_result(fault, report),
             getattr(report, "stack_digest", None))
            for fault, report in zip(faults, reports)
        ]

    def next_batch_size(self, current: int) -> int:
        if self.autobatch is None:
            return current
        return self.autobatch.batch_size()

    def resumed(self, replayed: int) -> None:
        # Replayed tests were dispatched by the original run; request
        # ids continue where it left off.
        self._next_request_id = replayed

    def checkpoint_meta(self) -> dict[str, object]:
        health = self.health
        meta: dict[str, object] = (
            {"fabric_health": health.as_dict()} if health else {}
        )
        fleet = self._reach("fleet_stats")
        if callable(fleet):
            # Elastic-fleet accounting (stealing, membership, dedup);
            # only the socket fabric keeps it.
            meta["fleet"] = fleet()
        return meta

    # -- fabric state ----------------------------------------------------------

    @property
    def health(self) -> FabricHealth | None:  # type: ignore[override]
        """The fabric's fault-tolerance record, when it keeps one.

        A :class:`~repro.cluster.fault_tolerance.FaultTolerantFabric`
        answers with its *combined* record — its own counters folded
        with the wrapped fabric's internal ones (e.g. a process pool's
        chunk retries) — so no retry disappears between the layers.
        """
        combined = getattr(self.cluster, "combined_health", None)
        if combined is not None:
            return combined()
        return getattr(self.cluster, "health", None)

    def _collect_fabric(self, registry) -> None:
        """Snapshot-time gauges: fabric health and worker utilization."""
        health = self.health
        if health is not None:
            for name, value in health.as_dict().items():
                registry.gauge(f"fabric.health.{name}").set(value)
        for manager in self._reach("managers") or []:  # type: ignore[attr-defined]
            registry.gauge(
                "fabric.worker_busy_seconds", worker=manager.name
            ).set(manager.busy_seconds)
            registry.gauge(
                "fabric.worker_executed", worker=manager.name
            ).set(manager.executed)


def _report_to_result(fault: Fault, report: TestReport) -> RunResult:
    """Reconstitute a RunResult view from a wire report.

    Fields the wire format does not carry (stdout, crash message) are
    empty; impact metrics and result-set analyses only consume the
    fields present.
    """
    from repro.sim.libc import ProvenanceRecord

    return RunResult(
        test_id=int(fault.get("test", 0) or 0),
        test_name="",
        plan=InjectionPlan.none(),
        exit_code=report.exit_code,
        crash_kind=report.crash_kind,
        crash_message=None,
        crash_stack=None,
        injection_stack=report.injection_stack,
        injected=report.injected,
        coverage=report.coverage,
        steps=report.steps,
        measurements=dict(report.measurements),
        invariant_violations=report.invariant_violations,
        provenance=tuple(
            ProvenanceRecord.from_raw(row)
            for row in getattr(report, "provenance", ())
        ),
    )
