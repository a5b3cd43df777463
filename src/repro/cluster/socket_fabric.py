"""The networked multi-node execution fabric (§4's actual deployment).

The paper runs its fitness-guided exploration on 10-node clusters and
EC2, dynamically partitioning the fault space among explorer nodes.
:class:`SocketFabric` is that shape for this reproduction: a manager
process serves the :mod:`repro.cluster.wire` protocol over TCP;
:class:`ExplorerNode` processes connect, advertise capacity, and *pull*
work with backpressure — a node is never sent more requests than the
free executor slots it has declared.

The manager has the same fabric interface as every in-process fabric
(``__len__`` + ``run_batch``), so the one explore loop
(:class:`~repro.core.session.ExplorationSession`) drives it through the
same :class:`~repro.cluster.executor.FabricExecutor`, the whole
existing stack — :class:`~repro.cluster.fault_tolerance.
FaultTolerantFabric` retries, checkpoints, metrics, tracing, online
quality — wraps it unchanged, and a campaign over the socket fabric
produces a result history **byte-identical** to the same campaign on
:class:`~repro.cluster.process_pool.ProcessPoolCluster` (execution is
deterministic per fault; only placement differs).

Failure semantics:

* a node that dies mid-batch (EOF, reset, poisoned frame) has its
  in-flight chunk **requeued** onto the surviving nodes within the same
  round — the explorer never observes the loss except through
  :class:`~repro.cluster.fault_tolerance.FabricHealth`;
* a truncated or garbage frame is a :class:`~repro.cluster.wire.
  WireError` — the connection is dropped and its work requeued, the
  manager never crashes;
* wire-level heartbeats feed a
  :class:`~repro.cluster.fault_tolerance.HeartbeatMonitor`; beats are
  **stamped with the manager-side clock on receipt**, because node
  clocks are ``time.monotonic()`` values from *other processes* and are
  not comparable to the manager's (see
  :meth:`HeartbeatMonitor.beat <repro.cluster.fault_tolerance.
  HeartbeatMonitor.beat>`); a registered node whose beats stop is
  expired and its work requeued;
* nodes reconnect with exponential backoff and **idempotent
  re-registration**: a returning node (same name) replaces its stale
  connection, whose in-flight work is requeued first;
* :meth:`SocketFabric.close` drains gracefully — every node receives a
  ``shutdown`` frame and exits its serve loop; a manager *crash* (no
  shutdown frame) instead sends nodes into their reconnect loop, which
  is how a restarted manager on the same endpoint gets its fleet back.

Dynamic fault-space partitioning (§4): a
:class:`SensitivityPartitioner` learns per-axis sensitivity from
completed reports (reusing :class:`~repro.core.sensitivity.
SensitivityTracker`) and orders each round's queue so that requests
sharing a value on the currently most-sensitive axis are contiguous —
nodes pulling chunks therefore receive coherent regions of the fault
space, and the partitioning axis shifts as the search discovers where
the structure is.  Placement never changes *what* is executed, so
history digests are unaffected.

Elastic fleet operations (protocol v3, docs/DISTRIBUTED.md "Fleet
operations"):

* **work-stealing** — when the round queue drains while a node still
  has free slots, the manager reassigns backlog from the most-loaded
  live node (estimated by per-node EWMA latency ×
  :class:`~repro.cluster.autobatch.NodeLatencyTracker`), revoking the
  stolen ids at the victim with a ``steal`` frame.  A victim that
  raced the revocation and executed anyway is resolved
  first-report-wins: every later execution of a stolen id, the
  victim's or the thief's, in its round or after it, counts once in
  ``steal_duplicates``; stolen work lost with a dead *thief* is
  requeued at the front exactly like any other in-flight chunk;
* **dynamic membership** — a new node may register mid-campaign
  (``allow_join``); the manager re-arranges the remaining queue through
  the partitioner so the joiner receives a coherent slice.  A node
  leaves gracefully by sending ``drain``: it stops receiving work,
  finishes its backlog, and is deregistered with a ``shutdown`` frame —
  a *distinct* path from crash detection, which stays with the
  :class:`~repro.cluster.fault_tolerance.HeartbeatMonitor`;
* **fleet-shared dedup** — with a
  :class:`~repro.cluster.fleet.FleetResultCache` attached, duplicate
  scenarios completed *anywhere* in the fleet are answered from the
  manager's cache without dispatching, and newly recorded digests are
  broadcast to v3 nodes piggybacked on the credit/dispatch path.
  Executions are deterministic per fault, so dedup never moves the
  campaign's history digest.
"""

from __future__ import annotations

import os
import queue
import random
import select
import socket
import threading
import time
from collections import deque
from collections.abc import Callable

from repro.cluster.autobatch import NodeLatencyTracker
from repro.cluster.fault_tolerance import (
    FabricHealth,
    HeartbeatMonitor,
    RetryPolicy,
)
from repro.cluster.fleet import FleetResultCache, scenario_digest
from repro.cluster.manager import NodeManager
from repro.cluster.messages import TestReport, TestRequest
from repro.cluster.wire import (
    MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    WireError,
    encode_frame,
    encode_report_frame,
    encode_work_frame,
    negotiate_version,
    parse_endpoint,
    recv_frame,
    report_from_wire,
    report_to_wire,
    request_from_wire,
    request_to_wire,
    send_frame,
)
from repro.core.cache import ResultCache
from repro.core.sensitivity import SensitivityTracker
from repro.errors import ClusterError
from repro.sim.libc import DEFAULT_STEP_BUDGET
from repro.sim.testsuite import Target

__all__ = ["SocketFabric", "ExplorerNode", "SensitivityPartitioner"]

TargetFactory = Callable[[], Target]

#: sentinel closing a node connection's outbound queue.
_CLOSE = object()

#: upper bound on a node's advertised capacity (a corrupted hello must
#: not convince the manager to funnel the whole campaign to one peer).
_MAX_CAPACITY = 256


class SensitivityPartitioner:
    """Orders a round's work queue by learned fault-space sensitivity.

    Implements the paper's §4 dynamic partitioning signal: each
    completed report yields a fitness proxy (crash > hang > test
    failure > clean, plus a bonus when the fault actually fired), and
    each axis of the originating scenario is credited with how strongly
    its *value* predicts that fitness — the deviation of the value's
    running mean from the global mean, accumulated through a
    sliding-window :class:`~repro.core.sensitivity.SensitivityTracker`.
    An axis whose values discriminate outcomes (``function=malloc``
    crashes, ``function=read`` doesn't) builds sensitivity; an axis
    whose values all behave alike stays flat.  ``arrange`` then sorts
    the pending queue so requests sharing a value on the most-sensitive
    axis sit together — nodes pulling chunks off the front receive
    contiguous regions of the currently-most-informative axis, sized by
    their capacity.  Before any feedback the queue is left in proposal
    order (uniform partitioning).
    """

    def __init__(self, window: int = 50, floor: float = 0.05) -> None:
        self.window = window
        self.floor = floor
        self._tracker: SensitivityTracker | None = None
        #: per-axis, per-value running (count, fitness sum).
        self._value_stats: dict[str, dict[str, list[float]]] = {}
        self._global_count = 0
        self._global_sum = 0.0

    @staticmethod
    def fitness_of(report: TestReport) -> float:
        """The partitioning fitness proxy for one completed test."""
        if report.crashed:
            fitness = 3.0
        elif report.hung:
            fitness = 2.0
        elif report.failed:
            fitness = 1.0
        else:
            fitness = 0.0
        if report.injected:
            fitness += 0.5
        return fitness

    def observe(self, request: TestRequest, report: TestReport) -> None:
        """Account one completed scenario's outcome."""
        axes = tuple(sorted(request.scenario))
        if not axes:
            return
        if self._tracker is None or set(axes) - set(self._tracker.axis_names):
            # First observation, or a subspace introduced new axes:
            # (re)build the tracker over the union (window history
            # restarts, which only costs a few rounds of re-learning;
            # the per-value means survive the rebuild).
            known = () if self._tracker is None else self._tracker.axis_names
            self._tracker = SensitivityTracker(
                sorted(set(known) | set(axes)),
                window=self.window, floor=self.floor,
            )
        fitness = self.fitness_of(report)
        self._global_count += 1
        self._global_sum += fitness
        global_mean = self._global_sum / self._global_count
        for axis in axes:
            bucket = self._value_stats.setdefault(axis, {})
            stats = bucket.setdefault(repr(request.scenario[axis]), [0, 0.0])
            stats[0] += 1
            stats[1] += fitness
            value_mean = stats[1] / stats[0]
            self._tracker.record(axis, abs(value_mean - global_mean))

    def partition_axis(self) -> str | None:
        """The axis the fault space is currently partitioned along."""
        if self._tracker is None:
            return None
        probabilities = self._tracker.probabilities()
        return max(sorted(probabilities), key=lambda k: probabilities[k])

    def arrange(self, requests: list[TestRequest]) -> list[TestRequest]:
        """Stable-sort ``requests`` into contiguous partitions."""
        axis = self.partition_axis()
        if axis is None or len(requests) < 2:
            return list(requests)
        return sorted(requests, key=lambda r: repr(r.scenario.get(axis)))


class _NodeConnection:
    """Manager-side state for one registered explorer node."""

    def __init__(
        self, name: str, sock: socket.socket, capacity: int,
        version: int = PROTOCOL_VERSION,
    ) -> None:
        self.name = name
        self.sock = sock
        self.capacity = capacity
        #: the protocol version negotiated at handshake — per
        #: connection, so v1 and v2 nodes coexist in one fleet.
        self.version = version
        #: free executor slots the node has declared and not yet been
        #: sent work for (the backpressure credit).
        self.slots = 0
        #: in-flight requests, by id.
        self.assigned: dict[int, TestRequest] = {}
        #: ids reassigned (stolen) to another node but possibly still
        #: executing here — a report for one of these is a steal race,
        #: not corruption, and is resolved first-report-wins.  Kept
        #: past the round (a losing report may arrive late) until the
        #: node reports the id, retires, or the id is dispatched anew.
        self.stolen_away: set[int] = set()
        #: graceful-leave state: a draining node receives no new work
        #: and is deregistered (``drained``) once its backlog empties.
        self.draining = False
        self.drained = False
        #: cursor into the fleet cache's append-only digest log — how
        #: far this connection's dedup broadcast has caught up.
        self.digest_cursor = 0
        #: load accounting from the node's heartbeats.
        self.executed = 0
        self.busy_seconds = 0.0
        self.retired = False
        self.outbox: "queue.Queue[object]" = queue.Queue()

    def enqueue(self, message: dict) -> int:
        """Queue a JSON frame for the writer thread; returns its size."""
        data = encode_frame(message)
        self.outbox.put(data)
        return len(data)

    def enqueue_raw(self, data: bytes) -> int:
        """Queue an already-encoded frame (the v2 binary data plane)."""
        self.outbox.put(data)
        return len(data)


class SocketFabric:
    """TCP manager fabric: serves the wire protocol to explorer nodes.

    Construct, optionally :meth:`wait_for_nodes`, then hand to a
    :class:`~repro.cluster.executor.FabricExecutor` (ideally
    wrapped in a :class:`~repro.cluster.fault_tolerance.
    FaultTolerantFabric` for bounded retries on top of the fabric's own
    intra-round requeue).  ``listen`` is ``"host:port"``; port 0 binds
    an ephemeral port, readable afterwards from :attr:`port`.

    ``heartbeat_timeout`` bounds how stale a registered node's last
    beat may grow before the manager declares it dead and requeues its
    work; it must comfortably exceed the nodes' heartbeat interval.
    ``ready_timeout`` bounds how long a dispatch will wait with *zero*
    live nodes before failing the round.

    ``allow_join=False`` seals the fleet at first dispatch: a *new*
    node name registering mid-campaign is refused with an ``error``
    frame (a returning node — same name — may always re-register;
    reconnects are not joins).  ``fleet_cache`` attaches a
    :class:`~repro.cluster.fleet.FleetResultCache` enabling
    manager-side dedup of duplicate scenarios plus the digest
    broadcast to v3 nodes; it is opt-in because it changes *load*
    accounting (dedup hits execute nowhere), never results.
    """

    def __init__(
        self,
        listen: str = "127.0.0.1:0",
        expected_nodes: int = 1,
        *,
        name: str = "socket",
        ready_timeout: float = 30.0,
        heartbeat_timeout: float = 10.0,
        handshake_timeout: float = 5.0,
        partitioner: SensitivityPartitioner | None = None,
        allow_join: bool = True,
        fleet_cache: FleetResultCache | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if expected_nodes < 1:
            raise ClusterError(
                f"a socket fabric needs >= 1 expected node, got {expected_nodes}"
            )
        if ready_timeout <= 0 or heartbeat_timeout <= 0:
            raise ClusterError("socket fabric timeouts must be positive")
        self.name = name
        self.expected_nodes = expected_nodes
        self.ready_timeout = ready_timeout
        self.handshake_timeout = handshake_timeout
        self.health = FabricHealth()
        self.monitor = HeartbeatMonitor(
            liveness_timeout=heartbeat_timeout, clock=clock
        )
        self.partitioner = partitioner or SensitivityPartitioner()
        self.allow_join = allow_join
        self.fleet_cache = fleet_cache
        #: per-node seconds-per-test EWMA, fed from absorbed reports'
        #: ``cost`` — ranks work-stealing victims by estimated
        #: remaining time, not just queue depth.
        self.latency = NodeLatencyTracker()
        self._clock = clock
        self._cond = threading.Condition()
        self._nodes: dict[str, _NodeConnection] = {}
        self._pending: dict[int, TestRequest] = {}
        self._unassigned: deque[TestRequest] = deque()
        self._reports: dict[int, TestReport] = {}
        self._round: "_Round | None" = None
        self._closed = False
        self._dispatched = False
        #: every node name that ever registered — distinguishes a
        #: returning node (reconnect) from a genuine mid-campaign join.
        self._seen_names: set[str] = set()
        #: ids stolen once already — never re-stolen (no ping-pong; a
        #: chunk is reassigned at most once per requeue, mirroring the
        #: requeue-to-front rule).
        self._stolen_once: set[int] = set()
        #: stolen ids whose first report has been absorbed: any later
        #: report for one — the victim's or the thief's — is waste.
        self._steal_won: set[int] = set()
        #: wire accounting (exported by :meth:`bind_metrics`).
        self.bytes_in = 0
        self.bytes_out = 0
        self.frames_in = 0
        self.frames_out = 0
        #: cumulative seconds spent encoding outbound work frames — the
        #: dispatch path's serialization cost, exported as the
        #: ``fabric.dispatch.encode_seconds`` gauge.
        self.encode_seconds = 0.0
        #: requests requeued off dead or replaced connections.
        self.requeued = 0
        #: well-formed reports that arrived after their round moved on.
        self.late_reports = 0
        #: total registrations, counting every re-registration.
        self.registrations = 0
        #: requests reassigned from a loaded node to an idle one.
        self.stolen = 0
        #: executions of a stolen request after its first absorbed report
        #: (the revocation race's loser, victim or thief); resolved
        #: first-report-wins, so this counts wasted work only.
        self.steal_duplicates = 0
        #: nodes that drained and deregistered gracefully (not deaths).
        self.graceful_leaves = 0
        #: new node names registered after the first dispatch.
        self.mid_campaign_joins = 0
        #: requests answered from the fleet cache without dispatching.
        self.fleet_dedup_hits = 0

        host, port = parse_endpoint(listen)
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._server.bind((host, port))
            self._server.listen(16)
        except OSError:
            self._server.close()
            raise
        self.host, self.port = self._server.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{name}-accept", daemon=True
        )
        self._accept_thread.start()

    # -- fabric interface ------------------------------------------------------

    def __len__(self) -> int:
        """Total declared capacity of the live fleet (min 1).

        This is what sizes the explorer's default speculative batch: a
        round should be wide enough to keep every advertised executor
        slot busy.
        """
        with self._cond:
            return max(
                1,
                sum(n.capacity for n in self._nodes.values() if not n.retired),
            )

    def run_batch(self, requests: list[TestRequest]) -> list[TestReport]:
        """Dispatch a batch across the fleet; reports in request order.

        Work is handed out against each node's declared free slots
        (backpressure); a node lost mid-round has its chunk requeued to
        the survivors.  The call fails with :class:`~repro.errors.
        ClusterError` only when the fleet is empty for ``ready_timeout``
        seconds — at which point an enclosing
        :class:`~repro.cluster.fault_tolerance.FaultTolerantFabric`
        backs off and retries the round.
        """
        if not requests:
            return []
        with self._cond:
            if self._closed:
                raise ClusterError(f"{self.name}: fabric is closed")
            if self._round is not None:
                # A newer dispatch supersedes an abandoned one (the
                # fault-tolerance wrapper re-dispatches the same ids
                # after a deadline): wake the stale waiter so its
                # worker thread exits instead of waiting forever.
                self._round.abandoned = True
                self._cond.notify_all()
            round_ = self._round = _Round({r.request_id for r in requests})
            self._dispatched = True
            self.health.dispatches += 1
            self.health.requests += len(requests)
            # Requests already in flight from a superseded round keep
            # their place — execution is deterministic, so their
            # reports satisfy this round too.  Stale queue entries the
            # new round does not want are dropped.
            self._pending = {
                rid: r for rid, r in self._pending.items()
                if rid in round_.ids
            }
            self._stolen_once &= set(self._pending)
            # A request is fresh unless a superseded round left it in
            # flight (still in ``_pending``).  An id sitting in a
            # node's ``assigned`` dict but *not* in ``_pending`` is a
            # zombie: its round already completed through the other
            # side of a steal race, nobody is waiting for the node's
            # eventual late report, and trusting it here would leave
            # this round waiting forever.
            fresh = [
                r for r in requests
                if r.request_id not in self._pending
                and r.request_id not in self._reports
            ]
            # A fresh request reuses its id: any steal copies still
            # outstanding under that id belonged to an older request.
            reused = {r.request_id for r in fresh}
            self._steal_won -= reused
            for n in self._nodes.values():
                n.stolen_away -= reused
            if self.fleet_cache is not None:
                # Fleet-wide dedup: a scenario completed anywhere in
                # the fleet is answered from the manager's cache and
                # never dispatched.  The synthesized report is what a
                # deterministic re-execution would produce, so the
                # history digest cannot move.
                executable: list[TestRequest] = []
                for r in fresh:
                    synthesized = self.fleet_cache.synthesize(r)
                    if synthesized is None:
                        executable.append(r)
                        continue
                    self.fleet_dedup_hits += 1
                    self.partitioner.observe(r, synthesized)
                    self._reports[r.request_id] = synthesized
                    self.health.completed += 1
                fresh = executable
            self._pending.update({r.request_id: r for r in fresh})
            wanted = deque(
                r for r in self._unassigned if r.request_id in round_.ids
            )
            queued = {r.request_id for r in wanted}
            wanted.extend(r for r in fresh if r.request_id not in queued)
            self._unassigned = deque(
                self.partitioner.arrange(list(wanted))
            )
            self._fill_nodes_locked()
            absent_since: float | None = None
            while True:
                if round_.abandoned:
                    raise ClusterError(
                        f"{self.name}: dispatch round superseded by a "
                        "newer dispatch"
                    )
                if self._closed:
                    raise ClusterError(f"{self.name}: fabric is closed")
                if all(rid in self._reports for rid in round_.ids):
                    break
                self._expire_stale_nodes_locked()
                live = [n for n in self._nodes.values() if not n.retired]
                if live:
                    absent_since = None
                else:
                    now = self._clock()
                    if absent_since is None:
                        absent_since = now
                    elif now - absent_since >= self.ready_timeout:
                        self._round = None
                        raise ClusterError(
                            f"{self.name}: no live nodes for "
                            f"{self.ready_timeout:.1f}s with "
                            f"{len(round_.ids - set(self._reports))} "
                            "requests outstanding"
                        )
                self._fill_nodes_locked()
                self._cond.wait(timeout=0.1)
            ordered = [self._reports.pop(r.request_id) for r in requests]
            for r in requests:
                self._pending.pop(r.request_id, None)
            self._round = None
            return ordered

    # -- lifecycle -------------------------------------------------------------

    def wait_for_nodes(
        self, count: int | None = None, timeout: float = 60.0
    ) -> int:
        """Block until ``count`` nodes are registered (default:
        ``expected_nodes``); returns the live node count."""
        wanted = self.expected_nodes if count is None else count
        deadline = self._clock() + timeout
        with self._cond:
            while True:
                live = sum(
                    1 for n in self._nodes.values() if not n.retired
                )
                if live >= wanted:
                    return live
                remaining = deadline - self._clock()
                if remaining <= 0:
                    raise ClusterError(
                        f"{self.name}: {live}/{wanted} nodes registered "
                        f"after {timeout:.1f}s"
                    )
                self._cond.wait(timeout=min(remaining, 0.2))

    def close(self, drain: bool = True) -> None:
        """Stop the fabric (idempotent).

        ``drain=True`` (the default) sends every node a ``shutdown``
        frame first, so nodes exit their serve loop gracefully;
        ``drain=False`` models a manager crash — connections just
        drop, and nodes enter their reconnect loop instead.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            nodes = list(self._nodes.values())
            if self._round is not None:
                self._round.abandoned = True
            self._cond.notify_all()
        for node in nodes:
            if drain:
                try:
                    node.enqueue({"type": "shutdown", "reason": "drain"})
                except WireError:  # pragma: no cover - shutdown always fits
                    pass
            node.outbox.put(_CLOSE)
            if not drain:
                _close_socket(node.sock)
        try:
            # Shutdown wakes the accept thread's blocked accept() at
            # once; a bare close() leaves it blocked on Linux.
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:  # pragma: no cover - already disconnected
            pass
        _close_socket(self._server)
        self._accept_thread.join(timeout=2.0)

    def __enter__(self) -> "SocketFabric":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ---------------------------------------------------------

    def node_stats(self) -> list[dict[str, object]]:
        """Per-node load accounting (from heartbeats), for obs export."""
        with self._cond:
            return [
                {
                    "node": n.name,
                    "capacity": n.capacity,
                    "in_flight": len(n.assigned),
                    "executed": n.executed,
                    "busy_seconds": n.busy_seconds,
                    "draining": n.draining or n.drained,
                    "per_test_seconds":
                        self.latency.per_test_seconds(n.name),
                }
                for n in self._nodes.values() if not n.retired
            ]

    def fleet_stats(self) -> dict[str, object]:
        """Elastic-fleet accounting: stealing, membership, dedup."""
        with self._cond:
            stats: dict[str, object] = {
                "nodes": sum(
                    1 for n in self._nodes.values() if not n.retired
                ),
                "stolen": self.stolen,
                "steal_duplicates": self.steal_duplicates,
                "requeued": self.requeued,
                "graceful_leaves": self.graceful_leaves,
                "mid_campaign_joins": self.mid_campaign_joins,
                "fleet_dedup_hits": self.fleet_dedup_hits,
                "per_test_seconds": self.latency.stats(),
            }
        if self.fleet_cache is not None:
            stats["dedup"] = self.fleet_cache.stats()
        return stats

    def bind_metrics(self, registry: "object") -> None:
        """Export wire/fleet gauges into a metrics registry snapshot.

        Idempotent per registry (the explorer binds any fabric that
        offers this hook; a fabric reused across explorers must not
        register duplicate collectors).
        """
        bound = getattr(self, "_bound_registries", None)
        if bound is None:
            bound = self._bound_registries = set()
        if id(registry) in bound:
            return
        bound.add(id(registry))

        def _collect(reg) -> None:
            stats = self.node_stats()
            reg.gauge("fabric.net.nodes").set(len(stats))
            reg.gauge("fabric.net.capacity").set(
                sum(int(s["capacity"]) for s in stats)
            )
            with self._cond:
                reg.gauge("fabric.net.bytes_in").set(self.bytes_in)
                reg.gauge("fabric.net.bytes_out").set(self.bytes_out)
                reg.gauge("fabric.net.frames_in").set(self.frames_in)
                reg.gauge("fabric.net.frames_out").set(self.frames_out)
                reg.gauge("fabric.net.requeued").set(self.requeued)
                reg.gauge("fabric.net.late_reports").set(self.late_reports)
                reg.gauge("fabric.net.registrations").set(self.registrations)
                reg.gauge("fabric.net.stolen").set(self.stolen)
                reg.gauge("fabric.net.steal_duplicates").set(
                    self.steal_duplicates
                )
                reg.gauge("fabric.net.graceful_leaves").set(
                    self.graceful_leaves
                )
                reg.gauge("fabric.net.mid_campaign_joins").set(
                    self.mid_campaign_joins
                )
                reg.gauge("fabric.net.dedup_hits").set(self.fleet_dedup_hits)
                reg.gauge("fabric.dispatch.encode_seconds").set(
                    self.encode_seconds
                )
                completed = self.health.completed
                reg.gauge("fabric.net.bytes_per_test").set(
                    (self.bytes_in + self.bytes_out) / completed
                    if completed else 0.0
                )
            for s in stats:
                reg.gauge(
                    "fabric.worker_busy_seconds", worker=str(s["node"])
                ).set(float(s["busy_seconds"]))
                reg.gauge(
                    "fabric.worker_executed", worker=str(s["node"])
                ).set(int(s["executed"]))
                per_test = s["per_test_seconds"]
                if per_test is not None:
                    reg.gauge(
                        "fabric.node.per_test_seconds",
                        worker=str(s["node"]),
                    ).set(float(per_test))  # type: ignore[arg-type]

        registry.register_collector(_collect)  # type: ignore[attr-defined]

    def describe(self) -> str:
        with self._cond:
            live = sum(1 for n in self._nodes.values() if not n.retired)
        return (
            f"{self.name}: {self.host}:{self.port}, {live} nodes "
            f"(protocol v{PROTOCOL_VERSION})"
        )

    # -- internals: accept / per-connection service ----------------------------

    def _count_bytes_in(self, count: int) -> None:
        with self._cond:
            self.bytes_in += count

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return  # server socket closed: fabric shut down
            try:
                # Frames are small and latency-critical (a round blocks
                # on the last report); never let Nagle batch them.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP test sockets
                pass
            threading.Thread(
                target=self._serve_connection, args=(sock,),
                name=f"{self.name}-conn", daemon=True,
            ).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        """One node's session: handshake, then frame dispatch until EOF."""
        node: _NodeConnection | None = None
        try:
            node = self._handshake(sock)
            if node is None:
                return
            writer = threading.Thread(
                target=self._writer_loop, args=(node,),
                name=f"{self.name}-write-{node.name}", daemon=True,
            )
            writer.start()
            node.enqueue({
                "type": "welcome",
                "version": node.version,
                "node": node.name,
                "manager": self.name,
            })
            sock.settimeout(None)
            while True:
                try:
                    message = recv_frame(sock, counter=self._count_bytes_in)
                except WireError:
                    # Poisoned framing: count it, drop the connection,
                    # requeue — the manager survives garbage by design.
                    with self._cond:
                        self.health.corrupt_reports += 1
                    break
                if message is None:
                    break
                with self._cond:
                    self.frames_in += 1
                    self.monitor.beat(node.name)
                if not self._handle_frame(node, message):
                    break
        except OSError:
            pass
        finally:
            if node is not None:
                node.outbox.put(_CLOSE)
                with self._cond:
                    self._retire_locked(node)
                    self._fill_nodes_locked()
                    self._cond.notify_all()
            _close_socket(sock)

    def _handshake(self, sock: socket.socket) -> _NodeConnection | None:
        """Validate the hello frame; register (or re-register) the node."""
        sock.settimeout(self.handshake_timeout)
        try:
            hello = recv_frame(sock)
        except (WireError, OSError, TimeoutError):
            with self._cond:
                self.health.corrupt_reports += 1
            _close_socket(sock)
            return None
        if hello is None:
            _close_socket(sock)
            return None
        refusal: str | None = None
        version: int | None = None
        if hello.get("type") != "hello":
            refusal = f"expected hello, got {hello.get('type')!r}"
        else:
            version = negotiate_version(hello)
            if version is None:
                refusal = (
                    f"protocol version mismatch: manager speaks "
                    f"v{MIN_PROTOCOL_VERSION}..v{PROTOCOL_VERSION}, node "
                    f"sent {hello.get('version')!r} (min "
                    f"{hello.get('min_version', hello.get('version'))!r})"
                )
        name = hello.get("node")
        capacity = hello.get("capacity")
        if refusal is None and (not isinstance(name, str) or not name):
            refusal = "hello carries no node name"
        if refusal is None and (
            not isinstance(capacity, int)
            or not 1 <= capacity <= _MAX_CAPACITY
        ):
            refusal = f"capacity must be 1..{_MAX_CAPACITY}, got {capacity!r}"
        if refusal is not None:
            with self._cond:
                self.health.corrupt_reports += 1
            try:
                send_frame(sock, {"type": "error", "reason": refusal})
            except OSError:
                pass
            _close_socket(sock)
            return None
        node = _NodeConnection(
            str(name), sock, int(capacity),  # type: ignore[arg-type]
            version=int(version),  # type: ignore[arg-type]
        )
        with self._cond:
            if self._closed:
                node.retired = True
                _close_socket(sock)
                return None
            returning = node.name in self._seen_names
            if self._dispatched and not returning and not self.allow_join:
                # The fleet is sealed: a *new* name mid-campaign is a
                # join, and joins were not allowed.  A returning node
                # (same name) is a reconnect and always welcome.
                refusal = (
                    f"fleet is sealed: node {node.name!r} is a "
                    "mid-campaign join and the manager was started "
                    "without --allow-join"
                )
                node.retired = True
                try:
                    send_frame(sock, {"type": "error", "reason": refusal})
                except OSError:
                    pass
                _close_socket(sock)
                return None
            stale = self._nodes.get(node.name)
            if stale is not None:
                # Idempotent re-registration: the node came back before
                # its old connection was noticed dead.  Retire the stale
                # state (requeueing its in-flight chunk) and replace it.
                self._retire_locked(stale)
                stale.outbox.put(_CLOSE)
                _close_socket(stale.sock)
            if self._dispatched and not returning:
                # A genuine mid-campaign join: re-slice the remaining
                # queue so the joiner pulls a coherent region of the
                # fault space instead of the old plan's leftovers.
                self.mid_campaign_joins += 1
                if self._unassigned:
                    self._unassigned = deque(
                        self.partitioner.arrange(list(self._unassigned))
                    )
            self._seen_names.add(node.name)
            self._nodes[node.name] = node
            self.registrations += 1
            # Manager-side stamp: node clocks are not comparable here.
            self.monitor.beat(node.name)
            self._cond.notify_all()
        return node

    def _handle_frame(self, node: _NodeConnection, message: dict) -> bool:
        """Dispatch one validated frame; False ends the session."""
        kind = message["type"]
        if kind == "ready":
            slots = message.get("slots")
            if not isinstance(slots, int) or slots < 0:
                with self._cond:
                    self.health.corrupt_reports += 1
                return False
            with self._cond:
                node.slots = min(slots, node.capacity)
                self._flush_digests_locked(node)
                assigned = self._fill_nodes_locked()
                if not assigned:
                    node.enqueue({"type": "idle"})
            return True
        if kind == "drain":
            # Graceful leave (v3): stop feeding this node; deregister
            # it once its backlog empties.  Deliberately distinct from
            # crash detection — no requeue, no worker_death, and the
            # HeartbeatMonitor plays no part.
            with self._cond:
                if not node.drained:
                    node.draining = True
                    self._maybe_finish_drain_locked(node)
            return True
        if kind == "report":
            try:
                report = report_from_wire(message.get("report", {}))
            except WireError:
                with self._cond:
                    self.health.corrupt_reports += 1
                return False
            self._absorb_report(node, report)
            return True
        if kind == "report_batch":
            reports = message.get("reports")
            slots = message.get("slots")
            if not isinstance(reports, list) or not all(
                isinstance(r, TestReport) for r in reports
            ):
                with self._cond:
                    self.health.corrupt_reports += 1
                return False
            self._absorb_report_batch(
                node, reports, slots if isinstance(slots, int) else None
            )
            return True
        if kind == "heartbeat":
            with self._cond:
                executed = message.get("executed")
                busy = message.get("busy_seconds")
                if isinstance(executed, int):
                    # max(): reports absorbed since the last beat may
                    # already have advanced the manager-side count.
                    node.executed = max(node.executed, executed)
                if isinstance(busy, (int, float)):
                    node.busy_seconds = max(node.busy_seconds, float(busy))
            return True
        if kind == "bye":
            return False
        # Unknown-but-well-framed types are ignored for forward
        # compatibility within a protocol version.
        return True

    def _absorb_one_locked(
        self, node: _NodeConnection, report: TestReport
    ) -> None:
        """Classify and absorb one report (first-report-wins on steals)."""
        rid = report.request_id
        request = node.assigned.pop(rid, None)
        if request is None:
            if rid not in node.stolen_away:
                # Not addressed to in-flight work from this node:
                # either a stale duplicate or a fabricated id.
                self.health.corrupt_reports += 1
                return
            # The victim raced the steal frame and executed anyway.
            # Its report is as good as the thief's (determinism), so
            # the first to arrive wins.
            node.stolen_away.discard(rid)
            request = self._pending.get(rid)
        if rid in self._steal_won or rid in self._reports:
            # The other copy of a stolen request already won — in this
            # round or an earlier one.  Counted as waste exactly once,
            # never double-absorbed.
            self._steal_won.discard(rid)
            self.steal_duplicates += 1
            return
        if request is None or self._pending.get(rid) != request:
            # Legitimate but late (its round moved on and dropped the
            # request), or a zombie whose id now names a *different*
            # request.  Discard — late reports never double-account
            # (same rule as FaultTolerantFabric).
            self.late_reports += 1
            return
        if rid in self._stolen_once:
            self._steal_won.add(rid)
        self.partitioner.observe(request, report)
        if self.fleet_cache is not None:
            self.fleet_cache.record(request, report)
        self._reports[rid] = report
        node.executed += 1
        node.busy_seconds += report.cost
        self.latency.observe(node.name, 1, report.cost)
        self.health.completed += 1

    def _absorb_report(self, node: _NodeConnection, report: TestReport) -> None:
        with self._cond:
            self._absorb_one_locked(node, report)
            self._maybe_finish_drain_locked(node)
            self._cond.notify_all()

    def _absorb_report_batch(
        self,
        node: _NodeConnection,
        reports: list[TestReport],
        slots: int | None,
    ) -> None:
        """Absorb one coalesced v2 report frame under a single lock.

        The frame's piggybacked ``slots`` is the node's post-chunk
        backpressure credit (what v1 sent as a separate ``ready``), so
        refilling happens here too — one lock round-trip per chunk
        instead of one per test.
        """
        with self._cond:
            for report in reports:
                self._absorb_one_locked(node, report)
            if slots is not None and not node.retired:
                node.slots = min(slots, node.capacity)
                self._flush_digests_locked(node)
                self._fill_nodes_locked()
            self._maybe_finish_drain_locked(node)
            self._cond.notify_all()

    def _writer_loop(self, node: _NodeConnection) -> None:
        while True:
            item = node.outbox.get()
            if item is _CLOSE:
                return
            try:
                node.sock.sendall(item)  # type: ignore[arg-type]
                with self._cond:
                    self.bytes_out += len(item)  # type: ignore[arg-type]
                    self.frames_out += 1
            except OSError:
                # Reader notices the dead socket and retires the node.
                _close_socket(node.sock)
                return

    # -- internals: scheduling (all called with self._cond held) ---------------

    def _send_chunk_locked(
        self, node: _NodeConnection, chunk: list[TestRequest]
    ) -> None:
        """Assign ``chunk`` to ``node`` and enqueue the work frame."""
        node.slots -= len(chunk)
        node.assigned.update({r.request_id: r for r in chunk})
        self._flush_digests_locked(node)
        started = time.perf_counter()
        if node.version >= 2:
            # The whole chunk is packed once, into one binary frame.
            data = encode_work_frame(chunk)
        else:
            data = encode_frame({
                "type": "work",
                "requests": [request_to_wire(r) for r in chunk],
            })
        self.encode_seconds += time.perf_counter() - started
        node.enqueue_raw(data)

    def _fill_nodes_locked(self) -> int:
        """Hand queued work to nodes with free slots; returns count sent.

        When the queue drains while credit is still outstanding, the
        leftover slots turn into work-stealing: backlog is reassigned
        from the most-loaded node instead of idling the fleet's tail.
        """
        sent = 0
        live = sorted(
            (
                n for n in self._nodes.values()
                if not n.retired and not n.draining and n.slots > 0
            ),
            key=lambda n: n.name,
        )
        for node in live:
            if not self._unassigned:
                break
            chunk: list[TestRequest] = []
            while self._unassigned and len(chunk) < node.slots:
                chunk.append(self._unassigned.popleft())
            if not chunk:
                continue
            self._send_chunk_locked(node, chunk)
            sent += len(chunk)
        if not self._unassigned and self._round is not None:
            sent += self._steal_locked()
        return sent

    def _steal_locked(self) -> int:
        """Reassign backlog from loaded nodes to idle slots.

        The victim is the live node with the longest *estimated
        remaining time* (backlog × per-node EWMA latency) among those
        with at least two stealable requests — the head of its queue is
        left alone because it is most likely already executing.  Only
        v3 victims qualify: the steal is announced with a ``steal``
        frame so the victim skips the revoked ids, and an older node
        cannot be relied on to honor one.  Each id is stolen at most
        once (no ping-pong between a fast pair of nodes).
        """
        moved = 0
        thieves = sorted(
            (
                n for n in self._nodes.values()
                if not n.retired and not n.draining and n.slots > 0
            ),
            key=lambda n: n.name,
        )
        for thief in thieves:
            while thief.slots > 0:
                victim = self._steal_victim_locked(thief)
                if victim is None:
                    break
                stealable = [
                    rid for rid in victim.assigned
                    if rid in self._pending and rid not in self._stolen_once
                ]
                take = min(thief.slots, len(stealable) - 1)
                if take <= 0:
                    break
                ids = stealable[-take:]
                chunk = [victim.assigned.pop(rid) for rid in ids]
                victim.stolen_away.update(ids)
                self._stolen_once.update(ids)
                # Revoke at the victim *before* the thief's work frame
                # is even queued: the victim is grinding serially, so
                # every skipped id is a whole execution saved.
                victim.enqueue({"type": "steal", "ids": ids})
                self._send_chunk_locked(thief, chunk)
                self.stolen += len(chunk)
                moved += len(chunk)
        return moved

    def _steal_victim_locked(
        self, thief: _NodeConnection
    ) -> _NodeConnection | None:
        """The node worth stealing from, by estimated remaining time."""
        best: _NodeConnection | None = None
        best_estimate = 0.0
        for node in self._nodes.values():
            if node.retired or node is thief or node.version < 3:
                continue
            backlog = sum(
                1 for rid in node.assigned
                if rid in self._pending and rid not in self._stolen_once
            )
            if backlog < 2:
                continue
            estimate = self.latency.estimate(node.name, backlog)
            if best is None or estimate > best_estimate:
                best, best_estimate = node, estimate
        return best

    def _flush_digests_locked(self, node: _NodeConnection) -> None:
        """Piggyback newly recorded dedup digests onto this credit."""
        if self.fleet_cache is None or node.version < 3 or node.retired:
            return
        cursor, batch = self.fleet_cache.digests_since(node.digest_cursor)
        node.digest_cursor = cursor
        for start in range(0, len(batch), 512):
            node.enqueue({
                "type": "digests",
                "digests": batch[start:start + 512],
            })

    def _maybe_finish_drain_locked(self, node: _NodeConnection) -> None:
        """Deregister a draining node whose backlog has emptied."""
        if not node.draining or node.drained or node.retired:
            return
        if node.assigned:
            return
        node.drained = True
        node.enqueue({"type": "shutdown", "reason": "drained"})
        self.graceful_leaves += 1
        self.health.graceful_exits += 1

    def _retire_locked(self, node: _NodeConnection) -> None:
        """Drop a connection; requeue its in-flight work (idempotent)."""
        if node.retired:
            return
        node.retired = True
        if self._nodes.get(node.name) is node:
            del self._nodes[node.name]
            self.latency.forget(node.name)
        stranded = [
            r for rid, r in node.assigned.items() if rid in self._pending
        ]
        node.assigned.clear()
        # Stolen-away ids belong to their thief now; losing the victim
        # must not requeue them (that would be the double-dispatch the
        # first-report-wins rule exists to prevent).
        node.stolen_away.clear()
        if stranded:
            # Requeue at the front: stranded work is the round's
            # critical path.
            self._unassigned.extendleft(reversed(stranded))
            self.requeued += len(stranded)
            self.health.record_retry("error", len(stranded))

    def _expire_stale_nodes_locked(self) -> None:
        """Declare silent nodes dead (heartbeat liveness enforcement)."""
        now = self._clock()
        for node in list(self._nodes.values()):
            if node.retired:
                continue
            last = self.monitor.last_beat(node.name)
            if last is not None and \
                    now - last >= self.monitor.liveness_timeout:
                # Closing the socket wakes the node's reader thread,
                # which performs the actual retire + requeue.
                self.health.worker_deaths += 1
                _close_socket(node.sock)
                node.outbox.put(_CLOSE)
                self._retire_locked(node)


class _Round:
    """One run_batch invocation's bookkeeping."""

    __slots__ = ("ids", "abandoned")

    def __init__(self, ids: set[int]) -> None:
        self.ids = ids
        self.abandoned = False


def _close_socket(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:  # pragma: no cover - close is best-effort
        pass


class ExplorerNode:
    """Node-side client: executes pulled work against a local target.

    Connects to a :class:`SocketFabric` manager, registers with its
    declared ``capacity`` and wire-version range, then loops: announce
    free slots (``ready``), execute the pulled chunk on a warm local
    :class:`~repro.cluster.manager.NodeManager`, and report results —
    one coalesced binary ``report_batch`` frame per chunk on the
    negotiated v2 data plane, or one JSON ``report`` frame per test
    plus a trailing ``ready`` when the manager only speaks v1.  A
    background thread emits ``heartbeat`` frames every
    ``heartbeat_interval`` seconds so a node grinding through a slow
    chunk is still visibly alive.

    A dropped connection (manager crash, network fault) sends the node
    into a reconnect loop with exponential backoff under
    ``reconnect_policy``; re-registration is idempotent manager-side.
    A ``shutdown`` frame ends :meth:`run` gracefully.  The attempt
    counter resets after every successful registration, so a bounded
    policy limits *consecutive* failures, not lifetime reconnects.

    Elastic-fleet behaviour on a v3 connection: the node honors
    ``steal`` frames by *skipping* revoked requests (polled between
    tests, so a steal lands mid-chunk), accumulates the fleet's dedup
    digests from ``digests`` broadcasts, and leaves gracefully via
    :meth:`request_drain` — or automatically after ``drain_after``
    executed tests — by sending a ``drain`` frame and waiting for the
    manager's ``shutdown``.  ``cache`` attaches a node-local
    :class:`~repro.core.cache.ResultCache` so re-executions (manager
    restart, requeue races) replay for free.
    """

    def __init__(
        self,
        connect: str | tuple[str, int],
        target_factory: TargetFactory,
        *,
        name: str | None = None,
        capacity: int = 4,
        step_budget: int = DEFAULT_STEP_BUDGET,
        reconnect_policy: RetryPolicy | None = None,
        heartbeat_interval: float = 1.0,
        connect_timeout: float = 5.0,
        wire_version: int = PROTOCOL_VERSION,
        cache: ResultCache | None = None,
        drain_after: int | None = None,
        sleep: Callable[[float], None] = time.sleep,
        injector_factory: Callable[[], object] | None = None,
    ) -> None:
        if capacity < 1 or capacity > _MAX_CAPACITY:
            raise ClusterError(
                f"node capacity must be 1..{_MAX_CAPACITY}, got {capacity}"
            )
        if not MIN_PROTOCOL_VERSION <= wire_version <= PROTOCOL_VERSION:
            raise ClusterError(
                f"wire version must be {MIN_PROTOCOL_VERSION}.."
                f"{PROTOCOL_VERSION}, got {wire_version}"
            )
        if heartbeat_interval <= 0:
            raise ClusterError(
                f"heartbeat interval must be positive, got {heartbeat_interval}"
            )
        self.endpoint = (
            parse_endpoint(connect) if isinstance(connect, str)
            else (str(connect[0]), int(connect[1]))
        )
        self.target_factory = target_factory
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.capacity = capacity
        self.step_budget = step_budget
        self.reconnect_policy = reconnect_policy or RetryPolicy(
            max_attempts=30, base_delay=0.05, max_delay=2.0
        )
        self.heartbeat_interval = heartbeat_interval
        self.connect_timeout = connect_timeout
        #: the highest protocol version this node offers; pin to 1 to
        #: emulate a legacy JSON node against a v2 manager.
        self.wire_version = wire_version
        #: the version actually agreed with the current manager.
        self._negotiated = MIN_PROTOCOL_VERSION
        if drain_after is not None and drain_after < 1:
            raise ClusterError(
                f"drain_after must be >= 1 tests, got {drain_after}"
            )
        self.cache = cache
        self.drain_after = drain_after
        #: optional zero-argument injector factory (e.g. a fault-model
        #: stack); None keeps the node manager's default libfi injector.
        self.injector_factory = injector_factory
        self._sleep = sleep
        self._rng = random.Random(0)
        self._stop = threading.Event()
        self._drain = threading.Event()
        self._drain_sent = False
        self._sock: socket.socket | None = None
        self._sock_lock = threading.Lock()
        self._manager: NodeManager | None = None
        #: ids revoked by ``steal`` frames — skipped, not executed.
        self._revoked: set[int] = set()
        #: fleet-wide dedup digests learned from ``digests`` broadcasts.
        self.known_digests: set[str] = set()
        #: lifetime counters, surfaced by the CLI banner.
        self.executed = 0
        self.connections = 0
        #: revoked requests this node skipped (work saved by a steal).
        self.stolen_skipped = 0
        #: executed requests whose digest the fleet had already seen.
        self.dedup_known = 0

    # -- lifecycle -------------------------------------------------------------

    def run(self) -> None:
        """Serve until the manager drains us (or the retry budget dies).

        Raises :class:`~repro.errors.ClusterError` when
        ``reconnect_policy.max_attempts`` *consecutive* connection
        attempts fail; returns normally after a ``shutdown`` frame or
        :meth:`stop`.
        """
        attempt = 0
        while not self._stop.is_set():
            try:
                sock = socket.create_connection(
                    self.endpoint, timeout=self.connect_timeout
                )
            except OSError as exc:
                attempt += 1
                if attempt >= self.reconnect_policy.max_attempts:
                    raise ClusterError(
                        f"node {self.name!r}: manager at "
                        f"{self.endpoint[0]}:{self.endpoint[1]} unreachable "
                        f"after {attempt} attempts: {exc!r}"
                    ) from exc
                self._sleep(
                    self.reconnect_policy.delay_for(attempt, self._rng)
                )
                continue
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP test sockets
                pass
            with self._sock_lock:
                self._sock = sock
            try:
                registered, finished = self._serve(sock)
            except (OSError, WireError):
                registered, finished = False, False
            finally:
                with self._sock_lock:
                    self._sock = None
                _close_socket(sock)
            if finished or self._stop.is_set():
                return
            if registered:
                attempt = 0  # consecutive-failure budget, not lifetime
            attempt += 1
            if attempt >= self.reconnect_policy.max_attempts:
                raise ClusterError(
                    f"node {self.name!r}: {attempt} consecutive failed "
                    "sessions; giving up"
                )
            self._sleep(self.reconnect_policy.delay_for(attempt, self._rng))

    def run_in_thread(self) -> threading.Thread:
        """Serve from a daemon thread (in-process tests, embedding)."""
        thread = threading.Thread(
            target=self._run_quietly, name=f"explorer-node-{self.name}",
            daemon=True,
        )
        thread.start()
        return thread

    def _run_quietly(self) -> None:
        try:
            self.run()
        except ClusterError:
            pass  # retry budget exhausted; thread just ends

    def stop(self) -> None:
        """Abort the serve/reconnect loop from another thread."""
        self._stop.set()
        with self._sock_lock:
            if self._sock is not None:
                _close_socket(self._sock)

    def request_drain(self) -> None:
        """Leave the fleet gracefully: finish the backlog, then exit.

        Sends a ``drain`` frame (on the next serve-loop or heartbeat
        tick) telling the manager to stop feeding this node and to
        deregister it once its in-flight work is absorbed; the manager
        answers with a ``shutdown`` frame and :meth:`run` returns.
        Unlike :meth:`stop`, nothing is abandoned and nothing gets
        requeued — the distinction between *leaving* and *dying*.
        Requires a v3 manager; on an older negotiated connection the
        request stays pending until the node next talks to one.
        """
        self._drain.set()

    # -- one connected session -------------------------------------------------

    def _serve(self, sock: socket.socket) -> tuple[bool, bool]:
        """One session; returns (registered, finished-for-good)."""
        # Revocations are scoped to the manager session that issued
        # them: a connection that died mid-chunk skipped the usual
        # end-of-chunk reset, and honoring its leftovers against a
        # restarted manager (which reuses request ids) would silently
        # swallow fresh work.
        self._revoked.clear()
        write_lock = threading.Lock()

        def _send(message: dict) -> None:
            with write_lock:
                send_frame(sock, message)

        def _send_raw(data: bytes) -> None:
            with write_lock:
                sock.sendall(data)

        sock.settimeout(self.connect_timeout)
        _send({
            "type": "hello",
            "version": self.wire_version,
            "min_version": MIN_PROTOCOL_VERSION,
            "node": self.name,
            "capacity": self.capacity,
        })
        welcome = recv_frame(sock)
        if welcome is None:
            return False, False
        if welcome.get("type") == "error":
            reason = str(welcome.get("reason"))
            if self.wire_version > MIN_PROTOCOL_VERSION \
                    and "version" in reason:
                # A pre-negotiation manager refuses anything above its
                # own version outright: drop to the floor and reconnect
                # speaking v1 instead of giving up.
                self.wire_version = MIN_PROTOCOL_VERSION
                return False, False
            raise ClusterError(
                f"node {self.name!r} refused by manager: "
                f"{welcome.get('reason')}"
            )
        agreed = welcome.get("version")
        if welcome.get("type") != "welcome" or not isinstance(agreed, int) \
                or not MIN_PROTOCOL_VERSION <= agreed <= self.wire_version:
            raise ClusterError(
                f"node {self.name!r}: bad welcome frame {welcome!r}"
            )
        self._negotiated = agreed
        self.connections += 1
        self._drain_sent = False
        sock.settimeout(None)
        hb_stop = threading.Event()
        hb_thread = threading.Thread(
            target=self._heartbeat_loop, args=(_send, hb_stop),
            name=f"{self.name}-heartbeat", daemon=True,
        )
        hb_thread.start()
        #: frames drained off the socket mid-chunk (while polling for
        #: steal revocations) that the main loop must still handle.
        inbox: deque[dict] = deque()
        try:
            _send({"type": "ready", "slots": self.capacity})
            self._maybe_send_drain(_send)
            while True:
                message = inbox.popleft() if inbox else recv_frame(sock)
                if message is None:
                    return True, False  # manager dropped: reconnect
                kind = message.get("type")
                if kind == "work":
                    self._execute_chunk(message, _send, _send_raw,
                                        sock, inbox)
                    if self._stop.is_set():
                        return True, True
                    if self._negotiated < 2:
                        # v2 piggybacks the slot credit on the report
                        # batch; only the v1 data plane needs the
                        # separate ready frame.
                        _send({"type": "ready", "slots": self.capacity})
                    self._maybe_send_drain(_send)
                elif kind == "steal":
                    # Between chunks a revocation is usually stale (the
                    # chunk already reported), but a queued work frame
                    # may still be behind it in the socket buffer.
                    self._absorb_steal(message)
                elif kind == "digests":
                    self._absorb_digests(message)
                elif kind == "shutdown":
                    try:
                        _send({"type": "bye"})
                    except OSError:  # pragma: no cover - manager gone
                        pass
                    return True, True
                elif kind == "idle":
                    self._maybe_send_drain(_send)
                else:
                    continue  # forward compatibility
        finally:
            hb_stop.set()
            hb_thread.join(timeout=1.0)

    def _maybe_send_drain(self, send: Callable[[dict], None]) -> None:
        """Emit the graceful-leave frame once per drained session."""
        if not self._drain.is_set() or self._drain_sent:
            return
        if self._negotiated < 3:
            return  # an older manager has no drain path; stay pending
        self._drain_sent = True
        send({"type": "drain", "node": self.name})

    def _absorb_steal(self, message: dict) -> None:
        ids = message.get("ids")
        if isinstance(ids, list):
            self._revoked.update(
                i for i in ids
                if isinstance(i, int) and not isinstance(i, bool)
            )

    def _absorb_digests(self, message: dict) -> None:
        digests = message.get("digests")
        if isinstance(digests, list):
            self.known_digests.update(
                d for d in digests if isinstance(d, str)
            )

    def _poll_control(self, sock: socket.socket, inbox: deque) -> None:
        """Drain control frames already buffered on the socket.

        Called between tests inside a chunk so a ``steal`` revocation
        can still save the remaining stolen executions; any other frame
        is stashed for the main serve loop.  Zero-timeout select: this
        never blocks the executor.
        """
        if self._negotiated < 3:
            return
        while True:
            try:
                readable, _, _ = select.select([sock], [], [], 0)
            except (OSError, ValueError):  # pragma: no cover - closing
                return
            if not readable:
                return
            message = recv_frame(sock)
            if message is None:
                raise OSError("manager closed mid-chunk")
            kind = message.get("type")
            if kind == "steal":
                self._absorb_steal(message)
            elif kind == "digests":
                self._absorb_digests(message)
            else:
                inbox.append(message)

    def _execute_chunk(
        self,
        message: dict,
        send: Callable[[dict], None],
        send_raw: Callable[[bytes], None],
        sock: socket.socket | None = None,
        inbox: deque | None = None,
    ) -> None:
        """Run every request in a work frame and report the results.

        Over the v1 data plane each report streams back as its own JSON
        frame; over v2 the whole chunk's reports coalesce into a single
        binary ``report_batch`` frame that also carries the node's
        refreshed slot count.  On a v3 connection the socket is polled
        between tests so a ``steal`` revocation arriving mid-chunk
        skips the remaining stolen executions instead of duplicating
        them on the thief.
        """
        payloads = message.get("requests")
        if not isinstance(payloads, list):
            raise WireError(f"work frame without request list: {message!r}")
        manager = self._node_manager()
        if self._negotiated >= 2:
            reports: list[TestReport] = []
            for payload in payloads:
                request = (
                    payload if isinstance(payload, TestRequest)
                    else request_from_wire(payload)
                )
                if sock is not None and inbox is not None:
                    self._poll_control(sock, inbox)
                if request.request_id in self._revoked:
                    self._revoked.discard(request.request_id)
                    self.stolen_skipped += 1
                    continue
                if self.known_digests and scenario_digest(
                    request.subspace, request.scenario
                ) in self.known_digests:
                    self.dedup_known += 1
                reports.append(manager.execute(request))
                self.executed += 1
                if self.drain_after is not None \
                        and self.executed >= self.drain_after:
                    self._drain.set()
                if self._stop.is_set():
                    break
            self._revoked.clear()  # nothing outstanding past this chunk
            send_raw(encode_report_frame(reports, slots=self.capacity))
            return
        for payload in payloads:
            request = (
                payload if isinstance(payload, TestRequest)
                else request_from_wire(payload)
            )
            report = manager.execute(request)
            self.executed += 1
            if self.drain_after is not None \
                    and self.executed >= self.drain_after:
                self._drain.set()
            send({"type": "report", "report": report_to_wire(report)})
            if self._stop.is_set():
                return

    def _heartbeat_loop(
        self, send: Callable[[dict], None], stop: threading.Event
    ) -> None:
        while not stop.wait(self.heartbeat_interval):
            manager = self._manager
            try:
                # The serve loop usually sends the drain frame itself;
                # this covers request_drain() from another thread while
                # the node sits idle in recv_frame.
                self._maybe_send_drain(send)
                send({
                    "type": "heartbeat",
                    "node": self.name,
                    "executed": 0 if manager is None else manager.executed,
                    "busy_seconds":
                        0.0 if manager is None else manager.busy_seconds,
                    # Node-local monotonic time: NOT comparable to the
                    # manager's clock; carried for debugging only.  The
                    # manager stamps liveness with its own clock on
                    # receipt.
                    "sent_at": time.monotonic(),
                })
            except OSError:
                return

    def _node_manager(self) -> NodeManager:
        """The warm local executor (built on first work, then reused)."""
        if self._manager is None:
            self._manager = NodeManager(
                self.name, self.target_factory(),
                injector=(self.injector_factory()
                          if self.injector_factory is not None else None),
                step_budget=self.step_budget,
                cache=self.cache,
            )
        return self._manager

    def describe(self) -> str:
        return (
            f"explorer node {self.name!r} -> "
            f"{self.endpoint[0]}:{self.endpoint[1]}, "
            f"capacity {self.capacity}, {self.executed} tests executed"
        )
