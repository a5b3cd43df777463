"""Tests for the networked multi-node fabric (cluster/socket_fabric.py)
and its wire protocol (cluster/wire.py).

Everything runs on localhost with real sockets: the manager binds an
ephemeral port, :class:`~repro.cluster.socket_fabric.ExplorerNode`
instances serve from daemon threads (the protocol is identical to the
multi-process deployment; only the transport endpoints live in one
process here).
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.cluster import (
    ExplorerNode,
    FabricExecutor,
    FaultTolerantFabric,
    LocalCluster,
    NodeManager,
    PROTOCOL_VERSION,
    RetryPolicy,
    SensitivityPartitioner,
    SocketFabric,
    WireError,
)
from repro.cluster.messages import TestReport as ClusterTestReport
from repro.cluster.messages import TestRequest as ClusterTestRequest
from repro.cluster.wire import (
    BINARY_MAGIC,
    encode_frame,
    encode_report_frame,
    recv_frame,
    report_from_wire,
    report_to_wire,
    request_from_wire,
    request_to_wire,
    send_frame,
)
from repro.core.checkpoint import history_digest
from repro.core.faultspace import FaultSpace
from repro.core.impact import standard_impact
from repro.core.search import strategy_by_name
from repro.core.session import ExplorationSession
from repro.core.targets import IterationBudget
from repro.errors import ClusterError
from repro.sim.targets.minidb import MiniDbTarget

from tests.netutil import free_port


def make_request(i: int, **scenario) -> ClusterTestRequest:
    scenario = scenario or {"test": 1 + (i % 3), "function": "read", "call": 0}
    return ClusterTestRequest(request_id=i, subspace="net", scenario=scenario)


def make_report(i: int, **overrides) -> ClusterTestReport:
    defaults = dict(
        request_id=i, manager="m", failed=True, crash_kind="segfault",
        exit_code=139, coverage=frozenset({"a", "b"}),
        injection_stack=("main", "read"), injected=True, steps=10,
        measurements={"steps": 10.0}, cost=0.01,
        invariant_violations=("inv",), spans=(),
        stack_digest="digest",
    )
    defaults.update(overrides)
    return ClusterTestReport(**defaults)


@pytest.fixture
def fleet(minidb):
    """A live manager plus two registered in-thread explorer nodes."""
    net = SocketFabric("127.0.0.1:0", expected_nodes=2, ready_timeout=5.0)
    nodes = [
        ExplorerNode(
            (net.host, net.port), MiniDbTarget, name=f"n{i}", capacity=2,
            heartbeat_interval=0.1,
            reconnect_policy=RetryPolicy(
                max_attempts=100, base_delay=0.02, max_delay=0.2
            ),
        )
        for i in range(2)
    ]
    threads = [n.run_in_thread() for n in nodes]
    net.wait_for_nodes(timeout=15)
    yield net, nodes
    net.close()
    for node in nodes:
        node.stop()
    for thread in threads:
        thread.join(timeout=10)


class TestWireCodec:
    def test_request_roundtrip(self):
        request = ClusterTestRequest(
            request_id=7, subspace="s",
            scenario={"test": 3, "function": "read", "call": 1},
            trace_id="t", parent_span="p",
        )
        assert request_from_wire(request_to_wire(request)) == request

    def test_request_roundtrip_preserves_tuple_values(self):
        request = ClusterTestRequest(
            request_id=1, subspace="s",
            scenario={"path": ("a", "b"), "call": 0},
        )
        back = request_from_wire(request_to_wire(request))
        assert back.scenario["path"] == ("a", "b")

    def test_report_roundtrip(self):
        report = make_report(9)
        back = report_from_wire(report_to_wire(report))
        assert back == report
        assert isinstance(back.coverage, frozenset)
        assert isinstance(back.injection_stack, tuple)
        assert isinstance(back.invariant_violations, tuple)

    def test_report_roundtrip_none_fields(self):
        report = make_report(
            3, crash_kind=None, injection_stack=None, injected=False,
            stack_digest=None, invariant_violations=(),
        )
        assert report_from_wire(report_to_wire(report)) == report

    def test_frame_roundtrip_over_a_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "hello", "n": 1})
            assert recv_frame(b) == {"type": "hello", "n": 1}
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none_not_an_error(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_truncated_frame_is_a_wire_error(self):
        a, b = socket.socketpair()
        try:
            frame = encode_frame({"type": "hello"})
            a.sendall(frame[: len(frame) - 2])
            a.close()
            with pytest.raises(WireError):
                recv_frame(b)
        finally:
            b.close()

    def test_garbage_payload_is_a_wire_error(self):
        a, b = socket.socketpair()
        try:
            payload = b"\xff\xfenot json"
            a.sendall(struct.pack(">I", len(payload)) + payload)
            a.close()
            with pytest.raises(WireError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_length_prefix_is_rejected_before_reading(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 1 << 31))
            with pytest.raises(WireError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_payload_is_a_wire_error(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "x"})
            payload = b"[1,2,3]"
            a.sendall(struct.pack(">I", len(payload)) + payload)
            assert recv_frame(b) == {"type": "x"}
            with pytest.raises(WireError):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestDispatch:
    def test_batch_completes_and_preserves_request_order(self, fleet, minidb):
        net, _nodes = fleet
        requests = [make_request(i) for i in range(10)]
        reports = net.run_batch(requests)
        assert [r.request_id for r in reports] == list(range(10))
        assert all(isinstance(r, ClusterTestReport) for r in reports)
        assert net.health.completed == 10

    def test_reports_match_a_local_node_manager(self, fleet, minidb):
        net, _nodes = fleet
        request = make_request(1, test=2, function="malloc", call=1)
        over_wire = net.run_batch([request])[0]
        local = NodeManager("ref", minidb).execute(request)
        # manager/cost/spans are placement-dependent; the execution
        # outcome is not.
        assert over_wire.failed == local.failed
        assert over_wire.crash_kind == local.crash_kind
        assert over_wire.coverage == local.coverage
        assert over_wire.steps == local.steps
        assert over_wire.stack_digest == local.stack_digest

    def test_len_is_total_fleet_capacity(self, fleet):
        net, _nodes = fleet
        assert len(net) == 4  # two nodes, capacity 2 each

    def test_empty_batch_is_a_noop(self, fleet):
        net, _nodes = fleet
        assert net.run_batch([]) == []

    def test_run_batch_after_close_raises(self, minidb):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        net.close()
        with pytest.raises(ClusterError):
            net.run_batch([make_request(0)])

    def test_close_stops_the_accept_thread_at_once(self):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        net.close()
        # Not waited out by the close's join timeout: the listening
        # socket's shutdown wakes the blocked accept() immediately.
        assert not net._accept_thread.is_alive()

    def test_wait_for_nodes_times_out_without_nodes(self):
        with SocketFabric("127.0.0.1:0", expected_nodes=1) as net:
            with pytest.raises(ClusterError):
                net.wait_for_nodes(timeout=0.2)

    def test_no_live_nodes_fails_the_round_after_ready_timeout(self):
        net = SocketFabric(
            "127.0.0.1:0", expected_nodes=1, ready_timeout=0.3
        )
        try:
            with pytest.raises(ClusterError):
                net.run_batch([make_request(0)])
        finally:
            net.close()


class TestDigestParity:
    def test_socket_campaign_matches_in_process_fabric(self, fleet, minidb):
        net, _nodes = fleet
        space = FaultSpace.product(
            test=range(1, len(minidb.suite) + 1),
            function=minidb.libc_functions(),
            call=range(0, 3),
        )

        def explore(cluster):
            return ExplorationSession(
                FabricExecutor(cluster), space, standard_impact(),
                strategy_by_name("fitness"), IterationBudget(40),
                rng=11, batch_size=4,
            ).run()

        managers = [NodeManager(f"ref{i}", minidb) for i in range(2)]
        reference = explore(
            FaultTolerantFabric(LocalCluster(managers), policy=RetryPolicy())
        )
        over_wire = explore(
            FaultTolerantFabric(net, policy=RetryPolicy())
        )
        assert history_digest(list(over_wire)) == \
            history_digest(list(reference))


class TestNodeFailure:
    def test_node_killed_mid_batch_requeues_no_lost_no_duplicated(
        self, fleet
    ):
        net, nodes = fleet

        # Slow the victim down so the kill deterministically lands while
        # its chunk is still in flight (the batched v2 data plane would
        # otherwise finish the whole round before a timer fires).
        class SlowManager(NodeManager):
            def execute(self, request):
                time.sleep(0.05)
                return super().execute(request)

        nodes[0]._manager = SlowManager(nodes[0].name, MiniDbTarget())
        killer = threading.Timer(0.05, nodes[0].stop)
        killer.start()
        try:
            reports = net.run_batch([make_request(i) for i in range(16)])
        finally:
            killer.cancel()
        ids = [r.request_id for r in reports]
        assert ids == list(range(16))          # nothing lost, in order
        assert len(set(ids)) == 16             # nothing duplicated
        assert net.requeued >= 1               # the dead node's chunk moved

    def test_silent_node_is_expired_by_heartbeat_liveness(self, minidb):
        # A raw socket that completes the handshake then goes silent
        # must be declared dead and its work requeued — without a real
        # node the round can't finish, so we assert on the expiry
        # bookkeeping instead.
        net = SocketFabric(
            "127.0.0.1:0", expected_nodes=1,
            ready_timeout=1.0, heartbeat_timeout=0.3,
        )
        sock = socket.create_connection((net.host, net.port), timeout=5)
        try:
            send_frame(sock, {
                "type": "hello", "version": PROTOCOL_VERSION,
                "node": "mute", "capacity": 1,
            })
            assert recv_frame(sock)["type"] == "welcome"
            send_frame(sock, {"type": "ready", "slots": 1})

            def pull_then_mute():
                # Accept the work frame, then never answer again.
                while True:
                    frame = recv_frame(sock)
                    if frame is None or frame["type"] == "work":
                        return

            threading.Thread(target=pull_then_mute, daemon=True).start()
            with pytest.raises(ClusterError):
                net.run_batch([make_request(0)])
            assert net.health.worker_deaths == 1
            assert net.requeued == 1
        finally:
            sock.close()
            net.close()

    def test_manager_restart_on_same_port_gets_its_fleet_back(self):
        net1 = SocketFabric("127.0.0.1:0", expected_nodes=1)
        port = net1.port
        node = ExplorerNode(
            ("127.0.0.1", port), MiniDbTarget, name="survivor", capacity=2,
            heartbeat_interval=0.1,
            reconnect_policy=RetryPolicy(
                max_attempts=200, base_delay=0.02, max_delay=0.2
            ),
        )
        thread = node.run_in_thread()
        try:
            net1.wait_for_nodes(timeout=15)
            first = net1.run_batch([make_request(i) for i in range(4)])
            assert len(first) == 4
            net1.close(drain=False)  # crash: no shutdown frame

            net2 = SocketFabric(f"127.0.0.1:{port}", expected_nodes=1)
            try:
                net2.wait_for_nodes(timeout=15)
                second = net2.run_batch(
                    [make_request(100 + i) for i in range(4)]
                )
                assert [r.request_id for r in second] == [100, 101, 102, 103]
                assert node.connections == 2
            finally:
                net2.close()
        finally:
            net1.close()
            node.stop()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_reregistration_under_same_name_replaces_the_stale_node(
        self, minidb
    ):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        try:
            def register(tag):
                sock = socket.create_connection(
                    (net.host, net.port), timeout=5
                )
                send_frame(sock, {
                    "type": "hello", "version": PROTOCOL_VERSION,
                    "node": "twin", "capacity": 1,
                })
                assert recv_frame(sock)["type"] == "welcome"
                return sock

            first = register("a")
            net.wait_for_nodes(timeout=5)
            second = register("b")  # same name: must retire the first
            deadline = time.monotonic() + 5
            while net.registrations < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert net.registrations == 2
            assert net.wait_for_nodes(timeout=5) == 1  # still one node
            first.close()
            second.close()
        finally:
            net.close()

    def test_node_gives_up_after_consecutive_connect_failures(self):
        # Point a node at a port nothing listens on: bounded retries,
        # then ClusterError.
        port = free_port()
        node = ExplorerNode(
            ("127.0.0.1", port), MiniDbTarget, name="lost",
            reconnect_policy=RetryPolicy(
                max_attempts=3, base_delay=0.01, max_delay=0.02
            ),
            sleep=lambda _s: None,
        )
        with pytest.raises(ClusterError):
            node.run()


class TestHostileFrames:
    """Garbage on the wire must never crash the manager (satellite 4)."""

    def _connect(self, net):
        return socket.create_connection((net.host, net.port), timeout=5)

    def test_garbage_bytes_on_a_fresh_connection(self, fleet):
        net, _nodes = fleet
        sock = self._connect(net)
        sock.sendall(b"\x00\x00\x00\x05junk!")
        sock.close()
        # The fleet still serves work afterwards.
        reports = net.run_batch([make_request(i) for i in range(4)])
        assert len(reports) == 4

    def test_oversized_length_prefix_on_a_fresh_connection(self, fleet):
        net, _nodes = fleet
        sock = self._connect(net)
        sock.sendall(struct.pack(">I", 1 << 31))
        sock.close()
        assert len(net.run_batch([make_request(0)])) == 1

    def test_truncated_hello_then_eof(self, fleet):
        net, _nodes = fleet
        sock = self._connect(net)
        frame = encode_frame({"type": "hello"})
        sock.sendall(frame[:-3])
        sock.close()
        assert len(net.run_batch([make_request(0)])) == 1

    def test_wrong_protocol_version_is_refused_with_an_error_frame(
        self, fleet
    ):
        net, _nodes = fleet
        sock = self._connect(net)
        try:
            send_frame(sock, {
                "type": "hello", "version": PROTOCOL_VERSION + 1,
                "node": "future", "capacity": 1,
            })
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert "version" in reply["reason"]
        finally:
            sock.close()

    def test_absurd_capacity_is_refused(self, fleet):
        net, _nodes = fleet
        sock = self._connect(net)
        try:
            send_frame(sock, {
                "type": "hello", "version": PROTOCOL_VERSION,
                "node": "greedy", "capacity": 1_000_000,
            })
            assert recv_frame(sock)["type"] == "error"
        finally:
            sock.close()

    def test_registered_node_sending_garbage_is_dropped_and_requeued(
        self, minidb
    ):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1,
                           ready_timeout=1.0)
        sock = socket.create_connection((net.host, net.port), timeout=5)
        try:
            send_frame(sock, {
                "type": "hello", "version": PROTOCOL_VERSION,
                "node": "rogue", "capacity": 1,
            })
            assert recv_frame(sock)["type"] == "welcome"
            dispatcher = threading.Thread(
                target=lambda: pytest.raises(
                    ClusterError, net.run_batch, [make_request(0)]
                ),
                daemon=True,
            )
            dispatcher.start()
            sock.settimeout(5)
            send_frame(sock, {"type": "ready", "slots": 1})
            while True:
                frame = recv_frame(sock)
                if frame["type"] == "work":
                    assert len(frame["requests"]) == 1
                    break
                send_frame(sock, {"type": "ready", "slots": 1})
            before = net.health.corrupt_reports
            sock.sendall(b"\x00\x00\x00\x04\xff\xff\xff\xff")
            deadline = time.monotonic() + 5
            while net.requeued < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert net.requeued == 1
            assert net.health.corrupt_reports == before + 1
        finally:
            sock.close()
            net.close()

    def test_fabricated_report_id_is_discarded_as_corrupt(self, minidb):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        sock = socket.create_connection((net.host, net.port), timeout=5)
        try:
            send_frame(sock, {
                "type": "hello", "version": PROTOCOL_VERSION,
                "node": "liar", "capacity": 1,
            })
            assert recv_frame(sock)["type"] == "welcome"
            send_frame(sock, {
                "type": "report",
                "report": report_to_wire(make_report(424242)),
            })
            deadline = time.monotonic() + 5
            while net.health.corrupt_reports < 1 and \
                    time.monotonic() < deadline:
                time.sleep(0.01)
            assert net.health.corrupt_reports == 1
            assert net.late_reports == 0
        finally:
            sock.close()
            net.close()


class TestBackpressure:
    def test_node_never_holds_more_than_its_declared_slots(self, minidb):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        sock = socket.create_connection((net.host, net.port), timeout=5)
        sock.settimeout(5)
        try:
            # This fake node hand-speaks the v1 JSON dialect (separate
            # ready/report frames), so it pins version 1 in its hello.
            send_frame(sock, {
                "type": "hello", "version": 1,
                "node": "narrow", "capacity": 2,
            })
            welcome = recv_frame(sock)
            assert welcome["type"] == "welcome"
            assert welcome["version"] == 1  # manager honours the pin

            outcome: dict = {}

            def dispatch():
                try:
                    outcome["reports"] = net.run_batch(
                        [make_request(i) for i in range(6)]
                    )
                except ClusterError as exc:  # pragma: no cover
                    outcome["error"] = exc

            runner = threading.Thread(target=dispatch, daemon=True)
            runner.start()
            manager = NodeManager("narrow", minidb)
            served = 0
            while served < 6:
                send_frame(sock, {"type": "ready", "slots": 2})
                frame = recv_frame(sock)
                if frame["type"] == "idle":
                    continue
                assert frame["type"] == "work"
                # Backpressure: never more than the declared free slots.
                assert len(frame["requests"]) <= 2
                for payload in frame["requests"]:
                    request = request_from_wire(payload)
                    report = manager.execute(request)
                    send_frame(sock, {
                        "type": "report",
                        "report": report_to_wire(report),
                    })
                    served += 1
            runner.join(timeout=15)
            assert not runner.is_alive()
            assert "error" not in outcome
            assert [r.request_id for r in outcome["reports"]] == \
                list(range(6))
        finally:
            sock.close()
            net.close()


class TestSensitivityPartitioner:
    def test_no_feedback_means_proposal_order(self):
        partitioner = SensitivityPartitioner()
        requests = [make_request(i, test=i, function="read", call=0)
                    for i in range(5)]
        assert partitioner.arrange(requests) == requests

    def test_partitions_along_the_sensitive_axis(self):
        partitioner = SensitivityPartitioner(window=10)
        # 'function' discriminates outcomes; 'test' does not: crashes
        # happen iff function == "malloc", across every test value.
        for i in range(12):
            function = "malloc" if i % 2 else "read"
            request = make_request(
                i, test=i % 3, function=function, call=0
            )
            report = make_report(
                i,
                crash_kind="segfault" if function == "malloc" else None,
                failed=function == "malloc",
                exit_code=139 if function == "malloc" else 0,
            )
            partitioner.observe(request, report)
        axis = partitioner.partition_axis()
        assert axis == "function"
        mixed = [
            make_request(
                i, test=i % 3,
                function=("malloc", "read")[i % 2], call=0,
            )
            for i in range(8)
        ]
        arranged = partitioner.arrange(mixed)
        functions = [r.scenario["function"] for r in arranged]
        # Contiguous partitions: all malloc together, all read together.
        assert functions == sorted(functions, key=repr)
        # Placement is a permutation — nothing added or dropped.
        assert sorted(r.request_id for r in arranged) == list(range(8))

    def test_new_axes_rebuild_the_tracker(self):
        partitioner = SensitivityPartitioner()
        partitioner.observe(
            make_request(0, test=1, function="read", call=0), make_report(0)
        )
        partitioner.observe(
            make_request(1, test=1, function="read", call=0, errno=5),
            make_report(1),
        )
        assert partitioner.partition_axis() in (
            "test", "function", "call", "errno"
        )


class TestObservability:
    def test_wire_counters_and_metrics_gauges(self, fleet):
        net, _nodes = fleet
        from repro.obs import MetricsRegistry

        net.run_batch([make_request(i) for i in range(6)])
        assert net.bytes_in > 0 and net.bytes_out > 0
        assert net.frames_in > 0 and net.frames_out > 0
        registry = MetricsRegistry()
        net.bind_metrics(registry)
        net.bind_metrics(registry)  # idempotent: no duplicate collectors
        gauges = registry.snapshot()["gauges"]
        assert gauges["fabric.net.nodes"] == 2
        assert gauges["fabric.net.capacity"] == 4
        assert gauges["fabric.net.frames_in"] > 0
        executed = sum(
            value for name, value in gauges.items()
            if name.startswith("fabric.worker_executed")
        )
        assert executed == 6

    def test_node_stats_account_completed_work(self, fleet):
        net, _nodes = fleet
        net.run_batch([make_request(i) for i in range(8)])
        stats = net.node_stats()
        assert sorted(s["node"] for s in stats) == ["n0", "n1"]
        assert sum(s["executed"] for s in stats) == 8
        # A steal race can leave the losing side still finishing a
        # test the round no longer needs; that in-flight remnant
        # drains as soon as its (discarded) report lands.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            stats = net.node_stats()
            if all(s["in_flight"] == 0 for s in stats):
                break
            time.sleep(0.01)
        assert all(s["in_flight"] == 0 for s in stats)

    def test_describe_mentions_endpoint_and_protocol(self, fleet):
        net, nodes = fleet
        assert f"{net.host}:{net.port}" in net.describe()
        assert f"v{PROTOCOL_VERSION}" in net.describe()
        assert nodes[0].name in nodes[0].describe()

    def test_wire_cost_gauges_are_exported(self, fleet):
        net, _nodes = fleet
        from repro.obs import MetricsRegistry

        net.run_batch([make_request(i) for i in range(6)])
        registry = MetricsRegistry()
        net.bind_metrics(registry)
        gauges = registry.snapshot()["gauges"]
        assert gauges["fabric.dispatch.encode_seconds"] >= 0.0
        per_test = gauges["fabric.net.bytes_per_test"]
        assert 0 < per_test == \
            (net.bytes_in + net.bytes_out) / net.health.completed


class TestVersionNegotiationEndToEnd:
    """The (manager, node) pairings the handshake can see (satellite)."""

    def _campaign(self, fabric, minidb):
        space = FaultSpace.product(
            test=range(1, len(minidb.suite) + 1),
            function=minidb.libc_functions(),
            call=range(0, 3),
        )
        return ExplorationSession(
            FabricExecutor(FaultTolerantFabric(fabric, policy=RetryPolicy())),
            space, standard_impact(), strategy_by_name("fitness"),
            IterationBudget(32), rng=7, batch_size=4,
        ).run()

    def _fleet_digest(self, minidb, wire_version):
        net = SocketFabric("127.0.0.1:0", expected_nodes=2)
        nodes = [
            ExplorerNode(
                (net.host, net.port), MiniDbTarget, name=f"n{i}",
                capacity=2, wire_version=wire_version,
            )
            for i in range(2)
        ]
        threads = [n.run_in_thread() for n in nodes]
        try:
            net.wait_for_nodes(timeout=15)
            reports = self._campaign(net, minidb)
            digest = history_digest(list(reports))
            wire_bytes = net.bytes_in + net.bytes_out
        finally:
            net.close()
            for node in nodes:
                node.stop()
            for thread in threads:
                thread.join(timeout=10)
        return digest, wire_bytes

    def test_v1_pinned_nodes_complete_a_campaign_with_equal_digest(
        self, minidb
    ):
        # A legacy JSON fleet and a v2 binary fleet run the same
        # campaign: identical outcomes, and v2 pays far fewer bytes.
        v2_digest, v2_bytes = self._fleet_digest(minidb, PROTOCOL_VERSION)
        v1_digest, v1_bytes = self._fleet_digest(minidb, 1)
        assert v1_digest == v2_digest
        assert v2_bytes < v1_bytes / 2

    def test_mixed_fleet_one_v1_one_v2_node(self, minidb):
        net = SocketFabric("127.0.0.1:0", expected_nodes=2)
        nodes = [
            ExplorerNode(
                (net.host, net.port), MiniDbTarget, name=f"mix{v}",
                capacity=2, wire_version=v,
            )
            for v in (1, 2)
        ]
        threads = [n.run_in_thread() for n in nodes]
        try:
            net.wait_for_nodes(timeout=15)
            reports = net.run_batch([make_request(i) for i in range(12)])
            assert [r.request_id for r in reports] == list(range(12))
            # Both dialects carried work.
            assert all(n.executed > 0 for n in nodes)
        finally:
            net.close()
            for node in nodes:
                node.stop()
            for thread in threads:
                thread.join(timeout=10)

    def test_future_node_that_speaks_down_gets_v2(self, fleet):
        net, _nodes = fleet
        sock = socket.create_connection((net.host, net.port), timeout=5)
        try:
            send_frame(sock, {
                "type": "hello", "version": PROTOCOL_VERSION + 7,
                "min_version": 1, "node": "poly", "capacity": 1,
            })
            welcome = recv_frame(sock)
            assert welcome["type"] == "welcome"
            assert welcome["version"] == PROTOCOL_VERSION
        finally:
            sock.close()

    def test_node_downgrades_when_an_old_manager_refuses_v2(self, minidb):
        # Simulate a pre-negotiation manager: refuse the first hello
        # with a version-mismatch error, welcome the v1 retry, then
        # shut the node down.  The node must land on wire_version 1.
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(2)
        hellos = []

        def old_manager():
            for _ in range(2):
                conn, _addr = server.accept()
                conn.settimeout(5)
                hello = recv_frame(conn)
                hellos.append(hello)
                if hello.get("version", 0) > 1:
                    send_frame(conn, {
                        "type": "error",
                        "reason": "protocol version mismatch: "
                                  "manager speaks v1",
                    })
                    conn.close()
                    continue
                send_frame(conn, {"type": "welcome", "version": 1})
                send_frame(conn, {"type": "shutdown"})
                recv_frame(conn)  # the node's bye
                conn.close()
                return

        thread = threading.Thread(target=old_manager, daemon=True)
        thread.start()
        node = ExplorerNode(
            server.getsockname(), MiniDbTarget, name="legacyable",
            reconnect_policy=RetryPolicy(
                max_attempts=10, base_delay=0.01, max_delay=0.02
            ),
            sleep=lambda _s: None,
        )
        try:
            node.run()  # returns cleanly after the shutdown frame
            thread.join(timeout=10)
            assert [h.get("version") for h in hellos] == \
                [PROTOCOL_VERSION, 1]
            assert node.wire_version == 1
        finally:
            server.close()


class TestHostileBinaryFramesLiveManager:
    """Binary garbage must poison one peer, never the manager thread."""

    def test_binary_garbage_from_registered_node_requeues(self, minidb):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1,
                           ready_timeout=1.0)
        sock = socket.create_connection((net.host, net.port), timeout=5)
        try:
            send_frame(sock, {
                "type": "hello", "version": PROTOCOL_VERSION,
                "node": "binrogue", "capacity": 1,
            })
            assert recv_frame(sock)["type"] == "welcome"
            dispatcher = threading.Thread(
                target=lambda: pytest.raises(
                    ClusterError, net.run_batch, [make_request(0)]
                ),
                daemon=True,
            )
            dispatcher.start()
            sock.settimeout(5)
            send_frame(sock, {"type": "ready", "slots": 1})
            while True:
                frame = recv_frame(sock)
                if frame["type"] == "work":
                    break
                send_frame(sock, {"type": "ready", "slots": 1})
            # A binary frame that passes the magic check then rots.
            payload = bytes([BINARY_MAGIC, 0x02]) + b"\xff\xff\xff\xff"
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            deadline = time.monotonic() + 5
            while net.requeued < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert net.requeued == 1
        finally:
            sock.close()
            net.close()

    def test_fabricated_binary_report_batch_is_corrupt_not_fatal(
        self, minidb
    ):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        sock = socket.create_connection((net.host, net.port), timeout=5)
        try:
            send_frame(sock, {
                "type": "hello", "version": PROTOCOL_VERSION,
                "node": "binliar", "capacity": 1,
            })
            assert recv_frame(sock)["type"] == "welcome"
            sock.sendall(
                encode_report_frame([make_report(998877)], slots=1)
            )
            deadline = time.monotonic() + 5
            while net.health.corrupt_reports < 1 and \
                    time.monotonic() < deadline:
                time.sleep(0.01)
            assert net.health.corrupt_reports == 1
            assert net.late_reports == 0
        finally:
            sock.close()
            net.close()

    def test_fleet_survives_a_binary_fuzzing_peer(self, fleet):
        net, _nodes = fleet
        rng = __import__("random").Random(1234)
        for _ in range(25):
            sock = socket.create_connection((net.host, net.port), timeout=5)
            blob = bytes([BINARY_MAGIC]) + bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 64))
            )
            sock.sendall(struct.pack(">I", len(blob)) + blob)
            sock.close()
        reports = net.run_batch([make_request(i) for i in range(4)])
        assert len(reports) == 4
