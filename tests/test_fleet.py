"""Tests for the elastic-fleet machinery (protocol v3).

Work-stealing, graceful drain, mid-campaign join/sealing, and the
fleet-shared result cache — all over real localhost sockets, same as
tests/test_socket_fabric.py.  The load-bearing invariants:

* a steal never loses or duplicates a *report* (first-report-wins;
  ``stolen == victim skips + steal_duplicates``);
* a drain is not a death (``graceful_leaves`` up, ``worker_deaths``
  and ``requeued`` untouched);
* fleet dedup never moves the campaign history digest (differential
  test against a single-manager in-process fabric);
* a manager restart with a stolen chunk in flight re-executes nothing
  (shared node cache: ``misses == unique scenarios``).
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.cluster import (
    ExplorerNode,
    FabricExecutor,
    FaultTolerantFabric,
    FleetResultCache,
    LocalCluster,
    NodeLatencyTracker,
    NodeManager,
    RetryPolicy,
    SocketFabric,
    scenario_digest,
)
from repro.cluster.socket_fabric import _NodeConnection
from repro.core.cache import ResultCache
from repro.core.checkpoint import history_digest
from repro.core.faultspace import FaultSpace
from repro.core.impact import standard_impact
from repro.core.search import strategy_by_name
from repro.core.session import ExplorationSession
from repro.core.targets import IterationBudget
from repro.errors import ClusterError
from repro.sim.targets.minidb import MiniDbTarget

from tests.netutil import endpoint, free_port
from tests.test_socket_fabric import make_report, make_request

RETRY = RetryPolicy(max_attempts=200, base_delay=0.02, max_delay=0.2)


def unique_requests(count: int) -> list:
    """``count`` distinct (test, call) scenarios — no accidental dedup."""
    return [
        make_request(i, test=1 + (i % 3), function="read", call=i // 3)
        for i in range(count)
    ]


class SleepyNodeManager(NodeManager):
    """A manager that dawdles before each execution (a slow machine)."""

    def __init__(self, *args, delay: float = 0.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.delay = delay

    def execute(self, request):
        if self.delay:
            time.sleep(self.delay)
        return super().execute(request)


class SleepyNode(ExplorerNode):
    """An explorer node whose executor is artificially slow."""

    def __init__(self, *args, delay: float = 0.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.delay = delay

    def _node_manager(self) -> NodeManager:
        if self._manager is None:
            self._manager = SleepyNodeManager(
                self.name, self.target_factory(),
                step_budget=self.step_budget, cache=self.cache,
                delay=self.delay,
            )
        return self._manager


def run_fleet(net, nodes, fn):
    """Run ``fn()`` with every node serving, then tear the fleet down."""
    threads = [n.run_in_thread() for n in nodes]
    try:
        net.wait_for_nodes(count=len(nodes), timeout=15)
        return fn()
    finally:
        net.close()
        for node in nodes:
            node.stop()
        for thread in threads:
            thread.join(timeout=10)


def settle_steals(net, nodes, timeout: float = 10.0) -> None:
    """Wait until every stolen id has been skipped by its victim or
    reported twice (the loser counted in ``steal_duplicates``).

    ``run_batch`` returns on the first report per id, so a revocation
    race's losing execution may still be in flight; node-side counters
    read before it lands would be ahead of the manager's accounting.
    """
    deadline = time.monotonic() + timeout
    while net.stolen != sum(n.stolen_skipped for n in nodes) \
            + net.steal_duplicates:
        assert time.monotonic() < deadline, (
            f"stolen={net.stolen} skipped="
            f"{[n.stolen_skipped for n in nodes]} "
            f"duplicates={net.steal_duplicates}"
        )
        time.sleep(0.005)


class TestWorkStealing:
    def test_idle_node_steals_backlog_from_the_slow_one(self, minidb):
        net = SocketFabric("127.0.0.1:0", expected_nodes=2)
        fast = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="afast", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )
        slow = SleepyNode(
            (net.host, net.port), MiniDbTarget, name="slow", capacity=6,
            heartbeat_interval=0.1, reconnect_policy=RETRY, delay=0.08,
        )

        def campaign():
            reports = net.run_batch(unique_requests(8))
            assert [r.request_id for r in reports] == list(range(8))
            # Stealing moved work; nothing was requeued (that path is
            # for deaths) and every stolen id is accounted for: the
            # victim either skipped it or raced the revocation and
            # produced a duplicate report.
            assert net.stolen >= 2
            assert net.requeued == 0
            settle_steals(net, [fast, slow])
            assert fast.executed + slow.executed == 8 + net.steal_duplicates
            stats = net.fleet_stats()
            assert stats["stolen"] == net.stolen
            assert stats["steal_duplicates"] == net.steal_duplicates

        run_fleet(net, [fast, slow], campaign)

    def test_latency_tracker_ranks_victims_and_forgets(self):
        tracker = NodeLatencyTracker(smoothing=0.5)
        assert tracker.per_test_seconds("n") is None
        assert tracker.estimate("n", backlog=3) == pytest.approx(3.0)
        tracker.observe("slow", tests=2, seconds=2.0)
        tracker.observe("fast", tests=10, seconds=0.1)
        assert tracker.per_test_seconds("slow") == pytest.approx(1.0)
        assert tracker.estimate("slow", 4) > tracker.estimate("fast", 4)
        # Unknown nodes borrow the fleet mean, not a wild guess.
        fleet_mean = tracker.estimate("stranger", 1)
        assert 0.01 < fleet_mean < 1.0
        tracker.forget("slow")
        assert tracker.per_test_seconds("slow") is None
        assert "fast" in tracker.stats()
        with pytest.raises(ClusterError):
            NodeLatencyTracker(smoothing=0.0)
        with pytest.raises(ClusterError):
            NodeLatencyTracker(smoothing=1.5)

    def test_ewma_updates_flow_from_absorbed_reports(self, minidb):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        node = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="n0", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )

        def campaign():
            net.run_batch(unique_requests(4))
            per_test = net.latency.per_test_seconds("n0")
            assert per_test is not None and per_test > 0
            stats = net.node_stats()[0]
            assert stats["per_test_seconds"] == pytest.approx(per_test)

        run_fleet(net, [node], campaign)


class TestStealRaceAccounting:
    """The losing copy of a stolen request is waste: counted once in
    ``steal_duplicates`` whichever node loses, however late it lands."""

    @staticmethod
    def steal(net, rid=5):
        """Fabric state right after ``rid`` moved from victim to thief."""
        victim = _NodeConnection("victim", None, capacity=2)
        thief = _NodeConnection("thief", None, capacity=2)
        request = make_request(rid)
        net._pending[rid] = request
        thief.assigned[rid] = request
        victim.stolen_away.add(rid)
        net._stolen_once.add(rid)
        return victim, thief

    @staticmethod
    def end_round(net, rid=5):
        net._reports.pop(rid)
        net._pending.pop(rid)

    @staticmethod
    def counts(net):
        return (net.steal_duplicates, net.late_reports,
                net.health.corrupt_reports)

    def test_victim_losing_after_the_round_is_a_duplicate(self):
        with SocketFabric("127.0.0.1:0") as net:
            victim, thief = self.steal(net)
            net._absorb_one_locked(thief, make_report(5))
            self.end_round(net)
            net._absorb_one_locked(victim, make_report(5))
            assert self.counts(net) == (1, 0, 0)

    def test_thief_losing_after_the_round_is_a_duplicate(self):
        with SocketFabric("127.0.0.1:0") as net:
            victim, thief = self.steal(net)
            net._absorb_one_locked(victim, make_report(5))
            assert net.health.completed == 1
            self.end_round(net)
            net._absorb_one_locked(thief, make_report(5))
            assert self.counts(net) == (1, 0, 0)

    def test_a_pending_loser_survives_rounds_until_its_id_is_reused(self):
        with SocketFabric("127.0.0.1:0", ready_timeout=0.05) as net:
            victim, thief = self.steal(net)
            # A registered but retired node: each round below does its
            # bookkeeping, then fails fast for want of a live node.
            victim.retired = True
            net._nodes[victim.name] = victim
            net._absorb_one_locked(thief, make_report(5))
            self.end_round(net)
            with pytest.raises(ClusterError):
                net.run_batch([make_request(6)])
            assert 5 in victim.stolen_away
            with pytest.raises(ClusterError):
                net.run_batch([make_request(5)])
            assert 5 not in victim.stolen_away
            assert 5 not in net._steal_won


class TestGracefulDrain:
    def test_drain_after_budget_retires_the_node_without_a_death(
        self, minidb
    ):
        net = SocketFabric("127.0.0.1:0", expected_nodes=2)
        leaver = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="leaver", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY, drain_after=2,
        )
        stayer = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="stayer", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )
        threads = {n.name: n.run_in_thread() for n in (leaver, stayer)}
        try:
            net.wait_for_nodes(count=2, timeout=15)
            reports = net.run_batch(unique_requests(8))
            assert [r.request_id for r in reports] == list(range(8))
            threads["leaver"].join(timeout=10)
            assert not threads["leaver"].is_alive()  # run() returned
            assert leaver.executed >= 2
            assert net.graceful_leaves == 1
            assert net.health.graceful_exits == 1
            assert net.health.worker_deaths == 0
            assert net.requeued == 0
        finally:
            net.close()
            for node in (leaver, stayer):
                node.stop()
            for thread in threads.values():
                thread.join(timeout=10)

    def test_request_drain_while_idle_is_honored_via_heartbeat(
        self, minidb
    ):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        node = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="idler", capacity=2,
            heartbeat_interval=0.05, reconnect_policy=RETRY,
        )
        thread = node.run_in_thread()
        try:
            net.wait_for_nodes(timeout=15)
            node.request_drain()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert net.graceful_leaves == 1
            assert net.health.worker_deaths == 0
        finally:
            net.close()
            node.stop()
            thread.join(timeout=10)


class TestDynamicMembership:
    def test_mid_campaign_join_is_counted_and_carries_work(self, minidb):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        # The incumbent is slow, so the joiner visibly carries load.
        first = SleepyNode(
            (net.host, net.port), MiniDbTarget, name="first", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY, delay=0.05,
        )
        joiner = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="joiner", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )
        first_thread = first.run_in_thread()
        joiner_thread = None
        try:
            net.wait_for_nodes(count=1, timeout=15)
            net.run_batch(unique_requests(4))
            assert net.mid_campaign_joins == 0
            joiner_thread = joiner.run_in_thread()
            net.wait_for_nodes(count=2, timeout=15)
            assert net.mid_campaign_joins == 1
            reports = net.run_batch(
                [make_request(100 + i, test=1 + (i % 3), function="read",
                              call=i // 3) for i in range(8)]
            )
            assert len(reports) == 8
            assert joiner.executed > 0
            assert net.fleet_stats()["mid_campaign_joins"] == 1
        finally:
            net.close()
            for node in (first, joiner):
                node.stop()
            first_thread.join(timeout=10)
            if joiner_thread is not None:
                joiner_thread.join(timeout=10)

    def test_sealed_fleet_refuses_new_names_after_dispatch(self, minidb):
        net = SocketFabric(
            "127.0.0.1:0", expected_nodes=1, allow_join=False
        )
        first = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="first", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )
        thread = first.run_in_thread()
        try:
            net.wait_for_nodes(count=1, timeout=15)
            net.run_batch(unique_requests(4))
            latecomer = ExplorerNode(
                (net.host, net.port), MiniDbTarget, name="latecomer",
                capacity=1,
                reconnect_policy=RetryPolicy(
                    max_attempts=2, base_delay=0.01, max_delay=0.02
                ),
                sleep=lambda _s: None,
            )
            with pytest.raises(ClusterError, match="sealed"):
                latecomer.run()
            assert net.mid_campaign_joins == 0
            # A *returning* name is a reconnect, never a join: the seal
            # must not lock a crashed node out of its own campaign.
            twin = ExplorerNode(
                (net.host, net.port), MiniDbTarget, name="first",
                capacity=2, heartbeat_interval=0.1,
                reconnect_policy=RETRY,
            )
            twin_thread = twin.run_in_thread()
            try:
                net.wait_for_nodes(count=1, timeout=15)
                reports = net.run_batch(
                    [make_request(200 + i) for i in range(4)]
                )
                assert len(reports) == 4
                assert net.mid_campaign_joins == 0
            finally:
                twin.stop()
                twin_thread.join(timeout=10)
        finally:
            net.close()
            first.stop()
            thread.join(timeout=10)


class TestFleetDedup:
    def test_duplicate_scenarios_are_answered_from_the_manager_cache(
        self, minidb
    ):
        cache = FleetResultCache()
        net = SocketFabric(
            "127.0.0.1:0", expected_nodes=2, fleet_cache=cache
        )
        nodes = [
            ExplorerNode(
                (net.host, net.port), MiniDbTarget, name=f"n{i}",
                capacity=2, heartbeat_interval=0.1,
                reconnect_policy=RETRY,
            )
            for i in range(2)
        ]

        def campaign():
            # Round 1: ids 0..5 cover only three distinct scenarios,
            # but dedup needs a *completed* result, so all six execute.
            first = net.run_batch([make_request(i) for i in range(6)])
            # A steal may race its revocation and duplicate a single
            # execution; reports are still exactly-once.
            settle_steals(net, nodes)
            executed_before = sum(n.executed for n in nodes)
            assert executed_before == 6 + net.steal_duplicates
            assert net.fleet_dedup_hits == 0
            assert len(cache) == 3
            # Round 2: fresh ids, same scenarios — all served from the
            # fleet cache; the nodes never see them.
            second = net.run_batch(
                [make_request(100 + i) for i in range(6)]
            )
            assert [r.request_id for r in second] == \
                [100 + i for i in range(6)]
            assert net.fleet_dedup_hits == 6
            assert sum(n.executed for n in nodes) == executed_before
            by_scenario = {}
            for req, rep in zip([make_request(i) for i in range(6)], first):
                by_scenario.setdefault(
                    scenario_digest(req.subspace, req.scenario), rep
                )
            for req, rep in zip(
                [make_request(100 + i) for i in range(6)], second
            ):
                assert rep.cost == 0.0 and rep.spans == ()
                original = by_scenario[
                    scenario_digest(req.subspace, req.scenario)
                ]
                # ``manager`` names whichever node's report was cached
                # first — not digest material, like cost and spans.
                assert dataclasses.replace(
                    rep, request_id=0, manager=""
                ) == dataclasses.replace(
                    original, request_id=0, manager="", cost=0.0, spans=()
                )
            stats = net.fleet_stats()
            assert stats["fleet_dedup_hits"] == 6
            assert stats["dedup"]["entries"] == 3
            # Round 3 carries one fresh scenario, so a work frame goes
            # out — and the digest broadcast piggybacks on it.
            third = net.run_batch(
                [make_request(300, test=1, function="write", call=0)]
            )
            assert len(third) == 1
            assert set().union(*(n.known_digests for n in nodes))

        run_fleet(net, nodes, campaign)

    def test_campaign_digest_matches_single_manager_execution(
        self, minidb
    ):
        space = FaultSpace.product(
            test=range(1, len(minidb.suite) + 1),
            function=minidb.libc_functions(),
            call=range(0, 3),
        )

        def campaign(fabric):
            return ExplorationSession(
                FabricExecutor(FaultTolerantFabric(fabric, policy=RetryPolicy())),
                space, standard_impact(), strategy_by_name("fitness"),
                IterationBudget(32), rng=7, batch_size=4,
            ).run()

        reference = history_digest(
            list(campaign(LocalCluster([NodeManager("solo", minidb)])))
        )
        net = SocketFabric(
            "127.0.0.1:0", expected_nodes=2,
            fleet_cache=FleetResultCache(),
        )
        nodes = [
            ExplorerNode(
                (net.host, net.port), MiniDbTarget, name=f"n{i}",
                capacity=2, heartbeat_interval=0.1,
                reconnect_policy=RETRY,
            )
            for i in range(2)
        ]
        fleet_digest = run_fleet(
            net, nodes, lambda: history_digest(list(campaign(net)))
        )
        assert fleet_digest == reference

    def test_fleet_cache_records_synthesizes_and_evicts(self):
        from tests.test_socket_fabric import make_report

        cache = FleetResultCache(capacity=2)
        r0, r1, r2 = (make_request(i, test=i, function="read", call=0)
                      for i in range(3))
        assert cache.synthesize(r0) is None
        digest = cache.record(r0, make_report(0))
        assert digest == scenario_digest(r0.subspace, r0.scenario)
        assert cache.record(r0, make_report(0)) is None  # already known
        twin = make_request(9, test=0, function="read", call=0)
        synthesized = cache.synthesize(twin)
        assert synthesized is not None
        assert synthesized.request_id == 9
        assert synthesized.cost == 0.0 and synthesized.spans == ()
        cache.record(r1, make_report(1))
        cache.record(r2, make_report(2))  # capacity 2: r0 evicted
        assert cache.synthesize(r0) is None
        assert cache.stats()["evictions"] == 1
        cursor, digests = cache.digests_since(0)
        assert cursor == 3 and len(digests) == 3
        assert cache.digests_since(cursor) == (cursor, [])

    def test_scenario_digest_is_order_and_tuple_insensitive(self):
        a = scenario_digest("s", {"call": 0, "path": ("a", "b")})
        b = scenario_digest("s", {"path": ["a", "b"], "call": 0})
        assert a == b
        assert a != scenario_digest("s", {"call": 1, "path": ("a", "b")})
        assert a != scenario_digest("t", {"call": 0, "path": ("a", "b")})


class TestManagerRestartWithStolenChunk:
    def test_stolen_chunk_survives_a_manager_restart_without_rerun(
        self, minidb
    ):
        # The nastiest interleaving: a steal is in flight when the
        # manager dies.  Both nodes share one (thread-safe) result
        # cache, so the combined miss count is the number of *real*
        # executions across the whole saga: misses == unique scenarios
        # is the machine-checkable "nothing ran twice, nothing lost".
        shared = ResultCache()
        port = free_port()
        net1 = SocketFabric(endpoint(port), expected_nodes=2)
        fast = ExplorerNode(
            (net1.host, port), MiniDbTarget, name="afast", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY, cache=shared,
        )
        slow = SleepyNode(
            (net1.host, port), MiniDbTarget, name="slow", capacity=6,
            heartbeat_interval=0.1, reconnect_policy=RETRY, cache=shared,
            delay=0.1,
        )
        requests = unique_requests(8)
        threads = [n.run_in_thread() for n in (fast, slow)]
        outcome: dict[str, object] = {}

        def doomed_round():
            try:
                outcome["reports"] = net1.run_batch(requests)
            except ClusterError as exc:
                outcome["error"] = exc

        try:
            net1.wait_for_nodes(count=2, timeout=15)
            round_thread = threading.Thread(target=doomed_round,
                                            daemon=True)
            round_thread.start()
            deadline = time.monotonic() + 10
            while net1.stolen == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert net1.stolen >= 1  # the steal is now in flight
            net1.close(drain=False)  # manager crash, no shutdown frames
            round_thread.join(timeout=10)
            assert "error" in outcome  # the round died with the manager

            net2 = SocketFabric(endpoint(port), expected_nodes=2)
            try:
                net2.wait_for_nodes(count=2, timeout=15)
                reports = net2.run_batch(requests)
                assert [r.request_id for r in reports] == list(range(8))
                stats = shared.stats()
                # Every scenario executed exactly once fleet-wide: the
                # re-dispatch replayed finished work from the shared
                # cache instead of re-running it, and the stolen ids
                # were executed by exactly one of thief/victim.
                assert stats["misses"] == 8
                assert stats["hits"] >= 1  # the restart replayed work
            finally:
                net2.close()
        finally:
            net1.close()
            for node in (fast, slow):
                node.stop()
            for thread in threads:
                thread.join(timeout=10)


class TestFleetStatsSurface:
    def test_fleet_stats_reach_health_meta_through_the_wrappers(
        self, minidb
    ):
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        node = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="n0", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )

        def campaign():
            space = FaultSpace.product(
                test=range(1, 4), function=minidb.libc_functions(),
                call=range(0, 2),
            )
            executor = FabricExecutor(
                FaultTolerantFabric(net, policy=RetryPolicy())
            )
            ExplorationSession(
                executor, space, standard_impact(),
                strategy_by_name("fitness"), IterationBudget(8), rng=3,
                batch_size=4,
            ).run()
            stats = executor.checkpoint_meta()["fleet"]
            for key in ("stolen", "graceful_leaves", "mid_campaign_joins",
                        "fleet_dedup_hits", "requeued"):
                assert key in stats

        run_fleet(net, [node], campaign)

    def test_elastic_counters_are_exported_as_metrics(self, minidb):
        from repro.obs import MetricsRegistry

        net = SocketFabric(
            "127.0.0.1:0", expected_nodes=1,
            fleet_cache=FleetResultCache(),
        )
        node = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="n0", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )

        def campaign():
            net.run_batch(unique_requests(4))
            registry = MetricsRegistry()
            net.bind_metrics(registry)
            gauges = registry.snapshot()["gauges"]
            for name in (
                "fabric.net.stolen", "fabric.net.steal_duplicates",
                "fabric.net.graceful_leaves",
                "fabric.net.mid_campaign_joins", "fabric.net.dedup_hits",
            ):
                assert name in gauges
            per_node = [
                value for name, value in gauges.items()
                if name.startswith("fabric.node.per_test_seconds")
            ]
            assert per_node and all(v > 0 for v in per_node)

        run_fleet(net, [node], campaign)


class TestZombieAssignments:
    """Regression: a steal race can complete a round while the thief is
    still executing a stolen id.  The id lingers in the thief's
    ``assigned`` dict with nobody waiting for it (a zombie); a later
    round reusing the same id — which the warm-rerun dedup path reaches
    within milliseconds — must neither trust the zombie as in-flight
    coverage (it would wait forever) nor absorb the zombie's late
    report for a different request."""

    def test_new_round_is_not_blocked_by_a_zombie_assignment(self):
        net = SocketFabric(
            "127.0.0.1:0", expected_nodes=2,
            fleet_cache=FleetResultCache(),
        )
        nodes = [
            ExplorerNode(
                (net.host, net.port), MiniDbTarget, name=f"n{i}",
                capacity=4, heartbeat_interval=0.1,
                reconnect_policy=RETRY,
            )
            for i in range(2)
        ]

        def campaign():
            requests = unique_requests(6)
            first = net.run_batch(requests)
            assert len(first) == 6
            # Plant the zombie the race would leave behind: the round
            # above completed, but one node's bookkeeping still holds a
            # request — as if its steal-duplicate report lost and its
            # own execution were still in flight.
            with net._cond:
                conn = next(iter(net._nodes.values()))
                conn.assigned[requests[0].request_id] = requests[0]
            done = threading.Event()
            rerun: list = []

            def second_round():
                rerun.extend(net.run_batch(requests))
                done.set()

            worker = threading.Thread(target=second_round, daemon=True)
            worker.start()
            # Every scenario is in the fleet cache, so the rerun must
            # come back instantly instead of waiting on the zombie.
            assert done.wait(timeout=20), "round hung on a zombie id"
            assert len(rerun) == 6
            assert [r.request_id for r in rerun] == [
                r.request_id for r in requests
            ]

        run_fleet(net, nodes, campaign)

    def test_zombie_report_for_a_reused_id_is_discarded(self, minidb):
        """A zombie's late report must not satisfy a *different*
        request that happens to reuse its id."""
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        node = ExplorerNode(
            (net.host, net.port), MiniDbTarget, name="n0", capacity=2,
            heartbeat_interval=0.1, reconnect_policy=RETRY,
        )

        def campaign():
            old = make_request(0, test=1, function="read", call=0)
            new = dataclasses.replace(
                old, scenario={"test": 2, "function": "read", "call": 1}
            )
            [old_report] = net.run_batch([old])
            with net._cond:
                conn = next(iter(net._nodes.values()))
                # The node is still "executing" the old request for
                # id 0 while a new round redefines id 0.
                conn.assigned[0] = old
                net._pending[0] = new
                before = net.late_reports
                net._absorb_one_locked(conn, old_report)
                assert net.late_reports == before + 1
                assert 0 not in net._reports
                del net._pending[0]

        run_fleet(net, [node], campaign)
