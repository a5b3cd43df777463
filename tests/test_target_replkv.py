"""Tests for the ReplKV target: the replicated recovery showcase.

Fault-free, all 150 generated tests pass with zero invariant
violations.  Under the disk and net fault models the two planted
recovery bugs surface deterministically (silent WAL-replay truncation
and commit-on-send), ``FitnessGuidedSearch`` finds them without being
told where to look, and a campaign over real TCP explorer nodes digests
identically to the in-process fabric.
"""

from __future__ import annotations

from repro.core import (
    ExplorationSession,
    FitnessGuidedSearch,
    IterationBudget,
    TargetRunner,
    standard_impact,
)
from repro.core.checkpoint import history_digest
from repro.injection.models import (
    ModelInjector,
    compose_models,
    model_injector,
    model_space,
)
from repro.sim.process import run_test
from repro.sim.targets.replkv import parse_record, record_line
from repro.sim.targets.replkv.target import GROUP_SIZES


class TestWalRecords:
    def test_record_round_trip(self):
        line = record_line(7, "key", "value")
        assert parse_record(line) == (7, "key", "value")

    def test_checksum_rejects_corruption(self):
        line = record_line(7, "key", "value")
        mangled = line.replace("value", "vblue")
        assert parse_record(mangled) is None

    def test_torn_half_line_rejected(self):
        line = record_line(3, "k", "v")
        assert parse_record(line[: len(line) // 2]) is None

    def test_non_positive_seq_rejected(self):
        assert parse_record("0 k v 0") is None
        assert parse_record("junk") is None


class TestFaultFreeSuite:
    def test_suite_shape(self, replkv):
        assert len(replkv.suite) == sum(GROUP_SIZES.values()) == 150

    def test_every_test_passes_clean(self, replkv):
        for test in replkv.suite:
            result = run_test(replkv, test)
            assert not result.failed, f"{test.name}: {result.summary()}"
            assert not result.violated, (
                f"{test.name}: {result.invariant_violations}"
            )

    def test_clean_runs_leak_nothing(self, replkv):
        # Groups that kill -9 a replica leak its heap on purpose (the
        # kernel reclaims fds, not the simulated process's allocations),
        # so the zero-leak bar applies to the graceful-shutdown groups.
        for test in replkv.suite:
            if test.group not in ("basic", "wal", "divergence"):
                continue
            result = run_test(replkv, test)
            assert result.open_fds == 0, test.name
            assert result.leaked_heap_bytes == 0, test.name


class TestPlantedReplayTruncation:
    """Bug A: replay stops at the first bad record, silently dropping
    the committed suffix; a restarted leader never reconciles."""

    def test_corrupt_wal_write_loses_acknowledged_data(self, replkv):
        test = replkv.suite[56]  # restart-000: restarts the leader
        plan = ModelInjector("disk").plan_for(
            {"test": test.id, "disk_write": 1, "disk_mode": "corrupt"}
        )
        result = run_test(replkv, test, plan)
        assert result.violated
        assert "not served by leader" in result.invariant_violations[0]
        # the suite's own assertion notices too — the fitness signal.
        assert result.failed

    def test_torn_tail_write_loses_the_torn_commit(self, replkv):
        test = replkv.suite[56]
        plan = ModelInjector("disk").plan_for(
            {"test": test.id, "disk_write": 1, "disk_mode": "torn"}
        )
        result = run_test(replkv, test, plan)
        assert result.violated and result.failed

    def test_same_scenario_without_restart_is_masked(self, replkv):
        # basic-000 never replays the WAL, so the silent corruption
        # stays latent: recovery code is what turns it into loss.
        test = replkv.suite[1]
        plan = ModelInjector("disk").plan_for(
            {"test": test.id, "disk_write": 1, "disk_mode": "corrupt"}
        )
        result = run_test(replkv, test, plan)
        assert not result.violated


class TestPlantedCommitOnSend:
    """Bug B: a replication *send* counts as an acknowledgement, so a
    delayed in-flight message plus a leader crash loses an acked write."""

    def test_delayed_replication_plus_failover_loses_data(self, replkv):
        test = replkv.suite[87]  # failover-001: double leader crash
        plan = ModelInjector("net").plan_for(
            {"test": test.id, "net_op": 2, "net_mode": "delay"}
        )
        result = run_test(replkv, test, plan)
        assert result.violated
        assert "acknowledged write" in result.invariant_violations[0]
        assert result.failed

    def test_partition_plus_failover_loses_data(self, replkv):
        test = replkv.suite[86]  # failover-000
        plan = ModelInjector("net").plan_for(
            {"test": test.id, "net_op": 2, "net_mode": "partition"}
        )
        result = run_test(replkv, test, plan)
        assert result.violated and result.failed

    def test_divergence_heals_without_failover(self, replkv):
        # an isolated replica that rejoins catches up; no leader crash,
        # no loss — the bug needs the crash to manifest.
        for test in replkv.suite:
            if test.group == "divergence":
                result = run_test(replkv, test)
                assert not result.violated
                break


class TestFitnessDiscovery:
    def test_search_finds_a_planted_recovery_bug(self, replkv):
        # Focus the workload axis on recovery scenarios (the kind of
        # restriction §7's focused test spaces use) and let the fitness
        # strategy do the rest over the composed net+disk space.
        space = model_space(replkv, compose_models("disk+net"))
        recovery_tests = [
            test.id for test in replkv.suite
            if test.group in ("restart", "failover", "churn")
        ]
        space = space.restrict_axis("test", recovery_tests)
        session = ExplorationSession(
            runner=TargetRunner(replkv, model_injector("disk+net")),
            space=space,
            metric=standard_impact(),
            strategy=FitnessGuidedSearch(),
            target=IterationBudget(150),
            rng=42,
        )
        results = list(session.run())
        violations = [
            test for test in results if test.result.invariant_violations
        ]
        assert violations, "no planted recovery bug found in 150 iterations"
        assert any(
            "acknowledged write" in v
            for test in violations
            for v in test.result.invariant_violations
        )


class TestFabricParity:
    def test_socket_campaign_digest_matches_in_process(self, replkv):
        from repro.cluster import (
            ExplorerNode,
            FabricExecutor,
            FaultTolerantFabric,
            LocalCluster,
            NodeManager,
            RetryPolicy,
            SocketFabric,
        )
        from repro.sim.targets.replkv import ReplKvTarget

        spec = "errno+disk"
        space = model_space(replkv, compose_models(spec)).restrict_axis(
            "test", range(80, 111)  # failover + some churn scenarios
        )

        def explore(cluster) -> str:
            results = ExplorationSession(
                FabricExecutor(cluster), space, standard_impact(),
                FitnessGuidedSearch(), IterationBudget(40),
                rng=11, batch_size=4,
            ).run()
            return history_digest(list(results))

        managers = [
            NodeManager(f"ref{i}", replkv, injector=model_injector(spec))
            for i in range(2)
        ]
        reference = explore(
            FaultTolerantFabric(LocalCluster(managers), policy=RetryPolicy())
        )

        net = SocketFabric("127.0.0.1:0", expected_nodes=2, ready_timeout=5.0)
        nodes = [
            ExplorerNode(
                (net.host, net.port), ReplKvTarget, name=f"n{i}", capacity=2,
                injector_factory=model_injector_factory(spec),
                heartbeat_interval=0.1,
                reconnect_policy=RetryPolicy(
                    max_attempts=100, base_delay=0.02, max_delay=0.2
                ),
            )
            for i in range(2)
        ]
        threads = [node.run_in_thread() for node in nodes]
        try:
            net.wait_for_nodes(timeout=15)
            over_wire = explore(
                FaultTolerantFabric(net, policy=RetryPolicy())
            )
        finally:
            net.close()
            for node in nodes:
                node.stop()
            for thread in threads:
                thread.join(timeout=10)
        assert over_wire == reference


def model_injector_factory(spec: str):
    import functools

    return functools.partial(model_injector, spec)
