"""Chaos tests for the fault-tolerant fabric layer.

The headline property (ISSUE acceptance): an exploration whose fabric
kills, hangs, corrupts, or drops a sizeable fraction of dispatches must
find exactly the same faults as a fault-free run — byte-identical
result history — with every retry accounted for in the FabricHealth
record.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import (
    ChaosCluster,
    FabricExecutor,
    FabricHealth,
    FaultTolerantFabric,
    HeartbeatMonitor,
    LocalCluster,
    NodeManager,
    RetryPolicy,
)
from repro.cluster import TestReport as ClusterTestReport
from repro.cluster import TestRequest as ClusterTestRequest
from repro.cluster.chaos import ChaosError
from repro.core import (
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    standard_impact,
)
from repro.core.checkpoint import history_digest
from repro.errors import ClusterError
from repro.sim.targets.coreutils import CoreutilsTarget


def coreutils_space(target) -> FaultSpace:
    return FaultSpace.product(
        test=range(1, 30), function=target.libc_functions(), call=[0, 1, 2],
    )


def make_cluster(nodes: int = 3) -> LocalCluster:
    return LocalCluster([
        NodeManager(f"n{i}", CoreutilsTarget()) for i in range(nodes)
    ])


def explore(fabric, iterations: int = 60, seed: int = 7):
    target = CoreutilsTarget()
    return ExplorationSession(
        FabricExecutor(fabric),
        coreutils_space(target),
        standard_impact(),
        FitnessGuidedSearch(),
        IterationBudget(iterations),
        rng=seed,
        batch_size=3,
    ).run()


def request(request_id: int) -> ClusterTestRequest:
    return ClusterTestRequest(
        request_id=request_id, subspace="",
        scenario={"test": 1 + request_id % 28, "function": "malloc", "call": 1},
    )


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, multiplier=2.0,
                             max_delay=0.3, jitter=0.0)
        delays = [policy.delay_for(n) for n in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_adds_bounded_noise(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        rng = random.Random(1)
        for _ in range(50):
            delay = policy.delay_for(1, rng)
            assert 0.1 <= delay <= 0.1 * 1.5

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay": -1.0},
        {"multiplier": 0.5},
        {"jitter": -0.1},
    ])
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ClusterError):
            RetryPolicy(**kwargs)


class TestFabricHealth:
    def test_every_retry_is_attributed(self):
        health = FabricHealth()
        health.record_retry("timeout", 2)
        health.record_retry("error")
        health.record_retry("missing", 3)
        health.record_retry("corrupt")
        assert health.retries == 7
        assert health.accounted()

    def test_unknown_cause_rejected(self):
        with pytest.raises(ClusterError):
            FabricHealth().record_retry("gremlins")

    def test_merge_sums_counters(self):
        a = FabricHealth(requests=4, completed=3)
        a.record_retry("timeout")
        b = FabricHealth(requests=2, completed=2)
        b.record_retry("error", 2)
        a.merge(b)
        assert a.requests == 6 and a.completed == 5
        assert a.retries == 3 and a.accounted()


class TestHeartbeatMonitor:
    def test_liveness_tracks_an_injected_clock(self):
        now = [0.0]
        monitor = HeartbeatMonitor(liveness_timeout=5.0, clock=lambda: now[0])
        monitor.beat("n0")
        now[0] = 3.0
        monitor.beat("n1")
        assert monitor.alive() == ("n0", "n1")
        now[0] = 6.0
        assert monitor.missing() == ("n0",)
        assert monitor.alive() == ("n1",)

    def test_reports_count_as_beats(self):
        fabric = FaultTolerantFabric(make_cluster(2))
        fabric.run_batch([request(0), request(1)])
        assert fabric.monitor.beats >= 2
        assert fabric.poll_heartbeats() == 2


class TestChaosAcceptance:
    """The ISSUE's acceptance test: 20% chaos, same faults found."""

    RATES = {"kill_rate": 0.10, "corrupt_rate": 0.05, "drop_rate": 0.05}

    def test_chaotic_run_matches_fault_free_run(self):
        baseline = explore(make_cluster())
        chaos = ChaosCluster(make_cluster(), rng=13, **self.RATES)
        fabric = FaultTolerantFabric(
            chaos,
            policy=RetryPolicy(base_delay=0.0, jitter=0.0),
        )
        chaotic = explore(fabric)

        assert chaos.sabotages > 0, "chaos never fired; rates too low"
        # Same high-impact faults: byte-identical history, not just
        # overlapping top-N.
        assert history_digest(list(chaotic)) == history_digest(list(baseline))
        # ... and the health record accounts for every retry.
        health = fabric.health
        assert health.accounted()
        assert health.retries > 0
        assert health.completed == len(chaotic)

    def test_hang_is_recovered_via_deadline(self):
        # Real sleeps here: a hang only looks hung if it genuinely
        # outlives the dispatch deadline.
        chaos = ChaosCluster(
            make_cluster(), hang_rate=0.15, rng=3, hang_seconds=0.4,
        )
        fabric = FaultTolerantFabric(
            chaos,
            policy=RetryPolicy(base_delay=0.0, jitter=0.0),
            dispatch_deadline=0.15,
        )
        results = explore(fabric, iterations=30)
        assert chaos.hangs > 0
        assert len(results) >= 30
        health = fabric.health
        assert health.timeouts == chaos.hangs
        assert health.retried_after_timeout > 0
        assert health.accounted()
        assert history_digest(list(results)) == history_digest(
            list(explore(make_cluster(), iterations=30))
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_property_style_random_chaos_always_converges(self, seed):
        """Any sabotage mix under the sum-rate cap converges, because
        each request is sabotaged at most once and the policy allows
        max_attempts - 1 = 2 retries."""
        rng = random.Random(seed)
        rates = [rng.uniform(0, 0.12) for _ in range(3)]
        chaos = ChaosCluster(
            make_cluster(), kill_rate=rates[0], corrupt_rate=rates[1],
            drop_rate=rates[2], rng=seed,
        )
        fabric = FaultTolerantFabric(
            chaos, policy=RetryPolicy(base_delay=0.0, jitter=0.0),
        )
        results = explore(fabric, iterations=24, seed=seed)
        assert len(results) >= 24
        assert fabric.health.accounted()
        assert fabric.health.retries >= chaos.sabotages


class TestFaultTolerantFabricUnit:
    def test_reports_stay_in_request_order_under_chaos(self):
        chaos = ChaosCluster(make_cluster(), kill_rate=0.3, rng=5)
        fabric = FaultTolerantFabric(
            chaos, policy=RetryPolicy(base_delay=0.0, jitter=0.0),
        )
        requests = [request(i) for i in range(9)]
        reports = fabric.run_batch(requests)
        assert [r.request_id for r in reports] == list(range(9))
        assert all(isinstance(r, ClusterTestReport) for r in reports)

    def test_backoff_schedule_is_observable(self):
        naps: list[float] = []

        class AlwaysDies:
            def __len__(self):
                return 1

            def run_batch(self, batch):
                raise RuntimeError("boom")

        fabric = FaultTolerantFabric(
            AlwaysDies(),
            policy=RetryPolicy(max_attempts=3, base_delay=0.05,
                               multiplier=2.0, max_delay=10.0, jitter=0.0),
            sleep=naps.append,
        )
        with pytest.raises(ClusterError, match="still failing after 3"):
            fabric.run_batch([request(0)])
        assert naps == [0.05, 0.1]  # no sleep after the final attempt
        assert fabric.health.worker_deaths == 3
        assert fabric.health.retried_after_error == 2
        assert fabric.health.accounted()

    def test_corrupt_reports_are_discarded_and_retried(self):
        chaos = ChaosCluster(make_cluster(1), corrupt_rate=1.0, rng=0)
        fabric = FaultTolerantFabric(
            chaos, policy=RetryPolicy(base_delay=0.0, jitter=0.0),
        )
        reports = fabric.run_batch([request(0)])
        assert reports[0].request_id == 0
        assert isinstance(reports[0], ClusterTestReport)
        assert fabric.health.corrupt_reports == 1
        assert fabric.health.retried_corrupt == 1
        assert fabric.health.accounted()

    def test_gives_up_with_health_in_the_error(self):
        chaos = ChaosCluster(make_cluster(), kill_rate=1.0, rng=0)
        # Each request is only killed once, so the run *would* converge;
        # a 1-attempt policy must still fail fast.
        fabric = FaultTolerantFabric(chaos, policy=RetryPolicy(max_attempts=1))
        with pytest.raises(ClusterError, match="fabric health"):
            fabric.run_batch([request(0)])

    def test_empty_batch_is_a_noop(self):
        fabric = FaultTolerantFabric(make_cluster(1))
        assert fabric.run_batch([]) == []
        assert fabric.health.dispatches == 0


class TestChaosCluster:
    def test_sabotage_fires_at_most_once_per_request(self):
        chaos = ChaosCluster(make_cluster(1), kill_rate=1.0, rng=0)
        with pytest.raises(ChaosError):
            chaos.run_batch([request(0)])
        # Second dispatch of the same request goes through untouched.
        reports = chaos.run_batch([request(0)])
        assert len(reports) == 1 and reports[0].request_id == 0
        assert chaos.kills == 1

    def test_rates_validated(self):
        with pytest.raises(ClusterError):
            ChaosCluster(make_cluster(1), kill_rate=1.5)
        with pytest.raises(ClusterError):
            ChaosCluster(make_cluster(1), kill_rate=0.6, hang_rate=0.6)

    def test_drop_loses_exactly_the_victim(self):
        chaos = ChaosCluster(make_cluster(1), drop_rate=1.0, rng=0)
        reports = chaos.run_batch([request(0), request(1)])
        # Both were first-time dispatches, both dropped.
        assert reports == [] and chaos.drops == 2
        reports = chaos.run_batch([request(0), request(1)])
        assert [r.request_id for r in reports] == [0, 1]
