"""Layered FabricHealth accounting: every retry exactly once.

A FaultTolerantFabric wrapped around a fabric that retries internally
(the process pool retries failed chunks before the wrapper ever sees a
problem) observes the *same* request flow at two layers but *different*
failure events.  The audit here: in the combined record, every retry is
attributed to exactly one cause, and no request is counted twice.
"""

from __future__ import annotations

from repro.cluster import (
    FabricHealth,
    FaultTolerantFabric,
    LocalCluster,
    NodeManager,
    RetryPolicy,
)
from repro.cluster.messages import TestReport, TestRequest
from repro.sim.targets.coreutils import CoreutilsTarget


def request(request_id: int) -> TestRequest:
    return TestRequest(
        request_id=request_id, subspace="",
        scenario={"test": 1 + request_id % 28, "function": "malloc", "call": 1},
    )


def report(request_id: int) -> TestReport:
    return TestReport(
        request_id=request_id, manager="inner", failed=False,
        crash_kind=None, exit_code=0, coverage=frozenset(),
        injection_stack=None, injected=False, steps=1,
        measurements={}, cost=0.0,
    )


class InnerFabricWithRetries:
    """A fabric that (like ProcessPoolCluster) retries internally.

    Its first dispatch "loses" one report — recovered by an internal
    retry it attributes in its *own* health record — so the wrapper
    sees a complete round and records nothing.
    """

    def __init__(self) -> None:
        self.health = FabricHealth()

    def __len__(self) -> int:
        return 2

    def run_batch(self, requests: list[TestRequest]) -> list[TestReport]:
        self.health.dispatches += 1
        self.health.requests += len(requests)
        # Simulate one internal chunk failure + successful re-dispatch.
        self.health.record_retry("error", 1)
        self.health.worker_deaths += 1
        self.health.worker_replacements += 1
        self.health.completed += len(requests)
        return [report(r.request_id) for r in requests]


class TestMergeLayer:
    def test_event_counters_sum_flow_counters_do_not(self):
        outer = FabricHealth(dispatches=3, requests=9, completed=9)
        outer.record_retry("timeout", 2)
        outer.timeouts = 1
        inner = FabricHealth(dispatches=5, requests=12, completed=12)
        inner.record_retry("error", 3)
        inner.worker_deaths = 2

        outer.merge_layer(inner)
        # Flow counters keep the outer view (same logical requests).
        assert outer.dispatches == 3
        assert outer.requests == 9
        assert outer.completed == 9
        # Failure events are distinct per layer and sum.
        assert outer.retries == 5
        assert outer.retried_after_timeout == 2
        assert outer.retried_after_error == 3
        assert outer.timeouts == 1
        assert outer.worker_deaths == 2

    def test_merge_layer_preserves_the_attribution_invariant(self):
        outer = FabricHealth()
        outer.record_retry("missing", 4)
        inner = FabricHealth()
        inner.record_retry("corrupt", 2)
        inner.record_retry("timeout", 1)
        assert outer.merge_layer(inner).accounted()
        assert outer.retries == 7

    def test_plain_merge_still_sums_everything(self):
        # Disjoint-traffic semantics are unchanged.
        a = FabricHealth(requests=4, completed=3)
        b = FabricHealth(requests=2, completed=2)
        a.merge(b)
        assert a.requests == 6 and a.completed == 5


class TestCombinedHealth:
    def test_inner_retries_surface_without_double_counted_flow(self):
        inner = InnerFabricWithRetries()
        fabric = FaultTolerantFabric(inner, policy=RetryPolicy(),
                                     sleep=lambda _: None)
        reports = fabric.run_batch([request(0), request(1)])
        assert len(reports) == 2

        # The wrapper saw a clean round; the inner layer retried once.
        assert fabric.health.retries == 0
        assert inner.health.retries == 1

        combined = fabric.combined_health()
        assert combined.retries == 1
        assert combined.retried_after_error == 1
        assert combined.worker_deaths == 1
        assert combined.accounted()
        # Flow counters are the wrapper's, not wrapper + inner.
        assert combined.requests == 2
        assert combined.completed == 2
        assert combined.dispatches == 1

    def test_combined_health_is_a_copy(self):
        inner = InnerFabricWithRetries()
        fabric = FaultTolerantFabric(inner, sleep=lambda _: None)
        fabric.run_batch([request(0)])
        combined = fabric.combined_health()
        combined.retries += 100
        assert fabric.health.retries == 0
        assert inner.health.retries == 1

    def test_both_layers_retrying_sum_exactly_once_each(self):
        inner = InnerFabricWithRetries()
        calls = {"n": 0}
        original = inner.run_batch

        def flaky_run_batch(requests):
            calls["n"] += 1
            reports = original(requests)
            if calls["n"] == 1:
                return reports[:-1]  # wrapper must requeue the last one
            return reports

        inner.run_batch = flaky_run_batch
        fabric = FaultTolerantFabric(inner, policy=RetryPolicy(),
                                     sleep=lambda _: None)
        reports = fabric.run_batch([request(0), request(1)])
        assert len(reports) == 2

        combined = fabric.combined_health()
        # Wrapper: 1 missing-report requeue.  Inner: 2 internal error
        # retries (one per dispatch round).  No other attribution.
        assert fabric.health.retried_missing == 1
        assert inner.health.retried_after_error == 2
        assert combined.retries == 3
        assert combined.retried_missing == 1
        assert combined.retried_after_error == 2
        assert combined.accounted()

    def test_explorer_health_reports_the_combined_record(self):
        from repro.core import (
            ExplorationSession,
            FaultSpace,
            FitnessGuidedSearch,
            IterationBudget,
            standard_impact,
        )
        from repro.cluster import FabricExecutor

        target = CoreutilsTarget()
        space = FaultSpace.product(
            test=range(1, 10), function=target.libc_functions(), call=[0, 1],
        )
        inner = LocalCluster([NodeManager("n0", target)])
        fabric = FaultTolerantFabric(inner, sleep=lambda _: None)
        executor = FabricExecutor(fabric)
        ExplorationSession(
            executor, space, standard_impact(), FitnessGuidedSearch(),
            IterationBudget(6), rng=1, batch_size=2,
        ).run()
        health = executor.health
        assert health is not None
        assert health.completed == 6
        assert health.accounted()
