"""Elastic fleet scaling: throughput, stealing, and dedup vs node count.

Runs the same MiniDB campaign on socket fleets of 1/2/4/8/16 simulated
nodes and writes ``BENCH_fleet.json`` at the repo root.  Each node's
executor sleeps a few milliseconds per test (releasing the GIL, the
way a real remote machine releases the manager's CPU), so fleet
scaling is measurable inside one container; the sleeps are deliberately
*heterogeneous* across nodes so the fast nodes finish their partitions
early and the work-stealing path carries real load.

Per arm: throughput and speedup over the single-node fleet, steal and
requeue accounting, digest parity against an in-process single-manager
run (placement must never move outcomes), and the fleet-cache dedup
hit-rate of re-running the identical campaign on the warm fleet.  A
separate churn arm exercises a mid-campaign join plus a graceful drain
between dispatch rounds.

Gates (the CI acceptance bars): the 8-node fleet must deliver at least
3x the single-node throughput, and every arm's history digest must be
byte-identical to the reference.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import cores_info, run_once
from repro.cluster import (
    ExplorerNode,
    FabricExecutor,
    FaultTolerantFabric,
    FleetResultCache,
    LocalCluster,
    NodeManager,
    RetryPolicy,
    SocketFabric,
    TestRequest,
)
from repro.core import (
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    standard_impact,
)
from repro.core.checkpoint import history_digest
from repro.sim.targets.minidb import MINIDB_FUNCTIONS, MiniDbTarget
from repro.util.tables import TextTable

ITERATIONS = 192
NODE_COUNTS = (1, 2, 4, 8, 16)
GATED_NODES = 8
SPEEDUP_GATE = 3.0
CAPACITY = 4
#: one fixed batch width across every arm — the batch size shapes the
#: search trajectory, and digest parity needs one trajectory.
BATCH_SIZE = 64
SEED = 11
#: per-test executor sleeps, cycled across nodes: heterogeneity is what
#: makes stealing happen (fast nodes drain their partitions first).
DELAYS = (0.012, 0.016, 0.02)
BENCH_PATH = Path(__file__).parent.parent / "BENCH_fleet.json"


def _space() -> FaultSpace:
    return FaultSpace.product(
        test=range(1, 1148), function=MINIDB_FUNCTIONS, call=range(1, 101)
    )


def _timed(func):
    started = time.perf_counter()
    result = func()
    return result, time.perf_counter() - started


class SleepyNodeManager(NodeManager):
    """An executor that models a machine ``delay`` seconds slower per
    test; the sleep releases the GIL, so fleets scale in-process."""

    def __init__(self, *args, delay: float = 0.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.delay = delay

    def execute(self, request):
        if self.delay:
            time.sleep(self.delay)
        return super().execute(request)


class SleepyNode(ExplorerNode):
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


def _campaign(fabric):
    return ExplorationSession(
        FabricExecutor(FaultTolerantFabric(fabric, policy=RetryPolicy())),
        _space(), standard_impact(), FitnessGuidedSearch(),
        IterationBudget(ITERATIONS), rng=SEED, batch_size=BATCH_SIZE,
    ).run()


def _fleet(count: int, **fabric_kwargs):
    net = SocketFabric("127.0.0.1:0", expected_nodes=count,
                       **fabric_kwargs)
    nodes = [
        SleepyNode(
            (net.host, net.port), MiniDbTarget, name=f"fleet{i:02d}",
            capacity=CAPACITY, heartbeat_interval=0.2,
            delay=DELAYS[i % len(DELAYS)],
        )
        for i in range(count)
    ]
    threads = [n.run_in_thread() for n in nodes]
    net.wait_for_nodes(timeout=30)
    return net, nodes, threads


def _teardown(net, nodes, threads):
    net.close()
    for node in nodes:
        node.stop()
    for thread in threads:
        thread.join(timeout=10)


def _scaling_arm(count: int) -> dict:
    net, nodes, threads = _fleet(count, fleet_cache=FleetResultCache())
    try:
        results, seconds = _timed(lambda: _campaign(net))
        digest = history_digest(list(results))
        # Re-run the identical campaign on the warm fleet: every
        # scenario is already in the fleet cache, so dedup answers it
        # at the manager without dispatching.
        hits_before = net.fleet_dedup_hits
        rerun, rerun_s = _timed(lambda: _campaign(net))
        rerun_hits = net.fleet_dedup_hits - hits_before
        return {
            "nodes": count,
            "tests": len(results),
            "seconds": seconds,
            "digest": digest,
            "rerun_digest": history_digest(list(rerun)),
            "stolen": net.stolen,
            "steal_duplicates": net.steal_duplicates,
            "requeued": net.requeued,
            "dedup_rerun": {
                "tests": len(rerun),
                "hits": rerun_hits,
                "hit_rate": rerun_hits / len(rerun) if rerun else 0.0,
                "seconds": rerun_s,
            },
        }
    finally:
        _teardown(net, nodes, threads)


def _churn_requests(count: int, base: int = 0) -> list[TestRequest]:
    return [
        TestRequest(
            request_id=base + i, subspace="fleet",
            scenario={"test": 1 + (i % 50), "function": "read",
                      "call": 1 + i // 50},
        )
        for i in range(count)
    ]


def _report_core(report) -> tuple:
    """The digest-material fields: placement (manager), wall-clock
    (cost) and trace spans are allowed to differ across fabrics."""
    return (
        report.request_id, report.failed, report.crash_kind,
        report.exit_code, report.steps, report.stack_digest,
        report.injected, report.injection_stack,
    )


def _churn_arm() -> dict:
    """An 8-node round sequence with one join and one drain mid-way."""
    net, nodes, threads = _fleet(GATED_NODES - 1)
    joiner = SleepyNode(
        (net.host, net.port), MiniDbTarget, name="fleet-joiner",
        capacity=CAPACITY, heartbeat_interval=0.2,
        delay=DELAYS[0],
    )
    joiner_thread = None
    try:
        rounds = [_churn_requests(64, base=1000 * r) for r in range(3)]
        reports = list(net.run_batch(rounds[0]))
        # Join between rounds (the manager is mid-campaign: dispatched).
        joiner_thread = joiner.run_in_thread()
        net.wait_for_nodes(count=GATED_NODES, timeout=30)
        # Drain one incumbent; round 2 runs while it retires.
        nodes[0].request_drain()
        reports += net.run_batch(rounds[1])
        reports += net.run_batch(rounds[2])

        reference = LocalCluster([NodeManager("ref", MiniDbTarget())])
        expected = [
            _report_core(r)
            for batch in rounds for r in reference.run_batch(batch)
        ]
        return {
            "nodes": GATED_NODES,
            "tests": len(reports),
            "matches_reference":
                [_report_core(r) for r in reports] == expected,
            "mid_campaign_joins": net.mid_campaign_joins,
            "graceful_leaves": net.graceful_leaves,
            "worker_deaths": net.health.worker_deaths,
            "stolen": net.stolen,
            "requeued": net.requeued,
            "joiner_executed": joiner.executed,
        }
    finally:
        _teardown(net, nodes, threads)
        joiner.stop()
        if joiner_thread is not None:
            joiner_thread.join(timeout=10)


def test_fleet_scaling(benchmark, report):
    def experiment():
        reference = LocalCluster([NodeManager("solo", MiniDbTarget())])
        reference_digest = history_digest(list(_campaign(reference)))
        arms = [_scaling_arm(count) for count in NODE_COUNTS]
        churn = _churn_arm()
        return reference_digest, arms, churn

    reference_digest, arms, churn = run_once(benchmark, experiment)

    single = next(arm for arm in arms if arm["nodes"] == 1)
    single_rate = single["tests"] / single["seconds"]
    payload_arms = []
    for arm in arms:
        rate = arm["tests"] / arm["seconds"]
        payload_arms.append({
            "nodes": arm["nodes"],
            "tests": arm["tests"],
            "seconds": round(arm["seconds"], 4),
            "tests_per_second": round(rate, 1),
            "speedup_vs_single": round(rate / single_rate, 2),
            "stolen": arm["stolen"],
            "steal_duplicates": arm["steal_duplicates"],
            "requeued": arm["requeued"],
            "digest_matches_reference":
                arm["digest"] == reference_digest,
            "dedup_rerun": {
                "tests": arm["dedup_rerun"]["tests"],
                "hits": arm["dedup_rerun"]["hits"],
                "hit_rate": round(arm["dedup_rerun"]["hit_rate"], 4),
                "seconds": round(arm["dedup_rerun"]["seconds"], 4),
                "digest_matches_reference":
                    arm["rerun_digest"] == reference_digest,
            },
        })

    gated = next(a for a in payload_arms if a["nodes"] == GATED_NODES)
    payload = {
        "benchmark": "fleet_scaling",
        "target": "minidb",
        "iterations": ITERATIONS,
        "batch_size": BATCH_SIZE,
        "capacity_per_node": CAPACITY,
        "node_delays_seconds": list(DELAYS),
        "seed": SEED,
        "cores": cores_info(),
        "reference_digest": reference_digest,
        "arms": payload_arms,
        "churn": churn,
        "speedup_gate": {
            "nodes": GATED_NODES,
            "threshold": SPEEDUP_GATE,
            "speedup": gated["speedup_vs_single"],
            "skipped": False,
            "reason": None,
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    table = TextTable(
        ["nodes", "tests", "seconds", "tests/s", "speedup", "stolen",
         "dedup hit-rate"],
        title=f"elastic fleet scaling, MiniDB x{ITERATIONS} "
              f"(batch {BATCH_SIZE}, capacity {CAPACITY}/node)",
    )
    for arm in payload_arms:
        table.add_row([
            arm["nodes"], arm["tests"], f"{arm['seconds']:.2f}",
            f"{arm['tests_per_second']:.0f}",
            f"{arm['speedup_vs_single']:.2f}x", arm["stolen"],
            f"{arm['dedup_rerun']['hit_rate']:.2f}",
        ])
    table.add_row([
        f"churn({churn['nodes']})", churn["tests"], "-", "-",
        f"+{churn['mid_campaign_joins']} join "
        f"-{churn['graceful_leaves']} drain",
        churn["stolen"], "-",
    ])
    report("fleet_scaling", table.render()
           + f"\nwritten to {BENCH_PATH.name}")

    # Placement never moves outcomes: every fleet size (and every warm
    # rerun) reproduces the single-manager history byte for byte.
    for arm in payload_arms:
        assert arm["digest_matches_reference"], arm
        assert arm["dedup_rerun"]["digest_matches_reference"], arm
        assert arm["requeued"] == 0, arm
        if arm["nodes"] >= 2:
            # Heterogeneous nodes guarantee a drained partition while a
            # slow node still holds backlog — stealing must fire.
            assert arm["stolen"] >= 1, arm
        # The warm rerun is answered from the fleet cache.
        assert arm["dedup_rerun"]["hit_rate"] >= 0.95, arm
    # Elasticity without losses: one join, one drain, no deaths, and
    # the report stream still matches the in-process reference exactly.
    assert churn["matches_reference"], churn
    assert churn["mid_campaign_joins"] == 1, churn
    assert churn["graceful_leaves"] == 1, churn
    assert churn["worker_deaths"] == 0, churn
    assert churn["joiner_executed"] > 0, churn
    # The CI acceptance bar: >= 3x single-node throughput at 8 nodes.
    assert gated["speedup_vs_single"] >= SPEEDUP_GATE, payload[
        "speedup_gate"
    ]
