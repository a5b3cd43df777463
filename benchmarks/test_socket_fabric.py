"""Networked fabric: wire overhead and digest parity of socket dispatch.

Runs the same MiniDB exploration twice — once on the in-process thread
fabric, once over the real TCP socket fabric with two explorer nodes,
at the same speculative batch size (the batch size shapes the search
trajectory, so it is held fixed across fabrics) — and writes the
numbers to ``BENCH_net.json`` at the repo root (plus a text table
under ``benchmarks/out/``):

1. **Digest parity** — the socket campaign's history digest must be
   byte-identical to the in-process run's: the wire moves placement,
   never outcomes.
2. **Wire accounting** — bytes and frames per executed test under the
   negotiated v2 binary protocol: batched work frames, one coalesced
   ``report_batch`` per chunk with the backpressure credit piggybacked.
   The gates are the ISSUE acceptance bars — under 200 bytes and under
   0.5 frames per test, versus the ~1 kB / several frames the v1 JSON
   dialect paid.  The GIL bounds what two in-process node threads can
   add in *throughput* on the pure-Python simulator (the real win needs
   separate processes or machines, as in the paper's EC2 deployment),
   so the gate here is overhead and correctness, not speedup.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import cores_info, run_once
from repro.cluster import (
    PROTOCOL_VERSION,
    ExplorerNode,
    FabricExecutor,
    FaultTolerantFabric,
    LocalCluster,
    NodeManager,
    RetryPolicy,
    SocketFabric,
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

ITERATIONS = 300
NODES = 2
CAPACITY = 8
BATCH_SIZE = 16
SEED = 3
BENCH_PATH = Path(__file__).parent.parent / "BENCH_net.json"


def _space() -> FaultSpace:
    return FaultSpace.product(
        test=range(1, 1148), function=MINIDB_FUNCTIONS, call=range(1, 101)
    )


def _timed(func):
    started = time.perf_counter()
    result = func()
    return result, time.perf_counter() - started


def test_socket_fabric_wire_overhead(benchmark, report):
    def experiment():
        def explore(cluster):
            return ExplorationSession(
                FabricExecutor(cluster), _space(), standard_impact(), FitnessGuidedSearch(),
                IterationBudget(ITERATIONS), rng=SEED,
                batch_size=BATCH_SIZE,
            ).run()

        local = LocalCluster(
            [NodeManager(f"local{i}", MiniDbTarget()) for i in range(NODES)]
        )
        local_results, local_s = _timed(lambda: explore(
            FaultTolerantFabric(local, policy=RetryPolicy())
        ))

        net = SocketFabric("127.0.0.1:0", expected_nodes=NODES)
        nodes = [
            ExplorerNode(
                (net.host, net.port), MiniDbTarget, name=f"bench{i}",
                capacity=CAPACITY, heartbeat_interval=0.2,
            )
            for i in range(NODES)
        ]
        threads = [n.run_in_thread() for n in nodes]
        net.wait_for_nodes(timeout=30)
        try:
            socket_results, socket_s = _timed(lambda: explore(
                FaultTolerantFabric(net, policy=RetryPolicy())
            ))
            wire = {
                "bytes_in": net.bytes_in, "bytes_out": net.bytes_out,
                "frames_in": net.frames_in, "frames_out": net.frames_out,
                "requeued": net.requeued,
                "registrations": net.registrations,
                "node_stats": net.node_stats(),
                "encode_seconds": net.encode_seconds,
            }
        finally:
            net.close()
            for thread in threads:
                thread.join(timeout=10)
        return {
            "local": (local_results, local_s),
            "socket": (socket_results, socket_s),
            "wire": wire,
        }

    measured = run_once(benchmark, experiment)

    local_results, local_s = measured["local"]
    socket_results, socket_s = measured["socket"]
    wire = measured["wire"]
    local_digest = history_digest(list(local_results))
    socket_digest = history_digest(list(socket_results))
    executed = len(socket_results)
    bytes_per_test = (wire["bytes_in"] + wire["bytes_out"]) / executed
    frames_per_test = (wire["frames_in"] + wire["frames_out"]) / executed

    payload = {
        "benchmark": "socket_fabric",
        "target": "minidb",
        "iterations": ITERATIONS,
        "cores": cores_info(),
        "nodes": NODES,
        "capacity_per_node": CAPACITY,
        "batch_size": BATCH_SIZE,
        "local_threads": {
            "tests": len(local_results),
            "seconds": round(local_s, 4),
            "history_digest": local_digest,
        },
        "socket": {
            "tests": executed,
            "seconds": round(socket_s, 4),
            "history_digest": socket_digest,
            "digest_matches_local": socket_digest == local_digest,
        },
        "wire": {
            "version": PROTOCOL_VERSION,
            "bytes_in": wire["bytes_in"],
            "bytes_out": wire["bytes_out"],
            "frames_in": wire["frames_in"],
            "frames_out": wire["frames_out"],
            "bytes_per_test": round(bytes_per_test, 1),
            "frames_per_test": round(frames_per_test, 2),
            "encode_seconds": round(wire["encode_seconds"], 4),
            "requeued": wire["requeued"],
            "registrations": wire["registrations"],
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    table = TextTable(
        ["fabric", "tests", "seconds", "digest"],
        title=f"socket-fabric wire overhead, MiniDB x{ITERATIONS} "
              f"({NODES} nodes x {CAPACITY} slots)",
    )
    table.add_row([f"threads x{NODES}", len(local_results), f"{local_s:.2f}",
                   local_digest[:12]])
    table.add_row([f"socket x{NODES}", executed, f"{socket_s:.2f}",
                   socket_digest[:12]])
    table.add_row(["wire bytes/test", "-", "-", f"{bytes_per_test:.0f}"])
    table.add_row(["wire frames/test", "-", "-", f"{frames_per_test:.1f}"])
    report("socket_fabric", table.render()
           + f"\nwritten to {BENCH_PATH.name}")

    # The acceptance bar: byte-identical history over the real network.
    assert socket_digest == local_digest
    assert executed >= ITERATIONS
    # Every node registered exactly once; nothing needed requeueing on
    # a healthy localhost run.
    assert wire["registrations"] == NODES
    assert wire["requeued"] == 0
    # Each node actually pulled a share of the work.
    assert len(wire["node_stats"]) == NODES
    assert all(s["executed"] > 0 for s in wire["node_stats"])
    # The tentpole economics (ISSUE acceptance): batched binary frames
    # put a test at tens of bytes — v1 JSON paid ~1 kB and several
    # frames — and coalesced reports push the frame count below one
    # frame per two tests.
    assert bytes_per_test < 200, payload["wire"]
    assert frames_per_test < 0.5, payload["wire"]
