"""The parallel testing substrate (§6, Fig. 2).

The explorer is the one :class:`~repro.core.session.ExplorationSession`
loop; on a cluster it runs each generation through a
:class:`~repro.cluster.executor.FabricExecutor`, which coordinates a
set of :class:`~repro.cluster.manager.NodeManager` instances.  The
executor turns faults into :class:`~repro.cluster.messages.TestRequest`
messages; each manager converts the scenario to injector configuration
via its plugins, runs the startup/test/cleanup scripts, lets its sensors
measure the run, and replies with a
:class:`~repro.cluster.messages.TestReport`.

Three execution fabrics are provided:

* :class:`~repro.cluster.local.LocalCluster` — concurrency over a
  thread pool (this process plays every node; GIL-bound for the pure
  Python simulator);
* :class:`~repro.cluster.process_pool.ProcessPoolCluster` — real
  multi-core execution over warm worker processes with chunked
  round-robin dispatch (the closest analogue to the paper's one-manager
  -per-machine EC2 deployment);
* :class:`~repro.cluster.local.VirtualCluster` — deterministic
  *virtual-time* execution used by the §7.7 scalability experiment: the
  paper measured wall-clock scaling on 1-14 EC2 nodes, which we
  substitute with an explicit accounting of per-node busy time (valid
  because tests are independent — the "embarrassing parallelism" the
  paper leans on).

* :class:`~repro.cluster.socket_fabric.SocketFabric` — the *networked
  multi-node* fabric: a manager serves the length-prefixed wire
  protocol of :mod:`~repro.cluster.wire` over TCP (negotiated per
  connection: the batched binary v2 data plane, or v1 JSON for legacy
  nodes) while :class:`~repro.cluster.socket_fabric.ExplorerNode`
  processes connect, advertise capacity, and pull work with
  backpressure — the paper's actual 10-node/EC2 deployment shape (§4;
  see docs/DISTRIBUTED.md and docs/PERFORMANCE.md).  The fleet is
  *elastic* (protocol v3): idle slots steal backlog from the most
  loaded node, nodes join mid-campaign and leave gracefully
  (drain-then-deregister), and a
  :class:`~repro.cluster.fleet.FleetResultCache` dedups duplicate
  scenarios fleet-wide without moving the history digest.

Batch width per round is either fixed or steered online by
:class:`~repro.cluster.autobatch.AdaptiveBatchController`
(``--batch-size auto``), which grows batches until the fabric's fixed
per-round dispatch cost is amortized and shrinks them when feedback
staleness would hurt the search.

Every fabric can be hardened with the
:mod:`~repro.cluster.fault_tolerance` layer —
:class:`~repro.cluster.fault_tolerance.FaultTolerantFabric` adds
per-dispatch deadlines, report validation, retry with exponential
backoff, and heartbeat-based liveness tracking around any of them, and
the process pool replaces dead workers on its own.  The
:class:`~repro.cluster.chaos.ChaosCluster` test double sabotages
dispatches on purpose (kills, hangs, corrupt and dropped reports) to
prove the recovery machinery actually recovers.
"""

from repro.cluster.autobatch import AdaptiveBatchController, NodeLatencyTracker
from repro.cluster.chaos import ChaosCluster
from repro.cluster.executor import FabricExecutor
from repro.cluster.fault_tolerance import (
    FabricHealth,
    FaultTolerantFabric,
    HeartbeatMonitor,
    RetryPolicy,
)
from repro.cluster.fleet import FleetResultCache, scenario_digest
from repro.cluster.local import LocalCluster, VirtualCluster
from repro.cluster.manager import NodeManager
from repro.cluster.messages import TestReport, TestRequest, WorkerHeartbeat
from repro.cluster.process_pool import ProcessPoolCluster
from repro.cluster.scripts import ScriptTarget, UserScripts
from repro.cluster.socket_fabric import (
    ExplorerNode,
    SensitivityPartitioner,
    SocketFabric,
)
from repro.cluster.wire import (
    MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    WireError,
)
from repro.cluster.sensors import (
    CoverageSensor,
    CrashSensor,
    ExitCodeSensor,
    Sensor,
    StepSensor,
)

__all__ = [
    "AdaptiveBatchController",
    "ChaosCluster",
    "CoverageSensor",
    "CrashSensor",
    "ExitCodeSensor",
    "ExplorerNode",
    "FabricExecutor",
    "FabricHealth",
    "FaultTolerantFabric",
    "FleetResultCache",
    "HeartbeatMonitor",
    "LocalCluster",
    "MIN_PROTOCOL_VERSION",
    "NodeLatencyTracker",
    "NodeManager",
    "PROTOCOL_VERSION",
    "ProcessPoolCluster",
    "RetryPolicy",
    "ScriptTarget",
    "SensitivityPartitioner",
    "Sensor",
    "SocketFabric",
    "StepSensor",
    "WireError",
    "TestReport",
    "TestRequest",
    "UserScripts",
    "VirtualCluster",
    "WorkerHeartbeat",
    "scenario_digest",
]
