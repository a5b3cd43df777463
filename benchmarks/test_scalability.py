"""§7.7: scalability of the AFEX prototype.

Two claims reproduced:

1. "the number of tests performed scales linearly, with virtually no
   overhead" on 1-14 nodes — measured on the virtual-time cluster
   (DESIGN.md documents the EC2 → virtual-time substitution);
2. "the AFEX explorer can generate 8,500 tests per second ...  it could
   easily keep a cluster of several thousand node managers 100% busy" —
   measured as the raw generation rate of Algorithm 1 in isolation.
"""

from __future__ import annotations

import random

from conftest import run_once
from repro.cluster import FabricExecutor, NodeManager, VirtualCluster
from repro.core import (
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    standard_impact,
)
from repro.sim.targets.coreutils import COREUTILS_FUNCTIONS, CoreutilsTarget
from repro.util.tables import TextTable

NODE_COUNTS = (1, 2, 4, 8, 14)
TESTS_PER_RUN = 420  # divisible by every node count's batches


def _space() -> FaultSpace:
    return FaultSpace.product(
        test=range(1, 30), function=COREUTILS_FUNCTIONS, call=[0, 1, 2]
    )


def test_scalability_linear_nodes(benchmark, report):
    def experiment():
        rows = {}
        for nodes in NODE_COUNTS:
            managers = [
                NodeManager(f"node{i}", CoreutilsTarget()) for i in range(nodes)
            ]
            cluster = VirtualCluster(managers)
            explorer = ExplorationSession(
                FabricExecutor(cluster),
                _space(),
                standard_impact(),
                FitnessGuidedSearch(),
                IterationBudget(TESTS_PER_RUN),
                rng=3,
                batch_size=max(nodes * 2, 8),
            )
            results = explorer.run()
            rows[nodes] = (len(results), cluster.makespan,
                           cluster.speedup_over_serial())
        return rows

    rows = run_once(benchmark, experiment)

    table = TextTable(
        ["nodes", "tests", "virtual makespan (s)", "speedup"],
        title="§7.7 — virtual-time cluster scaling (paper: linear, 1-14 "
              "EC2 nodes)",
    )
    for nodes, (tests, makespan, speedup) in rows.items():
        table.add_row([nodes, tests, f"{makespan:.4f}", f"{speedup:.2f}x"])
    report("scalability_nodes", table.render())

    # Linear-ish scaling: 14 nodes achieve >= 10x the single-node speedup,
    # and makespan decreases monotonically with node count.
    makespans = [rows[n][1] for n in NODE_COUNTS]
    assert all(b < a for a, b in zip(makespans, makespans[1:]))
    assert rows[14][2] >= 10.0
    assert rows[8][2] >= 6.0


def test_scalability_explorer_generation_rate(benchmark, report):
    """The explorer in isolation: tests generated per second.

    The paper reports 8,500 tests/s on a 2 GHz Xeon E5405 (2008
    hardware).  We measure Algorithm 1's propose+observe loop with a
    synthetic zero-cost executor.
    """
    space = FaultSpace.product(
        test=range(1, 1148), function=COREUTILS_FUNCTIONS, call=range(1, 101)
    )

    def generate_batch():
        strategy = FitnessGuidedSearch(initial_batch=25)
        strategy.bind(space, random.Random(1))
        produced = 0
        from repro.injection.plan import InjectionPlan
        from repro.sim.process import RunResult

        blank = RunResult(
            test_id=1, test_name="", plan=InjectionPlan.none(), exit_code=0,
            crash_kind=None, crash_message=None, crash_stack=None,
            injection_stack=None, injected=True, coverage=frozenset(),
            steps=1,
        )
        for _ in range(2000):
            fault = strategy.propose()
            if fault is None:
                break
            strategy.observe(fault, 1.0, blank)
            produced += 1
        return produced

    produced = benchmark(generate_batch)
    rate = produced / benchmark.stats.stats.mean
    report(
        "scalability_generation_rate",
        (
            f"explorer generation rate: {rate:,.0f} tests/second\n"
            f"(paper: 8,500/s on a 2008-era Xeon; enough to keep thousands "
            f"of node managers busy)"
        ),
    )
    assert produced == 2000
    assert rate > 8500  # modern hardware should comfortably beat the paper
