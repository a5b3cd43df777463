"""Batched speculative exploration: throughput of the execution fabrics.

Measures the PR's two perf claims on MiniDB and writes the numbers to
``BENCH_parallel.json`` at the repo root (also persisted as a text table
under ``benchmarks/out/``):

1. **Process-pool fabric** — tests/second of a 4-worker
   :class:`ProcessPoolCluster` exploration (fixed batch and adaptive
   ``--batch-size auto``) vs the serial in-process loop.  Real
   multi-core speedup is only physically possible with >= 2 usable
   cores, so the >= serial gate is skipped — with the machine's
   ``cpu_count``/affinity and an explicit reason recorded in the JSON —
   when the container is starved; the :class:`VirtualCluster` modelled
   speedup — the repo's documented stand-in for hardware we cannot rent
   (see DESIGN.md on the EC2 substitution) — is reported alongside.
2. **Result cache** — a certification campaign job re-run against a warm
   shared :class:`ResultCache` must be ≥1.5x faster than its cold first
   run.  This holds on any hardware: the second run replays memoized
   executions instead of the simulator.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

from conftest import cores_info, run_once
from repro.campaign import CampaignJob
from repro.core.checkpoint import history_digest
from repro.obs import MetricsRegistry, RingBufferSink, Tracer, profile_payload
from repro.cluster import (
    FabricExecutor,
    NodeManager,
    ProcessPoolCluster,
    VirtualCluster,
)
from repro.core import (
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    RandomSearch,
    ResultCache,
    TargetRunner,
    standard_impact,
)
from repro.sim.targets import target_by_name
from repro.sim.targets.minidb import MINIDB_FUNCTIONS, MiniDbTarget
from repro.util.tables import TextTable

ITERATIONS = 420        # >= 400 per the acceptance bar
WORKERS = 4
BATCH_SIZE = 16
SEED = 3
CACHE_ITERATIONS = 250
BENCH_PATH = Path(__file__).parent.parent / "BENCH_parallel.json"
OBS_ITERATIONS = 300
OBS_REPEATS = 5
OBS_BENCH_PATH = Path(__file__).parent.parent / "BENCH_obs.json"


def _space() -> FaultSpace:
    return FaultSpace.product(
        test=range(1, 1148), function=MINIDB_FUNCTIONS, call=range(1, 101)
    )


def _timed(func):
    started = time.perf_counter()
    result = func()
    return result, time.perf_counter() - started


def test_parallel_fabric_throughput(benchmark, report):
    cores = cores_info()

    def experiment():
        # -- serial baseline: the pre-batching in-process loop -------------
        serial_results, serial_s = _timed(lambda: ExplorationSession(
            TargetRunner(MiniDbTarget()), _space(), standard_impact(),
            FitnessGuidedSearch(), IterationBudget(ITERATIONS), rng=SEED,
        ).run())

        # -- process-pool fabric: 4 warm workers, chunked dispatch ---------
        def explore_on_pool(batch_size):
            with ProcessPoolCluster(
                functools.partial(target_by_name, "minidb"), workers=WORKERS
            ) as pool:
                executor = FabricExecutor(pool)
                results = ExplorationSession(
                    executor, _space(), standard_impact(),
                    FitnessGuidedSearch(), IterationBudget(ITERATIONS),
                    rng=SEED, batch_size=batch_size,
                ).run()
                return (
                    results, pool.is_degraded, pool.encode_seconds,
                    executor.autobatch.stats()
                    if executor.autobatch is not None else None,
                )
        (pool_results, degraded, encode_s, _), pool_s = _timed(
            lambda: explore_on_pool(BATCH_SIZE)
        )

        # -- same pool, adaptive batch sizing (--batch-size auto) ----------
        (auto_results, _, _, auto_stats), auto_s = _timed(
            lambda: explore_on_pool("auto")
        )

        # -- virtual-time model: what a real 4-node cluster would do -------
        virtual = VirtualCluster([
            NodeManager(f"vnode{i}", MiniDbTarget()) for i in range(WORKERS)
        ])
        virtual_results = ExplorationSession(
            FabricExecutor(virtual), _space(), standard_impact(), FitnessGuidedSearch(),
            IterationBudget(ITERATIONS), rng=SEED, batch_size=BATCH_SIZE,
        ).run()

        # -- cache: re-certify the same system against a warm cache --------
        cache = ResultCache()
        job = CampaignJob(
            name="minidb-recertify", target=MiniDbTarget(), space=_space(),
            iterations=CACHE_ITERATIONS, seed=5,
            strategy_factory=RandomSearch, cache=cache,
        )
        (_, cold_results, _), cold_s = _timed(job.execute)
        (_, warm_results, _), warm_s = _timed(job.execute)
        assert warm_results.to_json() == cold_results.to_json()

        return {
            "serial": (len(serial_results), serial_s),
            "pool": (len(pool_results), pool_s, degraded, encode_s),
            "auto": (len(auto_results), auto_s, auto_stats),
            "virtual": (len(virtual_results), virtual.speedup_over_serial()),
            "cache": (cold_s, warm_s, cache.stats()),
        }

    measured = run_once(benchmark, experiment)

    serial_n, serial_s = measured["serial"]
    pool_n, pool_s, degraded, encode_s = measured["pool"]
    auto_n, auto_s, auto_stats = measured["auto"]
    virtual_n, modelled_speedup = measured["virtual"]
    cold_s, warm_s, cache_stats = measured["cache"]

    serial_rate = serial_n / serial_s
    pool_rate = pool_n / pool_s
    auto_rate = auto_n / auto_s
    pool_speedup = pool_rate / serial_rate
    auto_speedup = auto_rate / serial_rate
    cache_speedup = cold_s / warm_s if warm_s > 0 else float("inf")

    # The >=serial gate needs real parallel hardware; on a starved
    # machine it is recorded as skipped, with the reason, instead of
    # asserting physics the container cannot provide.
    gate_runnable = cores["usable"] >= 2
    gate_reason = (
        None if gate_runnable else
        f"only {cores['usable']} usable core(s) "
        f"(cpu_count={cores['cpu_count']}): a process pool cannot "
        f"beat serial without a second core"
    )

    payload = {
        "benchmark": "parallel_fabric",
        "target": "minidb",
        "iterations": ITERATIONS,
        "cores": cores,
        "speedup_gate": {
            "skipped": not gate_runnable,
            "reason": gate_reason,
            "threshold": 1.0,
        },
        "serial": {
            "tests": serial_n,
            "seconds": round(serial_s, 4),
            "tests_per_second": round(serial_rate, 1),
        },
        "process_pool": {
            "workers": WORKERS,
            "batch_size": BATCH_SIZE,
            "tests": pool_n,
            "seconds": round(pool_s, 4),
            "tests_per_second": round(pool_rate, 1),
            "speedup_vs_serial": round(pool_speedup, 2),
            "encode_seconds": round(encode_s, 4),
            "degraded": degraded,
        },
        "process_pool_auto": {
            "workers": WORKERS,
            "batch_size": "auto",
            "tests": auto_n,
            "seconds": round(auto_s, 4),
            "tests_per_second": round(auto_rate, 1),
            "speedup_vs_serial": round(auto_speedup, 2),
            "controller": auto_stats,
        },
        "virtual_cluster": {
            "nodes": WORKERS,
            "tests": virtual_n,
            "modelled_speedup": round(modelled_speedup, 2),
        },
        "cache": {
            "iterations": CACHE_ITERATIONS,
            "cold_seconds": round(cold_s, 4),
            "warm_seconds": round(warm_s, 4),
            "speedup": round(cache_speedup, 2),
            **cache_stats,
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    table = TextTable(
        ["fabric", "tests", "seconds", "tests/s", "speedup"],
        title=f"execution-fabric throughput, MiniDB x{ITERATIONS} "
              f"({cores['usable']} of {cores['cpu_count']} core(s) usable)",
    )
    table.add_row(["serial", serial_n, f"{serial_s:.2f}",
                   f"{serial_rate:.0f}", "1.00x"])
    table.add_row([f"processes x{WORKERS}", pool_n, f"{pool_s:.2f}",
                   f"{pool_rate:.0f}", f"{pool_speedup:.2f}x"])
    table.add_row([f"processes x{WORKERS} auto-batch", auto_n,
                   f"{auto_s:.2f}", f"{auto_rate:.0f}",
                   f"{auto_speedup:.2f}x"])
    table.add_row([f"virtual x{WORKERS} (modelled)", virtual_n, "-", "-",
                   f"{modelled_speedup:.2f}x"])
    table.add_row([f"warm cache (x{CACHE_ITERATIONS} re-run)", "-",
                   f"{warm_s:.3f}", "-", f"{cache_speedup:.2f}x"])
    if not gate_runnable:
        table.add_row(["speedup gate SKIPPED", "-", "-", "-", gate_reason])
    report("parallel_fabric", table.render()
           + f"\nwritten to {BENCH_PATH.name}")

    assert serial_n >= ITERATIONS and pool_n >= ITERATIONS
    assert auto_n >= ITERATIONS
    assert not degraded  # partial(target_by_name, ...) must pickle
    assert auto_stats["rounds"] >= 1  # the controller actually steered
    # The modelled 4-node cluster shows the §6.1 embarrassing parallelism.
    assert modelled_speedup >= 2.0
    # Real-core speedup is only physically possible with >= 2 cores:
    # on parallel hardware the batched pool must beat serial outright.
    if gate_runnable:
        assert pool_speedup >= 1.0, payload["process_pool"]
        assert auto_speedup >= 1.0, payload["process_pool_auto"]
    # The warm cache wins on any hardware.
    assert cache_speedup >= 1.5, payload["cache"]
    assert cache_stats["hits"] >= CACHE_ITERATIONS


def test_observability_overhead(benchmark, report):
    """Full instrumentation must cost < 5% at this file's batch size.

    Both arms run the identical serial MiniDB exploration (same seed,
    same batch size as every fabric experiment above); the instrumented
    arm adds a :class:`MetricsRegistry` plus a :class:`Tracer` with a
    ring sink — the exact ``--profile`` configuration.  Min-of-N per arm
    (interleaved) suppresses machine noise.  ``batch_size=1`` is also
    measured and reported: there every test is its own round, so the
    per-round spans have nothing to amortize over — the recorded
    worst case, informational rather than gated.
    """

    def run(instrumented: bool, batch_size: int):
        metrics = MetricsRegistry() if instrumented else None
        tracer = (
            Tracer(sinks=[RingBufferSink(capacity=65536)])
            if instrumented else None
        )
        started = time.perf_counter()
        results = ExplorationSession(
            TargetRunner(MiniDbTarget(), metrics=metrics, tracer=tracer),
            _space(), standard_impact(), FitnessGuidedSearch(),
            IterationBudget(OBS_ITERATIONS), rng=SEED,
            batch_size=batch_size, metrics=metrics, tracer=tracer,
        ).run()
        return time.perf_counter() - started, results, metrics

    def experiment():
        timings: dict[tuple[bool, int], list[float]] = {}
        digests: dict[tuple[bool, int], str] = {}
        registry = None
        for batch_size in (BATCH_SIZE, 1):
            run(False, batch_size)  # warm both arms before timing
            run(True, batch_size)
            for _ in range(OBS_REPEATS):
                for instrumented in (False, True):
                    seconds, results, metrics = run(instrumented, batch_size)
                    timings.setdefault((instrumented, batch_size),
                                       []).append(seconds)
                    digests[(instrumented, batch_size)] = history_digest(
                        list(results)
                    )
                    if instrumented and batch_size == BATCH_SIZE:
                        registry = metrics
        return timings, digests, registry

    (timings, digests, registry) = run_once(benchmark, experiment)

    def overhead(batch_size: int) -> tuple[float, float, float]:
        plain = min(timings[(False, batch_size)])
        instrumented = min(timings[(True, batch_size)])
        return plain, instrumented, instrumented / plain - 1.0

    plain_s, obs_s, gated = overhead(BATCH_SIZE)
    plain1_s, obs1_s, worst = overhead(1)

    snapshot = registry.snapshot()
    payload = profile_payload(registry, meta={
        "benchmark_config": "serial minidb",
        "cores": cores_info(),
        "iterations": OBS_ITERATIONS,
        "repeats": OBS_REPEATS,
        "batch_size": BATCH_SIZE,
        "plain_seconds": round(plain_s, 4),
        "instrumented_seconds": round(obs_s, 4),
        "overhead_pct": round(gated * 100, 2),
        "batch1_overhead_pct": round(worst * 100, 2),
    })
    OBS_BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    table = TextTable(
        ["config", "plain s", "instrumented s", "overhead"],
        title=f"observability overhead, MiniDB x{OBS_ITERATIONS} "
              f"(min of {OBS_REPEATS}, interleaved)",
    )
    table.add_row([f"batch={BATCH_SIZE} (gated)", f"{plain_s:.3f}",
                   f"{obs_s:.3f}", f"{gated * 100:.2f}%"])
    table.add_row(["batch=1 (worst case)", f"{plain1_s:.3f}",
                   f"{obs1_s:.3f}", f"{worst * 100:.2f}%"])
    report("observability_overhead", table.render()
           + f"\nwritten to {OBS_BENCH_PATH.name}")

    # Instrumentation observes; it must never steer the search.
    for batch_size in (BATCH_SIZE, 1):
        assert digests[(False, batch_size)] == digests[(True, batch_size)]
    # The registry saw every execution, and the timed series are live.
    # (A batched session may overshoot its budget by up to one batch.)
    tests = snapshot["counters"]["session.tests"]
    assert OBS_ITERATIONS <= tests < OBS_ITERATIONS + BATCH_SIZE
    execute = snapshot["histograms"]["runner.execute_seconds"]
    assert execute["count"] == tests and execute["sum"] > 0
    assert payload["benchmark"] == "observability"
    assert gated < 0.05, {
        "plain": plain_s, "instrumented": obs_s, "overhead": gated,
    }
