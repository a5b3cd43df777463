"""End-to-end observability: traces, metrics, checkpoints, CLI, campaign.

The headline property (ISSUE acceptance): a recorded trace of a
process-pool exploration replays into a tree where propose / dispatch /
execute / inject / verdict spans nest correctly with matching trace ids
across the process boundary.
"""

from __future__ import annotations

import functools
import json

from repro.campaign import Campaign, CampaignJob
from repro.cluster import (
    FabricExecutor,
    FaultTolerantFabric,
    LocalCluster,
    NodeManager,
    ProcessPoolCluster,
)
from repro.core import (
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    TargetRunner,
    standard_impact,
)
from repro.core.cache import ResultCache
from repro.core.checkpoint import CHECKPOINT_VERSION, load_checkpoint
from repro.obs import (
    TRACE_SCHEMA_VERSION,
    MetricsRegistry,
    RingBufferSink,
    Tracer,
    assemble,
    parse_prometheus,
    read_jsonl,
)
from repro.sim.targets import target_by_name


def small_space(target) -> FaultSpace:
    return FaultSpace.product(
        test=range(1, 20), function=target.libc_functions(), call=[0, 1, 2],
    )


def serial_session(target, *, iterations=25, seed=2, metrics=None,
                   tracer=None, cache=None, **kwargs) -> ExplorationSession:
    return ExplorationSession(
        runner=TargetRunner(target, cache=cache, metrics=metrics,
                            tracer=tracer),
        space=small_space(target),
        metric=standard_impact(),
        strategy=FitnessGuidedSearch(),
        target=IterationBudget(iterations),
        rng=seed,
        metrics=metrics,
        tracer=tracer,
        **kwargs,
    )


class TestTraceReconstruction:
    """Replay a recorded trace and verify the round pipeline nests."""

    def test_process_pool_spans_nest_across_the_process_boundary(self):
        target = target_by_name("coreutils")
        ring = RingBufferSink(capacity=100_000)
        tracer = Tracer(sinks=[ring])
        metrics = MetricsRegistry()
        pool = ProcessPoolCluster(
            functools.partial(target_by_name, "coreutils"), workers=2,
        )
        explorer = ExplorationSession(
            FabricExecutor(pool), small_space(target), standard_impact(),
            FitnessGuidedSearch(), IterationBudget(12), rng=3,
            batch_size=4, metrics=metrics, tracer=tracer,
        )
        try:
            results = explorer.run()
        finally:
            pool.close()
        assert len(results) == 12

        traces = assemble(ring.events)
        assert set(traces) == {tracer.trace_id}  # one trace id everywhere
        tree = traces[tracer.trace_id]

        rounds = tree["roots"]
        assert all(n["event"]["name"] == "round" for n in rounds)
        assert len(rounds) == 3  # 12 tests / batch 4

        executes_seen = 0
        injects_seen = 0
        for round_node in rounds:
            names = [c["event"]["name"] for c in round_node["children"]]
            assert names[0] == "propose"
            assert names[1] == "dispatch"
            assert names.count("verdict") == 4
            (dispatch,) = [c for c in round_node["children"]
                           if c["event"]["name"] == "dispatch"]
            for child in dispatch["children"]:
                event = child["event"]
                # Worker-side spans: produced in another process, with
                # request-derived ids, parented to this dispatch span.
                assert event["name"] == "execute"
                assert event["span"].startswith("w")
                assert event["parent"] == dispatch["event"]["span"]
                assert event["trace"] == tracer.trace_id
                executes_seen += 1
                for grandchild in child["children"]:
                    assert grandchild["event"]["name"] == "inject"
                    assert grandchild["event"]["parent"] == event["span"]
                    injects_seen += 1
        assert executes_seen == 12
        # The rng=3 trajectory injects at least one real fault.
        assert injects_seen >= 1

        snapshot = metrics.snapshot()
        assert snapshot["histograms"]["fabric.dispatch_seconds"]["count"] == 3
        assert snapshot["counters"]["session.tests"] == 12

    def test_serial_trace_includes_cache_lookup(self):
        target = target_by_name("coreutils")
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        serial_session(target, iterations=6, tracer=tracer,
                       cache=ResultCache()).run()
        tree = assemble(ring.events)[tracer.trace_id]
        (dispatch,) = [
            c for c in tree["roots"][0]["children"]
            if c["event"]["name"] == "dispatch"
        ]
        names = [c["event"]["name"] for c in dispatch["children"]]
        assert "cache_lookup" in names and "execute" in names


class TestCheckpointMetadata:
    def test_metrics_snapshot_and_trace_schema_land_in_meta(self, tmp_path):
        target = target_by_name("coreutils")
        path = tmp_path / "ck.json"
        metrics = MetricsRegistry()
        session = serial_session(
            target, iterations=20, metrics=metrics,
            checkpoint_path=path, checkpoint_every=10,
        )
        session.run()
        checkpoint = load_checkpoint(path)
        assert checkpoint.version == CHECKPOINT_VERSION
        assert checkpoint.meta["trace_schema"] == TRACE_SCHEMA_VERSION
        embedded = checkpoint.meta["metrics"]
        assert embedded["counters"]["session.tests"] == 20
        assert embedded["counters"]["runner.tests"] == 20
        # The whole snapshot survives the JSON round trip verbatim.
        assert json.loads(json.dumps(embedded)) == embedded

    def test_resume_unaffected_by_observability_metadata(self, tmp_path):
        target = target_by_name("coreutils")
        path = tmp_path / "ck.json"
        serial_session(target, iterations=20, metrics=MetricsRegistry(),
                       checkpoint_path=path, checkpoint_every=5).run()
        resumed = serial_session(
            target, iterations=30, metrics=MetricsRegistry(),
            resume_from=load_checkpoint(path),
        ).run()
        uninterrupted = serial_session(target, iterations=30).run()
        from repro.core.checkpoint import history_digest

        assert history_digest(list(resumed)) == \
            history_digest(list(uninterrupted))


class TestDeterministicCounters:
    def test_identical_runs_report_identical_counters(self):
        target = target_by_name("coreutils")

        def counters():
            metrics = MetricsRegistry()
            serial_session(target, iterations=25, metrics=metrics,
                           cache=ResultCache()).run()
            return metrics.counters()

        first, second = counters(), counters()
        assert first == second
        assert first["session.tests"] == 25
        assert any(k.startswith("sim.injected_calls") for k in first)

    def test_instrumented_and_plain_runs_explore_identically(self):
        target = target_by_name("coreutils")
        plain = serial_session(target, iterations=25).run()
        observed = serial_session(
            target, iterations=25, metrics=MetricsRegistry(),
            tracer=Tracer(sinks=[RingBufferSink()]),
        ).run()
        from repro.core.checkpoint import history_digest

        assert history_digest(list(plain)) == history_digest(list(observed))


class TestThreadFabricMetrics:
    def test_worker_utilization_gauges_collected(self):
        target = target_by_name("coreutils")
        target.suite  # pre-build once so managers share it
        metrics = MetricsRegistry()
        managers = [
            NodeManager(f"n{i}", target, metrics=metrics) for i in range(2)
        ]
        fabric = FaultTolerantFabric(LocalCluster(managers),
                                     sleep=lambda _: None)
        ExplorationSession(
            FabricExecutor(fabric), small_space(target), standard_impact(),
            FitnessGuidedSearch(), IterationBudget(10), rng=1,
            batch_size=2, metrics=metrics,
        ).run()
        snapshot = metrics.snapshot()
        gauges = snapshot["gauges"]
        assert gauges['fabric.worker_executed{worker="n0"}'] \
            + gauges['fabric.worker_executed{worker="n1"}'] == 10
        assert gauges["fabric.health.completed"] == 10
        assert snapshot["counters"]['manager.tests{manager="n0"}'] \
            + snapshot["counters"]['manager.tests{manager="n1"}'] == 10


class TestHotPathGauges:
    """The perf-tentpole series (encode cost, wire economy, batch size)
    must reach the Prometheus export (satellite)."""

    def test_socket_fabric_exports_wire_cost_gauges(self):
        from repro.cluster import ExplorerNode, SocketFabric
        from repro.obs import to_prometheus

        target = target_by_name("coreutils")
        metrics = MetricsRegistry()
        net = SocketFabric("127.0.0.1:0", expected_nodes=1)
        node = ExplorerNode(
            (net.host, net.port),
            functools.partial(target_by_name, "coreutils"),
            name="obs", capacity=4,
        )
        thread = node.run_in_thread()
        try:
            net.wait_for_nodes(timeout=15)
            ExplorationSession(
                FabricExecutor(net), small_space(target), standard_impact(),
                FitnessGuidedSearch(), IterationBudget(12), rng=2,
                batch_size=4, metrics=metrics,
            ).run()
            net.bind_metrics(metrics)
            parsed = parse_prometheus(to_prometheus(metrics))
        finally:
            net.close()
            node.stop()
            thread.join(timeout=10)
        encode = parsed["afex_fabric_dispatch_encode_seconds"]["samples"]
        assert encode["afex_fabric_dispatch_encode_seconds"] >= 0.0
        per_test = parsed["afex_fabric_net_bytes_per_test"]["samples"][
            "afex_fabric_net_bytes_per_test"]
        assert per_test > 0.0
        # The whole point of wire v2: a test costs tens of bytes, not
        # the ~1 kB the JSON dialect paid.
        assert per_test < 1000.0

    def test_process_pool_exports_encode_seconds(self):
        from repro.obs import to_prometheus

        target = target_by_name("coreutils")
        metrics = MetricsRegistry()
        pool = ProcessPoolCluster(
            functools.partial(target_by_name, "coreutils"), workers=2,
        )
        pool.bind_metrics(metrics)
        try:
            ExplorationSession(
                FabricExecutor(pool), small_space(target), standard_impact(),
                FitnessGuidedSearch(), IterationBudget(8), rng=2,
                batch_size=4, metrics=metrics,
            ).run()
            parsed = parse_prometheus(to_prometheus(metrics))
        finally:
            pool.close()
        samples = parsed["afex_fabric_dispatch_encode_seconds"]["samples"]
        assert samples["afex_fabric_dispatch_encode_seconds"] > 0.0

    def test_adaptive_batching_exports_batch_size_gauge(self):
        from repro.obs import to_prometheus

        target = target_by_name("coreutils")
        metrics = MetricsRegistry()
        managers = [NodeManager(f"g{i}", target) for i in range(2)]
        ExplorationSession(
            FabricExecutor(LocalCluster(managers)), small_space(target),
            standard_impact(), FitnessGuidedSearch(), IterationBudget(20),
            rng=2, batch_size="auto", metrics=metrics,
        ).run()
        parsed = parse_prometheus(to_prometheus(metrics))
        size = parsed["afex_fabric_batch_size"]["samples"][
            "afex_fabric_batch_size"]
        assert size >= 2  # a real dispatch width, adapted at least once
        assert parsed["afex_fabric_batch_per_test_seconds"]["samples"][
            "afex_fabric_batch_per_test_seconds"] > 0.0


class TestCampaignWiring:
    def test_outcome_carries_snapshot_and_scorecard_renders_hit_ratio(self):
        target = target_by_name("coreutils")
        metrics = MetricsRegistry()
        cache = ResultCache()
        campaign = Campaign()
        campaign.add(CampaignJob(
            name="coreutils-obs", target=target,
            space=small_space(target), iterations=15, seed=1,
            cache=cache, metrics=metrics,
        ))
        (outcome,) = campaign.run(report_top_n=3)
        assert outcome.metrics_snapshot is not None
        assert outcome.metrics_snapshot["counters"]["session.tests"] == 15
        assert "cache.hit_ratio" in outcome.metrics_snapshot["gauges"]
        text = Campaign.scorecard([outcome]).render()
        assert "cache hit%" in text


class TestCliFlags:
    def test_profile_metrics_and_trace_outputs(self, tmp_path, monkeypatch,
                                               capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main([
            "run", "--target", "coreutils", "--iterations", "15",
            "--seed", "1", "--profile", str(tmp_path / "profile.json"),
            "--metrics-out", str(tmp_path / "metrics.prom"),
            "--trace-out", str(tmp_path / "trace.jsonl"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "history digest:" in out
        assert f"profile: {tmp_path / 'profile.json'}" in out
        assert not (tmp_path / "BENCH_obs.json").exists()

        parsed = parse_prometheus((tmp_path / "metrics.prom").read_text())
        assert parsed["afex_session_tests_total"]["samples"][
            "afex_session_tests_total"] == 15.0
        assert "afex_runner_execute_seconds" in parsed

        events = read_jsonl(tmp_path / "trace.jsonl")
        assert {e["v"] for e in events} == {TRACE_SCHEMA_VERSION}
        tree = assemble(events)
        (trace_id,) = tree.keys()
        assert all(n["event"]["name"] == "round"
                   for n in tree[trace_id]["roots"])

        payload = json.loads((tmp_path / "profile.json").read_text())
        assert payload["benchmark"] == "observability"
        assert payload["meta"]["target"] == "coreutils"
        assert payload["counters"]["session.tests"] == 15
        assert payload["histograms"]["runner.execute_seconds"]["count"] == 15

    def test_run_without_flags_collects_nothing(self, capsys):
        from repro.cli import main

        code = main([
            "run", "--target", "coreutils", "--iterations", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "history digest:" in out
        assert "profile:" not in out
