"""Tests for adaptive batch sizing (cluster/autobatch.py) and its
``--batch-size auto`` surface on the explorer and CLI."""

from __future__ import annotations

import pytest

from repro.cluster import (
    AdaptiveBatchController,
    FabricExecutor,
    LocalCluster,
    NodeManager,
)
from repro.core.checkpoint import history_digest
from repro.core.faultspace import FaultSpace
from repro.core.impact import standard_impact
from repro.core.search import strategy_by_name
from repro.core.session import ExplorationSession
from repro.core.targets import IterationBudget
from repro.errors import ClusterError
from repro.obs import MetricsRegistry
from repro.sim.targets.minidb import MiniDbTarget


class TestController:
    def test_starts_small_and_width_aligned(self):
        controller = AdaptiveBatchController(4)
        assert controller.batch_size() == 8  # 2x width: a cheap probe
        assert controller.batch_size() % 4 == 0

    def test_grows_toward_the_target_round_duration(self):
        controller = AdaptiveBatchController(4, target_round_seconds=1.0)
        size = controller.batch_size()
        # Fast rounds (1 ms/test): the ideal batch is 1000, growth is
        # bounded to 2x per round, so sizes double until the cap.
        seen = []
        for _ in range(12):
            size = controller.observe(size, size * 0.001)
            seen.append(size)
        assert seen[0] == 16  # 8 -> 16: one growth step, not a jump
        assert size == controller.max_batch  # 64 * width = 256 < 1000
        assert all(s % 4 == 0 for s in seen)

    def test_shrinks_when_tests_get_slow(self):
        controller = AdaptiveBatchController(2, target_round_seconds=0.1)
        size = controller.batch_size()
        for _ in range(8):
            size = controller.observe(size, size * 0.5)  # 0.5 s/test!
        assert size == controller.min_batch

    def test_bounded_move_per_round(self):
        controller = AdaptiveBatchController(1, target_round_seconds=10.0)
        first = controller.batch_size()
        nxt = controller.observe(first, first * 1e-6)  # absurdly fast
        assert nxt <= first * controller.growth  # no 10^7 jump

    def test_degenerate_observations_are_ignored(self):
        controller = AdaptiveBatchController(4)
        size = controller.batch_size()
        assert controller.observe(0, 1.0) == size
        assert controller.observe(8, 0.0) == size
        assert controller.observe(-3, -1.0) == size
        assert controller.rounds == 0
        assert controller.per_test_seconds is None

    def test_ewma_smooths_noisy_latency(self):
        controller = AdaptiveBatchController(1, smoothing=0.5)
        controller.observe(10, 10 * 0.010)
        assert controller.per_test_seconds == pytest.approx(0.010)
        controller.observe(10, 10 * 0.030)  # one noisy round
        assert controller.per_test_seconds == pytest.approx(0.020)

    def test_explicit_bounds_are_honoured(self):
        controller = AdaptiveBatchController(
            4, min_batch=8, max_batch=32, target_round_seconds=100.0
        )
        size = controller.batch_size()
        for _ in range(10):
            size = controller.observe(size, size * 1e-6)
        assert size == 32

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width": 0},
            {"width": 2, "target_round_seconds": 0.0},
            {"width": 2, "growth": 1.0},
            {"width": 2, "smoothing": 0.0},
            {"width": 2, "smoothing": 1.5},
            {"width": 2, "min_batch": 0},
            {"width": 2, "min_batch": 8, "max_batch": 4},
        ],
    )
    def test_bad_configuration_is_a_cluster_error(self, kwargs):
        width = kwargs.pop("width")
        with pytest.raises(ClusterError):
            AdaptiveBatchController(width, **kwargs)

    def test_stats_and_describe(self):
        controller = AdaptiveBatchController(2)
        assert "unmeasured" in controller.describe()
        controller.observe(4, 0.004)
        stats = controller.stats()
        assert stats["rounds"] == 1
        assert stats["width"] == 2
        assert stats["batch_size"] == controller.batch_size()
        assert "ms/test" in controller.describe()

    def test_metrics_gauges(self):
        controller = AdaptiveBatchController(2)
        registry = MetricsRegistry()
        controller.bind_metrics(registry)
        controller.bind_metrics(registry)  # idempotent
        controller.observe(8, 0.008)
        gauges = registry.snapshot()["gauges"]
        assert gauges["fabric.batch.size"] == controller.batch_size()
        assert gauges["fabric.batch.per_test_seconds"] == \
            pytest.approx(0.001)


def _explore(minidb, **kwargs):
    space = FaultSpace.product(
        test=range(1, len(minidb.suite) + 1),
        function=minidb.libc_functions(),
        call=range(0, 3),
    )
    managers = [NodeManager(f"m{i}", minidb) for i in range(2)]
    session = ExplorationSession(
        FabricExecutor(LocalCluster(managers)), space, standard_impact(),
        strategy_by_name("fitness"), IterationBudget(60), rng=5, **kwargs,
    )
    return session, session.run()


class TestExplorerIntegration:
    def test_auto_runs_a_campaign_and_adapts(self, minidb):
        session, reports = _explore(minidb, batch_size="auto")
        assert len(list(reports)) == 60
        assert session.executor.autobatch is not None
        assert session.executor.autobatch.rounds >= 1
        # The simulated target is fast: the controller must have grown
        # past its opening probe size.
        assert session.batch_size > 2 * len(session.executor.cluster)

    def test_fixed_batch_size_leaves_the_controller_off(self, minidb):
        session, reports = _explore(minidb, batch_size=6)
        assert session.executor.autobatch is None
        assert session.batch_size == 6
        assert len(list(reports)) == 60

    def test_auto_is_deterministic_for_a_fixed_trajectory(self, minidb):
        # Batch sizes depend on wall-clock, so auto trades replayability
        # for speed — but identical fixed-size runs must stay identical,
        # proving auto changed only scheduling, not per-test outcomes.
        _, first = _explore(minidb, batch_size=8)
        _, second = _explore(minidb, batch_size=8)
        assert history_digest(list(first)) == history_digest(list(second))

    def test_auto_refuses_checkpointing(self, minidb, tmp_path):
        space = FaultSpace.product(
            test=range(1, 3), function=minidb.libc_functions(), call=[0]
        )
        with pytest.raises(ClusterError, match="auto"):
            ExplorationSession(
                FabricExecutor(LocalCluster([NodeManager("m", minidb)])), space,
                standard_impact(), strategy_by_name("fitness"),
                IterationBudget(4), batch_size="auto",
                checkpoint_path=tmp_path / "c.json",
            )

    def test_unknown_batch_size_string_is_refused(self, minidb):
        space = FaultSpace.product(
            test=range(1, 3), function=minidb.libc_functions(), call=[0]
        )
        with pytest.raises(ClusterError):
            ExplorationSession(
                FabricExecutor(LocalCluster([NodeManager("m", minidb)])), space,
                standard_impact(), strategy_by_name("fitness"),
                IterationBudget(4), batch_size="huge",
            )


class TestCliSurface:
    def test_batch_size_auto_parses(self, capsys):
        from repro.cli import main

        code = main([
            "run", "--target", "minidb", "--iterations", "24",
            "--fabric", "threads", "--nodes", "2",
            "--batch-size", "auto", "--seed", "3",
        ])
        assert code in (0, 1)  # campaign verdict, not a usage error
        out = capsys.readouterr().out
        assert "tests" in out.lower() or out  # it ran and reported

    def test_batch_size_auto_needs_a_parallel_fabric(self, capsys):
        from repro.cli import main

        code = main([
            "run", "--target", "minidb", "--iterations", "8",
            "--fabric", "serial", "--batch-size", "auto",
        ])
        assert code == 2
        assert "parallel fabric" in capsys.readouterr().out

    def test_batch_size_auto_refuses_checkpointing(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "run", "--target", "minidb", "--iterations", "8",
            "--fabric", "threads", "--batch-size", "auto",
            "--checkpoint", str(tmp_path / "c.json"),
        ])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().out

    def test_batch_size_rejects_garbage(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([
                "run", "--target", "minidb", "--iterations", "8",
                "--batch-size", "sometimes",
            ])
