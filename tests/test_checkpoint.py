"""Tests for campaign checkpoint/resume (core/checkpoint.py)."""

from __future__ import annotations

import json

import pytest

from repro.core import (
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    RandomSearch,
    TargetRunner,
    standard_impact,
)
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointWriter,
    build_checkpoint,
    history_digest,
    load_checkpoint,
    replay_history,
    save_checkpoint,
    space_fingerprint,
)
from repro.errors import CheckpointError
from repro.sim.targets.coreutils import CoreutilsTarget


@pytest.fixture()
def space(coreutils) -> FaultSpace:
    return FaultSpace.product(
        test=range(1, 30), function=coreutils.libc_functions(),
        call=[0, 1, 2],
    )


def session(coreutils, space, iterations=40, seed=3, batch_size=4,
            strategy_factory=FitnessGuidedSearch, **kwargs):
    return ExplorationSession(
        TargetRunner(coreutils), space, standard_impact(),
        strategy_factory(), IterationBudget(iterations), rng=seed,
        batch_size=batch_size, **kwargs,
    )


class TestSaveLoad:
    def test_roundtrip(self, coreutils, space, tmp_path):
        results = session(coreutils, space).run()
        import random

        rng = random.Random(9)
        checkpoint = build_checkpoint(list(results), rng, space, 4,
                                      meta={"seed": 3})
        path = tmp_path / "run.ckpt.json"
        save_checkpoint(path, checkpoint)
        loaded = load_checkpoint(path)
        assert loaded.version == CHECKPOINT_VERSION
        assert loaded.batch_size == 4
        assert loaded.iterations == len(results)
        assert loaded.space == space_fingerprint(space)
        assert loaded.meta["seed"] == 3
        assert loaded.digest() == history_digest(list(results))
        restored = loaded.restore_executed()
        assert [t.fault for t in restored] == [t.fault for t in results]
        assert [t.impact for t in restored] == [t.impact for t in results]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "nope.json")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{{{")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(CheckpointError, match="not an AFEX checkpoint"):
            load_checkpoint(path)

    def test_wrong_version(self, coreutils, space, tmp_path):
        import random

        checkpoint = build_checkpoint([], random.Random(0), space, 1)
        payload = checkpoint.as_payload()
        payload["version"] = CHECKPOINT_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_malformed_payload(self, tmp_path):
        path = tmp_path / "hollow.json"
        path.write_text(json.dumps(
            {"kind": "afex-checkpoint", "version": CHECKPOINT_VERSION}
        ))
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)


class TestWriterPolicy:
    def test_writes_every_n(self, coreutils, space, tmp_path):
        path = tmp_path / "run.ckpt.json"
        sess = session(coreutils, space, iterations=40,
                       checkpoint_path=path, checkpoint_every=12)
        sess.run()
        # 40 tests / every-12 → writes at >=12, >=24, >=36, plus the
        # forced final write at 40.
        assert sess.checkpointer.writes == 4
        assert load_checkpoint(path).iterations == 40

    def test_every_zero_only_writes_final(self, coreutils, space, tmp_path):
        path = tmp_path / "run.ckpt.json"
        sess = session(coreutils, space, iterations=20,
                       checkpoint_path=path, checkpoint_every=0)
        sess.run()
        assert sess.checkpointer.writes == 1
        assert load_checkpoint(path).iterations == 20

    def test_negative_interval_rejected(self, space):
        with pytest.raises(CheckpointError):
            CheckpointWriter("x.json", -1, space, 1)


class TestResume:
    def test_serial_resume_is_byte_identical(self, coreutils, space,
                                             tmp_path):
        path = tmp_path / "run.ckpt.json"
        # Uninterrupted 60-iteration run: the reference trajectory.
        reference = session(coreutils, space, iterations=60).run()

        # "Killed" run: stop at 36, leaving a checkpoint.
        session(coreutils, space, iterations=36,
                checkpoint_path=path, checkpoint_every=12).run()
        checkpoint = load_checkpoint(path)
        assert checkpoint.iterations == 36

        resumed = session(coreutils, space, iterations=60,
                          resume_from=checkpoint).run()
        assert history_digest(list(resumed)) == history_digest(
            list(reference))

    def test_cluster_resume_is_byte_identical(self, coreutils, space,
                                              tmp_path):
        from repro.cluster import (
            FabricExecutor,
            FaultTolerantFabric,
            LocalCluster,
            NodeManager,
        )

        def explorer(iterations, **kwargs):
            fabric = FaultTolerantFabric(LocalCluster([
                NodeManager(f"n{i}", CoreutilsTarget()) for i in range(3)
            ]))
            return ExplorationSession(
                FabricExecutor(fabric), space, standard_impact(), FitnessGuidedSearch(),
                IterationBudget(iterations), rng=8, batch_size=3, **kwargs,
            )

        path = tmp_path / "cluster.ckpt.json"
        reference = explorer(60).run()
        explorer(30, checkpoint_path=path, checkpoint_every=9).run()
        resumed = explorer(
            60, resume_from=load_checkpoint(path),
            checkpoint_path=path, checkpoint_every=9,
        ).run()
        assert history_digest(list(resumed)) == history_digest(
            list(reference))
        final = load_checkpoint(path)
        assert final.iterations == 60
        assert "fabric_health" in final.meta

    def test_wrong_space_rejected(self, coreutils, space, tmp_path):
        path = tmp_path / "run.ckpt.json"
        session(coreutils, space, iterations=12, checkpoint_path=path,
                checkpoint_every=6).run()
        other_space = FaultSpace.product(
            test=range(1, 5), function=coreutils.libc_functions(),
            call=[0],
        )
        with pytest.raises(CheckpointError, match="space"):
            session(coreutils, other_space, iterations=12,
                    resume_from=load_checkpoint(path)).run()

    def test_wrong_batch_size_rejected(self, coreutils, space, tmp_path):
        path = tmp_path / "run.ckpt.json"
        session(coreutils, space, iterations=12, batch_size=4,
                checkpoint_path=path, checkpoint_every=6).run()
        with pytest.raises(CheckpointError, match="batch_size"):
            session(coreutils, space, iterations=24, batch_size=3,
                    resume_from=load_checkpoint(path)).run()

    def test_different_strategy_detected_as_divergence(self, coreutils,
                                                       space, tmp_path):
        # The record must reach past FitnessGuidedSearch's initial
        # random phase (25 proposals) — before that, its trajectory is
        # genuinely identical to RandomSearch's and there is no
        # divergence to detect.
        path = tmp_path / "run.ckpt.json"
        session(coreutils, space, iterations=40,
                checkpoint_path=path, checkpoint_every=10).run()
        with pytest.raises(CheckpointError, match="diverged"):
            session(coreutils, space, iterations=60,
                    strategy_factory=RandomSearch,
                    resume_from=load_checkpoint(path)).run()

    def test_different_seed_detected(self, coreutils, space, tmp_path):
        path = tmp_path / "run.ckpt.json"
        session(coreutils, space, iterations=12, seed=3,
                checkpoint_path=path, checkpoint_every=6).run()
        with pytest.raises(CheckpointError):
            session(coreutils, space, iterations=24, seed=4,
                    resume_from=load_checkpoint(path)).run()

    def test_replay_returns_count(self, coreutils, space, tmp_path):
        path = tmp_path / "run.ckpt.json"
        sess = session(coreutils, space, iterations=20,
                       checkpoint_path=path, checkpoint_every=10)
        sess.run()
        checkpoint = load_checkpoint(path)

        import random

        fresh = session(coreutils, space, iterations=20)
        rng = random.Random(3)
        fresh.rng = rng
        fresh.strategy.bind(space, rng)
        replayed = replay_history(
            checkpoint, fresh.strategy, 4, space, fresh._account, rng=rng,
        )
        assert replayed == 20
        assert len(fresh.executed) == 20


class TestCampaignIntegration:
    def test_campaign_job_resumes_from_path(self, coreutils, space,
                                            tmp_path):
        from repro.campaign import Campaign, CampaignJob

        def job(**kwargs):
            return CampaignJob(
                name="coreutils", target=CoreutilsTarget(), space=space,
                iterations=30, seed=2, nodes=3, fabric="threads",
                batch_size=3, **kwargs,
            )

        path = tmp_path / "job.ckpt.json"
        reference = Campaign([job()]).run(report_top_n=3)[0]
        Campaign([job(checkpoint_path=path, checkpoint_every=9)]).run(
            report_top_n=3)
        resumed_job = job(resume_from=path)
        _, resumed, _ = resumed_job.execute()
        assert history_digest(list(resumed)) == history_digest(
            list(reference.results))
        assert resumed_job.fabric_health is not None
        assert resumed_job.fabric_health.accounted()
