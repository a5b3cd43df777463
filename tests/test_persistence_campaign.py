"""Tests for result-set persistence and the campaign (certification) mode."""

from __future__ import annotations

import pytest

from repro.campaign import Campaign, CampaignJob
from repro.core import (
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    RandomSearch,
    TargetRunner,
    standard_impact,
)
from repro.core.fault import Fault
from repro.core.results import ResultSet
from repro.errors import ReportError
from repro.sim.targets.coreutils import CoreutilsTarget
from repro.sim.targets.docstore import DocStoreTarget


def explore(coreutils, iterations=80, seed=3) -> ResultSet:
    return ExplorationSession(
        TargetRunner(coreutils),
        FaultSpace.product(
            test=range(1, 30), function=coreutils.libc_functions(),
            call=[0, 1, 2],
        ),
        standard_impact(),
        FitnessGuidedSearch(initial_batch=10),
        IterationBudget(iterations),
        rng=seed,
    ).run()


class TestResultPersistence:
    @pytest.fixture(scope="class")
    def results(self, coreutils) -> ResultSet:
        return explore(coreutils)

    def test_roundtrip_preserves_counts(self, results):
        restored = ResultSet.from_json(results.to_json())
        assert len(restored) == len(results)
        assert restored.failed_count() == results.failed_count()
        assert restored.crash_count() == results.crash_count()

    def test_roundtrip_preserves_faults_and_impacts(self, results):
        restored = ResultSet.from_json(results.to_json())
        for original, loaded in zip(results, restored):
            assert loaded.fault == original.fault
            assert loaded.impact == original.impact
            assert loaded.result.summary() == original.result.summary()

    def test_roundtrip_preserves_clustering_inputs(self, results):
        restored = ResultSet.from_json(results.to_json())
        assert restored.unique_failures() == results.unique_failures()
        assert restored.coverage_union() == results.coverage_union()

    def test_roundtrip_preserves_range_fault_values(self, coreutils):
        runner = TargetRunner(coreutils)
        fault = Fault.of(test=12, function="malloc", call=(1, 2))
        result = runner(fault)
        from repro.core.results import ExecutedTest

        saved = ResultSet([ExecutedTest(0, fault, result, 1.0, 1.0)])
        restored = ResultSet.from_json(saved.to_json())
        assert restored[0].fault.value("call") == (1, 2)

    def test_save_load_files(self, results, tmp_path):
        path = tmp_path / "run.json"
        results.save(path)
        restored = ResultSet.load(path)
        assert len(restored) == len(results)

    def test_save_load_is_lossless_on_a_replkv_campaign(self, replkv,
                                                         tmp_path):
        """The saved file round-trips everything the history digest
        covers — invariant violations and call counts included."""
        from repro.core.checkpoint import history_digest
        from repro.core.search import RandomSearch as Random
        from repro.injection.models import model_injector, model_space
        from repro.service.engine import CampaignEngine

        with CampaignEngine(
            replkv, injector=model_injector("errno+disk")
        ) as engine:
            run = engine.explore(
                model_space(replkv, "errno+disk"), Random(),
                iterations=600, seed=3,
            )
        assert any(t.result.invariant_violations for t in run.results)
        path = tmp_path / "replkv.json"
        run.results.save(path)
        restored = ResultSet.load(path)
        assert history_digest(list(restored)) == run.digest
        assert [t.result.call_counts for t in restored] == \
            [t.result.call_counts for t in run.results]

    def test_version_one_files_are_refused(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text('{"version": 1, "tests": []}')
        with pytest.raises(ReportError, match="version 1"):
            ResultSet.load(path)

    def test_replay_plan_survives_roundtrip(self, results, coreutils):
        restored = ResultSet.from_json(results.to_json())
        failing = restored.failed_tests()
        assert failing
        # The restored plan is executable against the live target.
        from repro.sim.process import run_test

        test_id = failing[0].result.test_id
        replayed = run_test(coreutils, coreutils.suite[test_id],
                            failing[0].result.plan)
        assert replayed.failed


class TestCampaign:
    def _jobs(self):
        coreutils = CoreutilsTarget()
        docstore = DocStoreTarget("0.8")
        return [
            CampaignJob(
                name="coreutils-8.1",
                target=coreutils,
                space=FaultSpace.product(
                    test=range(1, 30),
                    function=coreutils.libc_functions(),
                    call=[0, 1, 2],
                ),
                iterations=60,
                seed=1,
            ),
            CampaignJob(
                name="docstore-0.8",
                target=docstore,
                space=FaultSpace.product(
                    test=range(1, 61),
                    function=docstore.libc_functions(),
                    call=range(1, 6),
                ),
                iterations=60,
                seed=1,
                strategy_factory=RandomSearch,
            ),
        ]

    def test_campaign_runs_all_jobs(self):
        campaign = Campaign()
        for job in self._jobs():
            campaign.add(job)
        outcomes = campaign.run(report_top_n=3)
        assert [o.job.name for o in outcomes] == [
            "coreutils-8.1", "docstore-0.8",
        ]
        for outcome in outcomes:
            assert len(outcome.results) == 60
            assert outcome.report.explored == 60
            assert outcome.seconds > 0

    def test_verdicts(self):
        campaign = Campaign()
        for job in self._jobs():
            campaign.add(job)
        outcomes = campaign.run(report_top_n=2)
        # coreutils fails under injection but never crashes.
        assert outcomes[0].verdict == "FAILURES"
        assert outcomes[1].verdict in ("FAILURES", "CLEAN")

    def test_scorecard_renders(self):
        campaign = Campaign()
        for job in self._jobs():
            campaign.add(job)
        outcomes = campaign.run(report_top_n=2)
        text = Campaign.scorecard(outcomes).render()
        assert "coreutils-8.1" in text and "verdict" in text

    def test_duplicate_names_rejected(self):
        campaign = Campaign()
        jobs = self._jobs()
        campaign.add(jobs[0])
        with pytest.raises(ReportError):
            campaign.add(jobs[0])

    def test_empty_campaign_rejected(self):
        with pytest.raises(ReportError):
            Campaign().run()


class TestCampaignClusterMode:
    def test_cluster_job_produces_same_shape(self):
        from repro.sim.targets.coreutils import CoreutilsTarget

        target = CoreutilsTarget()
        job = CampaignJob(
            name="coreutils-clustered",
            target=target,
            space=FaultSpace.product(
                test=range(1, 30), function=target.libc_functions(),
                call=[0, 1, 2],
            ),
            iterations=60,
            seed=2,
            nodes=3,
        )
        outcomes = Campaign([job]).run(report_top_n=3)
        assert len(outcomes[0].results) >= 60
        assert outcomes[0].verdict == "FAILURES"

    def test_cluster_explorer_supports_environment_model(self):
        from repro.cluster import FabricExecutor, LocalCluster, NodeManager
        from repro.core import IterationBudget, standard_impact
        from repro.quality import EnvironmentModel
        from repro.sim.targets.coreutils import CoreutilsTarget

        target = CoreutilsTarget()
        space = FaultSpace.product(
            test=range(1, 30), function=target.libc_functions(),
            call=[0, 1, 2],
        )
        model = EnvironmentModel({"malloc": 1.0})
        explorer = ExplorationSession(
            FabricExecutor(LocalCluster([NodeManager("n", CoreutilsTarget())])),
            space, standard_impact(), RandomSearch(), IterationBudget(150),
            rng=4, environment=model,
        )
        results = explorer.run()
        nonzero = [t for t in results if t.impact > 0]
        assert nonzero
        assert all(
            t.fault.value("function") == "malloc" for t in nonzero
        )

    def test_invariant_violations_cross_the_wire(self):
        from repro.cluster import NodeManager, TestRequest
        from repro.sim.targets.coreutils import CoreutilsTarget

        manager = NodeManager("n", CoreutilsTarget())
        report = manager.execute(TestRequest(
            request_id=0, subspace="",
            scenario={"test": 27, "function": "stat", "call": 2},
        ))
        assert report.invariant_violations
        assert "data lost" in report.invariant_violations[0]
