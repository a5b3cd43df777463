"""Tests for speculative batch proposal and the parallel fabrics.

Covers the §6.1 batching contract: ``propose_batch(1)`` must reproduce
serial ``propose()`` exactly, an ``ExplorationSession`` at
``batch_size=1`` must be byte-identical to the pre-batching serial loop,
and the process-pool fabric must return reports in request order with
graceful degradation when the target cannot cross a process boundary.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.cluster import FabricExecutor, ProcessPoolCluster
from repro.cluster.messages import TestRequest as ClusterTestRequest
from repro.core import (
    ExhaustiveSearch,
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    RandomSearch,
    ResultSet,
    TargetRunner,
    standard_impact,
)
from repro.core.session import BatchExecutor, SerialExecutor
from repro.errors import SearchError
from repro.sim.targets import target_by_name


def small_space(target) -> FaultSpace:
    return FaultSpace.product(
        test=range(1, 30), function=target.libc_functions(), call=[0, 1, 2]
    )


def serial_reference_loop(runner, space, metric, strategy, target, rng):
    """The pre-batching serial explorer, verbatim: propose/execute/observe
    one fault at a time.  Batched sessions at ``batch_size=1`` must
    reproduce this trajectory byte for byte."""
    from repro.core.results import ExecutedTest

    strategy.bind(space, rng)
    executed = []
    while not target.done(executed):
        fault = strategy.propose()
        if fault is None:
            break
        result = runner(fault)
        impact = metric.score(result)
        strategy.observe(fault, impact, result)
        executed.append(ExecutedTest(
            index=len(executed), fault=fault, result=result,
            impact=impact, fitness=impact,
        ))
    return ResultSet(executed)


class TestProposeBatch:
    @pytest.mark.parametrize("strategy_factory", [
        RandomSearch, ExhaustiveSearch,
        lambda: FitnessGuidedSearch(initial_batch=10),
    ])
    def test_batched_proposal_equals_serial(self, coreutils,
                                            strategy_factory):
        """propose_batch(k) must emit the same faults, in the same
        order, as k serial propose() calls with an identical RNG (no
        feedback in between)."""
        space = small_space(coreutils)
        serial = strategy_factory()
        serial.bind(space, random.Random(11))
        expected = []
        for _ in range(20):
            fault = serial.propose()
            if fault is None:
                break
            expected.append(fault)

        batched = strategy_factory()
        batched.bind(space, random.Random(11))
        got = []
        while len(got) < 20:
            batch = batched.propose_batch(min(7, 20 - len(got)))
            if not batch:
                break
            got.extend(batch)
        assert got == expected

    def test_batch_of_one_is_single_propose(self, coreutils):
        space = small_space(coreutils)
        a = RandomSearch()
        a.bind(space, random.Random(3))
        b = RandomSearch()
        b.bind(space, random.Random(3))
        assert a.propose_batch(1) == [b.propose()]

    def test_batch_never_repeats_within_or_across(self, coreutils):
        space = small_space(coreutils)
        strategy = FitnessGuidedSearch(initial_batch=5)
        strategy.bind(space, random.Random(2))
        seen = set()
        for _ in range(6):
            for fault in strategy.propose_batch(8):
                assert fault not in seen
                seen.add(fault)

    def test_exhaustive_batch_is_enumeration_slice(self, coreutils):
        space = FaultSpace.product(test=[1, 2], function=["malloc"],
                                   call=[0, 1])
        strategy = ExhaustiveSearch()
        strategy.bind(space, random.Random(0))
        first = strategy.propose_batch(3)
        rest = strategy.propose_batch(3)
        assert len(first) == 3 and len(rest) == 1  # 4-point space drained
        assert strategy.propose_batch(3) == []

    def test_invalid_batch_size_rejected(self, coreutils):
        strategy = RandomSearch()
        strategy.bind(small_space(coreutils), random.Random(0))
        with pytest.raises(SearchError):
            strategy.propose_batch(0)

    def test_seed_cursor_survives_rebind(self, coreutils):
        """Satellite regression: initial_seeds is immutable config; a
        rebound strategy instance must not have lost its seeds."""
        from repro.core.fault import Fault

        space = small_space(coreutils)
        seeds = (Fault.of(test=1, function="malloc", call=1),
                 Fault.of(test=2, function="stat", call=1))
        strategy = FitnessGuidedSearch(initial_seeds=seeds)
        strategy.bind(space, random.Random(1))
        assert strategy.propose() == seeds[0]
        assert strategy.initial_seeds == seeds  # config untouched

        fresh = FitnessGuidedSearch(initial_seeds=seeds)
        fresh.bind(space, random.Random(1))
        assert fresh.propose() == seeds[0]


class TestBatchedSession:
    def run_session(self, coreutils, batch_size, iterations=60, seed=3,
                    executor=None):
        return ExplorationSession(
            executor or TargetRunner(coreutils),
            small_space(coreutils),
            standard_impact(),
            FitnessGuidedSearch(initial_batch=10),
            IterationBudget(iterations),
            rng=seed,
            batch_size=batch_size,
        ).run()

    def test_batch_size_one_matches_pre_batching_loop(self, coreutils):
        """The acceptance bar: batch_size=1 is byte-identical to the
        serial propose/execute/observe loop."""
        reference = serial_reference_loop(
            TargetRunner(coreutils), small_space(coreutils),
            standard_impact(), FitnessGuidedSearch(initial_batch=10),
            IterationBudget(60), random.Random(3),
        )
        batched = self.run_session(coreutils, batch_size=1)
        assert batched.to_json() == reference.to_json()

    def test_default_batch_size_is_one(self, coreutils):
        session = ExplorationSession(
            TargetRunner(coreutils), small_space(coreutils),
            standard_impact(), RandomSearch(), IterationBudget(5), rng=1,
        )
        assert session.batch_size == 1

    def test_wide_batches_explore_same_budget(self, coreutils):
        results = self.run_session(coreutils, batch_size=8)
        assert len(results) >= 60          # may overshoot by < one batch
        assert len(results) < 60 + 8
        assert results.failed_count() > 0

    def test_executor_receives_whole_generations(self, coreutils):
        batches = []

        class CountingExecutor(SerialExecutor):
            def execute(self, faults, dispatch=None):
                batches.append(len(faults))
                return super().execute(faults, dispatch)

        results = self.run_session(
            coreutils, batch_size=6,
            executor=CountingExecutor(TargetRunner(coreutils)),
        )
        assert len(results) >= 60
        assert batches and all(size <= 6 for size in batches)
        assert any(size > 1 for size in batches)

    def test_mismatched_executor_rejected(self, coreutils):
        class EmptyExecutor(BatchExecutor):
            def execute(self, faults, dispatch=None):
                return []

        with pytest.raises(SearchError):
            self.run_session(coreutils, batch_size=4,
                             executor=EmptyExecutor())

    def test_invalid_batch_size_rejected(self, coreutils):
        with pytest.raises(SearchError):
            self.run_session(coreutils, batch_size=0)


class TestProcessPoolCluster:
    def make_pool(self, workers=2):
        return ProcessPoolCluster(
            functools.partial(target_by_name, "coreutils"), workers=workers
        )

    def request(self, i):
        return ClusterTestRequest(
            request_id=i, subspace="",
            scenario={"test": 1 + i % 29, "function": "malloc", "call": 1},
        )

    def test_reports_in_request_order(self):
        with self.make_pool() as pool:
            reports = pool.run_batch([self.request(i) for i in range(11)])
        assert [r.request_id for r in reports] == list(range(11))

    def test_matches_in_process_execution(self, coreutils):
        """The pool crosses a process boundary but must report exactly
        what an in-process manager reports for the same scenarios."""
        from repro.cluster import NodeManager

        requests = [self.request(i) for i in range(6)]
        with self.make_pool() as pool:
            remote = pool.run_batch(requests)
        manager = NodeManager("ref", coreutils)
        local = [manager.execute(r) for r in requests]
        for got, want in zip(remote, local):
            assert got.failed == want.failed
            assert got.crash_kind == want.crash_kind
            assert got.exit_code == want.exit_code
            assert got.coverage == want.coverage
            assert got.steps == want.steps

    def test_empty_batch(self):
        with self.make_pool() as pool:
            assert pool.run_batch([]) == []

    def test_workers_must_be_positive(self):
        from repro.errors import ClusterError

        with pytest.raises(ClusterError):
            self.make_pool(workers=0)

    def test_unpicklable_target_degrades_gracefully(self):
        pool = ProcessPoolCluster(lambda: target_by_name("coreutils"),
                                  workers=2)
        assert pool.is_degraded
        with pytest.warns(UserWarning, match="degrading to in-process"):
            reports = pool.run_batch([self.request(i) for i in range(4)])
        assert [r.request_id for r in reports] == list(range(4))

    def test_degradation_warns_exactly_once(self):
        """The in-process fallback announces itself once, then stays
        quiet — and keeps producing ordered reports batch after batch."""
        import warnings as warnings_module

        pool = ProcessPoolCluster(lambda: target_by_name("coreutils"),
                                  workers=2, name="oncepool")
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            first = pool.run_batch([self.request(i) for i in range(5)])
            second = pool.run_batch([self.request(i) for i in range(5, 9)])
        fallback_warnings = [
            w for w in caught if "degrading to in-process" in str(w.message)
        ]
        assert len(fallback_warnings) == 1
        assert "oncepool" in str(fallback_warnings[0].message)
        assert [r.request_id for r in first] == list(range(5))
        assert [r.request_id for r in second] == list(range(5, 9))
        assert pool.health.fallbacks == 1

    def test_end_to_end_exploration(self, coreutils):
        with self.make_pool() as pool:
            explorer = ExplorationSession(
                FabricExecutor(pool), small_space(coreutils), standard_impact(),
                RandomSearch(), IterationBudget(16), rng=9, batch_size=8,
            )
            results = explorer.run()
        assert len(results) >= 16
        assert results.failed_count() > 0

    def test_deterministic_given_seed(self, coreutils):
        def explore():
            with self.make_pool() as pool:
                explorer = ExplorationSession(
                    FabricExecutor(pool), small_space(coreutils), standard_impact(),
                    RandomSearch(), IterationBudget(12), rng=7,
                    batch_size=6,
                )
                return [t.fault for t in explorer.run()]

        assert explore() == explore()
