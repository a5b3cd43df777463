"""Property-based invariants (hypothesis) + the batched/serial
differential harness.

Run under the deterministic ``ci`` hypothesis profile registered in
``conftest.py`` (derandomized, bounded example counts), so CI exercises
exactly the same examples every time:

* checkpoint save → resume is byte-identical for random exploration
  histories (any iteration count, any snapshot interval, any seed);
* the result cache answers get-after-put correctly under arbitrary
  interleavings of puts and evictions;
* a retry policy's backoff schedule is a pure function of its seed;
* batched parallel exploration over a random small fault space produces
  the same result history as the serial in-process loop.
"""

from __future__ import annotations

import functools
import random

from hypothesis import given, settings, strategies as st

from repro.cluster import FabricExecutor, ProcessPoolCluster, RetryPolicy
from repro.core import (
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    TargetRunner,
    standard_impact,
)
from repro.core.cache import ResultCache
from repro.core.checkpoint import history_digest, load_checkpoint
from repro.sim.targets import target_by_name

#: the functions random differential spaces draw their axes from.
COREUTILS_FUNCTIONS = (
    "malloc", "read", "write", "stat", "open", "close", "rename",
)


def session(target, space, *, iterations, seed, batch_size=1, **kwargs):
    return ExplorationSession(
        runner=TargetRunner(target),
        space=space,
        metric=standard_impact(),
        strategy=FitnessGuidedSearch(),
        target=IterationBudget(iterations),
        rng=seed,
        batch_size=batch_size,
        **kwargs,
    )


class TestCheckpointRoundTripProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        iterations=st.integers(min_value=2, max_value=35),
        every=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=9),
    )
    def test_save_resume_is_byte_identical(self, tmp_path_factory,
                                           iterations, every, seed):
        """Kill at any point, resume, and the history digest matches an
        uninterrupted run exactly — for *random* histories, not just the
        hand-picked ones the example scripts use."""
        target = target_by_name("coreutils")
        space = FaultSpace.product(
            test=range(1, 20), function=target.libc_functions(),
            call=[0, 1, 2],
        )
        path = tmp_path_factory.mktemp("ck") / "ck.json"
        # The "killed" run: stops at `iterations`, checkpointing as it goes.
        session(target, space, iterations=iterations, seed=seed,
                checkpoint_path=path, checkpoint_every=every).run()
        checkpoint = load_checkpoint(path)
        assert checkpoint.iterations == iterations

        total = iterations + 10
        resumed = session(target, space, iterations=total, seed=seed,
                          resume_from=checkpoint).run()
        uninterrupted = session(target, space, iterations=total,
                                seed=seed).run()
        assert history_digest(list(resumed)) == \
            history_digest(list(uninterrupted))


class TestCacheEvictionProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        operations=st.lists(
            st.tuples(
                st.sampled_from("pg"),          # put or get
                st.integers(min_value=0, max_value=15),   # key id
            ),
            min_size=1, max_size=60,
        ),
    )
    def test_get_after_put_under_random_eviction(self, capacity, operations):
        """Whatever the put/get interleaving, the cache never answers
        wrong: a hit returns exactly what was last put under that key,
        a miss only happens for keys absent or LRU-evicted, and the
        live entry count never exceeds capacity."""
        cache = ResultCache(capacity=capacity)
        model: dict[str, str] = {}        # key -> expected sentinel
        order: list[str] = []             # model LRU order, oldest first

        def touch(key: str) -> None:
            if key in order:
                order.remove(key)
            order.append(key)

        for action, key_id in operations:
            key = f"k{key_id}"
            if action == "p":
                # The cache stores opaque results; a distinct sentinel
                # per (key, generation) exposes any cross-talk.
                sentinel = f"{key}@{len(order)}"
                cache.put(key, sentinel)
                model[key] = sentinel
                touch(key)
                while len([k for k in order if k in model]) > capacity:
                    victim = next(k for k in order if k in model)
                    del model[victim]
                    order.remove(victim)
            else:
                got = cache.get(key)
                if key in model:
                    assert got == model[key]
                    touch(key)
                else:
                    assert got is None
            assert len(cache) <= capacity

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30),
                    min_size=1, max_size=50))
    def test_stats_counters_account_for_every_operation(self, key_ids):
        cache = ResultCache(capacity=4)
        for key_id in key_ids:
            key = f"k{key_id}"
            if cache.get(key) is None:
                cache.put(key, key)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == len(key_ids)
        assert stats["entries"] == len(cache) <= 4
        # Everything ever put either lives or was evicted.
        assert stats["misses"] == stats["entries"] + stats["evictions"]


class TestRetryBackoffProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        max_attempts=st.integers(min_value=1, max_value=6),
        base_delay=st.floats(min_value=0.001, max_value=1.0),
        multiplier=st.floats(min_value=1.0, max_value=4.0),
        jitter=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_schedule_is_a_pure_function_of_the_seed(
            self, seed, max_attempts, base_delay, multiplier, jitter):
        policy = RetryPolicy(max_attempts=max_attempts,
                             base_delay=base_delay, multiplier=multiplier,
                             max_delay=2.0, jitter=jitter)

        def schedule() -> list[float]:
            rng = random.Random(seed)
            return [policy.delay_for(n, rng)
                    for n in range(1, max_attempts + 1)]

        first, second = schedule(), schedule()
        assert first == second
        for attempt, delay in enumerate(first, start=1):
            undithered = min(base_delay * multiplier ** (attempt - 1), 2.0)
            assert undithered <= delay <= undithered * (1.0 + jitter)


class TestBatchedSerialDifferential:
    @settings(max_examples=4, deadline=None)
    @given(
        tests=st.integers(min_value=4, max_value=12),
        functions=st.lists(st.sampled_from(COREUTILS_FUNCTIONS),
                           min_size=1, max_size=4, unique=True),
        max_call=st.integers(min_value=1, max_value=3),
        batch_size=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=9),
    )
    def test_pool_matches_serial_loop_on_random_spaces(
            self, tests, functions, max_call, batch_size, seed):
        """Batched parallel exploration (ProcessPoolCluster, real fork
        boundary) must walk the exact trajectory of the serial
        in-process loop: same faults, same impacts, same wire-visible
        outcomes — for randomly shaped small spaces, not one blessed
        configuration."""
        space = FaultSpace.product(
            test=range(1, tests + 1),
            function=tuple(sorted(functions)),
            call=range(0, max_call + 1),
        )
        iterations = min(space.size(), 3 * batch_size)
        target = target_by_name("coreutils")

        serial = ExplorationSession(
            runner=TargetRunner(target), space=space,
            metric=standard_impact(), strategy=FitnessGuidedSearch(),
            target=IterationBudget(iterations), rng=seed,
            batch_size=batch_size,
        ).run()

        pool = ProcessPoolCluster(
            functools.partial(target_by_name, "coreutils"), workers=2,
        )
        try:
            batched = ExplorationSession(
                FabricExecutor(pool), space, standard_impact(), FitnessGuidedSearch(),
                IterationBudget(iterations), rng=seed,
                batch_size=batch_size,
            ).run()
        finally:
            pool.close()

        assert [t.fault for t in serial] == [t.fault for t in batched]
        assert [t.impact for t in serial] == [t.impact for t in batched]
        for ours, theirs in zip(serial, batched):
            a, b = ours.result, theirs.result
            assert a.failed == b.failed
            assert a.crash_kind == b.crash_kind
            assert a.exit_code == b.exit_code
            assert a.coverage == b.coverage
            assert a.steps == b.steps
            assert a.injected == b.injected
