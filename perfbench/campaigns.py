"""The three campaign workloads: serial MiniDB, replkv on a pool and a fleet.

Each workload brings one :class:`~repro.service.engine.CampaignEngine`
up, runs one untimed warm-up campaign and then repeats campaigns on the
warm engine for the run's seconds; ``setup_s`` comes from cold
bring-ups in fresh interpreters afterwards (:mod:`bringup`).  Every
campaign's history digest is checked: against a recorded reference on
serial MiniDB, against the in-process ``virtual`` fabric on the pool
and the fleet.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from bringup import cold_setups
from common import (
    Operation, WorkloadResult, median, peak_rss_mb, percentile, src_dir,
    work_dir,
)
from spans import SpanRecorder

__all__ = ["CONFIGS", "run_campaign_workload"]

#: the workload seed whose serial MiniDB digests are recorded.
DEFAULT_SEED = 1
REFERENCES = Path(__file__).resolve().parent / "references.json"


@dataclass(frozen=True)
class CampaignConfig:
    target: str
    fault_model: str
    strategy: str
    fabric: str
    workers: int
    iterations: int
    batch_size: "int | None"
    online_quality: bool
    #: campaign seeds per workload seed; timed campaigns cycle through
    #: them, starting with the warm-up's seed, so every run checks at
    #: least one repeat's digest.
    campaign_seeds: int
    #: cold bring-ups per run; the median is ``setup_s``.
    setup_repeats: int


CONFIGS = {
    # The paper's core loop (Table 1): search, scoring and online
    # quality all run in-process next to the simulated test body.  The
    # fitness search's cost per test depends on where its seed leads it
    # (up to 2x between seeds), so a run gives each timed campaign a
    # seed of its own, and their median averages that out.
    "minidb-fitness-serial": CampaignConfig(
        "minidb", "errno", "fitness", "serial", 1, 3000, None, True,
        campaign_seeds=24, setup_repeats=15),
    # Uniform sampling fires few faults; cheap proposals leave pool
    # dispatch, pickling and IPC as the parent's work.
    "replkv-uniform-pool": CampaignConfig(
        "replkv", "errno+disk", "random", "processes", 2, 2000, 32, False,
        campaign_seeds=2, setup_repeats=9),
    # The same campaigns through the wire codec and the socket fabric.
    "replkv-uniform-fleet": CampaignConfig(
        "replkv", "errno+disk", "random", "socket", 2, 2000, 32, False,
        campaign_seeds=2, setup_repeats=5),
}

#: a campaign counts as "in limit" when it finishes within this many
#: seconds: about twice the slowest workload's median campaign on the
#: 2-core development machine, so the machine's speed drift (campaigns
#: ran up to 2.7 s there) does not move it, and a gross tail regression
#: does.
CAMPAIGN_LIMIT_S = 5.0

#: timed campaigns a run makes even when its seconds are up.
MIN_TIMED = 4

#: campaign size of the self-tests' tiny runs.
TINY_ITERATIONS = 150


def campaign_seeds(workload: str, seed: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(1 << 31)
            for _ in range(CONFIGS[workload].campaign_seeds)]


class Bench:
    """One bring-up of a workload's engine, and its campaigns."""

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config
        self.nodes: list[subprocess.Popen] = []
        self.bringup_s = 0.0
        self.engine = None

    def bring_up(self) -> None:
        """Build target, space and engine, and bring the fabric up."""
        from repro.injection.models import (
            compose_models, model_injector, model_space,
        )
        from repro.service.engine import CampaignEngine
        from repro.sim.targets import target_by_name

        config = self.config
        target = target_by_name(config.target)
        target.suite
        self.space = model_space(
            target, compose_models(config.fault_model), max_call=2
        )
        self.engine = CampaignEngine(
            target,
            fabric=config.fabric,
            workers=config.workers,
            name="perfbench",
            injector=model_injector(config.fault_model),
            injector_factory=functools.partial(
                model_injector, config.fault_model),
            target_factory=functools.partial(target_by_name, config.target),
            on_fabric=self._spawn_nodes,
            node_prefix="",
        )
        fabric_started = time.perf_counter()
        if config.fabric != "serial":
            cluster = self.engine._ensure_cluster()
            if config.fabric == "processes":
                # Forks the workers; each builds its target on its
                # first chunk.
                cluster.run_batch(self._bringup_requests())
        self.bringup_s = time.perf_counter() - fabric_started

    def _bringup_requests(self) -> list:
        from repro.cluster import TestRequest

        rng = random.Random(0)
        faults = [self.space.random_fault(rng)
                  for _ in range(2 * self.config.workers)]
        return [TestRequest(request_id=i, subspace=f.subspace,
                            scenario=f.as_dict())
                for i, f in enumerate(faults)]

    def _spawn_nodes(self, net) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir())
        for i in range(self.config.workers):
            self.nodes.append(subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "node",
                 "--connect", f"{net.host}:{net.port}",
                 "--target", self.config.target,
                 "--fault-model", self.config.fault_model,
                 "--name", f"perfbench-node{i}"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            ))

    def explore(self, seed: int, iterations: int, recorder=None):
        from repro.core.search import strategy_by_name

        config = self.config
        strategy = strategy_by_name(config.strategy)
        kwargs = dict(iterations=iterations, seed=seed,
                      batch_size=config.batch_size,
                      online_quality=config.online_quality)
        if recorder is None:
            return self.engine.explore(self.space, strategy, **kwargs)
        install_wrappers(recorder, self.engine, strategy)
        try:
            return recorder.call(
                "campaign", self.engine.explore, (self.space, strategy),
                kwargs, op=f"campaign-{seed}",
            )
        finally:
            recorder.restore()

    def fabric(self):
        """The object whose counters the fabric layer keeps."""
        engine = self.engine
        return engine._net if engine._net is not None else engine._pool

    def health(self) -> dict:
        cluster = self.engine._cluster
        if cluster is None:
            return {}
        combined = getattr(cluster, "combined_health", None)
        health = combined() if combined is not None else cluster.health
        return health.as_dict()

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        for proc in self.nodes:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.nodes.clear()


def install_wrappers(recorder: SpanRecorder, engine, strategy) -> None:
    """Wrap the attributes a campaign calls its layers through."""
    from repro.core import runner, session

    wrap_strategy(recorder, strategy)
    wrap_engine(recorder, engine)
    recorder.wrap(runner, "run_test", "sim.run")
    wrap_quality(recorder, session)
    if engine._cluster is not None:
        recorder.wrap(engine._cluster, "run_batch", "cluster.dispatch")


def wrap_strategy(recorder: SpanRecorder, strategy) -> None:
    recorder.wrap(strategy, "propose_batch", "search.propose")
    recorder.wrap(strategy, "observe", "search.observe")


def wrap_engine(recorder: SpanRecorder, engine) -> None:
    """Wrap the injector, target and impact metric an engine runs with."""
    recorder.wrap(engine.injector, "plan_for", "injection.plan")
    recorder.wrap(engine.target, "setup", "sim.setup")
    recorder.wrap(engine.target, "invariants", "sim.invariants")
    metric_factory = engine.metric_factory

    def traced_metric():
        metric = metric_factory()
        recorder.wrap(metric, "score", "impact.score")
        return metric

    recorder.wrap_value(engine, "metric_factory", traced_metric)


def wrap_quality(recorder: SpanRecorder, module) -> None:
    """Wrap ``add``/``delta`` of every OnlineClusters ``module`` builds."""
    cls = module.OnlineClusters

    def build(*args, **kwargs):
        quality = cls(*args, **kwargs)
        recorder.wrap(quality, "add", "quality.online")
        recorder.wrap(quality, "delta", "quality.online")
        return quality

    recorder.wrap_value(module, "OnlineClusters", build)


def run_campaign_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    references: "dict | None" = None,
) -> WorkloadResult:
    """Run one campaign workload for ``seconds``.

    ``tiny`` shrinks campaigns and bring-ups for the self-tests;
    ``references`` replaces the expected digests (campaign seed ->
    digest), which lets a test doctor them.
    """
    config = CONFIGS[name]
    iterations = TINY_ITERATIONS if tiny else config.iterations
    seeds = campaign_seeds(name, seed)
    result = WorkloadResult()
    recorder = SpanRecorder() if trace else None

    bench = Bench(config)
    try:
        bench.bring_up()
        expected = _expected_digests(
            name, config, seed, seeds, iterations, tiny, references, result)
        before = _counters(bench)

        def campaign(index: int, timed: bool, traced: bool) -> dict:
            campaign_seed = seeds[index % len(seeds)]
            op = Operation(f"campaign {campaign_seed}", timed=timed)
            result.operations.append(op)
            started = time.perf_counter()
            try:
                run = bench.explore(campaign_seed, iterations,
                                    recorder if traced else None)
            except Exception as exc:  # a failed operation, not a crash
                op.fail(repr(exc))
                return {}
            elapsed = time.perf_counter() - started
            op.latency_s = elapsed
            op.tests = len(run.results)
            digest = run.digest
            want = expected.setdefault(campaign_seed, digest)
            if digest != want:
                op.fail(f"digest {digest[:12]} != {want[:12]}")
            if len(run.results) < iterations:
                op.fail(f"{len(run.results)} of {iterations} tests ran")
            pool = bench.engine._pool
            if pool is not None and pool.is_degraded:
                op.fail(f"pool degraded: {pool.fallback_reason}")
            if not op.ok:
                return {}  # failed campaigns count only as failures
            return {
                "tests": op.tests, "seconds": elapsed, "traced": traced,
                "fired": sum(1 for t in run.results if t.result.injected),
                "steps": sum(t.result.steps for t in run.results),
            }

        campaign(0, timed=False, traced=False)  # warm-up
        timed = []
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline or index < MIN_TIMED:
            # Traced runs alternate untraced and traced campaigns on
            # the same seed, so trace_overhead compares like with like.
            traced = trace and index % 2 == 1
            seed_index = index // 2 if trace else index
            # Garbage of earlier campaigns is collected outside the
            # clock, so no campaign pays for another's.
            gc.collect()
            timed.append(campaign(seed_index, timed=True, traced=traced))
            index += 1
        after = _counters(bench)
    finally:
        bench.close()
    # Read before the cold bring-ups below, whose children would count.
    rss = peak_rss_mb(with_child=config.fabric != "serial")

    done = [c for c in timed if c]
    ops = [op for op in result.operations if op.timed]
    untraced = [c for c in done if not c["traced"]]
    latencies = [op.latency_s for op in ops if op.ok]
    if not untraced or not latencies:
        return result
    if trace:
        result.metrics = _layer_metrics(
            recorder, config, done, before, after, bench.bringup_s)
        recorder.dump(_trace_path(name))
        return result
    setups = cold_setups(name, 1 if tiny else config.setup_repeats,
                         work_dir() / "bringup")
    result.metrics = {
        "tests_per_s": median(c["tests"] / c["seconds"] for c in untraced),
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "job_p50_s": percentile(latencies, 0.5),
        "job_p90_s": percentile(latencies, 0.9),
        "jobs_in_limit": sum(
            1 for latency in latencies if latency <= CAMPAIGN_LIMIT_S)
        / len(ops),
        "jobs_per_s": len(latencies) / sum(latencies),
        "ok_ratio": 1.0 - result.failed / result.attempted,
    }
    return result


def _expected_digests(name, config, seed, seeds, iterations, tiny,
                      references, result) -> dict:
    """Digest every campaign must reproduce, by campaign seed."""
    if references is not None:
        return dict(references)
    if config.fabric == "serial":
        if tiny or seed != DEFAULT_SEED:
            return {}  # checked for equality across the run's repeats
        recorded = json.loads(REFERENCES.read_text())[name]
        return {int(k): v for k, v in recorded.items()}
    # The in-process virtual fabric at the same batch size is the
    # reference trajectory; it runs outside the timed window.
    from repro.core.search import strategy_by_name

    virtual = Bench(dataclasses.replace(config, fabric="virtual"))
    expected = {}
    try:
        virtual.bring_up()
        for campaign_seed in seeds:
            op = Operation(f"virtual reference {campaign_seed}", timed=False)
            result.operations.append(op)
            try:
                run = virtual.engine.explore(
                    virtual.space, strategy_by_name(config.strategy),
                    iterations=iterations, seed=campaign_seed,
                    batch_size=config.batch_size)
            except Exception as exc:
                op.fail(repr(exc))
                continue
            expected[campaign_seed] = run.digest
    finally:
        virtual.close()
    return expected


def _counters(bench: Bench) -> dict:
    counters = dict(bench.health())
    fabric = bench.fabric()
    for attr in ("encode_seconds", "bytes_in", "bytes_out", "frames_in",
                 "frames_out", "requeued", "stolen", "steal_duplicates",
                 "late_reports"):
        counters[attr] = getattr(fabric, attr, 0)
    return counters


def _layer_metrics(recorder, config, done, before, after, bringup_s):
    """Per-layer metrics of the layers that run in this process."""
    traced = [c for c in done if c["traced"]]
    untraced = [c for c in done if not c["traced"]]
    tests = sum(c["tests"] for c in traced)
    all_tests = sum(c["tests"] for c in done)
    self_s, total_s = recorder.self_times("campaign")
    campaigns = len(done)

    def per_test_us(span: str) -> float:
        return self_s.get(span, 0.0) / tests * 1e6

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    metrics = {
        "search.propose_us": per_test_us("search.propose"),
        "search.observe_us": per_test_us("search.observe"),
        "sim.steps_per_test": sum(c["steps"] for c in done) / all_tests,
        "sim.fired_ratio": sum(c["fired"] for c in done) / all_tests,
        "impact.score_us": per_test_us("impact.score"),
        "unattributed_share": self_s.get("campaign", 0.0) / total_s,
        "trace_overhead": 1.0 - (
            median(c["tests"] / c["seconds"] for c in traced)
            / median(c["tests"] / c["seconds"] for c in untraced)),
    }
    if config.online_quality:
        metrics["quality.online_us"] = per_test_us("quality.online")
    if config.fabric == "serial":
        # On the pool and the fleet these run in worker processes, out
        # of the benchmark's reach.
        metrics.update({
            "injection.plan_us": per_test_us("injection.plan"),
            "sim.run_us": sum(recorder.durations("sim.run")) / tests * 1e6,
            "sim.setup_us": per_test_us("sim.setup"),
            "sim.invariants_us": per_test_us("sim.invariants"),
            "sim.body_us": per_test_us("sim.run"),
        })
        return metrics
    metrics.update({
        "cluster.dispatch_us": per_test_us("cluster.dispatch"),
        "cluster.encode_us": delta("encode_seconds") / all_tests * 1e6,
        "cluster.batches": recorder.count("cluster.dispatch") / len(traced),
        "cluster.retries": delta("retries") / campaigns,
        "cluster.requeued": delta("requeued") / campaigns,
        "cluster.corrupt_reports": delta("corrupt_reports") / campaigns,
        "cluster.bringup_s": bringup_s,
    })
    if config.fabric == "socket":
        metrics.update({
            "wire.bytes_per_test":
                (delta("bytes_in") + delta("bytes_out")) / all_tests,
            "wire.frames_per_test":
                (delta("frames_in") + delta("frames_out")) / all_tests,
            "fleet.stolen": delta("stolen") / campaigns,
            "fleet.steal_duplicates": delta("steal_duplicates") / campaigns,
            "fleet.late_reports": delta("late_reports") / campaigns,
        })
    return metrics


def _trace_path(name: str) -> Path:
    return work_dir() / f"spans-{name}.jsonl"
