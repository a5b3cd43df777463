"""The service workload: an open loop of coreutils jobs against ``serve()``.

The campaign service runs in a background thread of this process, with
its SQLite store under the benchmark's work directory.  Jobs arrive on
a fixed schedule through :class:`~repro.service.server.ServiceClient`,
whatever the service's backlog (an open loop), and half of them repeat
an earlier seed so store dedup reads sit beside new archive writes.
Each job is timed from its due time to the store's ``mark_done``.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import threading
import time
from pathlib import Path

from bringup import cold_setups
from common import (
    Operation, WorkloadResult, median, peak_rss_mb, percentile, work_dir,
)
from spans import SpanRecorder

__all__ = ["run_service_workload"]

#: offered load, jobs per second (about half the 2-worker capacity).
RATE = 8.0
#: tests per job.
JOB_TESTS = 60
#: a job is "in limit" when done within this many seconds of its due time.
JOB_LIMIT_S = 1.0
#: share of submissions that repeat an earlier seed.
REPEAT_SHARE = 0.5
#: service worker threads.
WORKERS = 2
#: cold bring-ups per run; the median is ``setup_s``.
SETUP_REPEATS = 15
#: how long to wait for the backlog after the last submission.
DRAIN_S = 60.0


class Service:
    """``serve()`` on a fresh store, in a background thread."""

    def __init__(self, directory: Path) -> None:
        from repro.service.server import CampaignService
        from repro.service.store import ResultStore

        self.dir = directory
        self.store = ResultStore(self.dir / "store.db")
        self.service = CampaignService(
            self.store, data_dir=self.dir, workers=WORKERS)
        self._listening = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, name="perfbench-serve", daemon=True)
        self.endpoint = ""
        self.error: "BaseException | None" = None
        #: job id -> (monotonic time, digest or None when it failed).
        self.finished: dict[str, tuple[float, "str | None"]] = {}
        self.running: dict[str, float] = {}
        self._hook_store()

    def _serve(self) -> None:
        from repro.service.server import serve

        def on_listen(host, port):
            self.endpoint = f"{host}:{port}"
            self._listening.set()

        try:
            asyncio.run(serve(self.service, on_listen=on_listen))
        except BaseException as exc:  # reported by start()/stop()
            self.error = exc
            self._listening.set()

    def _hook_store(self) -> None:
        """Completion times come from the store, not from polling."""
        store = self.store
        mark_done, mark_failed = store.mark_done, store.mark_failed
        mark_running = store.mark_running

        def done(job_id, **kwargs):
            mark_done(job_id, **kwargs)
            self.finished[job_id] = (time.perf_counter(), kwargs["digest"])

        def failed(job_id, error):
            mark_failed(job_id, error)
            self.finished[job_id] = (time.perf_counter(), None)

        def running(job_id):
            self.running[job_id] = time.perf_counter()
            mark_running(job_id)

        store.mark_done, store.mark_failed = done, failed
        store.mark_running = running

    def start(self):
        from repro.service.server import ServiceClient

        self._thread.start()
        if not self._listening.wait(timeout=30.0) or self.error:
            raise RuntimeError(f"service did not start: {self.error!r}")
        client = ServiceClient(self.endpoint)
        client.ping()
        return client

    def stop(self) -> None:
        from repro.service.server import ServiceClient

        if self._thread.is_alive() and self.endpoint:
            ServiceClient(self.endpoint).shutdown()
        self._thread.join(timeout=60.0)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop")


def job_seeds(seed: int, count: int) -> list[int]:
    """Campaign seeds of the open loop; about half repeat an earlier one."""
    rng = random.Random(f"coreutils-service-open/{seed}")
    seeds: list[int] = []
    for _ in range(count):
        if seeds and rng.random() < REPEAT_SHARE:
            seeds.append(rng.choice(seeds))
        else:
            seeds.append(rng.randrange(1 << 31))
    return seeds


def job_spec(job_seed: int, iterations: int) -> dict:
    return {"target": "coreutils", "iterations": iterations,
            "seed": job_seed}


class Phase:
    """One open-loop burst of submissions and its measurements."""

    def __init__(self) -> None:
        self.due: dict[str, float] = {}
        self.sent: dict[str, float] = {}
        self.spec: dict[str, dict] = {}
        self.late: list[float] = []
        self.failed_submits: list[Operation] = []
        self.first_due = 0.0


def offer(client, service: Service, seeds: list[int], iterations: int,
          recorder: "SpanRecorder | None") -> Phase:
    """Submit one job per seed at :data:`RATE`, then wait for them."""
    phase = Phase()
    submit = client.submit
    if recorder is not None:
        recorder.wrap(client, "submit", "api.submit")
        submit = client.submit
    start = time.perf_counter() + 0.05
    phase.first_due = start
    for i, job_seed in enumerate(seeds):
        due = start + i / RATE
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        sent = time.perf_counter()
        phase.late.append(sent - due)
        spec = job_spec(job_seed, iterations)
        try:
            job = submit("perfbench", spec)
        except Exception as exc:  # a refused submission is a failed job
            op = Operation(f"submission {i}")
            op.fail(repr(exc))
            phase.failed_submits.append(op)
            continue
        phase.due[job["id"]] = due
        phase.sent[job["id"]] = sent
        phase.spec[job["id"]] = spec
    deadline = time.perf_counter() + DRAIN_S
    while (time.perf_counter() < deadline
           and not all(j in service.finished for j in phase.due)):
        time.sleep(0.01)
    return phase


def run_service_workload(
    name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
) -> WorkloadResult:
    """Offer ``RATE * seconds`` jobs; ``tiny`` shrinks jobs and bring-ups
    for the self-tests."""
    iterations = 10 if tiny else JOB_TESTS
    count = max(int(round(RATE * seconds)), 2)
    seeds = job_seeds(seed, count)
    result = WorkloadResult()

    # Stores of earlier runs are removed before any bring-up.
    root = work_dir() / "service"
    shutil.rmtree(root, ignore_errors=True)
    service = Service(root / "load")
    try:
        client = service.start()
        if trace:
            # Half the jobs untraced, then half traced, on one service.
            half = count // 2
            plain = offer(client, service, seeds[:half], iterations, None)
            recorder = SpanRecorder()
            built = service.service.engines_built
            reused = service.service.engines_reused
            counts = dict.fromkeys(
                ("total", "duplicates", "tests", "fired", "steps"), 0)
            writes: list[tuple[float, int]] = []
            install_service_wrappers(recorder, service, counts, writes)
            try:
                traced = offer(client, service, seeds[half:], iterations,
                               recorder)
            finally:
                recorder.restore()
            phases = [plain, traced]
            engines = (service.service.engines_built - built,
                       service.service.engines_reused - reused)
        else:
            phases = [offer(client, service, seeds, iterations, None)]
    finally:
        service.stop()

    for phase in phases:
        _account(phase, service, result)
    _check_digests(phases, service, result)
    if trace:
        result.metrics = _layer_metrics(recorder, service, plain, traced,
                                        engines, counts, writes)
        recorder.dump(work_dir() / f"spans-{name}.jsonl")
        return result

    phase = phases[0]
    # Only jobs that passed every check count as done.
    ok = {op.name for op in result.operations if op.ok}
    done = [j for j in phase.due if j in ok]
    latencies = [service.finished[j][0] - phase.due[j] for j in done]
    if not done:
        return result
    setups = cold_setups(name, 1 if tiny else SETUP_REPEATS,
                         root / "bringup")
    last = max(service.finished[j][0] for j in done)
    window = last - phase.first_due
    submitted = len(phase.due) + len(phase.failed_submits)
    result.metrics = {
        "tests_per_s": len(done) * iterations / window,
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(with_child=False),
        "job_p50_s": percentile(latencies, 0.5),
        "job_p90_s": percentile(latencies, 0.9),
        "jobs_in_limit":
            sum(1 for lat in latencies if lat <= JOB_LIMIT_S) / submitted,
        "jobs_per_s": len(done) / window,
        "ok_ratio": 1.0 - result.failed / result.attempted,
    }
    return result


def _account(phase: Phase, service: Service, result: WorkloadResult) -> None:
    result.operations.extend(phase.failed_submits)
    for job_id, due in phase.due.items():
        op = Operation(job_id)
        result.operations.append(op)
        finished = service.finished.get(job_id)
        if finished is None:
            op.fail("not finished")
        elif finished[1] is None:
            op.fail("job ended failed")
        else:
            op.latency_s = finished[0] - due


def _check_digests(phases, service, result) -> None:
    """Every job's digest must equal a direct serial engine run of its
    spec; the direct runs happen after the timed window."""
    from repro.service.spec import CampaignSpec

    by_id = {op.name: op for op in result.operations}
    expected: dict[int, str] = {}
    engine = None
    try:
        for phase in phases:
            for job_id, spec_dict in phase.spec.items():
                op = by_id[job_id]
                if not op.ok:
                    continue
                spec = CampaignSpec.from_dict(spec_dict)
                if spec.seed not in expected:
                    if engine is None:
                        engine = spec.build_engine()
                    run = engine.explore(
                        spec.build_space(engine.target),
                        spec.build_strategy(),
                        iterations=spec.iterations, seed=spec.seed,
                        batch_size=spec.batch_size,
                        online_quality=spec.online_quality,
                    )
                    expected[spec.seed] = run.digest
                got = service.finished[job_id][1]
                if got != expected[spec.seed]:
                    op.fail(f"digest {got[:12]} != "
                            f"{expected[spec.seed][:12]}")
    finally:
        if engine is not None:
            engine.close()


def install_service_wrappers(recorder: SpanRecorder, service: Service,
                             counts: dict, writes: list) -> None:
    """Wrap the attributes the service calls its layers through."""
    from repro.core import runner, session
    from repro.service import server

    from campaigns import wrap_engine, wrap_strategy

    svc, store = service.service, service.store
    recorder.wrap(svc, "_run_job", "job", op_of=lambda args: args[0].job_id)
    acquire = svc._acquire_engine

    def acquire_engine(spec):
        engine = acquire(spec)
        if "explore" not in vars(engine):
            explore = engine.explore

            def traced_explore(space, strategy, **kwargs):
                wrap_strategy(recorder, strategy)
                return recorder.call("service.explore", explore,
                                     (space, strategy), kwargs)

            recorder.wrap_value(engine, "explore", traced_explore)
            wrap_engine(recorder, engine)
        return engine

    recorder.wrap_value(svc, "_acquire_engine", acquire_engine)
    record_campaign = store.record_campaign

    def record(job_id, results, **kwargs):
        dedup = recorder.call("store.record", record_campaign,
                              (job_id, results), kwargs)
        counts["total"] += dedup["total"]
        counts["duplicates"] += dedup["duplicates"]
        counts["tests"] += len(results)
        counts["fired"] += sum(1 for t in results if t.result.injected)
        counts["steps"] += sum(t.result.steps for t in results)
        return dedup

    recorder.wrap_value(store, "record_campaign", record)
    recorder.wrap(store, "mark_done", "store.mark_done")
    recorder.wrap(server, "campaign_document", "documents.build")
    recorder.wrap(runner, "run_test", "sim.run")
    wrap_checkpoints(recorder, session, writes)


def wrap_checkpoints(recorder: SpanRecorder, module, writes: list) -> None:
    """Time every ``CheckpointWriter.maybe_write`` call that writes;
    ``writes`` collects ``(seconds, file bytes)`` of each."""
    cls = module.CheckpointWriter

    def build(*args, **kwargs):
        writer = cls(*args, **kwargs)
        original = writer.maybe_write

        def maybe_write(*a, **kw):
            started = time.perf_counter()
            wrote = recorder.call("checkpoint", original, a, kw)
            if wrote:
                writes.append((time.perf_counter() - started,
                               writer.path.stat().st_size))
            return wrote

        recorder.wrap_value(writer, "maybe_write", maybe_write)
        return writer

    recorder.wrap_value(module, "CheckpointWriter", build)


def _layer_metrics(recorder, service, plain, traced, engines, counts,
                   writes):
    self_s, total_s = recorder.self_times("job")
    tests = counts["tests"]
    jobs = len(traced.due)

    def per_test_us(span: str) -> float:
        return self_s.get(span, 0.0) / tests * 1e6

    def median_ms(span: str) -> float:
        durations = recorder.durations(span)
        return median(durations) * 1e3 if durations else 0.0

    def service_times(phase) -> list[float]:
        return [service.finished[j][0] - service.running[j]
                for j in phase.due
                if j in service.running and j in service.finished]

    queue_waits = [service.running[j] - traced.sent[j]
                   for j in traced.due if j in service.running]
    late = plain.late + traced.late
    return {
        "search.propose_us": per_test_us("search.propose"),
        "search.observe_us": per_test_us("search.observe"),
        "injection.plan_us": per_test_us("injection.plan"),
        "sim.run_us": sum(recorder.durations("sim.run")) / tests * 1e6,
        "sim.setup_us": per_test_us("sim.setup"),
        "sim.invariants_us": per_test_us("sim.invariants"),
        "sim.body_us": per_test_us("sim.run"),
        "sim.steps_per_test": counts["steps"] / tests,
        "sim.fired_ratio": counts["fired"] / tests,
        "impact.score_us": per_test_us("impact.score"),
        "checkpoint.write_ms":
            median(w[0] for w in writes) * 1e3 if writes else 0.0,
        "checkpoint.writes": len(writes) / jobs,
        "checkpoint.bytes": median(w[1] for w in writes) if writes else 0.0,
        "service.queue_wait_ms": median(queue_waits) * 1e3,
        "service.explore_ms": median_ms("service.explore"),
        "service.engines_built": float(engines[0]),
        "service.engines_reused": float(engines[1]),
        "api.submit_ms": median_ms("api.submit"),
        "store.record_ms": median_ms("store.record"),
        "store.mark_done_ms": median_ms("store.mark_done"),
        "store.dup_ratio": counts["duplicates"] / counts["total"],
        "documents.build_ms": median_ms("documents.build"),
        "unattributed_share": self_s.get("job", 0.0) / total_s,
        "trace_overhead": 1.0 - (median(service_times(plain))
                                 / median(service_times(traced))),
        "loadgen.late_p90_ms": percentile(late, 0.9) * 1e3,
    }
