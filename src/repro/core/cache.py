"""Content-addressed memoization of test executions.

Every run in the simulated world is deterministic given
``(target, test, injection plan, trial, step budget)`` — see
:mod:`repro.sim.process`.  Fault-space exploration nevertheless
re-executes the same points constantly: ablation sweeps re-run identical
faults under every strategy variant, campaigns re-certify the same
system against overlapping spaces, report generation re-executes top
faults for precision trials, and replay re-runs everything.  A
:class:`ResultCache` makes all of those duplicates free.

The cache is keyed on the *content* of an execution:
``(target id, fault vector, trial, step budget)`` where the target id
also folds in the injector name (two injectors may compile the same
attribute dict into different plans).  Entries are LRU-evicted beyond
``capacity`` and can be persisted to JSON, so a warm cache survives
process boundaries — a second campaign over the same jobs replays from
disk instead of the simulator.

Soundness caveat (documented in docs/ARCHITECTURE.md): the cache is
only valid while target code is unchanged.  The target id embeds
``name/version``, so bumping a target's ``version`` invalidates its
entries naturally; editing a target in place without bumping the
version requires clearing the cache.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import warnings
from collections import OrderedDict
from pathlib import Path

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import RunResult

__all__ = [
    "CacheKey",
    "ResultCache",
    "result_to_payload",
    "result_from_payload",
    "write_json_atomically",
]

#: a fully-resolved execution identity, suitable as a dict key.
CacheKey = str


def _canonical(value: object) -> object:
    """JSON-stable view of an attribute value (tuples become lists)."""
    if isinstance(value, tuple):
        return [_canonical(v) for v in value]
    return value


def _decanonical(value: object) -> object:
    """Inverse of :func:`_canonical`: JSON lists become tuples again."""
    if isinstance(value, list):
        return tuple(_decanonical(v) for v in value)
    return value


class ResultCache:
    """LRU memoization of :class:`~repro.sim.process.RunResult`s.

    Thread-safe: the thread-pool fabric shares one cache across all its
    node managers.  (Process fabrics cannot share the in-memory dict —
    each worker process holds its own; cross-process reuse happens via
    :meth:`save` / :meth:`load` persistence instead.)
    """

    def __init__(self, capacity: int = 4096, path: str | Path | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        self._entries: "OrderedDict[CacheKey, RunResult]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if self.path is not None and self.path.exists():
            # A cache is an optimization: a corrupt or stale-format file
            # must not kill the run, it just means starting cold.
            try:
                self.load(self.path)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                warnings.warn(
                    f"ignoring unreadable result cache {self.path}: {exc}",
                    stacklevel=2,
                )
                self._entries.clear()

    # -- keying ----------------------------------------------------------------

    @staticmethod
    def key_for(
        target_id: str,
        subspace: str,
        attributes: tuple[tuple[str, object], ...],
        trial: int,
        step_budget: int,
    ) -> CacheKey:
        """The content address of one execution.

        The key is a canonical JSON string so the same identity is
        computed for live lookups and for entries reloaded from disk
        (JSON cannot distinguish tuples from lists, so values are
        canonicalized before hashing).
        """
        return json.dumps(
            [
                target_id,
                subspace,
                [[name, _canonical(value)] for name, value in attributes],
                trial,
                step_budget,
            ],
            separators=(",", ":"),
        )

    # -- lookup ----------------------------------------------------------------

    def get(self, key: CacheKey) -> "RunResult | None":
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result

    def put(self, key: CacheKey, result: "RunResult") -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = result
                return
            self._entries[key] = result
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        # CPython dict len() happens to be atomic, but a concurrent
        # put() may be mid-eviction; reading under the lock returns a
        # count that actually existed at some instant.
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters (reset only by constructing anew).

        The snapshot is taken under the cache lock, so the four counts
        are mutually consistent — an eviction racing this call can never
        show up in ``evictions`` while the evicted entry still counts in
        ``entries``.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def bind_metrics(self, registry: "object") -> None:
        """Publish this cache's statistics into a metrics registry.

        Registers a snapshot-time collector on a
        :class:`~repro.obs.metrics.MetricsRegistry` rather than paying
        per-operation increments: the cache already counts hits,
        misses, and evictions, so export pulls those totals into the
        ``cache.*`` gauges (plus the derived ``cache.hit_ratio``)
        whenever a snapshot is taken.  Idempotent per registry.
        """
        bound = getattr(self, "_bound_registries", None)
        if bound is None:
            bound = self._bound_registries = set()
        if id(registry) in bound:
            return
        bound.add(id(registry))

        def _collect(reg) -> None:
            for name, value in self.stats().items():
                reg.gauge(f"cache.{name}").set(value)
            reg.gauge("cache.hit_ratio").set(self.hit_rate)

        registry.register_collector(_collect)  # type: ignore[attr-defined]

    @property
    def hit_rate(self) -> float:
        # Both counters must come from the same instant: a get() racing
        # an unlocked read could bump one but not yet the other and
        # tear the ratio (hits > hits + misses reads > 1.0).
        with self._lock:
            hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0

    # -- persistence -----------------------------------------------------------

    def save(self, path: str | Path | None = None) -> None:
        """Persist every live entry as JSON (LRU order preserved).

        The write is atomic: the payload goes to a temporary file in
        the destination directory, is fsynced, and is then renamed over
        the destination with :func:`os.replace` — a crash mid-save can
        leave a stale cache, never a corrupt one.
        """
        destination = Path(path) if path is not None else self.path
        if destination is None:
            raise ValueError("no path given and cache has no default path")
        with self._lock:
            payload = {
                "version": 1,
                "capacity": self.capacity,
                "entries": [
                    [key, result_to_payload(result)]
                    for key, result in self._entries.items()
                ],
            }
        write_json_atomically(destination, payload)

    def load(self, path: str | Path | None = None) -> int:
        """Merge entries persisted with :meth:`save`; returns the count."""
        source = Path(path) if path is not None else self.path
        if source is None:
            raise ValueError("no path given and cache has no default path")
        data = json.loads(source.read_text())
        loaded = 0
        for key, payload in data["entries"]:
            self.put(key, result_from_payload(payload))
            loaded += 1
        return loaded


def write_json_atomically(destination: Path, payload: object) -> None:
    """Durably replace ``destination`` with ``payload`` as JSON.

    temp file in the same directory → write → flush → fsync →
    :func:`os.replace`.  The rename is atomic on POSIX, so concurrent
    readers see either the old file or the new one, and a crash at any
    point leaves the previous contents intact.  The temp file is
    removed on failure.
    """
    destination = Path(destination)
    destination.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(
        dir=destination.parent, prefix=f".{destination.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(payload))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, destination)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def result_to_payload(result: "RunResult") -> dict:
    """Full-fidelity JSON view of a RunResult (trace excluded).

    The one RunResult field table: checkpoints, saved result sets and
    the service store persist results with exactly this serialization.

    Call traces are only populated by explicitly traced runs, which the
    runner never caches, so dropping ``trace`` loses nothing.

    ``provenance`` is only present when non-empty: runs without the
    opt-in provenance log serialize to byte-identical payloads (and
    therefore byte-identical history digests) before and after the
    field existed.
    """
    payload = {
        "test_id": result.test_id,
        "test_name": result.test_name,
        "plan": result.plan.format(),
        "exit_code": result.exit_code,
        "crash_kind": result.crash_kind,
        "crash_message": result.crash_message,
        "crash_stack": list(result.crash_stack) if result.crash_stack else None,
        "injection_stack":
            list(result.injection_stack) if result.injection_stack else None,
        "injected": result.injected,
        "coverage": sorted(result.coverage),
        "steps": result.steps,
        "stdout": list(result.stdout),
        "stderr": list(result.stderr),
        "failure_message": result.failure_message,
        "measurements": result.measurements,
        "call_counts": result.call_counts,
        "open_fds": result.open_fds,
        "leaked_heap_bytes": result.leaked_heap_bytes,
        "invariant_violations": list(result.invariant_violations),
    }
    if result.provenance:
        payload["provenance"] = [list(record) for record in result.provenance]
    return payload


def result_from_payload(payload: dict) -> "RunResult":
    from repro.injection.plan import InjectionPlan
    from repro.sim.libc import ProvenanceRecord
    from repro.sim.process import RunResult

    return RunResult(
        test_id=payload["test_id"],
        test_name=payload["test_name"],
        plan=InjectionPlan.parse(payload["plan"]),
        exit_code=payload["exit_code"],
        crash_kind=payload["crash_kind"],
        crash_message=payload["crash_message"],
        crash_stack=tuple(payload["crash_stack"])
        if payload["crash_stack"] else None,
        injection_stack=tuple(payload["injection_stack"])
        if payload["injection_stack"] else None,
        injected=payload["injected"],
        coverage=frozenset(payload["coverage"]),
        steps=payload["steps"],
        stdout=tuple(payload["stdout"]),
        stderr=tuple(payload["stderr"]),
        failure_message=payload["failure_message"],
        measurements=dict(payload["measurements"]),
        call_counts={k: int(v) for k, v in payload["call_counts"].items()},
        open_fds=payload["open_fds"],
        leaked_heap_bytes=payload["leaked_heap_bytes"],
        invariant_violations=tuple(payload["invariant_violations"]),
        provenance=tuple(
            ProvenanceRecord.from_raw(row)
            for row in payload.get("provenance", ())
        ),
    )
