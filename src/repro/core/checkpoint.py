"""Versioned campaign checkpoints: crash-resumable exploration.

A long certification campaign that dies at generation 9,000 should not
restart at generation zero — least of all in a tool whose thesis is
that recovery code must be exercised.  This module snapshots a running
exploration's state to a versioned JSON file and restores it so that a
killed campaign, resumed, produces a result history **byte-identical**
to an uninterrupted run with the same seed.

The snapshot holds the *observable* state of the session: the full
result history (fault, impact, and the same
:class:`~repro.sim.process.RunResult` wire payload the result cache
uses), the RNG state, a fingerprint of the fault space, the batch
size, and free-form caller metadata (target name, strategy, seed,
cache statistics).  Strategy internals are deliberately *not*
serialized — every bundled strategy is a deterministic function of
``(space, rng, observations)``, so resume **replays** the recorded
history through a freshly-bound strategy: each replayed round re-asks
the strategy for its proposals, checks them against the record (a
divergence means code drift or a foreign checkpoint and raises
:class:`~repro.errors.CheckpointError`), feeds back the recorded
results without executing anything, and finally verifies the RNG
landed in exactly the recorded state.  Replay of ``n`` tests costs
``n`` cache-speed observations, no simulator time.

Checkpoint files are written atomically (temp file + fsync +
``os.replace`` — see
:func:`~repro.core.cache.write_json_atomically`), so the fault being
survived — a kill mid-write — cannot corrupt the very file that
enables surviving it.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.cache import (
    _canonical,
    _decanonical,
    result_from_payload,
    result_to_payload,
    write_json_atomically,
)
from repro.core.fault import Fault
from repro.core.faultspace import FaultSpace
from repro.core.results import ExecutedTest
from repro.errors import CheckpointError

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointWriter",
    "space_fingerprint",
    "build_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "replay_history",
    "history_digest",
]

#: bump on any incompatible change to the checkpoint schema.
CHECKPOINT_VERSION = 1
_KIND = "afex-checkpoint"


def space_fingerprint(space: FaultSpace) -> dict[str, object]:
    """A cheap identity for a fault space: axes and total size.

    Enough to reject resuming a checkpoint against the wrong space
    before replay even starts (replay itself then catches any deeper
    mismatch fault by fault).
    """
    return {
        "axes": sorted(space.axis_names()),
        "size": space.size(),
    }


def _executed_to_payload(test: ExecutedTest) -> dict[str, object]:
    return {
        "fault": {
            "subspace": test.fault.subspace,
            "attributes": [
                [name, _canonical(value)]
                for name, value in test.fault.attributes
            ],
        },
        "impact": test.impact,
        "fitness": test.fitness,
        "result": result_to_payload(test.result),
    }


def _executed_from_payload(payload: dict, index: int) -> ExecutedTest:
    fault_data = payload["fault"]
    fault = Fault(
        subspace=fault_data["subspace"],
        attributes=tuple(
            (name, _decanonical(value))
            for name, value in fault_data["attributes"]
        ),
    )
    return ExecutedTest(
        index=index,
        fault=fault,
        result=result_from_payload(payload["result"]),
        impact=payload["impact"],
        fitness=payload["fitness"],
    )


def _rng_state_to_json(state: object) -> list:
    version, internal, gauss_next = state  # type: ignore[misc]
    return [version, list(internal), gauss_next]


def _rng_state_from_json(data: Sequence) -> tuple:
    return (data[0], tuple(data[1]), data[2])


@dataclass
class Checkpoint:
    """One snapshot of a running exploration, ready to resume from."""

    version: int
    batch_size: int
    space: dict[str, object]
    executed: list[dict]
    rng_state: list | None = None
    #: free-form caller configuration (target, strategy, seed, fabric,
    #: iterations, cache statistics) — round-tripped verbatim.
    meta: dict[str, object] = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        """How many executed tests the snapshot holds."""
        return len(self.executed)

    def restore_executed(self) -> list[ExecutedTest]:
        """The recorded result history, as live :class:`ExecutedTest`s."""
        return [
            _executed_from_payload(payload, index)
            for index, payload in enumerate(self.executed)
        ]

    def digest(self) -> str:
        """Content digest of the recorded history (see
        :func:`history_digest`)."""
        return _digest_payloads(self.executed)

    def as_payload(self) -> dict[str, object]:
        return {
            "kind": _KIND,
            "version": self.version,
            "batch_size": self.batch_size,
            "space": self.space,
            "executed": self.executed,
            "rng_state": self.rng_state,
            "meta": self.meta,
        }


def build_checkpoint(
    executed: Sequence[ExecutedTest],
    rng: random.Random,
    space: FaultSpace,
    batch_size: int,
    meta: dict[str, object] | None = None,
) -> Checkpoint:
    """Snapshot a session's state between two exploration rounds."""
    return Checkpoint(
        version=CHECKPOINT_VERSION,
        batch_size=batch_size,
        space=space_fingerprint(space),
        executed=[_executed_to_payload(test) for test in executed],
        rng_state=_rng_state_to_json(rng.getstate()),
        meta=dict(meta or {}),
    )


def save_checkpoint(path: str | Path, checkpoint: Checkpoint) -> Path:
    """Atomically persist a checkpoint; returns the written path."""
    destination = Path(path)
    write_json_atomically(destination, checkpoint.as_payload())
    return destination


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and validate a checkpoint written by :func:`save_checkpoint`."""
    source = Path(path)
    try:
        data = json.loads(source.read_text())
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {source}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"unreadable checkpoint {source}: {exc}"
        ) from exc
    if not isinstance(data, dict) or data.get("kind") != _KIND:
        raise CheckpointError(f"{source} is not an AFEX checkpoint")
    version = data.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {source} has version {version!r}; this build "
            f"reads version {CHECKPOINT_VERSION}"
        )
    try:
        return Checkpoint(
            version=version,
            batch_size=int(data["batch_size"]),
            space=dict(data["space"]),
            executed=list(data["executed"]),
            rng_state=data.get("rng_state"),
            meta=dict(data.get("meta") or {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed checkpoint {source}: {exc!r}"
        ) from exc


def replay_history(
    checkpoint: Checkpoint,
    strategy: object,
    batch_size: int,
    space: FaultSpace,
    account: Callable[[Fault, object], ExecutedTest],
    rng: random.Random | None = None,
) -> int:
    """Drive a freshly-bound strategy through the recorded history.

    ``account`` is the session's scoring path — ``(fault, result) ->
    ExecutedTest`` — called with each *recorded* result so the
    strategy, impact metric, and result history end up in exactly the
    state they had when the checkpoint was written, without touching
    the simulator.  Returns the number of replayed tests.

    Raises :class:`CheckpointError` when the checkpoint cannot belong
    to this configuration: wrong space, wrong batch size, a strategy
    that proposes different faults (code drift), an impact that scores
    differently, or an RNG that lands in a different state.
    """
    fingerprint = space_fingerprint(space)
    if checkpoint.space != fingerprint:
        raise CheckpointError(
            f"checkpoint space {checkpoint.space} does not match the "
            f"session's space {fingerprint}"
        )
    if checkpoint.batch_size != batch_size:
        raise CheckpointError(
            f"checkpoint was written at batch_size="
            f"{checkpoint.batch_size}, session uses {batch_size}; "
            "resume with the original batch size for byte-identical "
            "trajectories"
        )
    recorded = checkpoint.restore_executed()
    replayed = 0
    while replayed < len(recorded):
        batch = strategy.propose_batch(batch_size)  # type: ignore[attr-defined]
        if not batch:
            raise CheckpointError(
                "strategy exhausted the space during replay; the "
                "checkpoint records more history than this "
                "configuration can produce"
            )
        for fault in batch:
            if replayed >= len(recorded):
                raise CheckpointError(
                    "strategy proposed past the recorded history; the "
                    "checkpoint was not written on a round boundary "
                    "for this batch size"
                )
            record = recorded[replayed]
            if fault != record.fault:
                raise CheckpointError(
                    f"replay diverged at test #{replayed}: strategy "
                    f"proposed {fault}, checkpoint recorded "
                    f"{record.fault} — the checkpoint belongs to a "
                    "different configuration or code version"
                )
            executed = account(fault, record.result)
            if executed.impact != record.impact:
                raise CheckpointError(
                    f"replay diverged at test #{replayed}: impact "
                    f"scored {executed.impact}, checkpoint recorded "
                    f"{record.impact}"
                )
            replayed += 1
    if rng is not None and checkpoint.rng_state is not None:
        if rng.getstate() != _rng_state_from_json(checkpoint.rng_state):
            raise CheckpointError(
                "RNG state after replay does not match the checkpoint; "
                "a stochastic component drifted and the resumed run "
                "would not be byte-identical"
            )
    return replayed


class CheckpointWriter:
    """Periodic snapshot policy: write every N executed tests.

    Sessions call :meth:`maybe_write` between rounds; the writer
    snapshots whenever at least ``every`` new tests accumulated since
    the last write (and always on ``force=True``, used at session
    end).  ``every=0`` disables periodic writes but still allows the
    final forced one.
    """

    def __init__(
        self,
        path: str | Path,
        every: int,
        space: FaultSpace,
        batch_size: int,
        meta: dict[str, object] | None = None,
        meta_provider: Callable[[], dict[str, object]] | None = None,
    ) -> None:
        if every < 0:
            raise CheckpointError(
                f"checkpoint interval must be >= 0, got {every}"
            )
        self.path = Path(path)
        self.every = every
        self.space = space
        self.batch_size = batch_size
        self.meta = dict(meta or {})
        self.meta_provider = meta_provider
        #: iteration count at the last write.
        self.last_written = -1
        self.writes = 0

    def maybe_write(
        self,
        executed: Sequence[ExecutedTest],
        rng: random.Random,
        force: bool = False,
    ) -> bool:
        due = (
            self.every > 0
            and len(executed) - max(self.last_written, 0) >= self.every
        )
        if not (due or (force and len(executed) != self.last_written)):
            return False
        meta = dict(self.meta)
        if self.meta_provider is not None:
            meta.update(self.meta_provider())
        save_checkpoint(self.path, build_checkpoint(
            executed, rng, self.space, self.batch_size, meta=meta,
        ))
        self.last_written = len(executed)
        self.writes += 1
        return True


def _digest_payloads(payloads: Sequence[dict]) -> str:
    canonical = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def history_digest(executed: Sequence[ExecutedTest]) -> str:
    """Content digest of a result history.

    Two runs with byte-identical histories — same faults, same
    impacts, same simulated outcomes, in the same order — produce the
    same digest; this is what the kill-and-resume round-trip in CI
    compares against an uninterrupted run.  Wall-clock noise (report
    costs) is excluded by construction: the digest covers the same
    wire payloads the checkpoint persists.
    """
    return _digest_payloads([_executed_to_payload(t) for t in executed])
