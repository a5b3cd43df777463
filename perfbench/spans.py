"""In-memory span recording around calls into the program's layers.

The benchmark's traced run replaces an instance or module attribute the
program calls through with a wrapper that records one span per call:
name, start, end, parent span and the campaign or job it belongs to.
Nothing under ``src/`` is changed, and the wrappers exist only while a
traced campaign or job runs.  Self time (a span's duration minus the
part its child spans cover) is derived from the spans afterwards.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["SpanRecorder"]

_MISSING = object()


class SpanRecorder:
    """Records spans from any thread; parents are tracked per thread."""

    def __init__(self) -> None:
        #: one list per span: [name, start, end, parent, op]; ``parent``
        #: is the parent's list (or None), ``op`` the campaign/job id.
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, op=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent[4]
        record = [name, 0.0, 0.0, parent, op]
        stack.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, owner: object, attr: str, name: str, op_of=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is an instance or a module; :meth:`restore` puts the
        original back.  ``op_of(args)`` names the campaign or job a root
        span belongs to.
        """
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            op = op_of(args) if op_of is not None else None
            return recorder.call(name, original, args, kwargs, op=op)

        self.wrap_value(owner, attr, wrapper)

    def wrap_value(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- analysis --------------------------------------------------------------

    def self_times(self, roots: str) -> tuple[dict[str, float], float]:
        """Self seconds per span name under the root spans named ``roots``.

        Returns ``(self seconds by name, total root seconds)``; the
        roots' own self time is the unattributed remainder and is
        reported under the root name.  Spans outside any root are
        ignored.
        """
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                covered[id(span[3])] += span[2] - span[1]
        by_name: dict[str, float] = defaultdict(float)
        total = 0.0
        for span in self.spans:
            if not self._under(span, roots):
                continue
            duration = span[2] - span[1]
            by_name[span[0]] += duration - covered.get(id(span), 0.0)
            if span[0] == roots:
                total += duration
        return dict(by_name), total

    @staticmethod
    def _under(span: list, roots: str) -> bool:
        while span is not None:
            if span[0] == roots:
                return True
            span = span[3]
        return False

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (parents as line numbers)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": index.get(id(parent)) if parent else None,
                    "op": op,
                }, separators=(",", ":")) + "\n")
