"""Exploration results: the output side of AFEX (§6.3).

A :class:`ResultSet` holds every executed test with its fault, outcome,
and impact, and provides the analyses the prototype reports: counts of
failed tests and crashes, redundancy clusters (with representatives),
rankings by severity, and generated replay scripts that reproduce an
injection outside the explorer — the "test suites" output the paper
highlights as saving "considerable human time in constructing regression
test suites."
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from collections.abc import Callable, Iterator, Sequence
from pathlib import Path

from repro.core.fault import Fault
from repro.errors import ReportError
from repro.quality.clustering import RedundancyClusters, cluster_stacks
from repro.sim.process import RunResult

__all__ = ["ExecutedTest", "ResultSet"]


@dataclass(frozen=True)
class ExecutedTest:
    """One executed fault-injection test and its evaluation."""

    index: int  # execution order, 0-based
    fault: Fault
    result: RunResult
    impact: float
    fitness: float  # impact after feedback weighting (== impact without)

    @property
    def failed(self) -> bool:
        return self.result.failed

    @property
    def crashed(self) -> bool:
        return self.result.crashed

    @property
    def hung(self) -> bool:
        return self.result.hung


#: bump on any incompatible change to the saved result-set format.
RESULTS_VERSION = 2


class ResultSet:
    """Ordered collection of executed tests with quality analyses."""

    def __init__(self, executed: Sequence[ExecutedTest]) -> None:
        self._executed = list(executed)

    def __len__(self) -> int:
        return len(self._executed)

    def __iter__(self) -> Iterator[ExecutedTest]:
        return iter(self._executed)

    def __getitem__(self, index: int) -> ExecutedTest:
        return self._executed[index]

    # -- counts (the numbers Tables 1-5 report) ---------------------------------

    def failed_tests(self) -> list[ExecutedTest]:
        return [t for t in self._executed if t.failed]

    def crashes(self) -> list[ExecutedTest]:
        return [t for t in self._executed if t.crashed]

    def hangs(self) -> list[ExecutedTest]:
        return [t for t in self._executed if t.hung]

    def failed_count(self) -> int:
        return sum(1 for t in self._executed if t.failed)

    def crash_count(self) -> int:
        return sum(1 for t in self._executed if t.crashed)

    def coverage_union(self) -> frozenset[str]:
        blocks: set[str] = set()
        for t in self._executed:
            blocks |= t.result.coverage
        return frozenset(blocks)

    def matching(self, predicate: Callable[[ExecutedTest], bool]) -> list[ExecutedTest]:
        return [t for t in self._executed if predicate(t)]

    # -- ranking ----------------------------------------------------------------

    def top(self, n: int) -> list[ExecutedTest]:
        """The n highest-impact tests (severity ranking, §1)."""
        return sorted(self._executed, key=lambda t: t.impact, reverse=True)[:n]

    # -- redundancy (§5) -----------------------------------------------------------

    def cluster(
        self,
        of: Callable[[ExecutedTest], bool] | None = None,
        max_distance: int = 1,
    ) -> RedundancyClusters:
        """Cluster (a filtered subset of) tests by injection-point stack."""
        subset = self._executed if of is None else [t for t in self._executed if of(t)]
        stacks = [
            tuple(t.result.injection_stack) if t.result.injection_stack else None
            for t in subset
        ]
        return cluster_stacks(stacks, max_distance=max_distance)

    def unique_failures(self, max_distance: int = 0) -> int:
        """Failures with distinct injection-point stack traces (Table 5)."""
        return self.cluster(of=lambda t: t.failed, max_distance=max_distance).cluster_count

    def unique_crashes(self, max_distance: int = 0) -> int:
        """Crashes with distinct injection-point stack traces (Table 5)."""
        return self.cluster(of=lambda t: t.crashed, max_distance=max_distance).cluster_count

    def cluster_representatives(
        self, of: Callable[[ExecutedTest], bool] | None = None, max_distance: int = 1
    ) -> list[ExecutedTest]:
        """One test per redundancy cluster, ready for a regression suite."""
        subset = self._executed if of is None else [t for t in self._executed if of(t)]
        clusters = self.cluster(of=of, max_distance=max_distance)
        return [subset[i] for i in clusters.representatives()]

    # -- replay scripts (§6.3 "Test Suites") ------------------------------------------

    def replay_script(
        self, test: ExecutedTest, target_name: str, crash_id: str | None = None
    ) -> str:
        """Source of a standalone script reproducing one injection.

        When ``crash_id`` is given (the store's scenario-key digest for
        this result) it is embedded in the header so the script and the
        one-command path stay cross-referenced: ``afex replay <id>``
        against the producing store or checkpoint reproduces the same
        scenario with call-level provenance.
        """
        plan_text = test.result.plan.format() or "# (no injection)"
        plan_lines = "\n".join(plan_text.splitlines())
        crash_line = f"\nCrash id:  {crash_id}" if crash_id else ""
        replay_hint = (
            f"\n# One-command equivalent (against the producing store or"
            f"\n# checkpoint): afex replay {crash_id}\n"
            if crash_id
            else ""
        )
        return f'''"""Auto-generated AFEX replay script.

Fault:     {test.fault}
Outcome:   {test.result.summary()}
Impact:    {test.impact:.2f}{crash_line}
"""
{replay_hint}

from repro.injection.plan import InjectionPlan
from repro.sim.process import run_test
from repro.sim.targets import target_by_name

PLAN = InjectionPlan.parse("""\\
{plan_lines}
""")

def replay():
    target = target_by_name("{target_name}")
    test = target.suite[{test.result.test_id}]
    return run_test(target, test, PLAN)

if __name__ == "__main__":
    result = replay()
    print(result.summary())
'''

    def regression_suite(
        self,
        target_name: str,
        of: Callable[[ExecutedTest], bool] | None = None,
        max_distance: int = 1,
        crash_id_for: Callable[[ExecutedTest], str | None] | None = None,
    ) -> dict[str, str]:
        """Replay scripts for one representative per redundancy cluster.

        Returns a mapping of suggested file name -> script source.
        ``crash_id_for`` optionally maps each representative to its
        stable crash id so the scripts embed an ``afex replay`` hint.
        """
        scripts: dict[str, str] = {}
        for rep in self.cluster_representatives(of=of, max_distance=max_distance):
            name = f"replay_{rep.index:05d}.py"
            crash_id = crash_id_for(rep) if crash_id_for is not None else None
            scripts[name] = self.replay_script(rep, target_name, crash_id=crash_id)
        return scripts

    # -- persistence (§6.3: results outlive the exploration session) -----------------

    def to_json(self) -> str:
        """Serialize the result set, losslessly.

        Every test goes through the checkpoint codec — the same
        full-fidelity payload checkpoints persist and
        :func:`~repro.core.checkpoint.history_digest` hashes — so a
        saved run can be re-clustered, re-ranked, re-reported and
        re-digested later without re-executing anything.
        """
        from repro.core.checkpoint import _executed_to_payload

        return json.dumps({
            "version": RESULTS_VERSION,
            "tests": [
                {"index": t.index, **_executed_to_payload(t)}
                for t in self._executed
            ],
        })

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Rebuild a result set saved with :meth:`to_json`."""
        from repro.core.checkpoint import _executed_from_payload

        data = json.loads(text)
        version = data.get("version")
        if version != RESULTS_VERSION:
            raise ReportError(
                f"saved result set has version {version!r}; this build "
                f"reads version {RESULTS_VERSION} (version 1 files were "
                "lossy and cannot be upgraded — re-run the campaign)"
            )
        return cls([
            _executed_from_payload(entry, entry["index"])
            for entry in data["tests"]
        ])

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "ResultSet":
        return cls.from_json(Path(path).read_text())

    # -- summary ---------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        return {
            "tests": len(self._executed),
            "failed": self.failed_count(),
            "crashes": self.crash_count(),
            "hangs": len(self.hangs()),
            "covered_blocks": len(self.coverage_union()),
            "max_impact": max((t.impact for t in self._executed), default=0.0),
        }
