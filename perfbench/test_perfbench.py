"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import campaigns  # noqa: E402
import run  # noqa: E402
from common import END_TO_END, PER_LAYER  # noqa: E402
from spans import SpanRecorder  # noqa: E402


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = run.run_workload(workload, 5, 0.2, trace, tiny=True)
    line = run.report(result, trace)
    declared = PER_LAYER if trace else END_TO_END
    assert list(line["metrics"]) == [name for name, _ in declared]
    for name, unit in declared:
        assert line["metrics"][name]["unit"] == unit
        assert isinstance(line["metrics"][name]["value"], float)
    assert set(result.metrics) <= {name for name, _ in declared}
    if not trace:
        assert set(result.metrics) == {name for name, _ in declared}
    else:
        assert {"sim.fired_ratio", "sim.steps_per_test", "unattributed_share",
                "trace_overhead"} <= set(result.metrics)
    assert line["correct"] and line["failed"] == 0, result.failures()
    assert line["attempted"] >= 2
    json.dumps(line)


def test_layer_self_times_sum_to_campaign_wall_time():
    bench = campaigns.Bench(campaigns.CONFIGS["minidb-fitness-serial"])
    bench.bring_up()
    recorder = SpanRecorder()
    try:
        runs = [bench.explore(seed, 300, recorder) for seed in (3, 4)]
    finally:
        bench.close()
    self_s, total_s = recorder.self_times("campaign")
    layers = {name: s for name, s in self_s.items() if name != "campaign"}
    assert {"search.propose", "sim.run", "sim.setup", "impact.score",
            "quality.online", "injection.plan"} <= set(layers)
    assert all(seconds >= 0 for seconds in self_s.values())
    # Wall time as the engine measured it, not from the spans.
    wall = sum(r.seconds for r in runs)
    assert total_s == pytest.approx(wall, rel=0.05)
    # The layer spans directly under a campaign, inclusive, straight
    # from the raw spans: the layers' self times must add up to them.
    top = sum(end - start for _, start, end, parent, _ in recorder.spans
              if parent is not None and parent[0] == "campaign")
    assert sum(layers.values()) == pytest.approx(top, rel=1e-6)
    # The layers cover the campaign: what no span covers stays small,
    # and layers plus that remainder make up the wall time.
    unattributed = self_s["campaign"]
    assert unattributed < 0.15 * wall
    assert top + unattributed == pytest.approx(wall, rel=0.05)
    # The wrappers are gone once the campaign is over.
    assert "explore" not in vars(bench.engine)
    assert "propose_batch" not in vars(runs[0].strategy)


def test_doctored_reference_digest_counts_as_failed():
    name = "minidb-fitness-serial"
    doctored = {seed: "0" * 64
                for seed in campaigns.campaign_seeds(name, 5)}
    result = campaigns.run_campaign_workload(
        name, 5, 0.2, False, tiny=True, references=doctored)
    assert result.failed == result.attempted > 0
    line = run.report(result, False)
    assert not line["correct"]
    assert line["metrics"]["ok_ratio"]["value"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "minidb-fitness-serial", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_json_declares_what_the_benchmark_prints():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == \
        list(PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
