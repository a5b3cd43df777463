"""The repository benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload minidb-fitness-serial --seed 1 \\
        --seconds 20 --trace 0

Without ``--workload`` every workload runs in turn, each in a fresh
interpreter (so each reports its own peak RSS), printing its own table
and result line.

``--trace 0`` measures the end-to-end metrics with the program's own
instrumentation off; ``--trace 1`` installs span wrappers around the
layers' calls and prints the per-layer metrics instead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from campaigns import CONFIGS, run_campaign_workload
from common import END_TO_END, PER_LAYER, machine_record, src_dir
from service_load import run_service_workload

WORKLOADS = (
    "minidb-fitness-serial",
    "replkv-uniform-pool",
    "replkv-uniform-fleet",
    "coreutils-service-open",
)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 **options):
    """Run one workload in this process; returns its WorkloadResult."""
    if name == "coreutils-service-open":
        return run_service_workload(name, seed, seconds, trace, **options)
    return run_campaign_workload(name, seed, seconds, trace, **options)


def report(result, trace: bool) -> dict:
    """The result line; every declared metric, by name, with its unit."""
    declared = PER_LAYER if trace else END_TO_END
    metrics = {
        name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in declared
    }
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Run every workload in turn, each in a fresh interpreter."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        status = status or done.returncode
    return status


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all",
                        help="one workload, or all of them in turn "
                        "(the default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    name = args.workload

    if not (src_dir() / "repro").is_dir():
        print(f"perfbench: no program source at {src_dir()}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src_dir()))
    machine = machine_record(args.seed)
    # Pool workers and fleet nodes each need a core of their own.
    needed = CONFIGS[name].workers if name in CONFIGS else 1
    if machine["usable_cores"] < needed:
        print(f"perfbench: {name} needs {needed} usable cores, "
              f"this process may use {machine['usable_cores']}",
              file=sys.stderr)
        return 3
    print("machine " + json.dumps(machine, sort_keys=True), flush=True)

    result = run_workload(name, args.seed, args.seconds, bool(args.trace))
    for failure in result.failures():
        print(f"FAILED {failure}")
    if not result.metrics:
        print(f"perfbench: {name}: no operation completed; no metrics",
              file=sys.stderr)
        return 1
    line = report(result, bool(args.trace))
    print(f"{name} seed={args.seed} trace={args.trace} "
          f"attempted={result.attempted} failed={result.failed} "
          f"failed_ratio={result.failed / result.attempted:g}")
    for metric_name, metric in line["metrics"].items():
        mark = ("" if metric_name in result.metrics
                else " (not measured here)")
        print(f"  {metric_name:<26} {metric['value']:>14.6g} "
              f"{metric['unit']}{mark}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
