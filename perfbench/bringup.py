"""Cold bring-up of a workload, timed from a fresh interpreter.

``setup_s`` is what a user waits for before the first campaign can
start: interpreter start and imports, target, suite, space and engine
build, pool fork and per-worker target build, node spawn and
registration, or, for the service, its store and ``serve()`` until the
first ping is answered.  Each sample runs this file as a child process
and stops the clock when the child reports that it is up; the child
then tears down, and the next sample starts only after it has exited.

Run as a child::

    python3 perfbench/bringup.py <workload> <directory>
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

__all__ = ["cold_setups"]

READY = "up"


def cold_setups(workload: str, repeats: int, directory: Path) -> list[float]:
    """Seconds of ``repeats`` cold bring-ups of ``workload``, one by one."""
    seconds = []
    for index in range(repeats):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, __file__, workload, str(directory / str(index))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - started
            child.stdin.close()  # tells the child to tear down
            child.wait(timeout=60.0)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if line != READY or child.returncode != 0:
            raise RuntimeError(f"{workload} bring-up failed: {line!r}, "
                               f"exit code {child.returncode}")
        seconds.append(elapsed)
    return seconds


def main(workload: str, directory: str) -> None:
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    if workload == "coreutils-service-open":
        from service_load import Service

        up = Service(Path(directory))
        up.start()
        down = up.stop
    else:
        from campaigns import CONFIGS, Bench

        up = Bench(CONFIGS[workload])
        try:
            up.bring_up()
        except BaseException:
            up.close()
            raise
        down = up.close
    try:
        print(READY, flush=True)
        sys.stdin.read()  # until the parent closes our stdin
    finally:
        down()


if __name__ == "__main__":
    main(*sys.argv[1:])
