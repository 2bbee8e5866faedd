"""Spawn one benchmark child from a fresh, small process and report on it.

    python3 perfbench/launch.py TIMEOUT_S STDOUT STDERR -- ARGV...

The peak RSS that ``wait4`` reports for a child is never below the peak of
the process that spawned it: Linux carries the spawning address space's
high-water mark into the child.  The runner grows while it checks outputs,
so it spawns every child through this launcher, whose own peak stays below
that of any workload run.  Prints one JSON line: the monotonic time just
before the spawn, the wall time until the child was reaped, its exit code
and its peak RSS in KiB.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    timeout_s, stdout_path, stderr_path, sep, *child_argv = argv
    if sep != "--" or not child_argv:
        print(__doc__, file=sys.stderr)
        return 2
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(child_argv, stdout=out, stderr=err)
        killer = threading.Timer(float(timeout_s), proc.kill)
        killer.start()
        try:
            # Reap exactly this pid, so the rusage is this child's alone.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"spawn": t0, "wall_s": wall, "exit": proc.returncode,
                      "maxrss_kb": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
