"""Runs the benchmark's child processes from a process that stays small.

On Linux a child's ``ru_maxrss`` also counts the resident size of the
process that spawned it: the kernel carries the old address space's
high-water mark across ``exec``. ``run.py`` generates inputs and re-parses
outputs, so children it spawned itself would report its peak as their own.
``run.py`` starts this process before doing any of that and has it spawn
every child, which keeps ``peak_rss_mb`` the child's.

Protocol: one JSON request per line on stdin,
``{"argv", "cwd", "stdout", "stderr", "env", "timeout"}``; one JSON reply
per line on stdout, ``{"code", "timed_out", "wall_s", "maxrss_kb", "cpu_s"}``.
The process exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out,
                                stderr=err, env=request["env"])
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.perf_counter() - start
            timer.cancel()
            timer.join()
    # reaped by wait4 above; tell Popen so it never waits on the pid again
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {
        "code": code,
        "timed_out": wall >= request["timeout"],
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
