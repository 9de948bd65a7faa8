"""Starts benchmark commands one at a time and reports each one's own rusage.

A child's ``ru_maxrss`` includes the high-water RSS of the process that
spawned it, because the kernel folds the old address space's mark into the
child's when it calls exec. ``run.py`` holds the corpus and its ground
truth, so it starts this small process once and asks it to start every
command.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd", "env",
"log", "timeout"}``; one JSON reply per line on stdout, ``{"wall_s",
"cpu_s", "rss_mb", "code"}``. The process exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["log"], "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "code": proc.returncode,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
