#!/usr/bin/env python3
"""Run one command to its end and write what it used as JSON.

    python3 perfbench/launch.py REPORT TIMEOUT_S CMD...

The command inherits this process's standard streams and runs in a session
of its own; after TIMEOUT_S seconds its whole process group is killed.
REPORT receives {"returncode", "wall_s", "cpu_s", "max_rss_mb"} from
wait4, so CPU time and peak resident set include the pool workers the
command waited for.

The benchmark starts commands through this small process because Linux
carries a process's peak resident set across exec: a command started
straight from the benchmark, which holds numpy, scipy and the check
results, would report the benchmark's own resident set as its peak.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    report, timeout, cmd = argv[0], float(argv[1]), argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, start_new_session=True)
    watchdog = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    with open(report, "w") as f:
        json.dump({"returncode": proc.returncode, "wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "max_rss_mb": usage.ru_maxrss / 1024}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
