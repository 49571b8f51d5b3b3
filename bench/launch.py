"""Run one command to exit and print its wall time, peak RSS and exit code.

Usage: python3 bench/launch.py TIMEOUT_S LOG_FILE -- COMMAND...

A child's peak RSS (ru_maxrss from wait4) starts at the resident size of the
process that spawned it, because Linux carries the spawner's high-water mark
across exec.  The benchmark's own process grows while it checks outputs, so
it spawns every measured command through this small launcher, which imports
nothing heavy.  Wall time runs from spawn to exit.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv):
    timeout, log, sep, command = float(argv[0]), argv[1], argv[2], argv[3:]
    if sep != "--" or not command:
        raise SystemExit("usage: launch.py TIMEOUT_S LOG_FILE -- COMMAND...")
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(command, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
                      "exit": proc.returncode}))


if __name__ == "__main__":
    main(sys.argv[1:])
