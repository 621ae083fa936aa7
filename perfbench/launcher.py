"""Spawns and times ``python -m dynamap`` children from a small process.

The kernel carries the high-water RSS of the spawning process into the
child's ``ru_maxrss`` at exec.  The benchmark holds its inputs and decoded
reports in memory, so children spawned from it would report its peak, not
their own.  This process stays small and does the spawning instead.

Protocol: one JSON request per line on stdin, ``{"argv": [...], "out":
path, "err": path}``, answered by one JSON line on stdout with the exit
code, the wall time from spawn to exit, the child's CPU time and its
max-RSS in KiB.  The children inherit this process's environment.
"""

import json
import os
import signal
import sys
import time


def _terminate(signum, frame):
    raise SystemExit(1)


def main():
    signal.signal(signal.SIGTERM, _terminate)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        req = json.loads(line)
        actions = [(os.POSIX_SPAWN_OPEN, 1, req["out"], flags, 0o600),
                   (os.POSIX_SPAWN_OPEN, 2, req["err"], flags, 0o600)]
        argv = [sys.executable, "-m", "dynamap", *req["argv"]]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        print(json.dumps({"code": os.waitstatus_to_exitcode(status), "wall": wall,
                          "cpu": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss}),
              flush=True)


if __name__ == "__main__":
    main()
