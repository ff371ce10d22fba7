"""Starts the program's processes for run.py from a process that stays small.

The peak RSS that wait4 reports for a child includes the RSS of the
process that spawned it.  run.py grows as it checks outputs, so it hands
every command to this process, which imports almost nothing (about
13 MB), and the floor under each child's reading stays below the
smallest fibtree process.

Reads one JSON request per line on stdin, {"argv": [...], "out": path,
"err": path}, runs it to its end with stdout and stderr in those files,
and answers one JSON line, {"wall": s, "rss_mb": MB, "code": exit code}.
A child still running after TIMEOUT_S (argv[1]) seconds is killed.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    timeout_s = int(sys.argv[1])
    for line in sys.stdin:
        req = json.loads(line)
        create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, req["out"], create, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, req["err"], create, 0o644)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(timeout_s)
        _, status, usage = os.wait4(pid, 0)
        signal.alarm(0)
        wall = time.perf_counter() - t0
        print(json.dumps({"wall": wall, "rss_mb": usage.ru_maxrss / 1024,
                          "code": os.waitstatus_to_exitcode(status)}), flush=True)


if __name__ == "__main__":
    main()
