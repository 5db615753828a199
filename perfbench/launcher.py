"""A small process that starts the benchmark's child processes and times them.

A child created by fork or vfork starts with its parent's peak RSS, so a
child started from the benchmark harness, which holds the generated corpus,
would report the harness's memory as its own.  This launcher is started
before any input is generated and stays small, so the ``ru_maxrss`` of each
child it reaps is that child's own peak (or the launcher's, about 10 MB,
whichever is larger).

Protocol: the launcher first writes ``{"ready": true}`` on a line of its
own.  Then, for each JSON request line on stdin, ``{"argv": [...],
"stderr": path}``, it runs the child and writes one JSON line with the
child's exit code, CLOCK_MONOTONIC start and end in nanoseconds, and peak
RSS in KiB.  The child runs in the launcher's working directory with stdout
sent to /dev/null.  End of input stops the launcher.

Usage: python3 launcher.py WORKDIR
"""

import json
import os
import sys
import time


def serve(requests, replies) -> None:
    replies.write('{"ready": true}\n')
    replies.flush()
    for line in requests:
        request = json.loads(line)
        argv = request["argv"]
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
             0o644),
        ]
        start = time.perf_counter_ns()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        end = time.perf_counter_ns()
        reply = {"code": os.waitstatus_to_exitcode(status), "start_ns": start, "end_ns": end,
                 "maxrss_kb": usage.ru_maxrss}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    os.chdir(sys.argv[1])
    serve(sys.stdin, sys.stdout)
