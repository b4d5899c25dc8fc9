"""Starts the benchmark's child processes and reports their resource use.

On Linux a child's max-RSS also counts the peak RSS of the process that
started it, so ``run.py`` does not start children itself: its memory grows
as it checks outputs and reads span files.  It starts this small process
once, early, and sends it one JSON request per line on stdin::

    {"cmd": [...], "cwd": "...", "env": {...}, "stdout": "FILE", "stderr": "FILE", "timeout": S}

For each request it runs the command to completion, killing it after
``timeout`` seconds, and answers with one JSON line on stdout::

    {"wall_s": ..., "cpu_s": ..., "rss_mb": ..., "returncode": ...}

It exits when stdin closes, and on SIGTERM after killing the running child.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def serve(requests, replies) -> None:
    running: list[subprocess.Popen] = []

    def stop(signum, frame):
        for proc in running:
            proc.kill()
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    for line in requests:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=req["cwd"], env=req["env"])
            running.append(proc)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        running.clear()
        replies.write(json.dumps({
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "returncode": proc.returncode,
        }) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
