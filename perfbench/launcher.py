"""Runs the benchmark's CLI subprocesses and reports their wall time, CPU
time, peak RSS and exit code.

A child's ru_maxrss counts the memory image it was forked from, so children
forked straight from the benchmark process would report at least the
benchmark's own peak (tens to hundreds of MB after loading outputs).  This
helper is started before the benchmark loads anything and stays small, so the
RSS it reports is the command's own.

The helper also times a short fixed loop of Python right before a command,
every 50 ms while it runs, and right after it; ``ref_s`` in the reply is the
median of those samples.  The host runs all Python code at one of two speeds
about 1.4x apart, in spells of a fraction of a second to tens of seconds,
and a command's CPU time divided by the loop's follows that speed far less
than either does.  The helper pins itself, and with it every command, to one
CPU, so that the loop samples the CPU the command runs on.  Linux only
(``os.pidfd_open``, ``os.sched_setaffinity``).

Protocol: one JSON request per stdin line, ``{"argv": [...], "cwd": str,
"timeout": s}``; one JSON reply per stdout line, ``{"wall_s", "cpu_s",
"ref_s", "rss_kb", "code"}``.  The child's stderr goes to
``<cwd>/stderr.txt``.  Exits at end of input.
"""

import json
import os
import select
import statistics
import subprocess
import sys
import threading
import time

REFERENCE_ITERATIONS = 30_000  # about 2 ms
SAMPLE_INTERVAL_S = 0.05


def reference_s():
    """CPU time of a fixed loop of integer arithmetic."""
    start = time.process_time()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.process_time() - start


def run(argv, cwd, timeout):
    refs = [reference_s()]
    with open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            exited = os.pidfd_open(proc.pid)
            try:
                while not select.select([exited], [], [], SAMPLE_INTERVAL_S)[0]:
                    refs.append(reference_s())
            finally:
                os.close(exited)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    refs.append(reference_s())
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "ref_s": statistics.median(refs),
        "rss_kb": usage.ru_maxrss,
        "code": proc.returncode,
    }


def main():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["cwd"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
