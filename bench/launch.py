"""Starts benchmark jobs one at a time on behalf of ``run.py``.

Each line on stdin is a JSON request ``{"argv": [...], "stderr": PATH}``; the
job runs to completion with stdout discarded and stderr written to PATH, and
one JSON line ``[wall_s, cpu_s, peak_rss_mb, exit_code]`` is written back.
Resource use comes from ``wait4`` on that job alone, not from the cumulative
RUSAGE_CHILDREN.

The kernel counts the address space a process was forked from in its peak
RSS, so jobs are spawned from this small process rather than from the
harness, which holds the generated inputs and reference results. The
launcher exits when its stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def run(argv: list[str], stderr_path: str) -> list:
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return [wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode]


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["stderr"])), flush=True)


if __name__ == "__main__":
    main()
