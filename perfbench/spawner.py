"""Runs the benchmark's child processes from a small process of its own.

Linux charges a child's peak RSS with the peak of the process it was
spawned from (``wait4`` reports the larger), so children started straight
from the harness, which holds numpy, the package and the workload's data,
would all report the harness's size.  This process imports only the
standard library and stays small.  It reads one JSON list of arguments per
line on stdin, runs ``python <args>`` with its own environment and working
directory, and answers one JSON line: wall time from start to exit, user+sys
CPU and peak RSS from ``wait4``, and the exit code.  It exits at end of input.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        args = json.loads(line)
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode,
        }), flush=True)


if __name__ == "__main__":
    main()
