"""Run one command; write its exit code, wall time and peak memory to a file.

    python3 -S perfbench/launch.py REPORT.json CMD [ARG...]

The benchmark starts every ``altia`` command through this small process.
A process started from another one has the starter's peak resident size
in its own ``ru_maxrss`` (the kernel keeps the old address space's
high-water mark at exec), so the benchmark, which is much larger than a
command, cannot read a command's own peak if it starts the command
itself.  The command inherits standard input and output.
"""

import json
import os
import subprocess
import sys
from time import perf_counter

report, cmd = sys.argv[1], sys.argv[2:]
t0 = perf_counter()
child = subprocess.Popen(cmd)
_, status, usage = os.wait4(child.pid, 0)
seconds = perf_counter() - t0
code = os.waitstatus_to_exitcode(status)
if code < 0:  # killed by a signal: exit as a shell reports it
    code = 128 - code
with open(report, "w", encoding="utf-8") as fh:
    json.dump({"code": code, "seconds": seconds, "maxrss_kb": usage.ru_maxrss}, fh)
sys.exit(code)
