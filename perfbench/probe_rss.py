"""Run one cavent command line in a fresh process; print its peak RSS in KiB.

Usage: python3 perfbench/probe_rss.py SRC_DIR CAVENT_ARG...

The process does nothing but import the package and run the invocation, so
its high-water resident set size is what a user of the command pays.  It is
read as VmHWM of the process's own memory map: getrusage's ru_maxrss would
also count the resident size of the parent at the time it started this
process, i.e. the benchmark's.
"""

import contextlib
import io
import sys

sys.path.insert(0, sys.argv[1])
from cavent.cli import main  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(sys.argv[2:])  # the benchmark's own loop checks the exit status and the output
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
