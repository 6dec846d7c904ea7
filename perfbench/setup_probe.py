"""Times one cold set-up of a workload in a fresh interpreter: importing
saddleopt and building the workload's inputs.  run.py starts it several
times and reports the median as setup_s.

    python3 perfbench/setup_probe.py <workload> <seed>    # prints seconds
"""

import os
import sys
import time

t0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import saddleopt  # noqa: E402,F401  -- the import is part of the timing
from workloads import setup  # noqa: E402

setup(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
