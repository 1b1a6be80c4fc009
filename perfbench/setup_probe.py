"""Time one set-up in a fresh interpreter and print the seconds it took.

Set-up is importing zomat (NumPy included) and building the workload's
objective.  ``run.py`` starts this script several times per run and reports
the median as ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

from run import SRC  # also pins BLAS threads, as in the benchmark process

t0 = time.perf_counter()
sys.path.insert(0, str(SRC))
import workloads  # noqa: E402  (the import is what is being timed)

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
