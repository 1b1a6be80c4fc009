"""The benchmark under ``perfbench/`` reaches zomat by attribute: its tracer
patches functions by name and its workloads build their experiments from
presets.  This runs that wiring in a fresh interpreter, so a deleted or
renamed name it uses fails here rather than only in a benchmark run.  The
interpreter is separate because importing ``perfbench/run.py`` pins the BLAS
thread count through environment variables.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
from run import install_tracer
from spans import Tracer

tracer = Tracer()
install_tracer(tracer)
tracer.restore()
probe = workloads.RunProbe()
probe.install()
probe.restore()
for workload in workloads.WORKLOADS.values():
    workload.setup(0)
"""


def test_benchmark_wiring_reaches_existing_names():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
