"""The benchmark under ``perfbench/`` reaches zomat by attribute: its tracer
patches functions by name and its workloads build their experiments from
presets.  This runs that wiring, and each workload's set-up and untimed
warm-up (verify's calls ``oracle.EstimatorSpec`` and
``oracle.estimator_variance``), in a fresh interpreter, so a deleted or
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
out_dir = sys.argv[3]
import workloads
from run import install_tracer
from spans import Tracer

tracer = Tracer()
install_tracer(tracer)
tracer.restore()
probe = workloads.RunProbe()
probe.install()
for name, workload in workloads.WORKLOADS.items():
    workload.setup(0)
    workload.warm_up(0, f"{out_dir}/{name}", probe)
probe.restore()
"""


def test_benchmark_wiring_reaches_existing_names(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
