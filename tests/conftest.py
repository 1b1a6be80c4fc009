"""Test-session set-up.

BLAS runs one thread per process unless the environment says otherwise.
C2, C7 and C8 share independent runs among forked processes, one per usable
CPU; with OpenBLAS's default threading each process would also run BLAS
threads on every CPU, and C8 then took longer on two processes than on one.
The variables are read when NumPy loads its BLAS, so they are set here,
before any test module imports NumPy.

Every test must also reap each process it forked: a batch's workers, a
subprocess.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):  # no child, running or exited and unreaped
        os.waitpid(-1, os.WNOHANG)
