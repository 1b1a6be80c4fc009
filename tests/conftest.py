"""Test-session set-up.

BLAS runs one thread per process unless the environment says otherwise.
C2, C7 and C8 share independent runs among forked processes, one per usable
CPU; with OpenBLAS's default threading each process would also run BLAS
threads on every CPU, and C8 then took longer on two processes than on one.
The variables are read when NumPy loads its BLAS, so they are set here,
before any test module imports NumPy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
