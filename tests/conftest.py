"""Test-session set-up: BLAS runs on one thread unless the environment says otherwise.

The per-step products of the assembly kernels are too small to gain from
BLAS threads, and OpenBLAS's thread start-up dominates them: at n = 64 the
saturation state assembly took about twice as long on two threads as on one
(measured on a 2-core host).  The counts must be set before numpy is first
imported, which pytest does not do before it loads this file.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
