"""Test-session set-up: pin BLAS to one thread before numpy loads.

The dense-oracle eigvalsh sweeps and the tower set-up GEMMs otherwise
start a BLAS thread per core, which oversubscribes a small machine as soon
as anything else runs.  setdefault keeps a value the caller exported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
