"""Test-session set-up: pin BLAS to one thread before numpy loads.

The dense-oracle eigvalsh sweeps and the tower set-up GEMMs otherwise
start a BLAS thread per core, which oversubscribes a small machine as soon
as anything else runs.  setdefault keeps a value the caller exported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def wide_ea_pools() -> list:
    """Seeded n = 2 EA pools over F_5 and F_7, one positive and one negative
    each, as (label, bundle, structure).  The seeds give G1 ranks 0, 1 and 2
    among the four bundles, and each dense audit runs in under half a second."""
    from mmsplab.fixtures import make_pools

    out = []
    for p, seed in ((5, 3), (7, 8)):
        pos, neg = make_pools("ea", 1, seed=seed, n_values=(2,), p=p)
        out += [(f"gf{p}-pos", *pos[0]), (f"gf{p}-neg", *neg[0])]
    return out
