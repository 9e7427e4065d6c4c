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


def bell_povm(q: int, n: int):
    """The perfect dense-coding measurement on 2n registers (R..., B...):
    the rank-one family {(I (x) W(z))|phi><phi|(...)^dag} over z in
    F_q^(2n), displaced on the channel-input half B, as the QQ decoder
    labels it; exactly complete."""
    import numpy as np

    from mmsplab import qstate as qs

    phi = np.eye(q**n, dtype=np.complex128).reshape((q,) * 2 * n) / np.sqrt(q**n)
    zs = qs._enum_vecs(q, 2 * n)
    return qs.Povm(labels=[tuple(z.tolist()) for z in zs],
                   factors=[qs.apply_weyl(phi, q, z, list(range(n, 2 * n))).reshape(-1, 1)
                            for z in zs])
