"""Table-driven finite-field kernels for small tabled fields.

The kernels operate on matrices of element indices (int64) plus the
small-field operation tables built by fields.FieldCtx (add, mul, neg, inv).
Only fields with q <= 512 carry full 2-D tables; callers fall back to the
generic path for anything larger.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import TooLarge

# largest share histogram (int64 cells, q^x * q^rows) gf_share_hist will
# allocate: 16 Mi cells = 128 MiB
SHARE_HIST_CELL_CAP = 1 << 24


def backend_name() -> str:
    return "numpy"


class Tables(NamedTuple):
    """Small-field operation tables (indices into the field)."""

    add: np.ndarray  # (q, q) int64
    mul: np.ndarray  # (q, q) int64
    neg: np.ndarray  # (q,)  int64
    inv: np.ndarray  # (q,)  int64, inv[0] = 0 sentinel
    q: int


def gf_rref(a: np.ndarray, t: Tables):
    """In-place reduced row echelon form; returns (rank, pivot columns)."""
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        sel = r + int(nz[0])
        if sel != r:
            a[[r, sel]] = a[[sel, r]]
        a[r] = t.mul[t.inv[a[r, c]], a[r]]
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            f = t.neg[col[mask]]
            a[mask] = t.add[a[mask], t.mul[f[:, None], a[r][None, :]]]
        pivots.append(c)
        r += 1
    return r, pivots


def gf_rank(a: np.ndarray, t: Tables) -> int:
    rank, _ = gf_rref(a, t)
    return rank


def gf_is_mds(data: np.ndarray, k: int, t: Tables) -> bool:
    """True iff every k-row submatrix of data has rank k."""
    for rows in combinations(range(data.shape[0]), k):
        if gf_rref(data[list(rows)].copy(), t)[0] != k:
            return False
    return True


def gf_share_hist(gr: np.ndarray, fr: np.ndarray, t: Tables) -> np.ndarray:
    """counts[m_index, share_code] over exhaustive randomness enumeration."""
    q = t.q
    nb, y = gr.shape
    x = fr.shape[1]
    cells = q**x * q**nb
    if cells > SHARE_HIST_CELL_CAP:
        raise TooLarge(f"share histogram of {cells} cells exceeds the cap of "
                       f"{SHARE_HIST_CELL_CAP}")
    qy, qx, qnb = q**y, q**x, q**nb
    uall = np.empty((qy, y), dtype=np.int64)
    tmp = np.arange(qy)
    for j in range(y):
        uall[:, j] = tmp % q
        tmp = tmp // q
    gu = np.zeros((qy, nb), dtype=np.int64)
    for j in range(y):
        gu = t.add[gu, t.mul[gr[None, :, j], uall[:, j, None]]]
    counts = np.zeros((qx, qnb), dtype=np.int64)
    powers = q ** np.arange(nb)
    for midx in range(qx):
        mdig = [(midx // q**j) % q for j in range(x)]
        fm = np.zeros(nb, dtype=np.int64)
        for j in range(x):
            fm = t.add[fm, t.mul[fr[:, j], mdig[j]]]
        shares = t.add[gu, fm[None, :]]
        codes = shares @ powers
        counts[midx] = np.bincount(codes, minlength=qnb)
    return counts
