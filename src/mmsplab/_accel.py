"""Hot finite-field kernels: numba-jitted with a pure-numpy fallback.

The fallback is selected automatically when numba is unavailable, or
explicitly by setting MMSPLAB_PURE_NUMPY=1 in the environment.  Both paths
operate on the same inputs: matrices of element indices (int64) plus the
small-field operation tables built by fields.FieldCtx (add, mul, neg, inv).
Only fields with q <= 512 carry full 2-D tables; callers fall back to the
generic path for anything larger.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np

from .errors import TooLarge

PURE_NUMPY = os.environ.get("MMSPLAB_PURE_NUMPY", "") == "1"

# largest share histogram (int64 cells, q^x * q^rows) gf_share_hist will
# allocate: 16 Mi cells = 128 MiB
SHARE_HIST_CELL_CAP = 1 << 24

try:
    if PURE_NUMPY:
        raise ImportError("pure-numpy mode forced")
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - depends on environment
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


def backend_name() -> str:
    return "numba" if NUMBA_AVAILABLE else "numpy"


class Tables(NamedTuple):
    """Small-field operation tables (indices into the field)."""

    add: np.ndarray  # (q, q) int64
    mul: np.ndarray  # (q, q) int64
    neg: np.ndarray  # (q,)  int64
    inv: np.ndarray  # (q,)  int64, inv[0] = 0 sentinel
    q: int


# ---------------------------------------------------------------------------
# numba kernels
# ---------------------------------------------------------------------------

@njit(cache=True)
def _rref_kernel(a, add_t, mul_t, neg_t, inv_t, pivots):  # pragma: no cover
    rows, cols = a.shape
    r = 0
    npiv = 0
    for c in range(cols):
        if r == rows:
            break
        sel = -1
        for i in range(r, rows):
            if a[i, c] != 0:
                sel = i
                break
        if sel < 0:
            continue
        if sel != r:
            for j in range(cols):
                tmp = a[r, j]
                a[r, j] = a[sel, j]
                a[sel, j] = tmp
        pinv = inv_t[a[r, c]]
        for j in range(cols):
            a[r, j] = mul_t[pinv, a[r, j]]
        for i in range(rows):
            if i != r and a[i, c] != 0:
                f = neg_t[a[i, c]]
                for j in range(cols):
                    a[i, j] = add_t[a[i, j], mul_t[f, a[r, j]]]
        pivots[npiv] = c
        npiv += 1
        r += 1
    return r


@njit(cache=True)
def _rank_kernel(a, add_t, mul_t, neg_t, inv_t):  # pragma: no cover
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        sel = -1
        for i in range(r, rows):
            if a[i, c] != 0:
                sel = i
                break
        if sel < 0:
            continue
        if sel != r:
            for j in range(c, cols):
                tmp = a[r, j]
                a[r, j] = a[sel, j]
                a[sel, j] = tmp
        pinv = inv_t[a[r, c]]
        for i in range(r + 1, rows):
            if a[i, c] != 0:
                f = neg_t[mul_t[a[i, c], pinv]]
                for j in range(c, cols):
                    a[i, j] = add_t[a[i, j], mul_t[f, a[r, j]]]
        r += 1
    return r


@njit(cache=True)
def _mds_kernel(data, k, add_t, mul_t, neg_t, inv_t):  # pragma: no cover
    n = data.shape[0]
    idx = np.empty(k, dtype=np.int64)
    for i in range(k):
        idx[i] = i
    sub = np.empty((k, k), dtype=np.int64)
    while True:
        for i in range(k):
            for j in range(k):
                sub[i, j] = data[idx[i], j]
        if _rank_kernel(sub, add_t, mul_t, neg_t, inv_t) != k:
            return False
        i = k - 1
        while i >= 0 and idx[i] == n - k + i:
            i -= 1
        if i < 0:
            return True
        idx[i] += 1
        for j in range(i + 1, k):
            idx[j] = idx[j - 1] + 1


@njit(cache=True)
def _share_hist_kernel(gr, fr, q, add_t, mul_t):  # pragma: no cover
    nb, y = gr.shape
    x = fr.shape[1]
    qy = 1
    for _ in range(y):
        qy *= q
    qx = 1
    for _ in range(x):
        qx *= q
    qnb = 1
    for _ in range(nb):
        qnb *= q
    counts = np.zeros((qx, qnb), dtype=np.int64)
    udig = np.zeros(y, dtype=np.int64)
    mdig = np.zeros(x, dtype=np.int64)
    gu = np.zeros(nb, dtype=np.int64)
    for uidx in range(qy):
        v = uidx
        for j in range(y):
            udig[j] = v % q
            v //= q
        for i in range(nb):
            acc = 0
            for j in range(y):
                acc = add_t[acc, mul_t[gr[i, j], udig[j]]]
            gu[i] = acc
        for midx in range(qx):
            v = midx
            for j in range(x):
                mdig[j] = v % q
                v //= q
            code = 0
            mult = 1
            for i in range(nb):
                acc = gu[i]
                for j in range(x):
                    acc = add_t[acc, mul_t[fr[i, j], mdig[j]]]
                code += acc * mult
                mult *= q
            counts[midx, code] += 1
    return counts


# ---------------------------------------------------------------------------
# pure numpy fallbacks
# ---------------------------------------------------------------------------

def _rref_numpy(a: np.ndarray, t: Tables):
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


def _mds_numpy(data: np.ndarray, k: int, t: Tables) -> bool:
    from itertools import combinations

    n = data.shape[0]
    for rows in combinations(range(n), k):
        sub = data[list(rows)].copy()
        r, _ = _rref_numpy(sub, t)
        if r != k:
            return False
    return True


def _share_hist_numpy(gr: np.ndarray, fr: np.ndarray, q: int, t: Tables):
    nb, y = gr.shape
    x = fr.shape[1]
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


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------

def gf_rref(a: np.ndarray, t: Tables):
    """In-place reduced row echelon form; returns (rank, pivot columns)."""
    if NUMBA_AVAILABLE:
        pivots = np.full(min(a.shape), -1, dtype=np.int64)
        rank = int(_rref_kernel(a, t.add, t.mul, t.neg, t.inv, pivots))
        return rank, [int(c) for c in pivots[:rank]]
    return _rref_numpy(a, t)


def gf_rank(a: np.ndarray, t: Tables) -> int:
    if NUMBA_AVAILABLE:
        return int(_rank_kernel(a, t.add, t.mul, t.neg, t.inv))
    rank, _ = _rref_numpy(a, t)
    return rank


def gf_is_mds(data: np.ndarray, k: int, t: Tables) -> bool:
    if NUMBA_AVAILABLE:
        return bool(_mds_kernel(data, k, t.add, t.mul, t.neg, t.inv))
    return _mds_numpy(data, k, t)


def gf_share_hist(gr: np.ndarray, fr: np.ndarray, t: Tables) -> np.ndarray:
    """counts[m_index, share_code] over exhaustive randomness enumeration."""
    cells = t.q ** fr.shape[1] * t.q ** gr.shape[0]
    if cells > SHARE_HIST_CELL_CAP:
        raise TooLarge(f"share histogram of {cells} cells exceeds the cap of "
                       f"{SHARE_HIST_CELL_CAP}")
    if NUMBA_AVAILABLE:
        return _share_hist_kernel(gr, fr, t.q, t.add, t.mul)
    return _share_hist_numpy(gr, fr, t.q, t)
