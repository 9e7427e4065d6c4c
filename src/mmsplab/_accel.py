"""Finite-field kernels: one inverse-free lockstep elimination over stacks
of FieldCtx cells (through the ctx.ax_* operations, so for both field
kinds), whose RREF takes one batched ctx.ax_inv per stack; an MDS check on
it that eliminates either every k-row minor or the square submatrices of
the systematic form [D | Q], whichever updates fewer cells; and one subset
kernel behind every share and query-column multiset: the sorted codes of
shift + G u over every u, restricted to each of a list of row subsets, with
G u enumerated once on all rows and consecutive subsets of one size stacked
and coded one row at a time, through the operation tables of fields with
q <= 512.
"""

from __future__ import annotations

from itertools import combinations, groupby, islice, product
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import TooLarge

# most sorted share codes (int64 cells, shifts * q^cols) gf_coset_codes keeps
# for one subset, 16 Mi cells = 128 MiB; a stack of subsets holds at most this
# many, plus one table lookup of the same size
SHARE_CODE_CELL_CAP = 1 << 24


def backend_name() -> str:
    return "numpy"


class Tables(NamedTuple):
    """Small-field operation tables (indices into the field)."""

    add: np.ndarray  # (q, q) int64
    mul: np.ndarray  # (q, q) int64
    q: int


def _eliminate(ctx, a: np.ndarray, reduce: bool):
    """Eliminate every matrix of a stack a (N, rows, cols[, r]) in place, in
    lockstep, without inverting anything; returns (ranks (N,), pivot-column
    mask (N, cols)).

    Each matrix takes as pivot p the first nonzero at or below its own next
    pivot row, and every row it updates becomes p row - row_c prow in one
    ctx.ax_mulsub (the fraction-free step of Bareiss, Math. Comp. 22, 1968).
    Only rows from the smallest next pivot row down change, so coinciding
    pivot patterns cost N times one matrix.  reduce=False is the forward
    pass, over columns c+1.., and leaves only the ranks and pivots meaningful;
    reduce=True is Gauss-Jordan: every row but the pivot row is updated over
    its whole width (rows above it carry earlier pivots, which the scaling
    must keep in step), leaving each pivot row i equal to d_i times row i of
    the RREF, with d_i its pivot entry."""
    n, rows, cols = a.shape[:3]
    nxt = np.zeros(n, dtype=np.int64)
    piv = np.zeros((n, cols), dtype=bool)
    row_ids = np.arange(rows)
    lo, level = 0, True  # smallest next pivot row; whether all are equal
    for c in range(cols):
        if lo == rows:
            break
        nz = ctx.ax_nonzero(a[:, lo:, c])
        if not level:
            nz &= row_ids[lo:] >= nxt[:, None]
        has = nz.any(axis=1)
        idx = has.nonzero()[0]
        if idx.size == 0:
            continue
        own, sel = nxt[idx], lo + nz[idx].argmax(axis=1)
        prow = a[idx, sel]
        a[idx, sel] = a[idx, own]
        top, left = (0, 0) if reduce else (lo + 1, c + 1)
        if top < rows and left < cols:
            # the pivot row is zero left of column c; forward, rows above a
            # matrix's own pivot row, and column c below it, are done and
            # never read again.  The pivot row itself is written after.
            a[idx, top:, left:] = ctx.ax_mulsub(
                prow[:, None, c:c + 1], a[idx, top:, left:], a[idx, top:, c:c + 1],
                prow[:, None, left:])
        a[idx, own] = prow
        piv[:, c] = has
        nxt += has
        if idx.size == n:
            lo += 1
        else:
            lo, level = int(nxt.min()), False
    return nxt, piv


def gf_rref(ctx, a: np.ndarray, normalise: bool = True):
    """RREF of every matrix of a stack in place; (ranks, pivot-column mask).

    One ctx.ax_inv call on all pivot entries of the stack normalises the
    pivot rows; normalise=False leaves pivot row i scaled by its pivot d_i."""
    ranks, piv = _eliminate(ctx, a, True)
    if normalise and ranks.any():
        k, c = piv.nonzero()  # one pair per pivot, row by row in each matrix
        i = np.cumsum(piv, axis=1)[k, c] - 1
        inv = ctx.ax_inv(a[k, i, c])
        a[k, i] = ctx.ax_mul(a[k, i], inv[:, None])
    return ranks, piv


def gf_rank(ctx, a: np.ndarray):
    """(ranks, pivot-column mask) of a stack, by fraction-free elimination."""
    return _eliminate(ctx, a, False)


def _all_nonsingular(ctx, a: np.ndarray, subs, j: int, block: int) -> bool:
    """True iff a[rows][:, cols] has rank j for every (rows, cols) pair of
    index tuples in subs, eliminated in lockstep stacks of about block cells
    up to the first stack that holds a singular one."""
    subs = iter(subs)
    while chunk := list(islice(subs, max(1, block // (j * j)))):
        ix = np.array(chunk)  # (stack, rows/cols, j)
        ranks, _ = _eliminate(ctx, a[ix[:, 0, :, None], ix[:, 1, None, :]], False)
        if (ranks < j).any():
            return False
    return True


def gf_is_mds(ctx, data: np.ndarray, k: int, block: int) -> bool:
    """True iff every k-row submatrix of data (n, k[, r]) has rank k.

    Runs the path whose eliminations update fewer cells: every k-row minor,
    or the systematic form [D | Q] (D diagonal) that one unnormalised
    Gauss-Jordan pass over data^T gives when the top k rows are independent;
    then the k-row minors are invertible iff every square submatrix of Q is
    (MacWilliams-Sloane ch. 11 thm 8), checked one size j at a time."""
    def cells(j):  # updated by the forward pass over one nonsingular j x j
        return (j - 1) * j * (2 * j - 1) // 6

    n = data.shape[0]
    levels = range(2, min(k, n - k) + 1)
    if comb(n, k) * cells(k) <= k * k * n + sum(
            comb(k, j) * comb(n - k, j) * cells(j) for j in levels):
        minors = ((rows, tuple(range(k))) for rows in combinations(range(n), k))
        return _all_nonsingular(ctx, data, minors, k, block)
    a = np.swapaxes(data, 0, 1)[None].copy()
    gf_rref(ctx, a, normalise=False)
    q = a[0, :, k:]
    # 2 <= k < n here, so dependent top k rows leave Q a zero row, or a
    # pivot column that is zero off its pivot row
    return bool(ctx.ax_nonzero(q).all()) and all(
        _all_nonsingular(ctx, q, product(combinations(range(k), j),
                                         combinations(range(n - k), j)), j, block)
        for j in levels)


def _check_codes(nshifts: int, cols: int, size: int, q: int) -> None:
    """Refuse sorted codes (nshifts, q^cols) per set, or a share code over
    size rows that would not fit int64."""
    if q**size > 1 << 63:
        raise TooLarge(f"share codes over {size} rows of GF({q}) overflow int64")
    if nshifts * q**cols > SHARE_CODE_CELL_CAP:
        raise TooLarge(f"sorted share codes of {nshifts * q**cols} cells per set "
                       f"exceed the cap of {SHARE_CODE_CELL_CAP}")


def gf_span(a: np.ndarray, t: Tables) -> np.ndarray:
    """Every a u, u over F_q^cols, as the rows of a (q^cols, rows) array: row
    sum_j u_j q^j is a u.  Built one digit u_j at a time, slowest last."""
    out = np.zeros((1, a.shape[0]), dtype=np.int64)
    for j in range(a.shape[1]):
        out = t.add[t.mul[a[:, j]].T[:, None], out[None]].reshape(
            t.q * len(out), a.shape[0])
    return out


def gf_coset_codes(gr: np.ndarray, shifts: np.ndarray, subsets, t: Tables):
    """codes[i] (shifts, q^cols): the codes of shifts[i] + G u over every u,
    sorted, restricted to each list of 0-based rows in subsets, yielded in
    their order; a share z has code sum_j z_j q^j, so two multisets are equal
    iff their rows are.  Both guards run before G u is enumerated, once, on
    all rows.  Consecutive subsets of one size are stacked, up to one cap's
    worth of codes, and their codes built one digit at a time."""
    subsets = [np.asarray(s, dtype=np.int64) for s in subsets]
    _check_codes(len(shifts), gr.shape[1], max(map(len, subsets), default=0), t.q)
    gu = gf_span(gr, t).T  # row j: (G u)_j over every u
    step = max(1, SHARE_CODE_CELL_CAP // (len(shifts) * gu.shape[1]))
    for _, run in groupby(subsets, len):
        run = list(run)
        for lo in range(0, len(run), step):
            rows = np.array(run[lo:lo + step]).T  # (size, stack)
            codes = np.zeros((rows.shape[1], len(shifts), gu.shape[1]), dtype=np.int64)
            for r in rows[::-1]:  # Horner, highest digit first
                codes *= t.q
                codes += t.add[shifts[:, r].T[:, :, None], gu[r][:, None]]
            codes.sort(axis=-1)
            yield from codes


def gf_share_hist(gr: np.ndarray, fr: np.ndarray, t: Tables) -> np.ndarray:
    """codes[m_index] of F m + G u over every u, sorted, with m_index
    sum_j m_j q^j: the coset codes of all rows under the shifts F m."""
    _check_codes(t.q**fr.shape[1], gr.shape[1], gr.shape[0], t.q)
    return next(gf_coset_codes(gr, gf_span(fr, t), [range(gr.shape[0])], t))
