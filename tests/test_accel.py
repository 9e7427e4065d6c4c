"""The elimination kernel agrees with a scalar Gauss-Jordan reference over
prime, prime-power and tower fields; the table kernels agree with
brute-force oracles."""

from itertools import product

import numpy as np
import pytest

from mmsplab import _accel
from mmsplab.access import make_threshold
from mmsplab.classical import CssProtocol, _vec_from_index, css_share
from mmsplab.errors import TooLarge
from mmsplab.fields import field_build, tower_build
from mmsplab.linalg import MatGF, min_weight_nonzero

# F_3, GF(4), GF(8), GF(9)
FIELDS = [field_build(3, 1), field_build(2, 2), field_build(2, 3), field_build(3, 2)]


def tables():
    return field_build(3, 1).tables()


def _ref_rref(ctx, cells):
    """Gauss-Jordan one token at a time with ctx.add/mul/inv: (reduced
    matrix as tokens, pivot columns)."""
    m = [[ctx.cell_to_token(c) for c in row] for row in cells]
    rows, cols = len(m), len(m[0]) if m else 0
    piv, r = [], 0
    for c in range(cols):
        sel = next((i for i in range(r, rows) if m[i][c] != ctx.zero), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = ctx.inv(m[r][c])
        m[r] = [ctx.mul(inv, e) for e in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != ctx.zero:
                f = ctx.neg(m[i][c])
                m[i] = [ctx.add(e, ctx.mul(f, pe)) for e, pe in zip(m[i], m[r])]
        piv.append(c)
        r += 1
    return m, piv


def _mixed_stack(ctx, rng, n, rows, cols):
    """n random matrices with zeroed entries, rows and columns, so ranks and
    pivot patterns differ across the stack."""
    a = ctx.random_cells(rng, n, rows, cols)
    for k in range(n):
        zero = rng.random((rows, cols)) < 0.3
        if k % 3 == 1:
            zero[:, rng.integers(cols)] = True
        if k % 3 == 2:
            zero[rng.integers(rows)] = True
            a[k, rng.integers(rows)] = a[k, 0]  # a repeated row
        a[k][zero] = 0
    return a


def test_rref_paths_agree():
    """gf_rref on a stack matches the scalar reference matrix by matrix: the
    reduced matrix, the pivot columns and the rank; gf_rank finds the same
    pivot columns and ranks."""
    rng = np.random.default_rng(0)
    for ctx, (rows, cols) in product(FIELDS + [tower_build(3, 4)],
                                     ((5, 4), (3, 6), (4, 4))):
        a = _mixed_stack(ctx, rng, 12, rows, cols)
        red = a.copy()
        ranks, piv = _accel.gf_rref(ctx, red)
        franks, fpiv = _accel.gf_rank(ctx, a.copy())
        seen = set()
        for k in range(len(a)):
            want, want_piv = _ref_rref(ctx, a[k])
            got = [[ctx.cell_to_token(c) for c in row] for row in red[k]]
            assert got == want
            assert np.flatnonzero(piv[k]).tolist() == want_piv
            assert np.flatnonzero(fpiv[k]).tolist() == want_piv
            assert ranks[k] == franks[k] == len(want_piv)
            seen.add(tuple(want_piv))
        assert len(seen) > 3  # the stack mixed pivot patterns


def test_mds_paths_agree():
    """gf_is_mds holds exactly when the column code meets the Singleton
    bound, by brute-force codeword enumeration, for every block size: 4, 16
    and 24 cells are stacks of 1, 4 and all 6 of the 2 x 2 minors."""
    rng = np.random.default_rng(1)
    # rows (1, a) for three distinct a, and (0, 1): MDS over every field
    doubly_extended = np.array([[1, 0], [1, 1], [1, 2], [0, 1]])
    for ctx in FIELDS:
        seen = set()
        for a in [doubly_extended] + [rng.integers(0, ctx.q, size=(4, 2))
                                      for _ in range(25)]:
            want = min_weight_nonzero(MatGF(ctx, a)) == 4 - 2 + 1
            for block in (4, 16, 24):
                assert _accel.gf_is_mds(ctx, a, 2, block) == want
            seen.add(want)
        assert seen == {True, False}


# (rows, x, y) of the histogram inputs: y = 2 and x = 2, and no rows at all
# (the restriction to an empty subset)
HIST_SHAPES = [(3, 1, 1), (3, 2, 2), (0, 1, 2)]


def _hist_ref(ctx, g, f):
    """counts[m_index, share_code] of F m + G u, one (m, u) pair at a time
    through css_share."""
    q, (rows, x), y = ctx.q, f.a.shape, g.cols
    want = np.zeros((q**x, q**rows), dtype=np.int64)
    if rows == 0:  # the empty share, q^y times for every m
        want[:, 0] = q**y
        return want
    p = CssProtocol(g=g, f=f, access=make_threshold(rows, rows - 1, rows))
    for mi, ui in product(range(q**x), range(q**y)):
        z = css_share(p, _vec_from_index(ctx, mi, x), _vec_from_index(ctx, ui, y))
        want[mi, int(z.a @ q ** np.arange(rows))] += 1
    return want


# 0-based row subsets of the 3-row inputs: sizes interleaved, so the results
# must come back in the order given, not grouped by size; the empty subset
SUBSETS = {3: [[0, 2], [1], [0, 1, 2], [], [2], [1, 2]], 0: [[], []]}


def _hist_cases():
    rng = np.random.default_rng(2)
    for ctx in FIELDS:
        for rows, x, y in HIST_SHAPES:
            g = MatGF(ctx, rng.integers(0, ctx.q, size=(rows, y)))
            f = MatGF(ctx, rng.integers(0, ctx.q, size=(rows, x)))
            shifts = rng.integers(0, ctx.q, size=(5, rows))
            shifts[2] = 0
            yield ctx, g, f, shifts


def _hists(ctx, g, f, shifts):
    """The share histogram of all rows, then the subset kernel's share and
    coset histograms on every subset of SUBSETS."""
    t, subsets = ctx.tables(), SUBSETS[g.rows]
    return ([_accel.gf_share_hist(g.a, f.a, t)]
            + list(_accel.gf_coset_hist(g.a, _accel.gf_span(f.a, t), subsets, t))
            + list(_accel.gf_coset_hist(g.a, shifts, subsets, t)))


def _on_rows(ctx, counts, rows, sub):
    """Counts over the share codes of the rows in sub, summed from counts over
    the codes of all rows."""
    q = ctx.q
    digits = np.arange(q**rows)[:, None] // q ** np.arange(rows) % q
    return counts @ np.eye(q ** len(sub), dtype=np.int64)[digits[:, sub] @ q ** np.arange(len(sub))]


def test_hist_paths_agree():
    """gf_share_hist counts every share code F m + G u over exhaustive u; the
    subset kernel counts F m + G u, and every shifts[i] + G u (F = I,
    m = shifts[i]), on each subset of rows; all as css_share computes them
    one (m, u) pair at a time."""
    for ctx, g, f, shifts in _hist_cases():
        got = _hists(ctx, g, f, shifts)
        subsets, rows = SUBSETS[g.rows], g.rows
        share = _hist_ref(ctx, g, f)
        eye = MatGF(ctx, np.eye(rows, dtype=np.int64))
        coset = _hist_ref(ctx, g, eye)[shifts @ ctx.q ** np.arange(rows)]
        want = ([share] + [_on_rows(ctx, share, rows, sub) for sub in subsets]
                + [_on_rows(ctx, coset, rows, sub) for sub in subsets])
        assert len(got) == len(want) == 1 + 2 * len(subsets)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_hist_blocks_agree(monkeypatch):
    """One (shift, subset) pair per block gives the same counts as the
    default blocks."""
    cases = list(_hist_cases())
    want = [_hists(*case) for case in cases]
    monkeypatch.setattr(_accel, "_HIST_BLOCK_CELLS", 1)
    for case, hists in zip(cases, want):
        for got, h in zip(_hists(*case), hists, strict=True):
            assert np.array_equal(got, h)


def test_hist_runs_agree(monkeypatch):
    """The subsets of one size are counted together, one size at a time (one
    call for gf_share_hist, then 4 sizes in each of the two list calls); with
    the cap at the largest
    subset's counts the coset call splits into two runs, of 3 sizes each,
    and every count stays the same."""
    ctx, g, f, shifts = next(c for c in _hist_cases() if c[1].rows == 3)
    calls = []
    size_hists = _accel._size_hists
    monkeypatch.setattr(_accel, "_size_hists",
                        lambda gu, sh, rows, t: calls.append(len(sh)) or size_hists(gu, sh, rows, t))
    want = _hists(ctx, g, f, shifts)
    assert calls == [ctx.q] * 5 + [5] * 4
    calls.clear()
    monkeypatch.setattr(_accel, "SHARE_HIST_CELL_CAP", len(shifts) * ctx.q**3)
    for got, h in zip(_hists(ctx, g, f, shifts), want, strict=True):
        assert np.array_equal(got, h)
    assert calls == [ctx.q] * 5 + [5] * 6


def test_share_hist_cell_cap(monkeypatch):
    """The histograms are refused from their computed size, q^x * q^rows and
    shifts * q^|subset| for every subset in the list, before G u is
    enumerated; only tiny matrices are used."""
    t, cap = tables(), _accel.SHARE_HIST_CELL_CAP
    g = np.zeros((3, 1), dtype=np.int64)
    f = np.zeros((3, 2), dtype=np.int64)  # 3^2 * 3^3 = 243 cells
    shifts = np.zeros((9, 3), dtype=np.int64)  # 9 * 3^3 = 243 cells
    subsets = [[0], [1, 2], [], [0, 1, 2]]  # the largest comes last
    monkeypatch.setattr(_accel, "SHARE_HIST_CELL_CAP", 243)
    assert _accel.gf_share_hist(g, f, t).shape == (9, 27)
    assert [h.shape for h in _accel.gf_coset_hist(g, shifts, subsets, t)] == [
        (9, 3), (9, 9), (9, 1), (9, 27)]

    def no_span(*_a):
        raise AssertionError("G u enumerated past the cap")
    monkeypatch.setattr(_accel, "gf_span", no_span)
    monkeypatch.setattr(_accel, "SHARE_HIST_CELL_CAP", 242)
    with pytest.raises(TooLarge):
        _accel.gf_share_hist(g, f, t)
    with pytest.raises(TooLarge):
        next(_accel.gf_coset_hist(g, shifts, subsets, t))
    monkeypatch.setattr(_accel, "SHARE_HIST_CELL_CAP", cap)
    # 3^60 share codes: far past the cap (and past what numpy can allocate)
    with pytest.raises(TooLarge):
        _accel.gf_share_hist(np.zeros((60, 1), dtype=np.int64),
                             np.zeros((60, 1), dtype=np.int64), t)
    with pytest.raises(TooLarge):
        next(_accel.gf_coset_hist(np.zeros((60, 1), dtype=np.int64),
                                  np.zeros((1, 60), dtype=np.int64), [[0], range(60)], t))


def test_backend_name():
    assert _accel.backend_name() == "numpy"
