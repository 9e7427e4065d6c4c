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


# (rows, x, y) of the kernel inputs: y = 2 and x = 2, and no rows at all
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


def _sorted_codes(counts):
    """Each row of counts[i, code] as its codes listed count times, ascending."""
    return np.stack([np.repeat(np.arange(counts.shape[1]), row) for row in counts])


# 0-based row subsets of the 3-row inputs: sizes interleaved, so the results
# must come back in the order given, not grouped by size, with runs of two
# consecutive subsets of one size (2, then 1), which are stacked; the empty
# subset
SUBSETS = {3: [[0, 2], [0, 1], [1], [0, 1, 2], [], [2], [0], [1, 2]], 0: [[], []]}


def _hist_cases():
    rng = np.random.default_rng(2)
    for ctx in FIELDS:
        for rows, x, y in HIST_SHAPES:
            g = MatGF(ctx, rng.integers(0, ctx.q, size=(rows, y)))
            f = MatGF(ctx, rng.integers(0, ctx.q, size=(rows, x)))
            shifts = rng.integers(0, ctx.q, size=(5, rows))
            shifts[2] = 0
            yield ctx, g, f, shifts


def _codes(ctx, g, f, shifts, subsets=None):
    """The sorted share codes of all rows, then the subset kernel's share and
    coset codes on every subset of SUBSETS (or of subsets)."""
    t = ctx.tables()
    subsets = SUBSETS[g.rows] if subsets is None else subsets
    return ([_accel.gf_share_hist(g.a, f.a, t)]
            + list(_accel.gf_coset_codes(g.a, _accel.gf_span(f.a, t), subsets, t))
            + list(_accel.gf_coset_codes(g.a, shifts, subsets, t)))


def _on_rows(ctx, counts, rows, sub):
    """Counts over the share codes of the rows in sub, summed from counts over
    the codes of all rows."""
    q = ctx.q
    digits = np.arange(q**rows)[:, None] // q ** np.arange(rows) % q
    return counts @ np.eye(q ** len(sub), dtype=np.int64)[digits[:, sub] @ q ** np.arange(len(sub))]


def test_hist_paths_agree():
    """gf_share_hist lists every share code F m + G u over exhaustive u,
    sorted; the subset kernel lists F m + G u, and every shifts[i] + G u
    (F = I, m = shifts[i]), on each subset of rows; all as css_share computes
    them one (m, u) pair at a time, on every field of FIELDS."""
    for ctx, g, f, shifts in _hist_cases():
        got = _codes(ctx, g, f, shifts)
        subsets, rows = SUBSETS[g.rows], g.rows
        share = _hist_ref(ctx, g, f)
        eye = MatGF(ctx, np.eye(rows, dtype=np.int64))
        coset = _hist_ref(ctx, g, eye)[shifts @ ctx.q ** np.arange(rows)]
        want = ([share] + [_on_rows(ctx, share, rows, sub) for sub in subsets]
                + [_on_rows(ctx, coset, rows, sub) for sub in subsets])
        assert len(got) == len(want) == 1 + 2 * len(subsets)
        for a, b in zip(got, want):
            assert a.dtype == np.int64
            assert np.array_equal(a, _sorted_codes(b))


def test_hist_blocks_agree(monkeypatch):
    """With the cap at one or two subsets' codes of the widest call, the
    stacks of consecutive subsets of one size split, and every code stays
    the same."""
    cases = list(_hist_cases())
    want = [_codes(*case) for case in cases]
    for per in (1, 2):
        for case, codes in zip(cases, want):
            ctx, g, f, shifts = case
            cap = max(ctx.q**f.cols, len(shifts)) * ctx.q**g.cols * per
            monkeypatch.setattr(_accel, "SHARE_CODE_CELL_CAP", cap)
            for got, c in zip(_codes(*case), codes, strict=True):
                assert np.array_equal(got, c)


def test_hist_runs_agree():
    """One call on the whole list, whose runs of consecutive subsets of one
    size are stacked, gives each subset the codes of a call on that subset
    alone."""
    for ctx, g, f, shifts in _hist_cases():
        alone = [_codes(ctx, g, f, shifts, [sub]) for sub in SUBSETS[g.rows]]
        got = _codes(ctx, g, f, shifts)
        n = len(alone)
        for i, one in enumerate(alone):
            assert np.array_equal(got[1 + i], one[1])
            assert np.array_equal(got[1 + n + i], one[2])


def test_share_hist_cell_cap(monkeypatch):
    """The sorted codes are refused before G u is enumerated: past the cap
    on one subset's codes, shifts * q^cols, or with a share code past int64,
    q^|subset| > 2^63; only tiny matrices are used."""
    t, cap = tables(), _accel.SHARE_CODE_CELL_CAP
    g = np.zeros((3, 1), dtype=np.int64)
    f = np.zeros((3, 2), dtype=np.int64)  # 3^2 * 3^1 = 27 cells
    shifts = np.zeros((9, 3), dtype=np.int64)  # 9 * 3^1 = 27 cells
    subsets = [[0], [1, 2], [], [0, 1, 2]]
    monkeypatch.setattr(_accel, "SHARE_CODE_CELL_CAP", 27)
    assert _accel.gf_share_hist(g, f, t).shape == (9, 3)
    assert [c.shape for c in _accel.gf_coset_codes(g, shifts, subsets, t)] == [(9, 3)] * 4
    # 2^63 - 1, the largest share code, is the all-ones share on 63 rows of GF(2)
    t2, ones = field_build(2, 1).tables(), np.ones((63, 1), dtype=np.int64)
    assert _accel.gf_share_hist(ones[:, :0], ones, t2)[1].tolist() == [(1 << 63) - 1]

    def no_span(*_a):
        raise AssertionError("G u enumerated past a guard")
    monkeypatch.setattr(_accel, "gf_span", no_span)
    monkeypatch.setattr(_accel, "SHARE_CODE_CELL_CAP", 26)
    with pytest.raises(TooLarge):
        _accel.gf_share_hist(g, f, t)
    with pytest.raises(TooLarge):
        next(_accel.gf_coset_codes(g, shifts, subsets, t))
    monkeypatch.setattr(_accel, "SHARE_CODE_CELL_CAP", cap)
    # 2^64 and 3^40 share codes: past int64, though 2 * 2 and 3 * 3 cells
    for tab, rows in ((t2, 64), (t, 40)):
        with pytest.raises(TooLarge):
            _accel.gf_share_hist(np.zeros((rows, 1), dtype=np.int64),
                                 np.zeros((rows, 1), dtype=np.int64), tab)
        with pytest.raises(TooLarge):
            next(_accel.gf_coset_codes(np.zeros((rows, 1), dtype=np.int64),
                                       np.zeros((1, rows), dtype=np.int64),
                                       [[0], range(rows)], tab))


def test_backend_name():
    assert _accel.backend_name() == "numpy"
