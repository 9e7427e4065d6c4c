"""The table kernels agree with the generic cell path and brute-force oracles
over prime and prime-power fields."""

from itertools import product

import numpy as np
import pytest

from mmsplab import _accel
from mmsplab.access import make_threshold
from mmsplab.classical import CssProtocol, css_share
from mmsplab.errors import TooLarge
from mmsplab.fields import field_build
from mmsplab.linalg import MatGF, VecGF, _rref_cells, min_weight_nonzero

# F_3, GF(4), GF(8), GF(9)
FIELDS = [field_build(3, 1), field_build(2, 2), field_build(2, 3), field_build(3, 2)]


def tables():
    return field_build(3, 1).tables()


def test_rref_paths_agree():
    """gf_rref on the tables matches the generic elimination on cells:
    the reduced matrix, the rank and the pivot columns."""
    rng = np.random.default_rng(0)
    for ctx in FIELDS:
        for _ in range(30):
            a = rng.integers(0, ctx.q, size=(5, 4))
            a[rng.random(a.shape) < 0.4] = 0  # rank-deficient cases too
            t1, t2 = a.copy(), a.copy()
            r1, piv1 = _accel.gf_rref(t1, ctx.tables())
            r2, piv2 = _rref_cells(ctx, t2)
            assert r1 == r2 and list(piv1) == list(piv2)
            assert np.array_equal(t1, t2)


def test_mds_paths_agree():
    """gf_is_mds holds exactly when the column code meets the Singleton
    bound, by brute-force codeword enumeration."""
    rng = np.random.default_rng(1)
    # rows (1, a) for three distinct a, and (0, 1): MDS over every field
    doubly_extended = np.array([[1, 0], [1, 1], [1, 2], [0, 1]])
    for ctx in FIELDS:
        seen = set()
        for a in [doubly_extended] + [rng.integers(0, ctx.q, size=(4, 2))
                                      for _ in range(25)]:
            mds = _accel.gf_is_mds(a, 2, ctx.tables())
            assert mds == (min_weight_nonzero(MatGF(ctx, a)) == 4 - 2 + 1)
            seen.add(mds)
        assert seen == {True, False}


def test_hist_paths_agree():
    """gf_share_hist counts every share code F m + G u over exhaustive u,
    as css_share computes it one (m, u) pair at a time."""
    rng = np.random.default_rng(2)
    for ctx in FIELDS:
        q = ctx.q
        g = MatGF(ctx, rng.integers(0, q, size=(3, 1)))
        f = MatGF(ctx, rng.integers(0, q, size=(3, 1)))
        p = CssProtocol(g=g, f=f, access=make_threshold(2, 1, 3))
        want = np.zeros((q, q**3), dtype=np.int64)
        for m, u in product(range(q), repeat=2):
            z = css_share(p, VecGF(ctx, np.array([m])), VecGF(ctx, np.array([u])))
            want[m, int(z.a @ q ** np.arange(3))] += 1
        assert np.array_equal(_accel.gf_share_hist(g.a, f.a, ctx.tables()), want)


def test_share_hist_cell_cap(monkeypatch):
    """The histogram is refused from its computed size q^x * q^rows, before
    anything is allocated; only tiny matrices are used."""
    t = tables()
    g = np.zeros((3, 1), dtype=np.int64)
    f = np.zeros((3, 2), dtype=np.int64)  # 3^2 * 3^3 = 243 cells
    monkeypatch.setattr(_accel, "SHARE_HIST_CELL_CAP", 243)
    assert _accel.gf_share_hist(g, f, t).shape == (9, 27)
    monkeypatch.setattr(_accel, "SHARE_HIST_CELL_CAP", 242)
    with pytest.raises(TooLarge):
        _accel.gf_share_hist(g, f, t)
    monkeypatch.undo()
    # 3^60 share codes: far past the cap (and past what numpy can allocate)
    with pytest.raises(TooLarge):
        _accel.gf_share_hist(np.zeros((60, 1), dtype=np.int64),
                             np.zeros((60, 1), dtype=np.int64), t)


def test_backend_name():
    assert _accel.backend_name() == "numpy"
