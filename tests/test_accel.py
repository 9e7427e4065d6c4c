"""The jitted kernels agree with the pure-numpy fallback."""

import numpy as np
import pytest

from mmsplab import _accel
from mmsplab.errors import TooLarge
from mmsplab.fields import field_build


def tables():
    return field_build(3, 1).tables()


def test_rref_paths_agree():
    t = tables()
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.integers(0, 3, size=(5, 4)).astype(np.int64)
        r1, piv1 = _accel.gf_rref(a.copy(), t)
        r2, piv2 = _accel._rref_numpy(a.copy(), t)
        assert r1 == r2 and list(piv1) == list(piv2)


def test_mds_paths_agree():
    t = tables()
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.integers(0, 3, size=(6, 3)).astype(np.int64)
        assert _accel.gf_is_mds(a, 3, t) == _accel._mds_numpy(a, 3, t)


def test_hist_paths_agree():
    t = tables()
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = rng.integers(0, 3, size=(4, 2)).astype(np.int64)
        f = rng.integers(0, 3, size=(4, 2)).astype(np.int64)
        h1 = _accel.gf_share_hist(g, f, t)
        h2 = _accel._share_hist_numpy(g, f, 3, t)
        assert np.array_equal(h1, h2)


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
    assert _accel.backend_name() in ("numba", "numpy")


def test_bench_suite_runs():
    from mmsplab import bench

    res = bench.run_suite()
    assert res["backend"] in ("numba", "numpy")
    assert all(v > 0 for k, v in res.items() if k != "backend")
