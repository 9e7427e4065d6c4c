"""Tower-staircase constructions and their verification predicates."""

import numpy as np
import pytest

from mmsplab import constructions as con
from mmsplab import linalg as la
from mmsplab import mmsp
from mmsplab.errors import ConstructionFailedVerification, OutOfRange
from mmsplab.fields import field_build, tower_build


def test_mds_pp8_small():
    ctx = tower_build(3, 3)
    m = con.mds_pp8(2, 4, ctx)
    assert m.rows == 4 and m.cols == 2
    assert la.is_mds(m)
    with pytest.raises(OutOfRange):
        con.mds_pp8(3, 3, ctx)


def test_mds_pp8_trivial_column():
    ctx = tower_build(3, 2)
    m = con.mds_pp8(1, 2, ctx)
    assert la.is_mds(m)


def test_mds_l78():
    ctx = tower_build(3, 4)
    m = con.mds_l78(1, 2, 4, ctx)
    assert la.is_mds(m) and m.cols == 2
    m2 = con.mds_l78(2, 3, 6, ctx)
    assert la.is_mds(m2) and m2.cols == 3
    with pytest.raises(OutOfRange):
        con.mds_l78(2, 2, 4, ctx)  # l < k violated
    with pytest.raises(OutOfRange):
        con.mds_l78(1, 3, 3, ctx)  # k < r_rows violated


def test_amt_trivial():
    ctx = con.construction_field(3, 1, 1)
    pair = con.build_amt(1, 1, ctx)
    assert pair.a_mat.rows == 2 and pair.a_mat.cols == 1
    assert la.is_self_col_orth(pair.a_mat)
    assert la.is_mds(pair.a_mat) and la.is_mds(pair.b_mat)


def test_amt_2_3_invariants():
    ctx = con.construction_field(3, 2, 3)
    pair = con.build_amt(2, 3, ctx)
    checks = con.verify_amt(pair)
    assert all(ok for _, ok in checks), checks
    with pytest.raises(OutOfRange):
        con.build_amt(4, 3, ctx)


def test_amx_and_prefix_property():
    ctx = con.construction_field(3, 1, 2, 2)
    pair = con.build_amt(1, 2, ctx)
    ext = con.build_amx(pair, 2, ctx)
    checks = con.verify_amx(pair, ext)
    assert all(ok for _, ok in checks), checks
    # prefix property: (A, C^(1)) is MDS
    pref = la.MatGF(ctx, ext.c_mat.a[:, :1].copy())
    assert la.is_mds(la.hstack([pair.a_mat, pref]))
    with pytest.raises(OutOfRange):
        con.build_amx(pair, 0, ctx)


def test_construct_eammsp_examples():
    b = con.construct_eammsp(2, 1, 3, 2)
    assert (b.y1, b.y2, b.x) == (2, 0, 2)
    assert mmsp.classify(b, 2, 1, 3).ok
    b2 = con.construct_eammsp(3, 2, 4, 2)
    assert (b2.y1, b2.y2, b2.x) == (2, 2, 2)
    with pytest.raises(OutOfRange):
        con.construct_eammsp(2, 2, 3, 2)


def test_construct_cqmmsp_examples():
    b = con.construct_cqmmsp(2, 1, 3)
    assert (b.y1, b.y2, b.x) == (3, 0, 1)
    b2 = con.construct_cqmmsp(3, 2, 4)
    assert (b2.y1, b2.y2, b2.x) == (4, 0, 2)
    with pytest.raises(OutOfRange):
        con.construct_cqmmsp(2, 1, 4)  # r > n/2 violated


def test_construct_qqmmsp_examples():
    b = con.construct_qqmmsp(2, 1, 3)
    assert (b.y1, b.y2, b.x) == (2, 0, 2)
    b2 = con.construct_qqmmsp(3, 1, 4)
    assert b2.y1 == 4 - 3 + 1 and b2.x == 2 * (3 - 1)
    with pytest.raises(OutOfRange):
        con.construct_qqmmsp(2, 1, 5)  # (n+1)/2 bound


def test_construct_qqmds():
    g1, f = con.construct_qqmds(2, 3)
    assert g1.cols == 2 and f.cols == 2
    assert mmsp.is_qqmds(g1, f)
    with pytest.raises(OutOfRange):
        con.construct_qqmds(1, 3)
    g1n, fn = con.construct_qqmds(3, 3)  # r = n degenerate
    assert g1n.cols == 0 and fn.cols == 6


def test_eammsp_mds_facts():
    b = con.construct_eammsp(2, 1, 3, 2)
    assert la.is_mds(la.hstack([b.g1, b.g2]))          # (2n, 2t)
    assert la.is_mds(la.hstack([b.g1, b.g2, b.f]))     # (2n, 2r)


def test_determinism():
    con._AMT_CACHE.clear()
    con._AMX_CACHE.clear()
    b1 = con.construct_eammsp(2, 1, 2, 2)
    con._AMT_CACHE.clear()
    con._AMX_CACHE.clear()
    b2 = con.construct_eammsp(2, 1, 2, 2)
    assert b1.g1 == b2.g1 and b1.g2 == b2.g2 and b1.f == b2.f


def test_amx_slice_matches_direct_build():
    ctx = con.construction_field(3, 1, 2, 3)
    pair = con.build_amt(1, 2, ctx)
    con._AMX_CACHE.clear()
    wide = con.build_amx(pair, 3, ctx)
    sliced = con.build_amx(pair, 2, ctx)   # served from the pool
    con._AMX_CACHE.clear()
    direct = con.build_amx(pair, 2, ctx)
    assert sliced.c_mat == direct.c_mat


def test_pivot_above_subfield_invertibility():
    # matrices with an invertible top-left block over a subfield and a
    # bottom-right entry at a strictly higher tower level stay invertible
    ctx = tower_build(3, 3)
    rng = np.random.default_rng(41)
    count = 0
    while count < 50:
        d = int(rng.integers(1, 4))
        level = int(rng.integers(1, 4))
        sub_elems = [ctx.zero, ctx.one]
        for v in range(3):
            if level - 1 >= 1:
                sub_elems.append(ctx.pick_fresh(level - 1, v))
        rows = [[sub_elems[rng.integers(0, len(sub_elems))] for _ in range(d)]
                for _ in range(d)]
        top = la.MatGF.from_elements(ctx, rows)
        if la.rank(top) != d:
            continue
        big = la.MatGF.zeros(ctx, d + 1, d + 1)
        big.a[:d, :d] = top.a
        for k in range(d):
            big.a[d, k] = ctx.token_to_cell(
                sub_elems[rng.integers(0, len(sub_elems))])
            big.a[k, d] = ctx.token_to_cell(
                sub_elems[rng.integers(0, len(sub_elems))])
        big.a[d, d] = ctx.token_to_cell(ctx.pick_fresh(level, int(rng.integers(0, 3))))
        assert la.rank(big) == d + 1
        count += 1


def test_staircase_append_preserves_mds():
    # exact hypotheses: base (d+f, d)-MDS over levels <= L0; appended block
    # with entries below the anti-diagonal inside the level-L0 subfield and
    # fresh at exact level L0 + (i+j-d-g) above it => always MDS
    ctx = tower_build(3, 4)
    rng = np.random.default_rng(43)
    dd, ff = 2, 2
    base_level = 2  # mds_l78(2,2,4) uses levels up to 2
    base = con.mds_pp8(dd, dd + ff, ctx)
    low_pool = [ctx.zero, ctx.one, ctx.from_int(2),
                ctx.pick_fresh(1, 0), ctx.pick_fresh(2, 0),
                ctx.pick_fresh(2, 1), ctx.pick_fresh(1, 1)]
    for trial in range(50):
        g = int(rng.integers(1, 3))
        stair = la.MatGF.zeros(ctx, dd + ff, g)
        for i in range(1, dd + ff + 1):
            for j in range(1, g + 1):
                lvl = i + j - dd - g
                if lvl <= 0:
                    tok = low_pool[int(rng.integers(0, len(low_pool)))]
                else:
                    tok = ctx.pick_fresh(base_level + lvl,
                                         int(rng.integers(0, 4)))
                stair.a[i - 1, j - 1] = ctx.token_to_cell(tok)
        m = la.hstack([base, stair])
        assert la.is_mds(m), (trial, g)


def test_required_depth_and_cap():
    assert con.required_depth(1, 1) == 1
    assert con.required_depth(2, 3) == 4
    assert con.required_depth(2, 3, 2) == 4 + (6 - 2) + 2 - 1
    ctx = con.construction_field(3, 2, 5, 8)
    assert len(ctx.tower_levels) - 1 == con.DEPTH_CAP


def test_builders_reuse_proved_mds_facts(monkeypatch):
    # (G1,G2) and ((G1,G2),F) are A, a C prefix or (A,C), which build_amt
    # and build_amx proved MDS; the builders read those verdicts
    monkeypatch.setattr(con, "_AMT_CACHE", {})
    monkeypatch.setattr(con, "_AMX_CACHE", {})
    calls = []
    monkeypatch.setattr(con, "is_mds", lambda m: calls.append(m) or la.is_mds(m))
    builds = [(con.construct_eammsp, (3, 1, 3, 2)),   # (G1,G2) = A
              (con.construct_eammsp, (3, 2, 3, 3)),   # (G1,G2) = (A, C^(1))
              (con.construct_cqmmsp, (3, 2, 4)),
              (con.construct_qqmmsp, (3, 1, 4))]
    for build, args in builds:
        calls.clear()
        want = build(*args).params["verified"]  # builds the pair and extension
        seen = [(m.a.shape, m.a.tobytes()) for m in calls]
        assert len(seen) == len(set(seen)), args  # B = A when a = b, checked once
        calls.clear()
        assert build(*args).params["verified"] == want
        assert calls == [], args

    ctx = con.construction_field(3, 1, 2, 3)
    pair = con.build_amt(1, 2, ctx)
    assert pair.a_mds
    assert con.build_amx(pair, 3, ctx).mds_widths == {1, 2, 3}
    sliced = con.build_amx(pair, 2, ctx)  # served from the pool
    assert sliced.mds_widths == {1, 2}
    calls.clear()
    assert con._joint_mds("s", pair, sliced, 2) == ("s", True) and calls == []
    # a prefix the build did not check is computed
    monkeypatch.setattr(con, "_AMX_CACHE", {})
    unchecked = con.build_amx(pair, 3, ctx, check_prefixes=[])
    assert unchecked.mds_widths == {3}
    calls.clear()
    assert con._joint_mds("s", pair, unchecked, 1) == ("s", True) and len(calls) == 1
