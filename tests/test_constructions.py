"""Tower-staircase constructions and their verification predicates."""

import hashlib
import json

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


def test_amx_slice_matches_direct_build(monkeypatch):
    # each pick depends only on its cell, so a narrower C is the column
    # prefix of a wider one, bit for bit
    monkeypatch.setattr(con, "_AMX_CACHE", {})
    ctx = con.construction_field(3, 1, 2, 3)
    pair = con.build_amt(1, 2, ctx)
    wide = con.build_amx(pair, 3, ctx)
    for c in (1, 2):
        narrow = con.build_amx(pair, c, ctx)
        assert narrow.c_mat == la.MatGF(ctx, wide.c_mat.a[:, :c].copy())


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
    # and build_amx proved MDS; a fresh build checks each matrix once (B is
    # A when a = b) and a cached one checks none
    seen = []
    monkeypatch.setattr(con, "is_mds", lambda m: seen.append(m) or la.is_mds(m))
    builds = [(con.construct_cqmmsp, (3, 2, 4), 3),
              (con.construct_eammsp, (3, 1, 3, 2), 6),   # (G1,G2) = A
              (con.construct_qqmmsp, (3, 1, 4), 2),
              (con.construct_eammsp, (3, 2, 3, 3), 4)]   # (G1,G2) = (A, C^(1))
    for build, args, calls in builds:
        monkeypatch.setattr(con, "_AMT_CACHE", {})
        monkeypatch.setattr(con, "_AMX_CACHE", {})
        seen.clear()
        want = build(*args).params["verified"]
        keys = {(m.a.shape, m.a.tobytes()) for m in seen}
        assert len(seen) == len(keys) == calls, args
        seen.clear()
        assert build(*args).params["verified"] == want
        assert seen == [], args


# SHA-256 of bundle.to_json() (sort_keys) for every benchmark construct
# tuple (ea uses y1 = min(2t, n)), and of (G1, F) for each qqmds tuple.
# Regenerate with ``python tests/test_constructions.py``.
CONSTRUCT_TUPLES = [
    ("ea", 2, 1, 2), ("cq", 2, 1, 2), ("qq", 2, 1, 2),
    ("ea", 2, 1, 3), ("cq", 2, 1, 3), ("qq", 2, 1, 3),
    ("ea", 3, 1, 3), ("cq", 3, 1, 3), ("qq", 3, 1, 3),
    ("ea", 3, 2, 3), ("cq", 3, 2, 3), ("qq", 3, 2, 3), ("qqmds", 2, 3),
    ("cq", 3, 2, 4), ("qq", 3, 1, 4), ("qqmds", 3, 4),
    ("qq", 3, 2, 5), ("qqmds", 4, 5),
]


def compute_construct_digests() -> dict:
    out = {}
    for spec in CONSTRUCT_TUPLES:
        if spec[0] == "qqmds":
            obj = [la.mat_to_json(m) for m in con.construct_qqmds(*spec[1:])]
        else:
            cls, r, t, n = spec
            obj = {"ea": lambda: con.construct_eammsp(r, t, n, min(2 * t, n)),
                   "cq": lambda: con.construct_cqmmsp(r, t, n),
                   "qq": lambda: con.construct_qqmmsp(r, t, n)}[cls]().to_json()
        blob = json.dumps(obj, sort_keys=True).encode()
        out[" ".join(map(str, spec))] = hashlib.sha256(blob).hexdigest()
    return out


GOLDEN_CONSTRUCT = {
    'ea 2 1 2': '750df774ccfb2182703208311581c18245abe95973e28c12c9687bc0f7b41d94',
    'cq 2 1 2': '626415fd012915be1ff9d4f6a052a3fcaacc9026142e8c7c6b95e1923f810f46',
    'qq 2 1 2': '07d9024755e4af1ed0e756d6d9f7f2e2f76fb5402926c32be93630fb6c70f77a',
    'ea 2 1 3': '9d544fed0480f0af76149b5b671a4fe48f7183f9234b3628a9311e894f07ee93',
    'cq 2 1 3': '183abfeed3ff55a879b076aaeda9a64c743d1be5337b903cad50673184723738',
    'qq 2 1 3': '3f6e36d007c9b74f9541ce6bce7d179354788c56b7d5f1c385df922742e2c1b6',
    'ea 3 1 3': '795f4497d6becd5052b2ca4767e248d67706a17d1a45f72ca689445a51e293a1',
    'cq 3 1 3': 'ba545adcb9cb2d4ab19919b2c09a875e7a3949f0cc138533dcf2d10c54bed8e2',
    'qq 3 1 3': '591b15122f8f85b066e5509ac4d022ad8b5441680334cea50a5cc858ada8022f',
    'ea 3 2 3': 'a58211acf7eee04617e9a4c76acac513f0d4038a6a65a3d59a784f2ddb6a8db3',
    'cq 3 2 3': '88529a6fbf90aa95aaf541fba73e1945b95c6b114da0714148ad93ffb6b973ee',
    'qq 3 2 3': '0587e2f166e1a70b3ea78ef35b4cfa2c14207af08378c7e4c6dfb7bc32fdc999',
    'qqmds 2 3': '9ec3f49d601c89d440f976cc1522e49ad288b99c0064a232009b8007852c1f52',
    'cq 3 2 4': '4d2b01be4a63efe60954941f537ae717c3e92a6c0b0e16dd17e70dde5f81d8ec',
    'qq 3 1 4': 'd1da938027dbb13f0b76a31c4b6717bfe9c341bab662dd4ddfd6f94494e4538a',
    'qqmds 3 4': 'e3ba1c79f0348944493da255b4c7b216b896eda20ac4fffba0415f6acdd93a9a',
    'qq 3 2 5': '2d51df3c13d69e5464b46ef8957990db19b3a909a7191f9d0122921c3ccff056',
    'qqmds 4 5': 'b1bed2b2a7279e424f15a9427f3783d112150886d36d89a40a484d0b8fd3184e',
}


def test_construct_digests_unchanged():
    assert compute_construct_digests() == GOLDEN_CONSTRUCT


if __name__ == "__main__":
    for key, val in compute_construct_digests().items():
        print(f"    {key!r}: {val!r},")
