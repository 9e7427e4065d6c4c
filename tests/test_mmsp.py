"""Span-program predicates, classification, and rate formulas."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from mmsplab import mmsp
from mmsplab.access import make_explicit, make_threshold, symplectify, symplectify_structure
from mmsplab.errors import ClassInvariantViolated, DimensionMismatch, OutOfRange, TooLarge
from mmsplab.fields import field_build, tower_build
from mmsplab.fixtures import example1, example2, example3
from mmsplab.linalg import MatGF, hstack, rank, restrict

F3 = field_build(3, 1)


def test_example1_accepts_and_rejects():
    ex = example1()
    g1, f = ex.g1, ex.f
    assert mmsp.accepts_one(g1, f, symplectify([1, 2], 3))
    assert mmsp.accepts_one(g1, f, symplectify([2, 3], 3))
    assert mmsp.rejects_one(g1, f, symplectify([3], 3))
    assert mmsp.rejects_one(g1, f, frozenset())
    assert mmsp.is_mmsp(g1, f, symplectify_structure(ex.access))
    # swapped roles fail: a single symplectified player cannot accept
    assert not mmsp.accepts_one(g1, f, symplectify([1], 3))


def test_example2_mmsp():
    ex = example2()
    sfs = symplectify_structure(ex.access)
    assert mmsp.is_mmsp(ex.bundle.g_stack(), ex.f, sfs)
    assert mmsp.rejects_one(ex.g1, ex.f, symplectify([1, 3], 3))


def test_example3_mmsp():
    ex = example3(3)
    assert mmsp.is_mmsp(ex.g1, ex.f, symplectify_structure(ex.access))
    ex5 = example3(5)
    assert mmsp.is_mmsp(ex5.g1, ex5.f, symplectify_structure(ex5.access))


def test_trivial_predicates():
    empty = MatGF.zeros(F3, 3, 0)
    eye = MatGF.identity(F3, 3)
    assert mmsp.accepts_one(empty, eye, [1, 2, 3])
    zero_col = MatGF.zeros(F3, 3, 1)
    assert not mmsp.accepts_one(empty, zero_col, [1, 2, 3])
    assert mmsp.rejects_one(eye, zero_col, [])


def test_lemma1_agreement_on_example1_all_subsets():
    ex = example1()
    for k in range(7):
        for sub in combinations(range(1, 7), k):
            assert mmsp.a1_a2_agree(ex.g1, ex.f, sub)
            assert mmsp.b1_b2_agree(ex.g1, ex.f, sub)


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (5, 1), (3, 2)])
def test_lemma1_agreement_random(p, r):
    ctx = field_build(p, r, [2, 2, 1] if (p, r) == (3, 2) else None)
    rng = np.random.default_rng(17)
    for _ in range(15):
        g = MatGF(ctx, rng.integers(0, ctx.q, size=(6, 2)).astype(np.int64))
        f = MatGF(ctx, rng.integers(0, ctx.q, size=(6, 2)).astype(np.int64))
        for k in range(0, 7, 2):
            for sub in combinations(range(1, 7), k):
                assert mmsp.a1_a2_agree(g, f, sub)
                assert mmsp.b1_b2_agree(g, f, sub)


def test_accept_reject_never_both():
    rng = np.random.default_rng(23)
    for _ in range(40):
        g = MatGF(F3, rng.integers(0, 3, size=(5, 2)))
        f = MatGF(F3, rng.integers(0, 3, size=(5, 1)))
        for k in range(6):
            for sub in combinations(range(1, 6), k):
                both = (mmsp.accepts_one(g, f, sub)
                        and mmsp.rejects_one(g, f, sub))
                assert not both


def test_monotonicity():
    rng = np.random.default_rng(29)
    for _ in range(25):
        g = MatGF(F3, rng.integers(0, 3, size=(5, 1)))
        f = MatGF(F3, rng.integers(0, 3, size=(5, 1)))
        for k in range(5):
            for sub in combinations(range(1, 6), k):
                bigger = set(sub) | {5}
                if mmsp.accepts_one(g, f, sub):
                    assert mmsp.accepts_one(g, f, bigger)
                if mmsp.rejects_one(g, f, bigger):
                    assert mmsp.rejects_one(g, f, sub)


def test_threshold_via_mds_cross_check():
    rng = np.random.default_rng(31)
    agreements = 0
    for _ in range(50):
        g = MatGF(F3, rng.integers(0, 3, size=(5, 1)))
        f = MatGF(F3, rng.integers(0, 3, size=(5, 1)))
        via = mmsp.is_threshold_mmsp_via_mds(g, f, 2, 1)
        direct = mmsp.is_mmsp(g, f, make_threshold(2, 1, 5))
        assert via == direct
        agreements += 1
    assert agreements == 50
    with pytest.raises(DimensionMismatch):
        mmsp.is_threshold_mmsp_via_mds(MatGF.zeros(F3, 5, 2),
                                       MatGF.zeros(F3, 5, 1), 2, 1)


def test_classify_example1_as_qq():
    ex = example1()
    b = mmsp.make_bundle("qq", ex.g1, None, ex.f, n=3)
    assert mmsp.classify(b, 2, 1, 3).ok


def test_classify_cq_violation_raises():
    ex = example1()
    with pytest.raises(ClassInvariantViolated):
        mmsp.classify(mmsp.make_bundle("cq", ex.g1, None, ex.f, n=3), 2, 1, 3)


def test_classify_ea_construction():
    from mmsplab.constructions import construct_eammsp

    b = construct_eammsp(2, 1, 2, 2)
    assert mmsp.classify(b, 2, 1, 2).ok


def test_eamds_qqmds_example1():
    ex = example1()
    assert mmsp.is_qqmds(ex.g1, ex.f)
    assert mmsp.is_eamds(ex.g1, ex.f)
    bad_f = MatGF.zeros(F3, 6, 2)
    assert not mmsp.is_eamds(ex.g1, bad_f)


def test_qqmds_degenerate_identity_case():
    # n = x' case: empty G1, F the identity frame; accepts only the full set
    g1 = MatGF.zeros(F3, 4, 0)
    f = MatGF.identity(F3, 4)
    assert mmsp.is_qqmds(g1, f)
    assert mmsp.accepts_one(g1, f, [1, 2, 3, 4])
    assert not mmsp.accepts_one(g1, f, [1, 3])


def test_rate_values():
    assert mmsp.rate("cqss", 2, 1, 3) == Fraction(1, 3)
    assert mmsp.rate("qqss", 2, 1, 3) == Fraction(1, 3)
    assert mmsp.rate("eass", 2, 1, 3) == Fraction(2, 3)
    assert mmsp.rate("easpir", 3, 1, 4) == Fraction(1, 1)
    assert mmsp.rate("css", 2, 1, 3) == Fraction(1, 3)
    assert mmsp.rate("cqspir", 3, 2, 4) == Fraction(1, 2)


def test_rate_out_of_range():
    with pytest.raises(OutOfRange):
        mmsp.rate("cqss", 2, 1, 5)       # r < n/2
    with pytest.raises(OutOfRange):
        mmsp.rate("qqss", 2, 1, 4)       # r < (n+1)/2
    with pytest.raises(OutOfRange):
        mmsp.rate("eass", 1, 1, 3)       # r > t violated
    with pytest.raises(OutOfRange):
        mmsp.rate("cqspir", 2, 1, 3)     # t < n/2


def test_bundle_json_round_trip():
    ex = example1()
    b = mmsp.make_bundle("qq", ex.g1, None, ex.f, n=3, r=2, t=1)
    b2 = mmsp.bundle_from_json(b.to_json())
    assert b2.cls == "qq" and b2.n == 3
    assert b2.g1 == b.g1 and b2.f == b.f


def _two_rank_failure(g, f, fs):
    """The MMSP definition one subset at a time: (A1) as
    rank(P_A G | P_A F) = rank(P_A G) + x and (B1) as equal ranks."""
    def ranks(s):
        pg, pf = restrict(g, s), restrict(f, s)
        return rank(hstack([pg, pf])), rank(pg)
    for a in fs.accept_iter():
        both, alone = ranks(a)
        if both != alone + f.cols:
            return "acceptance", a
    for b in fs.reject_iter():
        both, alone = ranks(b)
        if both != alone:
            return "rejection", b
    return None


@pytest.mark.parametrize("ctx", [field_build(3, 2), tower_build(3, 4)], ids=str)
def test_stacked_mmsp_matches_per_subset_ranks(ctx, monkeypatch):
    """mmsp_failure, stacked in blocks of 1, 3 or all sets, names the same
    first failing set as the per-subset two-rank loop, over thresholds,
    symplectified thresholds and explicit sets of unequal sizes."""
    rng = np.random.default_rng(41)
    n = 4
    structures = [make_threshold(2, 1, n), make_threshold(3, 1, n),
                  make_explicit(n, [[1, 2], [2, 3, 4], [1, 2, 3, 4], [1, 3, 4]],
                                [[], [1], [3, 4], [2]])]
    seen = set()
    for trial in range(6):
        for base in structures:
            for fs in (base, symplectify_structure(base)):
                rows, y, x = fs.n, 1 + trial % 2, 1 + trial // 3
                g = MatGF(ctx, ctx.random_cells(rng, rows, y))
                f = MatGF(ctx, ctx.random_cells(rng, rows, x))
                if trial % 3 == 2:  # a zero row or F inside span(G) somewhere
                    f.a[rng.integers(rows)] = 0
                    g.a[rng.integers(rows), 0] = f.a[rng.integers(rows), 0]
                want = _two_rank_failure(g, f, fs)
                for block_sets in (1, 3, 10 ** 6):
                    cells = rows * (y + x) * int(np.prod(g.a.shape[2:]))
                    monkeypatch.setattr(mmsp, "MDS_BLOCK_CELLS", block_sets * cells)
                    assert mmsp.mmsp_failure(g, f, fs) == want
                    assert mmsp.is_mmsp(g, f, fs) == (want is None)
                seen.add(want[0] if want else None)
    assert seen == {"acceptance", "rejection", None}


@pytest.mark.parametrize("ctx", [field_build(3, 2), tower_build(3, 4)], ids=str)
def test_lemma1_predicates_match_rank_definitions(ctx):
    """(A1)/(A2)/(B1)/(B2) on every subset against their rank definitions;
    (A2) and (B2) stack the unit rows E under (P_A G | P_A F)."""
    rng = np.random.default_rng(43)
    for trial in range(4):
        g = MatGF(ctx, ctx.random_cells(rng, 5, 2))
        f = MatGF(ctx, ctx.random_cells(rng, 5, 2))
        if trial % 2:
            f.a[:, 1] = g.a[:, 0]
        e = MatGF.zeros(ctx, 2, 4)
        e.a[[0, 1], [2, 3]] = ctx.token_to_cell(ctx.one)
        for k in range(6):
            for sub in combinations(range(1, 6), k):
                pg, pf = restrict(g, sub), restrict(f, sub)
                m = hstack([pg, pf])
                both, alone, with_e = rank(m), rank(pg), rank(MatGF(ctx, np.concatenate([m.a, e.a])))
                assert mmsp.accepts_one(g, f, sub) == (both == alone + 2)
                assert mmsp.rejects_one(g, f, sub) == (both == alone)
                assert mmsp.cond_a2(g, f, sub) == (with_e == both)
                assert mmsp.cond_b2(g, f, sub) == (with_e == both + 2)


def test_classify_symplectified_threshold_past_n_10():
    """classify, is_mmsp and is_eamds at n = 11 enumerate the 55 + 11
    symplectified sets of the (2, 1, 11) threshold instead of refusing the
    22-point explicit structure."""
    rng = np.random.default_rng(47)
    n = 11
    g2 = MatGF(F3, rng.integers(0, 3, size=(2 * n, 2)))
    f = MatGF(F3, rng.integers(0, 3, size=(2 * n, 2)))
    b = mmsp.make_bundle("ea", MatGF.zeros(F3, 2 * n, 0), g2, f, n=n)
    rep = mmsp.classify(b, 2, 1)
    sfs = symplectify_structure(make_threshold(2, 1, n))
    assert rep.ok == (_two_rank_failure(b.g_stack(), f, sfs) is None)
    # evaluations of 1, x, x^2, x^3 at 22 distinct points of GF(23): every 4
    # rows are independent, every 2 rows of (1, x) span the plane
    gf23 = field_build(23, 1)
    vander = MatGF(gf23, np.arange(2 * n)[:, None] ** np.arange(4) % 23)
    g2, f = MatGF(gf23, vander.a[:, :2].copy()), MatGF(gf23, vander.a[:, 2:].copy())
    b = mmsp.make_bundle("ea", MatGF.zeros(gf23, 2 * n, 0), g2, f, n=n)
    assert mmsp.classify(b, 2, 1).ok
    assert mmsp.is_eamds(MatGF.zeros(gf23, 2 * n, 0), vander)


def test_threshold_past_subset_cap_refused_before_enumerating():
    fs = symplectify_structure(make_threshold(10, 5, 40))
    with pytest.raises(TooLarge):
        next(fs.accept_iter())
    with pytest.raises(TooLarge):
        next(make_threshold(10, 5, 40).reject_iter())
    g = MatGF.zeros(F3, 80, 5)
    with pytest.raises(TooLarge):
        mmsp.is_mmsp(g, g, fs)
