"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from mmsplab import classical as cl
from mmsplab import constructions as con
from mmsplab import fixtures as fx
from mmsplab import linalg as la
from mmsplab import mmsp
from mmsplab import qprotocols as qp
from mmsplab import qstate as qs
from mmsplab.access import make_threshold, symplectify, symplectify_structure
from mmsplab.fields import field_build, tower_build
from mmsplab.linalg import MatGF, VecGF

F3 = field_build(3, 1)


def _report(num: int, name: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {name}: "
          f"{elapsed:.1f}s (budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed functionally"
    assert elapsed <= budget, f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_1_worked_examples():
    t0 = time.time()
    ok = True
    # Example 1: (G1, F) is an MMSP for the stated structure
    t = time.time()
    ex1 = fx.example1()
    ok &= mmsp.is_mmsp(ex1.bundle.g_stack(), ex1.f,
                       symplectify_structure(ex1.access))
    ok &= mmsp.accepts_one(ex1.g1, ex1.f, symplectify([1, 2], 3))
    ok &= mmsp.accepts_one(ex1.g1, ex1.f, symplectify([2, 3], 3))
    ok &= mmsp.rejects_one(ex1.g1, ex1.f, symplectify([3], 3))
    ok &= (time.time() - t) < 1.0
    # Example 2
    t = time.time()
    ex2 = fx.example2()
    ok &= mmsp.is_mmsp(ex2.bundle.g_stack(), ex2.f,
                       symplectify_structure(ex2.access))
    ok &= (time.time() - t) < 1.0
    # Example 3: accepts all symplectified pairs, rejects singletons, rate 2
    t = time.time()
    ex3 = fx.example3(3)
    for pair in combinations(range(1, 4), 2):
        ok &= mmsp.accepts_one(ex3.g1, ex3.f, symplectify(pair, 3))
    for single in range(1, 4):
        ok &= mmsp.rejects_one(ex3.g1, ex3.f, symplectify([single], 3))
    ok &= ex3.rate == Fraction(2)
    ok &= (time.time() - t) < 1.0
    _report(1, "worked-example reproduction", ok, time.time() - t0, 3.0)


def _collect_fixtures(kind: str, pos_count: int, seed: int,
                      neg_count: int = None):
    """pos_count positives and neg_count negatives: mutated positives
    first, topped up with pool negatives for the positives on which
    mutate_negative's redraws find no negative (it returns None)."""
    if neg_count is None:
        neg_count = pos_count
    pool = max(pos_count, neg_count)
    pos, pool_neg = fx.make_pools(kind, pool, seed=seed)
    negs = []
    for i, (bundle, fs) in enumerate(pos):
        if len(negs) >= neg_count:
            break
        mut = fx.mutate_negative(bundle, fs, seed=seed + 1000 + i)
        if mut is not None:
            negs.append((mut, fs))
    for item in pool_neg:
        if len(negs) >= neg_count:
            break
        negs.append(item)
    return pos[:pos_count], negs[:neg_count]


def test_criterion_2_security_equivalence():
    t0 = time.time()
    count = 20
    ok = True
    checked = {}

    # classical: CSS and CSPIR over the plain pool
    pos, neg = _collect_fixtures("plain", count, seed=101)
    for bundle, fs in pos + neg:
        rep = cl.css_audit(cl.CssProtocol(g=bundle.g1, f=bundle.f, access=fs))
        ok &= rep.matches_mmsp
        rep2 = cl.spir_audit(cl.SpirProtocol(g=bundle.g1, f=bundle.f,
                                             nfiles=2, access=fs))
        ok &= rep2.matches_mmsp
    checked["css"] = checked["cspir"] = len(pos) + len(neg)

    # EASS and EASPIR over the ea pool (paper examples join the positives)
    pos, neg = _collect_fixtures("ea", count - 2, seed=102, neg_count=count)
    ex1, ex3 = fx.example1(), fx.example3(3)
    pos = pos + [(ex1.bundle, ex1.access), (ex3.bundle, ex3.access)]
    for bundle, fs in pos + neg:
        rep = qp.audit_ss(bundle, fs, protocol="eass")
        ok &= rep.matches_classify
    checked["eass"] = len(pos) + len(neg)
    spir_cases = pos[:10] + neg[:10]
    for bundle, fs in spir_cases:
        rep = qp.audit_spir(bundle, fs, nfiles=2, protocol="easpir")
        ok &= rep.matches_classify
    extra_pos, extra_neg = _collect_fixtures("ea", 10, seed=107)
    for bundle, fs in extra_pos + extra_neg:
        rep = qp.audit_spir(bundle, fs, nfiles=2, protocol="easpir")
        ok &= rep.matches_classify
    checked["easpir"] = len(spir_cases) + len(extra_pos) + len(extra_neg)

    # CQSS and CQSPIR over the cq pool (example 2 joins the positives)
    pos, neg = _collect_fixtures("cq", count - 1, seed=103, neg_count=count)
    ex2 = fx.example2()
    pos = pos + [(ex2.bundle, ex2.access)]
    for bundle, fs in pos + neg:
        rep = qp.audit_ss(bundle, fs, protocol="cqss")
        ok &= rep.matches_classify
    checked["cqss"] = len(pos) + len(neg)
    spir_cases = pos[:10] + neg[:10]
    for bundle, fs in spir_cases:
        rep = qp.audit_spir(bundle, fs, nfiles=2, protocol="cqspir")
        ok &= rep.matches_classify
    extra_pos, extra_neg = _collect_fixtures("cq", 10, seed=108)
    for bundle, fs in extra_pos + extra_neg:
        rep = qp.audit_spir(bundle, fs, nfiles=2, protocol="cqspir")
        ok &= rep.matches_classify
    checked["cqspir"] = len(spir_cases) + len(extra_pos) + len(extra_neg)

    # QQSS over the qq pool (example 1 as a QQ bundle joins the positives,
    # and the seeded n = 4 pair, whose negative has x = 4, joins both)
    pos, neg = _collect_fixtures("qq", count - 1, seed=104, neg_count=count)
    bqq = mmsp.make_bundle("qq", ex1.g1, None, ex1.f, n=3)
    pos4, neg4 = fx.make_pools("qq", 1, seed=2, n_values=(4,), p=3)
    assert neg4[0][0].x == 4
    pos, neg = pos + [(bqq, ex1.access)] + pos4, neg + neg4
    for bundle, fs in pos + neg:
        rep = qp.audit_qqss(bundle, fs)
        ok &= rep.matches_classify
    checked["qqss"] = len(pos) + len(neg)

    ok &= all(v >= 2 * count for v in checked.values())
    _report(2, f"security<->MMSP equivalence {checked}", ok,
            time.time() - t0, 600.0)


def test_criterion_3_lemma1_equivalence():
    t0 = time.time()
    ok = True
    ex1 = fx.example1()
    for k in range(7):
        for sub in combinations(range(1, 7), k):
            ok &= mmsp.a1_a2_agree(ex1.g1, ex1.f, sub)
            ok &= mmsp.b1_b2_agree(ex1.g1, ex1.f, sub)
    fields = [field_build(2, 1), field_build(3, 1), field_build(5, 1),
              field_build(3, 2, [2, 2, 1])]
    rng = np.random.default_rng(3033)
    for ctx in fields:
        for _ in range(100):
            g = MatGF(ctx, rng.integers(0, ctx.q, size=(6, 2)).astype(np.int64))
            f = MatGF(ctx, rng.integers(0, ctx.q, size=(6, 2)).astype(np.int64))
            for k in range(7):
                for sub in combinations(range(1, 7), k):
                    ok &= mmsp.a1_a2_agree(g, f, sub)
                    ok &= mmsp.b1_b2_agree(g, f, sub)
    _report(3, "predicate equivalence (A1<->A2, B1<->B2) over F2/F3/F5/F9", ok,
            time.time() - t0, 30.0)


def _pivot_dominance_suite(trials: int = 50) -> bool:
    ctx = tower_build(3, 3)
    rng = np.random.default_rng(41)
    done = 0
    while done < trials:
        d = int(rng.integers(1, 4))
        level = int(rng.integers(1, 4))
        pool = [ctx.zero, ctx.one]
        if level - 1 >= 1:
            pool += [ctx.pick_fresh(level - 1, v) for v in range(3)]
        rows = [[pool[rng.integers(0, len(pool))] for _ in range(d)]
                for _ in range(d)]
        top = la.MatGF.from_elements(ctx, rows)
        if la.rank(top) != d:
            continue
        big = la.MatGF.zeros(ctx, d + 1, d + 1)
        big.a[:d, :d] = top.a
        for k in range(d):
            big.a[d, k] = ctx.token_to_cell(pool[rng.integers(0, len(pool))])
            big.a[k, d] = ctx.token_to_cell(pool[rng.integers(0, len(pool))])
        big.a[d, d] = ctx.token_to_cell(
            ctx.pick_fresh(level, int(rng.integers(0, 3))))
        if la.rank(big) != d + 1:
            return False
        done += 1
    return True


def _staircase_append_suite(trials: int = 50) -> bool:
    ctx = tower_build(3, 4)
    rng = np.random.default_rng(43)
    dd, ff = 2, 2
    base = con.mds_pp8(dd, dd + ff, ctx)
    low = [ctx.zero, ctx.one, ctx.from_int(2), ctx.pick_fresh(1, 0),
           ctx.pick_fresh(2, 0), ctx.pick_fresh(2, 1)]
    for _ in range(trials):
        g = int(rng.integers(1, 3))
        stair = la.MatGF.zeros(ctx, dd + ff, g)
        for i in range(1, dd + ff + 1):
            for j in range(1, g + 1):
                lvl = i + j - dd - g
                tok = (low[int(rng.integers(0, len(low)))] if lvl <= 0
                       else ctx.pick_fresh(2 + lvl, int(rng.integers(0, 4))))
                stair.a[i - 1, j - 1] = ctx.token_to_cell(tok)
        if not la.is_mds(la.hstack([base, stair])):
            return False
    return True


def test_criterion_4_construction_theorems():
    t0 = time.time()
    ok = True
    built = 0
    for n in range(1, 6):
        for r in range(1, n + 1):
            for t in range(1, r):
                y1 = min(2 * t, n)
                b = con.construct_eammsp(r, t, n, y1)
                ok &= mmsp.classify(b, r, t, n).ok
                built += 1
                if 2 * r > n:
                    b = con.construct_cqmmsp(r, t, n)
                    ok &= mmsp.classify(b, r, t, n).ok
                    built += 1
                if 2 * r >= n + 1:
                    b = con.construct_qqmmsp(r, t, n)
                    ok &= mmsp.classify(b, r, t, n).ok
                    built += 1
        for r in range(1, n + 1):
            if 2 * r > n:
                g1, f = con.construct_qqmds(r, n)
                ok &= mmsp.is_qqmds(g1, f)
                built += 1
    ok &= _pivot_dominance_suite(50)
    ok &= _staircase_append_suite(50)
    _report(4, f"constructions ({built} verified bundles, n<=5, all "
            "pair/extension invariants + randomized suites)", ok,
            time.time() - t0, 300.0)


def _qq_fixture_set():
    ex1 = fx.example1()
    out = [(mmsp.make_bundle("qq", ex1.g1, None, ex1.f, n=3), ex1.access)]
    pos, _ = fx.make_pools("qq", 6, seed=505)
    return out + pos


def test_criterion_5_dense_coding_teleportation():
    t0 = time.time()
    ok = True
    channels = []
    for bundle, fs in _qq_fixture_set():
        fids = qp.teleport_decoder_fidelities(bundle, fs)
        ok &= all(f >= 1 - 1e-9 for f in fids)
        codec = qp.QqCodec(bundle)
        for b in fs.reject_iter():
            if b and codec.q ** codec.xq * codec.q ** len(b) <= 81:
                channels.append(qp.qq_channel(bundle, codec, sorted(b)))
    for chan in channels[:12]:
        nprime = int(round(np.log(chan.din) / np.log(3)))
        i_dense, i_chan = qp.dense_coding_information_check(chan, 3, nprime)
        ok &= abs(i_dense - i_chan) <= 1e-6
    idc = qp.dense_coding_information_check(qs.identity_channel(3), 3, 1)
    ok &= abs(idc[0] - idc[1]) <= 1e-6 and abs(idc[0] - 2 * np.log2(3)) < 1e-9
    dep = qp.dense_coding_information_check(qs.depolarizing_channel(3), 3, 1)
    ok &= abs(dep[0]) < 1e-9 and abs(dep[1]) < 1e-9
    _report(5, "teleport-decoder identity + dense-coding information equality",
            ok, time.time() - t0, 120.0)


def test_criterion_6_backend_crossvalidation():
    t0 = time.time()
    ok = True
    cases = 0
    fixture_list = []
    for ex in (fx.example1(), fx.example2(), fx.example3(3)):
        fixture_list.append((ex.bundle, ex.access))
    for kind, seed in (("ea", 601), ("cq", 602)):
        pos, _ = fx.make_pools(kind, 6, seed=seed)
        fixture_list += pos
    for bundle, fs in fixture_list:
        engine = qp.EaEngine(g1=bundle.g1, g2=bundle.g2, f=bundle.f)
        q = bundle.ctx.q
        for mi in range(q**bundle.x):
            m = np.array([(mi // q**i) % q for i in range(bundle.x)],
                         dtype=np.int64)
            for ui in range(q**bundle.y2):
                u2 = np.array([(ui // q**i) % q for i in range(bundle.y2)],
                              dtype=np.int64)
                disp = engine.message_displacements(m)
                comp = engine.share_components([disp[ui]])
                for a in fs.accept_iter():
                    dec = qp.DispDecoder(bundle.g1, bundle.g2, bundle.f,
                                         sorted(a))
                    dist = engine.coset_distribution(sorted(a), comp, dec)
                    rep, _ = qp.symp_track(bundle, m, u2, sorted(a))
                    ok &= abs(dist.get(rep, 0.0) - 1.0) < 1e-9
                    cases += 1
    _report(6, f"dense vs symplectic backend agreement ({cases} exhaustive "
            "point-mass cases)", ok, time.time() - t0, 120.0)


def test_criterion_7_flow5_conversion():
    t0 = time.time()
    ok = True
    ex1, ex3 = fx.example1(), fx.example3(3)
    fixtures = [(ex1.bundle, ex1.access), (ex3.bundle, ex3.access)]
    pos, _ = fx.make_pools("ea", 2, seed=701, n_values=(2,))
    fixtures += pos
    for bundle, fs in fixtures:
        ok &= qp.flow5_equivalence(bundle, 2, fs)
        conv = qp.convert_flow5(bundle, nfiles=2)
        rep = qp.audit_ss(conv, fs, protocol="eass")
        ok &= rep.secure and rep.matches_classify
    _report(7, "EASPIR->EASS conversion equivalence", ok,
            time.time() - t0, 60.0)


def test_criterion_8_rate_formulas():
    t0 = time.time()
    ok = True
    checked = 0
    for n in range(1, 7):
        for r in range(1, n + 1):
            for t in range(1, r):
                # eass / easpir: realized message width 2(r-t) over n shares
                dims = con.eammsp_dims(r, t, n, min(2 * t, n))
                realized = Fraction(dims["x"], n)
                ok &= mmsp.rate("eass", r, t, n) == Fraction(2 * (r - t), n)
                ok &= mmsp.rate("eass", r, t, n) == realized
                ok &= mmsp.rate("easpir", r, t, n) == realized
                checked += 1
                if 2 * r >= n:
                    dims = con.cqmmsp_dims(r, t, n)
                    realized = Fraction(dims["x"], n)
                    ok &= mmsp.rate("cqss", r, t, n) == \
                        Fraction(2 * r - max(2 * t, n), n)
                    ok &= mmsp.rate("cqss", r, t, n) == realized
                    checked += 1
                if 2 * t >= n:
                    ok &= mmsp.rate("cqspir", r, t, n) == \
                        Fraction(2 * (r - t), n)
                    checked += 1
                if 2 * r >= n + 1:
                    dims = con.qqmmsp_dims(r, t, n)
                    realized = Fraction(dims["x"] // 2, n)  # message qudits
                    ok &= mmsp.rate("qqss", r, t, n) == \
                        Fraction(r - max(t, n - r), n)
                    ok &= mmsp.rate("qqss", r, t, n) == realized
                    checked += 1
                ok &= mmsp.rate("css", r, t, n) == Fraction(r - t, n)
    _report(8, f"rate formulas ({checked} admissible tuples, n<=6)", ok,
            time.time() - t0, 10.0)
