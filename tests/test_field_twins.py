"""Differential suite: every small registry field against its coefficient-row
twin.

`field_build` and `tower_build` give a TabledField when q <= TABLE_LIMIT.
The same field built directly as `fields.FieldCtx(p, r, modulus,
tower_levels)` runs the coefficient-row arithmetic that carries every tower
construction.  Cells map between the two by their coefficient vectors
(`ax_coeffs` / `ax_from_coeffs`), and every operation below must commute
with that map: cell arithmetic, trace, Frobenius and tower levels;
elimination, solves, quotient maps, null spaces and the MDS test; the
symplectic Gram matrix, the MMSP predicates and span-program decoding.

The representations differ on purpose in four places, checked as such:
`from_int` reads an element index on a tabled field and k mod p on a
coefficient-row one; tabled `level_gen` picks a power of the table
generator, so levels are compared, not elements; the twin refuses
`elements()`; the classical audits need tables.
"""

from functools import lru_cache

import numpy as np
import pytest

from mmsplab import fields
from mmsplab import linalg as la
from mmsplab import mmsp
from mmsplab.access import make_threshold, symplectify_structure
from mmsplab.classical import CssProtocol, css_audit
from mmsplab.errors import DivisionByZero, NoTower, TooLarge, TowerTooShallow
from mmsplab.fields import field_build, tower_build

SMALL = [field_build(2, 1), field_build(2, 2), field_build(2, 3), field_build(3, 2),
         field_build(5, 2), field_build(3, 3), field_build(3, 4),
         tower_build(2, 3), tower_build(3, 3)]


def _name(ctx):
    return f"GF({ctx.p}^{ctx.r}){' tower' if ctx.tower_levels else ''}"


@lru_cache(maxsize=None)
def twin(ctx):
    return fields.FieldCtx(ctx.p, ctx.r, ctx.modulus, ctx.tower_levels)


def up(ctx, cells):
    """Tabled cells as the twin's cells."""
    return twin(ctx).ax_from_coeffs(ctx.ax_coeffs(cells))


def tok(ctx, e):
    return twin(ctx).from_coeffs(ctx.coeffs(e))


def same(ctx, tabled, poly):
    """A tabled result equals the twin's result under the coefficient map."""
    return tabled.shape == poly.shape[:-1] and np.array_equal(up(ctx, tabled), poly)


def mat(ctx, m):
    return la.MatGF(twin(ctx), up(ctx, m.a))


@pytest.fixture(params=SMALL, ids=_name)
def ctx(request):
    return request.param


def test_twin_is_the_same_field(ctx):
    t = twin(ctx)
    assert type(ctx) is fields.TabledField and ctx.kind == "tabled"
    assert type(t) is fields.FieldCtx and t.kind == "poly"
    assert t.to_json() == ctx.to_json() and repr(t) == repr(ctx)
    assert (tok(ctx, ctx.zero), tok(ctx, ctx.one)) == (t.zero, t.one)
    every = np.arange(ctx.q)
    coeffs = ctx.ax_coeffs(every)
    assert np.array_equal(ctx.ax_from_coeffs(coeffs), every)
    assert np.array_equal(t.ax_coeffs(t.ax_from_coeffs(coeffs)), coeffs)
    assert len({tuple(c) for c in coeffs.tolist()}) == ctx.q


def test_cell_ops_agree(ctx):
    t = twin(ctx)
    rng = np.random.default_rng(ctx.q)
    a, b, c, d = (ctx.random_cells(rng, 48) for _ in range(4))
    a[:3], b[2:5], c[::7], d[1] = 0, 0, 0, 0  # zeros in every operand
    ta, tb, tc, td = (up(ctx, x) for x in (a, b, c, d))
    assert same(ctx, ctx.ax_add(a, b), t.ax_add(ta, tb))
    assert same(ctx, ctx.ax_neg(a), t.ax_neg(ta))
    assert same(ctx, ctx.ax_mul(a, b), t.ax_mul(ta, tb))
    assert same(ctx, ctx.ax_mul(a[:, None], b[None, :9]), t.ax_mul(ta[:, None], tb[None, :9]))
    assert same(ctx, ctx.ax_mulsub(a, b, c, d), t.ax_mulsub(ta, tb, tc, td))
    assert np.array_equal(ctx.ax_nonzero(a), t.ax_nonzero(ta))
    assert np.array_equal(ctx.ax_trace(a), t.ax_trace(ta))
    nz = np.where(a != 0, a, 1)
    assert same(ctx, ctx.ax_inv(nz), t.ax_inv(up(ctx, nz)))
    for side, cells in ((ctx, a), (t, ta)):
        with pytest.raises(DivisionByZero):
            side.ax_inv(cells)
    for x, y in zip(a[:12].tolist(), b[:12].tolist()):
        tx, ty = tok(ctx, x), tok(ctx, y)
        assert tok(ctx, ctx.add(x, y)) == t.add(tx, ty)
        assert tok(ctx, ctx.sub(x, y)) == t.sub(tx, ty)
        assert tok(ctx, ctx.mul(x, y)) == t.mul(tx, ty)
        assert tok(ctx, ctx.pow_(x, 5)) == t.pow_(tx, 5)
        assert tok(ctx, ctx.frobenius(x)) == t.frobenius(tx)
        assert ctx.trace(x) == t.trace(tx)
        if x:
            assert tok(ctx, ctx.inv(x)) == t.inv(tx)


def test_tower_levels_agree(ctx):
    t = twin(ctx)
    if not ctx.tower_levels:
        for side in (ctx, t):
            with pytest.raises(NoTower):
                side.level_gen(1)
        return
    depth = len(ctx.tower_levels) - 1
    for j in range(1, depth + 1):
        assert ctx.tower_level(ctx.level_gen(j)) == t.tower_level(t.level_gen(j)) == j
        assert t.tower_level(tok(ctx, ctx.level_gen(j))) == j
        for v in range(1, 5):
            assert ctx.tower_level(ctx.pick_fresh(j, v)) == t.tower_level(t.pick_fresh(j, v)) == j
    for side in (ctx, t):
        with pytest.raises(TowerTooShallow):
            side.pick_fresh(0, 1)
    rng = np.random.default_rng(7)
    for x in ctx.random_cells(rng, 24).tolist():
        assert ctx.tower_level(x) == t.tower_level(tok(ctx, x))


def _matrices(ctx, rng, count):
    """Seeded matrices of every small shape, some with a dependent column
    and a zero row so that ranks fall short."""
    for i in range(count):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        a = ctx.random_cells(rng, rows, cols)
        if i % 2 and cols >= 3:
            a[:, -1] = ctx.ax_add(a[:, 0], ctx.ax_mul(a[:, 1], a[0, 2]))
        if i % 3 == 1:
            a[-1] = 0
        yield la.MatGF(ctx, a)


def test_elimination_agrees(ctx):
    rng = np.random.default_rng(31)
    for m in _matrices(ctx, rng, 14):
        tm = mat(ctx, m)
        red, piv, rk = la.rref(m)
        tred, tpiv, trk = la.rref(tm)
        assert same(ctx, red.a, tred.a) and piv == tpiv and rk == trk
        assert la.rank(m) == la.rank(tm) == rk
        assert same(ctx, la.nullspace(m).a, la.nullspace(tm).a)
        x = la.VecGF(ctx, ctx.random_cells(rng, m.cols))
        for b in (m @ x, la.VecGF(ctx, ctx.random_cells(rng, m.rows))):
            sol, tsol = la.solve(m, b), la.solve(tm, la.VecGF(twin(ctx), up(ctx, b.a)))
            assert (sol is None) == (tsol is None)
            assert sol is None or same(ctx, sol.a, tsol.a)
        zs = np.concatenate([(m @ x).a[None], ctx.random_cells(rng, 5, m.rows)])
        qm, tqm = la.QuotientMap(m), la.QuotientMap(tm)
        assert np.array_equal(qm.pivots, tqm.pivots)
        xs, ok = qm.solve_all(zs)
        txs, tok_ = tqm.solve_all(up(ctx, zs))
        assert same(ctx, xs, txs) and np.array_equal(ok, tok_) and ok[0]


def _vandermonde(ctx, n, k):
    """n x k Vandermonde on the first n element indices, an MDS code."""
    return la.MatGF.from_elements(ctx, [[ctx.pow_(i, j) for j in range(k)] for i in range(n)])


def test_is_mds_agrees(ctx):
    """Both paths of is_mds (k-row minors for k <= 2 or k = n, the
    systematic form's square submatrices between), on MDS
    Vandermonde matrices, on copies with one entry zeroed and on random
    matrices."""
    rng = np.random.default_rng(5)
    n = min(ctx.q, 6)
    verdicts = []
    for k in range(1, n + 1):
        v = _vandermonde(ctx, n, k)
        hit = v.a.copy()
        hit[int(rng.integers(n)), int(rng.integers(k))] = 0
        for m in (v, la.MatGF(ctx, hit), la.MatGF(ctx, ctx.random_cells(rng, n, k))):
            verdict = la.is_mds(m)
            assert la.is_mds(mat(ctx, m)) == verdict
            verdicts.append(verdict)
        assert verdicts[-3]
    assert not all(verdicts)


def _bundles(ctx, rng):
    """(G, F, structure) triples with mixed verdicts: a threshold MMSP from
    a Vandermonde code, random pairs on the same threshold, and random
    symplectic pairs on 2n rows with the symplectified threshold."""
    n = min(ctx.q, 4)
    fs = make_threshold(2, 1, n)
    v = _vandermonde(ctx, n, 2)
    yield la.MatGF(ctx, v.a[:, :1]), la.MatGF(ctx, v.a[:, 1:]), fs
    for _ in range(3):
        yield (la.MatGF(ctx, ctx.random_cells(rng, n, 1)),
               la.MatGF(ctx, ctx.random_cells(rng, n, 1)), fs)
    sfs = symplectify_structure(make_threshold(2, 1, 3))
    for _ in range(3):
        yield (la.MatGF(ctx, ctx.random_cells(rng, 6, 3)),
               la.MatGF(ctx, ctx.random_cells(rng, 6, 2)), sfs)


def test_symplectic_and_mmsp_agree(ctx):
    rng = np.random.default_rng(11)
    verdicts = []
    for g, f, fs in _bundles(ctx, rng):
        tg, tf = mat(ctx, g), mat(ctx, f)
        if g.rows % 2 == 0:
            assert np.array_equal(la.symp_gram(f, g), la.symp_gram(tf, tg))
            assert np.array_equal(la.symp_gram(g, g), la.symp_gram(tg, tg))
        failure = mmsp.mmsp_failure(g, f, fs)
        assert mmsp.mmsp_failure(tg, tf, fs) == failure
        verdicts.append(failure is None)
        fk = np.stack([f.a] + [ctx.random_cells(rng, f.rows, f.cols) for _ in range(3)])
        assert np.array_equal(mmsp.mmsp_verdicts(g, fk, fs), mmsp.mmsp_verdicts(tg, up(ctx, fk), fs))
        for s in [*fs.accept_iter(), *fs.reject_iter()]:
            for pred in (mmsp.accepts_one, mmsp.rejects_one, mmsp.cond_a2, mmsp.cond_b2):
                assert pred(g, f, s) == pred(tg, tf, s), (pred.__name__, sorted(s))
            dec, tdec = mmsp.SpanDecoder(g, f, s), mmsp.SpanDecoder(tg, tf, s)
            assert dec.ok == tdec.ok
            rows = la.subset_rows(s, g.rows)
            ms = ctx.random_cells(rng, 4, f.cols)
            shares = [(g @ la.VecGF(ctx, ctx.random_cells(rng, g.cols))
                       + f @ la.VecGF(ctx, m)).a[rows] for m in ms]
            zs = np.stack(shares + [ctx.random_cells(rng, len(rows))])
            msgs, ok = dec.decode_all(zs)
            tmsgs, tok_ = tdec.decode_all(up(ctx, zs))
            assert same(ctx, msgs, tmsgs) and np.array_equal(ok, tok_)
            if dec.ok:
                assert ok[:4].all() and np.array_equal(msgs[:4], ms)
    assert any(verdicts) and not all(verdicts)


def test_intended_differences(ctx):
    t = twin(ctx)
    for k in range(2 * ctx.p + 3):
        digits = tuple((k % ctx.q) // ctx.p**i % ctx.p for i in range(ctx.r))
        assert ctx.coeffs(ctx.from_int(k)) == digits                   # an element index
        assert t.from_int(k) == t.from_coeffs([k % ctx.p])            # k mod p
        if k < ctx.p:
            assert tok(ctx, ctx.from_int(k)) == t.from_int(k)
    assert list(ctx.elements()) == list(range(ctx.q))
    with pytest.raises(TowerTooShallow):
        t.elements()
    n = min(ctx.q, 3)
    g = la.MatGF(ctx, ctx.random_cells(np.random.default_rng(3), n, 1))
    f = la.MatGF(ctx, ctx.random_cells(np.random.default_rng(4), n, 1))
    fs = make_threshold(1, 0, n)
    if ctx.tables() is not None:
        css_audit(CssProtocol(g, f, fs))
    with pytest.raises(TooLarge):
        css_audit(CssProtocol(mat(ctx, g), mat(ctx, f), fs))
