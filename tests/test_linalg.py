"""GF(q) linear algebra: elimination, symplectic form, MDS, completion."""

import hashlib
import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsplab import _accel
from mmsplab import linalg as la
from mmsplab.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotSelfOrthogonal,
    OddLength,
    OutOfRange,
    RankDeficient,
    TooManyColumns,
)
from mmsplab.fields import FieldCtx, field_build, tower_build

F3 = field_build(3, 1)
F5 = field_build(5, 1)
F9 = field_build(3, 2, [2, 2, 1])

EX1_G1 = [[1, 0], [1, 0], [2, 2], [0, 1], [0, 1], [0, 2]]
EX1_F = [[2, 0], [1, 0], [1, 2], [1, 0], [0, 2], [1, 2]]


def g1_f():
    return (la.MatGF.from_ints(F3, EX1_G1), la.MatGF.from_ints(F3, EX1_F))


def test_bilinear_examples():
    x = la.VecGF.from_ints(F3, [1, 1, 2])
    assert la.bilinear(x, x) == 0              # tr(6) = 0
    z = la.VecGF.zeros(F3, 3)
    assert la.bilinear(z, x) == 0
    xe = la.VecGF.from_elements(F9, [F9.from_coeffs([0, 1])])
    assert la.bilinear(xe, xe) == F9.trace(F9.mul(F9.from_coeffs([0, 1]),
                                                  F9.from_coeffs([0, 1])))


def test_symp_canonical_pair():
    v = la.VecGF.from_ints(F3, [1, 0, 0, 0])
    w = la.VecGF.from_ints(F3, [0, 0, 1, 0])
    assert la.symp(v, w) == 1
    assert la.symp(w, v) == 2  # antisymmetry mod 3


def test_symp_antisymmetry_exhaustive():
    for vi in range(81):
        v = la.VecGF.from_ints(F3, [(vi // 3**k) % 3 for k in range(4)])
        assert la.symp(v, v) == 0


def test_symp_odd_length():
    v = la.VecGF.from_ints(F3, [1, 2, 0])
    with pytest.raises(OddLength):
        la.symp(v, v)


def test_restrict_paper_matrix():
    g1, f = g1_f()
    r = la.restrict(la.hstack([g1, f]), [1, 2, 4, 5])
    got = F3.ax_coeffs(r.a)[..., 0].tolist()
    assert got == [[1, 0, 2, 0], [1, 0, 1, 0], [0, 1, 1, 0], [0, 1, 0, 2]]
    assert la.rank(r) == 4


def test_restrict_edge_cases():
    g1, _ = g1_f()
    assert la.restrict(g1, range(1, 7)) == g1
    empty = la.restrict(g1, [])
    assert empty.rows == 0 and empty.cols == 2
    with pytest.raises(IndexOutOfRange):
        la.restrict(g1, [7])


def test_restrict_commutes_with_concat():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = la.MatGF(F3, rng.integers(0, 3, size=(6, 2)))
        f = la.MatGF(F3, rng.integers(0, 3, size=(6, 3)))
        sub = sorted(set(rng.integers(1, 7, size=3).tolist()))
        lhs = la.restrict(la.hstack([g, f]), sub)
        rhs = la.hstack([la.restrict(g, sub), la.restrict(f, sub)])
        assert lhs == rhs


def test_rank_solve_in_span_quotient():
    assert la.rank(la.MatGF.identity(F3, 4)) == 4
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = la.MatGF(F3, rng.integers(0, 3, size=(4, 2)))
        v = la.VecGF(F3, rng.integers(0, 3, size=4))
        qm = la.QuotientMap(m)
        assert (la.solve(m, v) is not None) == qm.coset_coords(v).is_zero()
        x = la.VecGF(F3, rng.integers(0, 3, size=2))
        b = m @ x
        s = la.solve(m, b)
        assert s is not None and (m @ s) == b


def test_solve_all_agrees_with_solve():
    """One quotient solves many right-hand sides as solve does each one:
    the same solution, free variables zero, and None outside the image."""
    rng = np.random.default_rng(5)
    for ctx in (F3, field_build(2, 3), tower_build(3, 4)):
        for _ in range(6):
            cells = ctx.random_cells(rng, 4, 3)
            cells[:, 2] = cells[:, 0]
            m = la.MatGF(ctx, cells)
            images = m @ la.MatGF(ctx, ctx.random_cells(rng, 3, 3))
            zs = np.concatenate([ctx.random_cells(rng, 3, 4),
                                 np.swapaxes(images.a, 0, 1)])
            xs, ok = la.QuotientMap(m).solve_all(zs)
            for x, good, z in zip(xs, ok, zs):
                want = la.solve(m, la.VecGF(ctx, z))
                assert good == (want is not None)
                assert not good or np.array_equal(x, want.a)
            assert ok[3:].all()


def test_quotient_trivial_cases():
    sq = la.MatGF.from_ints(F3, [[1, 0], [1, 1]])
    qm = la.QuotientMap(sq)
    v = la.VecGF.from_ints(F3, [2, 1])
    assert qm.coset_coords(v).is_zero()
    zero = la.MatGF.zeros(F3, 3, 2)
    qmz = la.QuotientMap(zero)
    w = la.VecGF.from_ints(F3, [1, 0, 2])
    assert len(qmz.coset_coords(w)) == 3
    assert not qmz.coset_coords(w).is_zero()


def test_solve_deterministic_lex_first():
    m = la.MatGF.from_ints(F3, [[1, 1, 0], [0, 0, 1]])
    b = la.VecGF.from_ints(F3, [2, 1])
    s = la.solve(m, b)
    # free variable (column 2 of the pivot order) set to zero
    assert [F3.coeffs(s[i])[0] for i in range(3)] == [2, 0, 1]


def test_orthogonality_predicates():
    g1, f = g1_f()
    assert la.is_self_col_orth(g1)
    assert la.is_col_orth(f, g1)
    pair = la.MatGF.from_ints(F3, [[1, 0], [0, 0], [0, 1], [0, 0]])
    assert not la.is_self_col_orth(pair)


def test_is_mds_vandermonde_and_counterexample():
    v = la.MatGF.from_ints(F5, [[1, a % 5] for a in range(5)])
    assert la.is_mds(v)
    bad = la.MatGF.from_ints(F5, [[1, 1], [1, 1], [2, 3]])
    assert not la.is_mds(bad)
    with pytest.raises(TooManyColumns):
        la.is_mds(la.MatGF.zeros(F5, 2, 3))


def test_is_mds_matches_min_weight_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = la.MatGF(F3, rng.integers(0, 3, size=(5, 2)))
        if la.rank(m) < 2:
            continue
        brute = la.is_mds(m)
        oracle = la.min_weight_nonzero(m) == m.rows - m.cols + 1
        assert brute == oracle


def test_is_mds_poly_backend_matches_prime_field():
    t = tower_build(3, 4)  # GF(3^16): poly backend
    assert t.kind == "poly"
    rng = np.random.default_rng(5)
    for _ in range(8):
        ints = rng.integers(0, 3, size=(5, 3))
        m = la.MatGF.from_ints(t, ints.tolist())
        small = la.MatGF.from_ints(F3, ints.tolist())
        assert la.is_mds(m) == la.is_mds(small)


def test_dual_and_completion_trivial():
    n = 3
    g1 = la.MatGF(F3, np.eye(2 * n, n, dtype=np.int64))
    gbar, h1 = la.dual_and_completion(g1)
    assert gbar.cols == 0 and h1.cols == n
    for j in range(n):
        for jp in range(n):
            assert la.symp(h1.col(j), g1.col(jp)) == (1 if j == jp else 0)
            assert la.symp(h1.col(j), h1.col(jp)) == 0


def test_dual_and_completion_example1():
    g1, _ = g1_f()
    gbar, h1 = la.dual_and_completion(g1)
    assert gbar.cols == 1 and h1.cols == 2
    assert la.is_self_col_orth(la.hstack([g1, gbar]))
    for j in range(2):
        for jp in range(2):
            assert la.symp(h1.col(j), g1.col(jp)) == (1 if j == jp else 0)
            assert la.symp(h1.col(j), h1.col(jp)) == 0
        assert la.symp(h1.col(j), gbar.col(0)) == 0


def test_dual_and_completion_extension_field():
    g1 = la.MatGF.from_elements(F9, [[F9.from_coeffs([0, 1])], [F9.zero], [F9.zero], [F9.zero]])
    gbar, h1 = la.dual_and_completion(g1)
    assert la.symp(h1.col(0), g1.col(0)) == 1
    assert la.is_self_col_orth(la.hstack([g1, gbar]))


def test_dual_and_completion_errors():
    g1, _ = g1_f()
    dep = la.MatGF(F3, np.concatenate([g1.a[:, :1], g1.a[:, :1]], axis=1))
    with pytest.raises(RankDeficient):
        la.dual_and_completion(dep)
    bad = la.MatGF.from_ints(F3, [[1, 0], [0, 0], [0, 1], [0, 0]])
    with pytest.raises(NotSelfOrthogonal):
        la.dual_and_completion(bad)


def test_matmul_and_json_round_trip():
    g1, f = g1_f()
    m = la.mat_from_json(la.mat_to_json(f))
    assert m == f
    t = tower_build(3, 2)
    big = la.MatGF.from_elements(t, [[t.level_gen(2), t.zero], [t.zero, t.one]])
    m2 = la.mat_from_json(la.mat_to_json(big))
    assert m2 == big


@given(st.integers(0, 3**6 - 1), st.integers(0, 3**6 - 1))
@settings(max_examples=40, deadline=None)
def test_symp_bilinearity_property(ai, bi):
    v = la.VecGF.from_ints(F3, [(ai // 3**k) % 3 for k in range(6)])
    w = la.VecGF.from_ints(F3, [(bi // 3**k) % 3 for k in range(6)])
    assert la.symp(v, w) == (-la.symp(w, v)) % 3


# ---------------------------------------------------------------------------
# lockstep MDS minors and Gram-product orthogonality against loop references
# ---------------------------------------------------------------------------

def _minor_rank(m, rows):
    # the normalised RREF, not the fraction-free forward pass is_mds runs
    return la.rref(la.restrict(m, [i + 1 for i in rows]))[2]


def _ref_is_mds(m):
    return all(_minor_rank(m, rows) == m.cols
               for rows in combinations(range(m.rows), m.cols))


def _is_mds_path(monkeypatch, m):
    """(is_mds(m), the path that ran): the systematic form is the one
    gf_rref call; eliminating every k-row minor makes none."""
    calls = []
    real = _accel.gf_rref
    monkeypatch.setattr(_accel, "gf_rref", lambda *a, **k: calls.append(1) or real(*a, **k))
    verdict = la.is_mds(m)
    monkeypatch.setattr(_accel, "gf_rref", real)
    return verdict, "systematic" if calls else "minors"


@pytest.mark.parametrize("block_minors", [1, 5, 7, 17, 34, 35, 1000])
def test_is_mds_lockstep_one_singular_minor(monkeypatch, block_minors):
    # Each stack holds block_minors 2 x 2 matrices.  9 x 2 eliminates its 36
    # k-row minors; 7 x 3 eliminates the 18 2 x 2 submatrices of Q in its
    # systematic form.  Either way the one singular matrix comes last, and
    # the blocks split the stack with it alone in the last block (1; 5, 7,
    # 35 for 9 x 2; 17 for 7 x 3) or after others there (17, 34 for 9 x 2;
    # 5, 7 for 7 x 3), or one block holds all of them.  The identity on top
    # puts zeros where minors must pick different pivot rows.
    t = tower_build(3, 4)
    rng = np.random.default_rng(11)
    monkeypatch.setattr(la, "MDS_BLOCK_CELLS", block_minors * 4 * t.r)
    for rows, k, singular, path in [(9, 2, (7, 8), "minors"), (7, 3, (0, 5, 6), "systematic")]:
        for _ in range(20):
            m = la.MatGF(t, np.concatenate([la.MatGF.identity(t, k).a,
                                            t.random_cells(rng, rows, k)[k:]]))
            if _ref_is_mds(m):
                break
        # the last rows agree on columns k-2, k-1: for 7 x 3 that is Q's last
        # 2 x 2 submatrix, Q rows {1, 2} and columns {2, 3}
        cells = m.a.copy()
        cells[-1, k - 2:] = cells[-2, k - 2:]
        m = la.MatGF(t, cells)
        assert [s for s in combinations(range(rows), k)
                if _minor_rank(m, s) < k] == [singular]
        assert _is_mds_path(monkeypatch, m) == (False, path)
        cells = m.a.copy()
        cells[-1] = t.ax_add(cells[-1], cells[k - 2])  # now every minor is invertible
        m = la.MatGF(t, cells)
        assert _is_mds_path(monkeypatch, m) == (_ref_is_mds(m), path) == (True, path)


def _ref_col_orth(f, g):
    return all(la.symp(f.col(i), g.col(j)) == 0
               for i in range(f.cols) for j in range(g.cols))


@pytest.mark.parametrize("ctx", [F3, F9, tower_build(3, 4)], ids=str)
def test_gram_orthogonality_matches_pairwise_symp(ctx):
    rng = np.random.default_rng(3)
    lam = ctx.random_cells(rng, 1)
    n = 3
    seen = set()
    for trial in range(12):
        x = la.MatGF(ctx, ctx.random_cells(rng, n, 3))
        y = la.MatGF(ctx, ctx.random_cells(rng, n, 2))
        # columns (x; lam x) pair to zero with each other and with (y; lam y)
        g = np.concatenate([x.a, ctx.ax_mul(lam, x.a)])
        f = la.MatGF(ctx, np.concatenate([y.a, ctx.ax_mul(lam, y.a)]))
        if trial % 3 == 1:  # break one entry
            g[n + 1, 2] = ctx.ax_add(g[n + 1, 2], ctx.random_cells(rng))
        g = la.MatGF(ctx, g)
        if trial % 3 == 2:
            f = la.MatGF(ctx, ctx.random_cells(rng, 2 * n, 2))
        assert la.is_self_col_orth(g) == _ref_col_orth(g, g)
        assert la.is_self_col_orth(f) == _ref_col_orth(f, f)
        assert la.is_col_orth(f, g) == _ref_col_orth(f, g)
        assert la.is_col_orth(g, f) == _ref_col_orth(g, f)
        seen |= {("self", la.is_self_col_orth(g)), ("cross", la.is_col_orth(f, g))}
    assert len(seen) == 4  # both verdicts of both predicates were checked


# ---------------------------------------------------------------------------
# inverse economy: one batched inverse per RREF, none in the MDS dual
# ---------------------------------------------------------------------------

def _count_poly_inv(monkeypatch):
    calls = []
    real = FieldCtx._poly_inv

    def counted(self, a):
        calls.append(a.shape)
        return real(self, a)

    monkeypatch.setattr(FieldCtx, "_poly_inv", counted)
    return calls


def test_rref_inverts_once(monkeypatch):
    t = tower_build(3, 9)
    rng = np.random.default_rng(12)
    cells = t.random_cells(rng, 5, 7)
    cells[:, 1] = 0
    cells[3] = t.ax_add(cells[0], cells[2])  # rank 4, pivots 0, 2, 3, 4
    m = la.MatGF(t, cells)
    calls = _count_poly_inv(monkeypatch)
    red, piv, rk = la.rref(m)
    assert calls == [(4, t.r)]
    assert (rk, piv) == (4, [0, 2, 3, 4])
    assert np.array_equal(red.a[:rk][:, piv], la.MatGF.identity(t, rk).a)
    assert not red.a[rk:].any()
    assert la.rank(la.MatGF(t, np.concatenate([red.a, m.a]))) == rk  # the same row space


def test_is_mds_dual_makes_no_inverse(monkeypatch):
    t = tower_build(3, 9)
    rng = np.random.default_rng(13)
    m = la.MatGF(t, t.random_cells(rng, 6, 5))  # no identity rows
    calls = _count_poly_inv(monkeypatch)
    assert la.is_mds(m) is True
    cells = m.a.copy()
    cells[5] = t.ax_add(cells[0], cells[1])
    assert la.is_mds(la.MatGF(t, cells)) is False
    assert calls == []


# (rows, k, the path is_mds takes): it eliminates the k-row minors for
# k <= 2, k = rows and small C(rows, k), where they update fewer cells
MDS_SHAPES = [(3, 2, "minors"), (4, 3, "minors"), (5, 1, "minors"), (6, 2, "minors"),
              (5, 5, "minors"), (5, 4, "minors"), (5, 3, "systematic"),
              (6, 3, "systematic"), (6, 4, "systematic"), (7, 5, "systematic"),
              (7, 6, "systematic"), (8, 4, "systematic")]


@pytest.mark.parametrize("ctx", [field_build(2, 1), field_build(3, 1), field_build(5, 1),
                                 field_build(2, 2), field_build(3, 2), tower_build(3, 4)],
                         ids=repr)
def test_is_mds_matches_minor_reference(ctx, monkeypatch):
    rng = np.random.default_rng(ctx.q)
    seen = set()
    for rows, k, path in MDS_SHAPES * 3:
        cells = ctx.random_cells(rng, rows, k)
        case = rng.integers(5)
        if case == 1:  # rank-deficient: one column repeats another
            cells[:, k - 1] = cells[:, 0]
        elif case == 2:  # full rank, with a singular minor through a zero row
            cells[rows - 1] = 0
        elif case == 3:  # an identity block on top, as constructions build
            cells[:k] = la.MatGF.identity(ctx, k).a
        elif case == 4 and k < rows:  # the top k rows dependent
            cells[k - 1] = 0 if k == 1 else cells[0]
        m = la.MatGF(ctx, cells)
        want = _ref_is_mds(m)
        assert _is_mds_path(monkeypatch, m) == (want, path), (rows, k, case)
        seen.add((case, want, path))
    assert {want for _, want, _ in seen} == {True, False}
    assert {case for case, _, _ in seen} == set(range(5))
    assert {path for _, want, path in seen if not want} == {"minors", "systematic"}


@pytest.mark.parametrize("ctx", [field_build(3, 2), tower_build(3, 4)],
                         ids=lambda c: f"GF({c.p}^{c.r})")
@pytest.mark.parametrize("case", ["q-2x2", "q-3x3", "q-zero-entry", "top-rows-dependent"])
def test_is_mds_systematic_form_cases(ctx, case, monkeypatch):
    """6 x 3 is [I; B] T for random B and invertible T, so Q is B^T with its
    rows scaled by D.  The only singular 3-row minor is edited into one
    square submatrix of Q: 2 x 2, 3 x 3 = min(k, n - k), or one zero entry;
    or row 2 is made row 0 + row 1, so the rank is 3 but the pivots of the
    Gauss-Jordan pass are not the first 3 columns."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        b = ctx.random_cells(rng, 3, 3)
        if case == "q-2x2":  # rows 3 and 4 agree on columns 0 and 1
            b[1, :2] = b[0, :2]
            singular = [(2, 3, 4)]
        elif case == "q-3x3":
            b[2] = ctx.ax_add(b[0], b[1])
            singular = [(3, 4, 5)]
        elif case == "q-zero-entry":
            b[1, 2] = 0
            singular = [(0, 1, 4)]
        m = la.MatGF(ctx, np.concatenate([la.MatGF.identity(ctx, 3).a, b]))
        m = m @ la.MatGF(ctx, ctx.random_cells(rng, 3, 3))
        if case == "top-rows-dependent":
            cells = m.a.copy()
            cells[2] = ctx.ax_add(cells[0], cells[1])
            m = la.MatGF(ctx, cells)
            if la.rank(m) == 3:
                break
        elif [s for s in combinations(range(6), 3) if _minor_rank(m, s) < 3] == singular:
            break
    else:
        pytest.fail("no draw met the case")
    assert _is_mds_path(monkeypatch, m) == (False, "systematic")


def _cells_one_by_one(ctx, d):
    """mat_from_json's matrix built cell by cell through from_coeffs."""
    cells = ctx.cell_zeros(d["rows"], d["cols"])
    for k, coeffs in enumerate(d["data"]):
        cells[divmod(k, d["cols"])] = ctx.token_to_cell(ctx.from_coeffs(coeffs))
    return la.MatGF(ctx, cells)


@pytest.mark.parametrize("ctx", [field_build(2, 1), F9, tower_build(3, 3), tower_build(3, 5),
                                 field_build(257, 3)], ids=repr)
def test_mat_json_round_trip_every_field_kind(ctx):
    """Round trips over tabled fields (GF(2), GF(9), the GF(3^8) tower) and
    poly fields (GF(3^32), GF(257^3)); short coefficient lists are padded
    with zeros, and a rows x 0 matrix loads with its shape."""
    rng = np.random.default_rng(7)
    m = la.MatGF(ctx, ctx.random_cells(rng, 4, 3))
    d = la.mat_to_json(m)
    back = la.mat_from_json(d)
    assert back == m and back.a.dtype == m.a.dtype == np.int64
    for width in range(ctx.r):
        short = dict(d, data=[coeffs[:width] for coeffs in d["data"]])
        assert la.mat_from_json(short) == _cells_one_by_one(ctx, short)
    mixed = dict(d, data=[coeffs[:k % (ctx.r + 1)] for k, coeffs in enumerate(d["data"])])
    assert la.mat_from_json(mixed) == _cells_one_by_one(ctx, mixed)
    empty = la.mat_from_json(dict(d, rows=4, cols=0, data=[]))
    assert empty.a.shape == la.MatGF.zeros(ctx, 4, 0).a.shape


def _two_long_elements(d):
    d["data"][1:3] = [[1, 0, 2], [1, 0, 2, 1]]


@pytest.mark.parametrize("edit,kind,msg", [
    (lambda d: d["data"].__setitem__(0, 1), TypeError, None),
    (lambda d: d["data"].pop(), DimensionMismatch, None),
    (lambda d: d["data"].__setitem__(0, [1, 0, 2]), DimensionMismatch,
     "3 coefficients for an element of GF(3^2)"),
    (_two_long_elements, DimensionMismatch, "3 coefficients for an element of GF(3^2)"),
    (lambda d: d["data"].__setitem__(1, [3]), OutOfRange, None),
], ids=["bare-int", "short-data", "long-element", "two-long-elements", "coeff-3"])
def test_mat_from_json_refusals(tmp_path, capsys, edit, kind, msg):
    """A bare-integer element, a wrong data length, an element with more
    than r coefficients and a coefficient outside 0..p-1 are refused by the
    loader, and exit 2 through the CLI. A long element is reported by the
    length of the first long cell in row-major order, the message the
    per-cell `from_coeffs` loop gave."""
    from mmsplab import cli, mmsp
    from mmsplab.access import make_threshold

    g, f = (la.MatGF.from_ints(F9, rows) for rows in ([[1], [2], [4], [5]], [[3], [1], [0], [7]]))
    bundle = mmsp.make_bundle("ea", la.MatGF.zeros(F9, 4, 0), g, f).to_json()
    edit(bundle["F"])
    with pytest.raises(kind) as err:
        la.mat_from_json(bundle["F"])
    b, s = tmp_path / "bundle.json", tmp_path / "structure.json"
    b.write_text(json.dumps(bundle))
    s.write_text(json.dumps(make_threshold(2, 1, 2).to_json()))
    assert cli.main(["verify", str(b), str(s)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error.startswith(kind.__name__ + ": ")
    if msg is not None:
        assert str(err.value) == msg and error == f"{kind.__name__}: {msg}"


COSET_DIGEST = "e798908b5e8709c44fced5ab7529f36f6565a7b4864562966043c9e8a59f47d0"


def test_coset_coords_pinned():
    """Coset coordinates, byte for byte, on seeded (m, v) over F_3, F_7,
    GF(8), GF(9) and GF(3^16), with m of every rank up to full."""
    rng = np.random.default_rng(41)
    out = []
    for ctx in (F3, field_build(7, 1), field_build(2, 3), field_build(3, 2),
                tower_build(3, 4)):
        for _ in range(12):
            rows, cols = int(rng.integers(1, 6)), int(rng.integers(0, 5))
            cells = ctx.random_cells(rng, rows, cols)
            if cols > 1:
                cells[:, -1] = cells[:, 0]  # a dependent column
            m = la.MatGF(ctx, cells)
            v = la.VecGF(ctx, ctx.random_cells(rng, rows))
            qm = la.QuotientMap(m)
            out.append([qm.subspace_rank, qm.coset_coords(v).tolist(),
                        qm.coset_coords(m.col(0) if cols else v).tolist()])
    blob = json.dumps(out).encode()
    assert hashlib.sha256(blob).hexdigest() == COSET_DIGEST


DUAL_DIGEST = "5bbcda67a18f22b61c8ffdaa919c17ce0013640182a12a9d6383de3ebcd5cb69"


def _isotropic(ctx, n, y1, rng):
    """A seeded full-rank self-column-orthogonal 2n x y1, each column drawn
    inside the symplectic complement of the ones before it (the null space
    of (J g1)^T, J g1 = [g1_z; -g1_x])."""
    g1 = la.MatGF.zeros(ctx, 2 * n, 0)
    while g1.cols < y1:
        if g1.cols:
            jg = np.concatenate([g1.a[n:], ctx.ax_neg(g1.a[:n])])
            perp = la.nullspace(la.MatGF(ctx, np.swapaxes(jg, 0, 1).copy()))
            v = perp @ la.VecGF(ctx, ctx.random_cells(rng, perp.cols))
        else:
            v = la.VecGF(ctx, ctx.random_cells(rng, 2 * n))
        g = la.MatGF(ctx, np.concatenate([g1.a, v.a[:, None]], axis=1))
        if la.rank(g) == g.cols:
            g1 = g
    return g1


def test_dual_and_completion_pinned():
    """(gbar, h1), byte for byte, for seeded isotropic g1 of every width
    0..n at n = 2, 3 over F_3, F_5, GF(8), GF(9), the GF(81) tower and the
    GF(3^16) tower."""
    rng = np.random.default_rng(19)
    out = []
    for ctx in (F3, F5, field_build(2, 3), F9, tower_build(3, 2), tower_build(3, 4)):
        for n in (2, 3):
            for y1 in range(n + 1):
                g1 = _isotropic(ctx, n, y1, rng)
                assert la.is_self_col_orth(g1)
                gbar, h1 = la.dual_and_completion(g1)
                out.append([gbar.tolist(), h1.tolist()])
    blob = json.dumps(out).encode()
    assert hashlib.sha256(blob).hexdigest() == DUAL_DIGEST


def _bundle_cells(bundle):
    return [bundle.g1, bundle.g2, bundle.f, bundle.g_stack()]


def _produced():
    """Every producer of VecGF and MatGF values, by name: each returns the
    values it built."""
    from mmsplab.constructions import construct_eammsp
    from mmsplab.fixtures import make_pools

    g1, f = g1_f()
    t = tower_build(3, 4)
    v = la.VecGF.from_ints(F3, [1, 2, 0, 1, 1, 2])
    tm = la.MatGF(t, t.random_cells(np.random.default_rng(2), 4, 2))
    return {
        "constructors": [la.MatGF(F3, np.ones((2, 2), dtype=np.int64)),
                         la.VecGF(F3, np.ones(2, dtype=np.int64)),
                         la.MatGF.zeros(F3, 2, 3), la.VecGF.zeros(t, 3),
                         la.MatGF.identity(t, 3), la.MatGF.from_ints(F5, [[1, 2]]),
                         la.VecGF.from_ints(F5, [1, 2]), g1, f, v, tm],
        "@": [g1.transpose() @ f, f @ la.VecGF.from_ints(F3, [1, 2]),
              tm.transpose() @ tm],
        "+": [g1 + f, -g1, g1 - f, v + v, tm + tm],
        "hstack": [la.hstack([g1, f]), la.hstack([tm, tm])],
        "restrict": [la.restrict(g1, [1, 3]), la.restrict(v, [2, 4]),
                     la.restrict(tm, [2])],
        "col": [g1.col(1), tm.col(0)],
        "transpose": [g1.transpose(), tm.transpose()],
        "rref": [la.rref(f)[0], la.rref(tm)[0]],
        "nullspace": [la.nullspace(g1.transpose()), la.nullspace(tm.transpose())],
        "solve": [la.solve(g1, g1 @ la.VecGF.from_ints(F3, [1, 1])),
                  la.solve(tm, tm @ la.VecGF.zeros(t, 2))],
        "QuotientMap.t": [la.QuotientMap(g1).t, la.QuotientMap(tm).t],
        "mat_from_json": [la.mat_from_json(la.mat_to_json(f)),
                          la.mat_from_json(la.mat_to_json(tm))],
        "construct_eammsp": _bundle_cells(construct_eammsp(2, 1, 2, 2)),
        "make_pools": [m for b, _ in make_pools("ea", 2, seed=102, n_values=(2,))[0]
                       for m in _bundle_cells(b)],
    }


@pytest.mark.parametrize("producer", list(_produced()))
def test_every_producer_returns_frozen_cells(producer):
    """No built matrix or vector can be written: every memo keyed on one
    reads the content it was built with."""
    values = _produced()[producer]
    assert values
    for m in values:
        assert isinstance(m, la.Cells) and not m.a.flags.writeable, (producer, m)
        with pytest.raises(ValueError):
            m.a[...] = 0


def test_wrapping_a_view_copies_only_what_can_still_be_written():
    """A view of a writable array is copied, so writes through its base
    leave the value and its hash as built; an array that owns its cells is
    frozen in place, and a view of a frozen value is kept uncopied."""
    base = F5.random_cells(np.random.default_rng(3), 4, 3)
    for value in (la.MatGF(F5, base[:, :2]), la.VecGF(F5, base[1])):
        built, key = value.a.copy(), hash(value)
        base[...] = F5.ax_add(base, np.ones_like(base))
        assert np.array_equal(value.a, built) and hash(value) == key
        assert value == type(value)(F5, built.copy())
    owned = F5.random_cells(np.random.default_rng(4), 3, 2)
    m = la.MatGF(F5, owned)
    assert m.a is owned and not owned.flags.writeable
    assert m.col(1).a.base is owned and la.restrict(m, [1, 2]) == la.MatGF(F5, owned[:2])
