"""Field tower arithmetic: construction, trace, levels, both backends."""

import hashlib
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsplab import fields
from mmsplab.errors import (
    DivisionByZero,
    NoTower,
    NotPrime,
    ReduciblePolynomial,
    TowerTooShallow,
)
from mmsplab.fields import field_build, is_irreducible, tower_build


def test_prime_field_basics():
    f3 = field_build(3, 1)
    assert f3.q == 3
    assert f3.add(2, 2) == 1
    assert f3.mul(2, 2) == 1
    assert f3.modulus == (0, 1)


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        field_build(4, 1)


def test_explicit_modulus_f9():
    # x^2 - x - 1 has no root in F_3 (0,1,2 map to -1,-1,1)
    f9 = field_build(3, 2, [2, 2, 1])
    x = f9.from_coeffs([0, 1])
    assert f9.coeffs(f9.mul(x, x)) == (1, 1)  # x^2 = x + 1


def test_reducible_modulus_rejected():
    with pytest.raises(ReduciblePolynomial):
        field_build(3, 2, [0, 0, 1])  # x^2


def test_trace_paper_value():
    f9 = field_build(3, 2, [2, 2, 1])
    x = f9.from_coeffs([0, 1])
    assert f9.trace(x) == 1           # a_{r-1} of x^2 = x + 1
    assert f9.trace(f9.zero) == 0
    assert f9.trace(f9.one) == 2      # r mod p


def test_inverses_exhaustive_f9():
    f9 = field_build(3, 2, [2, 2, 1])
    for a in f9.elements():
        if a != f9.zero:
            assert f9.mul(a, f9.inv(a)) == f9.one
    with pytest.raises(DivisionByZero):
        f9.inv(f9.zero)


@pytest.mark.parametrize("p,r", [(2, 3), (3, 2), (5, 2)])
def test_trace_properties_exhaustive(p, r):
    ctx = field_build(p, r)
    elems = list(ctx.elements())
    # F_p-linearity
    for a in range(p):
        for b in range(p):
            for z in elems[:9]:
                for w in elems[:9]:
                    lhs = ctx.trace(ctx.add(ctx.mul(ctx.from_int(a), z),
                                            ctx.mul(ctx.from_int(b), w)))
                    rhs = (a * ctx.trace(z) + b * ctx.trace(w)) % p
                    assert lhs == rhs
    # Frobenius invariance
    for z in elems:
        assert ctx.trace(ctx.frobenius(z)) == ctx.trace(z)
    # nondegeneracy
    for z in elems:
        if z == ctx.zero:
            continue
        assert any(ctx.trace(ctx.mul(z, w)) != 0 for w in elems)


def test_tower_build_small():
    t = tower_build(3, 1)
    e1 = t.level_gen(1)
    assert t.tower_level(e1) == 1
    assert t.pow_(e1, 9) == e1  # fixed by Frobenius^2


def test_tower_chain_f16():
    t = tower_build(2, 2)
    assert t.q == 16
    assert list(t.tower_levels) == [1, 2, 4]
    e1, e2 = t.level_gen(1), t.level_gen(2)
    assert t.tower_level(e1) == 1
    assert t.tower_level(e2) == 2


def test_tower_depth_zero_rejected():
    with pytest.raises(TowerTooShallow):
        tower_build(3, 0)


@pytest.mark.parametrize("build", [
    lambda: field_build(2**61 - 1, 1),       # trial division would run ~2^30 steps
    lambda: field_build(2**61 + 1, 1),       # composite: too large, not NotPrime
    lambda: field_build(2, 513),             # past the deepest tower's degree
    lambda: fields.field_from_json({"p": 3, "r": 100000}),
    lambda: tower_build(3, fields.DEPTH_CAP + 1),
    lambda: fields.field_from_json({"p": 2, "r": 1024,
                                    "tower": [2**j for j in range(11)]}),
], ids=["prime-p", "composite-p", "degree", "json-degree", "tower", "json-tower"])
def test_huge_fields_refused_before_slow_work(monkeypatch, build):
    """The size guard runs before the primality test and the modulus
    search, so a field past it is refused at once."""
    from mmsplab.errors import TooLarge

    def slow(*args):
        raise AssertionError("slow work ran before the size guard")

    monkeypatch.setattr(fields, "_is_prime", slow)
    monkeypatch.setattr(fields, "_find_irreducible", slow)
    with pytest.raises(TooLarge):
        build()


def test_degree_cap_is_the_deepest_tower():
    from mmsplab.errors import TooLarge

    fields._check_size(3, 1 << fields.DEPTH_CAP)
    with pytest.raises(TooLarge):
        fields._check_size(2, (1 << fields.DEPTH_CAP) + 1)


def test_tower_level_monotone_under_ops():
    t = tower_build(3, 2)
    e1, e2 = t.level_gen(1), t.level_gen(2)
    assert t.tower_level(t.add(e1, e2)) == 2
    for z in [e1, e2, t.mul(e1, e2)]:
        for w in [e1, e2]:
            lz, lw = t.tower_level(z), t.tower_level(w)
            assert t.tower_level(t.mul(z, w)) <= max(lz, lw)


def test_no_tower_error():
    f9 = field_build(3, 2)
    with pytest.raises(NoTower):
        f9.tower_level(f9.one)


def test_poly_backend_arith():
    t = tower_build(2, 5)  # GF(2^32): beyond the table limit
    assert t.kind == "poly"
    a = t.level_gen(4)
    assert t.tower_level(a) == 4
    assert t.mul(a, t.inv(a)) == t.one
    b = t.add(a, t.one)
    assert t.sub(b, t.one) == a


def test_pick_fresh_levels_and_variants():
    t = tower_build(3, 3)
    for j in (1, 2, 3):
        capacity = 3 ** (2 ** (j - 1))  # shifts come from the level below
        seen = set()
        for v in range(min(4, capacity)):
            e = t.pick_fresh(j, v)
            assert t.tower_level(e) == j
            seen.add(e)
        assert len(seen) == min(4, capacity)


def test_canonical_moduli_table_is_irreducible():
    from mmsplab._moduli import CANONICAL_MODULI

    for (p, d), poly in CANONICAL_MODULI.items():
        assert len(poly) == d + 1 and poly[-1] == 1
        assert is_irreducible(poly, p), (p, d)


@pytest.mark.parametrize("p,d", [(2, 2), (2, 4), (2, 8), (3, 2), (3, 4), (5, 2)])
def test_canonical_moduli_lex_minimal(p, d):
    from mmsplab._moduli import CANONICAL_MODULI

    want = CANONICAL_MODULI[(p, d)]
    for code in range(p**d):
        low = tuple((code // p**i) % p for i in range(d))
        f = low + (1,)
        if is_irreducible(f, p):
            assert f == want
            break


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_field_axioms_f9(ai, bi, ci):
    f9 = field_build(3, 2, [2, 2, 1])
    a, b, c = f9.from_int(ai), f9.from_int(bi), f9.from_int(ci)
    assert f9.add(a, b) == f9.add(b, a)
    assert f9.mul(a, f9.add(b, c)) == f9.add(f9.mul(a, b), f9.mul(a, c))
    assert f9.mul(a, f9.mul(b, c)) == f9.mul(f9.mul(a, b), c)


def test_json_round_trip():
    t = tower_build(3, 2)
    d = t.to_json()
    t2 = fields.field_from_json(d)
    assert t2 is t  # registry returns the identical context


# ---------------------------------------------------------------------------
# poly-field arithmetic against a dense reference
# ---------------------------------------------------------------------------

DENSE_F3_11 = [1, 1, 2, 1, 1, 2, 2, 1, 1, 2, 2, 1]  # irreducible, no zero term


def _ref_mulmod(a, b, mod, p):
    """Schoolbook product reduced by long division by the whole modulus."""
    a, b, mod = (np.asarray(v, dtype=np.int64) for v in (a, b, mod))
    d = len(mod) - 1
    full = np.zeros(2 * d - 1, dtype=np.int64)
    for i, ai in enumerate(a):
        full[i : i + d] = (full[i : i + d] + ai * b) % p
    for k in range(2 * d - 2, d - 1, -1):
        full[k - d : k + 1] = (full[k - d : k + 1] - full[k] * mod) % p
    return full[:d]


def _poly_fields():
    from mmsplab._moduli import CANONICAL_MODULI

    out = [(p, d, None) for (p, d) in sorted(CANONICAL_MODULI) if d >= 32]
    return out + [(3, 11, DENSE_F3_11), (257, 2, None), (65537, 1, None)]


@pytest.mark.parametrize("p,d,poly", _poly_fields())
def test_poly_arith_matches_dense_reference(p, d, poly):
    ctx = field_build(p, d, poly)
    assert ctx.kind == "poly"
    mod = ctx.modulus
    rng = np.random.default_rng(p * 1000 + d)
    a = ctx.random_cells(rng, 3)
    b = ctx.random_cells(rng, 3)
    a[0] = p - 1  # the largest coefficients every product can have
    b[0] = p - 1
    ref = np.stack([_ref_mulmod(x, y, mod, p) for x, y in zip(a, b)])
    assert np.array_equal(ctx.ax_mul(a, b), ref)
    assert np.array_equal(ctx.ax_mul(a, b[:1]), np.stack(
        [_ref_mulmod(x, b[0], mod, p) for x in a]))
    one = np.eye(1, d, dtype=np.int64)[0]
    for x, y, want in zip(a, b, ref):
        tx, ty = ctx.cell_to_token(x), ctx.cell_to_token(y)
        assert ctx.coeffs(ctx.mul(tx, ty)) == tuple(want.tolist())
        inv = ctx.token_to_cell(ctx.inv(tx))
        assert np.array_equal(_ref_mulmod(x, inv, mod, p), one)


def test_large_p_coefficients_round_trip():
    # tokens were uint8 bytes, so GF(257^2) read 256 back as 0
    f = field_build(257, 2)
    assert f.kind == "poly"
    a = f.from_coeffs([256, 3])
    assert f.coeffs(a) == (256, 3)
    assert f.coeffs(f.neg(a)) == (1, 254)
    assert f.coeffs(f.add(a, f.from_coeffs([2, 0]))) == (1, 3)
    assert f.mul(a, f.inv(a)) == f.one


def test_poly_field_past_exact_float_range_refused():
    from mmsplab.errors import TooLarge

    with pytest.raises(TooLarge):
        field_build(1000003, 2)


def test_canonical_moduli_tails_are_short():
    # x^d = tail folds a product down in two rounds when deg(tail) <= d/2
    from mmsplab._moduli import CANONICAL_MODULI

    for (p, d), poly in CANONICAL_MODULI.items():
        if d >= 32:
            tail_degree = max(k for k in range(d) if poly[k] % p)
            assert tail_degree <= d // 2, (p, d)


# ---------------------------------------------------------------------------
# modulus search at large p
# ---------------------------------------------------------------------------

@contextmanager
def _deadline(seconds):
    def expire(*_):
        raise TimeoutError(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _has_root(coeffs, p):
    xs = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        vals = (vals * xs + c) % p
    return bool((vals == 0).any())


def test_modulus_search_large_p_finishes():
    # the small-factor screen enumerated every monic polynomial of degree
    # <= 4 over F_p: about 1.7e7 Rabin tests for a degree-4 modulus at p = 257
    with _deadline(30):
        f = field_build(257, 3)
        towers = [tower_build(257, 2), tower_build(11, 3)]
    # a cubic is irreducible iff it has no root: f is the first such
    code = sum(c * 257**i for i, c in enumerate(f.modulus[:3]))
    assert not _has_root(f.modulus, 257)
    for k in range(code):
        low = [(k // 257**i) % 257 for i in range(3)]
        assert _has_root(low + [1], 257)
    for t in towers:
        for j in range(1, len(t.tower_levels)):
            assert t.tower_level(t.level_gen(j)) == j


# ---------------------------------------------------------------------------
# tower set-up against scalar Gauss-Jordan references
# ---------------------------------------------------------------------------

def _ref_rref(m, p):
    """RREF mod p by scalar Gauss-Jordan on Python ints; (rows, pivots)."""
    a = [[int(x) % p for x in row] for row in m]
    piv = []
    for c in range(len(a[0]) if a else 0):
        r = len(piv)
        sel = next((i for i in range(r, len(a)) if a[i][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        piv.append(c)
    return a, piv


def _ref_kernel(m, p):
    """Kernel basis of m mod p (columns): 1 on its own free coordinate, 0 on
    the other free coordinates."""
    rr, piv = _ref_rref(m, p)
    cols = len(m[0])
    free = [c for c in range(cols) if c not in piv]
    out = np.zeros((cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        out[f, k] = 1
        for i, c in enumerate(piv):
            out[c, k] = -rr[i][f] % p
    return out


def _frobenius_power_matrix(ctx, j):
    """Matrix of x -> x^(p^(2^j)) in the power basis, column by column."""
    cols = [ctx.coeffs(ctx.pow_(ctx.from_coeffs([0] * k + [1]), ctx.p ** (2**j)))
            for k in range(ctx.r)]
    return np.array(cols, dtype=np.int64).T


@pytest.mark.parametrize("p,depth", [(2, 3), (2, 5), (3, 3), (3, 4), (5, 2),
                                     (5, 3), (7, 2), (7, 3)])
def test_subfield_bases_match_kernel_reference(p, depth):
    t = tower_build(p, depth)
    assert t.kind == ("tabled" if t.q <= fields.TABLE_LIMIT else "poly")
    eye = np.eye(t.r, dtype=np.int64)
    want = {j: _ref_kernel((_frobenius_power_matrix(t, j) - eye) % p, p)
            for j in range(depth + 1)}
    for j in range(depth + 1):
        assert want[j].shape == (t.r, 2**j)
        assert np.array_equal(t._subfield_basis(j), want[j]), j
    for j in range(1, depth + 1):
        phi = _frobenius_power_matrix(t, j - 1)
        gen = next(col for col in want[j].T if not np.array_equal(phi @ col % p, col))
        if t.kind == "poly":  # tabled generators come from the log tables
            assert t.level_gen(j) == t.from_coeffs(gen)
        for v in (1, 2, 7, 4097):
            low = want[j - 1]
            digits = [(v % p ** low.shape[1]) // p**i % p for i in range(low.shape[1])]
            shift = t.from_coeffs(low @ np.array(digits) % p)
            assert t.pick_fresh(j, v) == t.add(t.level_gen(j), shift)


def _rank_deficient(rng, rows, cols, rank, p):
    a = rng.integers(0, p, size=(rows, rank)) @ rng.integers(0, p, size=(rank, cols))
    return a % p


@pytest.mark.parametrize("p", [2, 3, 65537])
def test_modp_rref_matches_scalar_reference(p):
    rng = np.random.default_rng(p)
    width = fields.RREF_PANEL
    cases = [
        _rank_deficient(rng, 40, 2 * width + 5, 17, p),    # rows < cols, ragged panel
        _rank_deficient(rng, 2 * width + 3, 70, 30, p),    # rows > cols
        rng.integers(0, p, size=(width + 1, width + 1)),   # full rank, one extra column
        np.zeros((5, 9), dtype=np.int64),
    ]
    zero_panel = _rank_deficient(rng, 30, 3 * width, 12, p)
    zero_panel[:, :width] = 0                               # no pivot in the first panel
    zero_panel[:, 2 * width : 2 * width + 20] = 0
    cases.append(zero_panel)
    late = _rank_deficient(rng, 20, 2 * width + 10, 6, p)
    late[10:, width:] = _rank_deficient(rng, 10, width + 10, 4, p)  # pivots past row 10 in panel 2
    cases.append(late)
    for a in cases:
        got, piv = fields._modp_rref(a, p)
        rr, want_piv = _ref_rref(a.tolist(), p)
        assert piv == want_piv
        assert np.array_equal(got.astype(np.int64), np.array(rr, dtype=np.int64).reshape(a.shape))


# ---------------------------------------------------------------------------
# fused multiply-subtract and batched inverses against the references
# ---------------------------------------------------------------------------

# (p, d, modulus, tower): every poly field above, a GF(3^512) tower, GF(257^3),
# GF(11^8), and tabled fields with 2-D tables and past TABLE2D_LIMIT (exp/log)
KERNEL_FIELDS = ([(p, d, poly, False) for p, d, poly in _poly_fields()]
                 + [(3, 9, None, True), (257, 3, None, False), (11, 8, None, False),
                    (3, 1, None, False), (2, 4, None, False), (3, 2, None, False),
                    (3, 7, None, False), (2, 10, None, False)])


def _kernel_field(p, d, poly, tower):
    return tower_build(p, d) if tower else field_build(p, d, poly)


def _cell(ctx, coeff):
    """The cell whose power-basis coefficients all equal coeff."""
    return ctx.token_to_cell(ctx.from_coeffs([coeff] * ctx.r))


@pytest.mark.parametrize("p,d,poly,tower", KERNEL_FIELDS)
def test_mulsub_and_batched_inverse_match_scalar_ops(p, d, poly, tower):
    ctx = _kernel_field(p, d, poly, tower)
    if ctx.kind == "tabled":
        assert (ctx.tables() is None) == (ctx.q > fields.TABLE2D_LIMIT)
    rng = np.random.default_rng(p * 1000 + d)
    a, b, c, dd = (ctx.random_cells(rng, 5) for _ in range(4))
    top, ones = _cell(ctx, p - 1), _cell(ctx, 1)
    a[0] = b[0] = c[0] = top
    dd[0] = ones  # -d is then all p - 1: both products reach their bound
    a[1] = b[1] = c[1] = dd[1] = top
    tok = lambda cells: [ctx.cell_to_token(x) for x in cells]
    want = [ctx.sub(ctx.mul(w, x), ctx.mul(y, z))
            for w, x, y, z in zip(tok(a), tok(b), tok(c), tok(dd))]
    assert tok(ctx.ax_mulsub(a, b, c, dd)) == want
    assert tok(ctx.ax_mulsub(a[:1, None], b, c, dd[None, :1])[0]) == [
        ctx.sub(ctx.mul(tok(a)[0], x), ctx.mul(y, tok(dd)[0]))
        for x, y in zip(tok(b), tok(c))]
    if ctx.kind == "poly":
        mod = ctx.modulus
        ref = [(_ref_mulmod(w, x, mod, p) - _ref_mulmod(y, z, mod, p)) % p
               for w, x, y, z in zip(a, b, c, dd)]
        assert np.array_equal(ctx.ax_mulsub(a, b, c, dd), np.stack(ref))
    nz = ctx.random_cells(rng, 2, 3)
    nz[~ctx.ax_nonzero(nz)] = ctx.token_to_cell(ctx.one)
    nz[0, 0] = top
    inv = ctx.ax_inv(nz)
    assert inv.shape == nz.shape
    assert tok(inv.reshape((-1,) + inv.shape[2:])) == [
        ctx.inv(x) for x in tok(nz.reshape((-1,) + nz.shape[2:]))]
    assert tok(ctx.ax_mul(nz, inv).reshape((-1,) + inv.shape[2:])) == [ctx.one] * 6
    if ctx.kind == "poly":
        one = np.eye(1, ctx.r, dtype=np.int64)[0]
        for x, y in zip(nz.reshape(-1, ctx.r), inv.reshape(-1, ctx.r)):
            assert np.array_equal(_ref_mulmod(x, y, ctx.modulus, p), one)
    nz[1, 2] = ctx.token_to_cell(ctx.zero)
    with pytest.raises(DivisionByZero):
        ctx.ax_inv(nz)
    with pytest.raises(DivisionByZero):
        ctx.inv(ctx.zero)


# the largest prime p whose GF(p^2) products stay within FFT_EXACT: the
# fused sum of two products reaches 2 r (p-1)^2 = 0.99993 * 2^41 there
NEAR_LIMIT_P, NEXT_PRIME = 741431, 741457


def test_mulsub_exact_at_admitted_limit():
    from mmsplab.errors import TooLarge

    assert 2 * (NEAR_LIMIT_P - 1) ** 2 <= fields.FFT_EXACT < 2 * (NEXT_PRIME - 1) ** 2
    with pytest.raises(TooLarge):
        fields._check_size(NEXT_PRIME, 2)
    p = NEAR_LIMIT_P
    ctx = field_build(p, 2)
    assert ctx.kind == "poly"
    top = np.full(2, p - 1, dtype=np.int64)
    rng = np.random.default_rng(7)
    cells = [np.stack([top, top, *ctx.random_cells(rng, 3)]) for _ in range(3)]
    d = np.stack([np.ones(2, dtype=np.int64), top, *ctx.random_cells(rng, 3)])
    mod = ctx.modulus
    want = np.stack([(_ref_mulmod(w, x, mod, p) - _ref_mulmod(y, z, mod, p)) % p
                     for w, x, y, z in zip(*cells, d)])
    assert np.array_equal(ctx.ax_mulsub(*cells, d), want)


# ---------------------------------------------------------------------------
# moduli read from JSON: proved once, refused every time when reducible
# ---------------------------------------------------------------------------

def test_registered_modulus_is_not_proved_again(monkeypatch):
    """Moduli that were proved (x^2 + 2x + 2) or found (the canonical one)
    load again with the irreducibility test failing."""
    f9 = field_build(3, 2, [2, 2, 1])
    canon = field_build(3, 2)

    def no_proof(coeffs, p):
        raise AssertionError("modulus proved again")

    monkeypatch.setattr(fields, "is_irreducible", no_proof)
    assert field_build(3, 2, [2, 2, 1]) is f9
    assert fields.field_from_json(f9.to_json()) is f9
    assert field_build(3, 2, list(canon.modulus)) is canon


def test_reducible_modulus_always_refused(monkeypatch):
    """(x + 1)^2 is refused before and after the canonical GF(9) is
    registered."""
    monkeypatch.setattr(fields, "_REGISTRY", {})
    for _ in range(2):
        with pytest.raises(ReduciblePolynomial):
            field_build(3, 2, [1, 2, 1])
        field_build(3, 2)
    assert list(fields._REGISTRY) == [(3, 2, field_build(3, 2).modulus, None)]


def test_non_canonical_modulus_proved_once(monkeypatch):
    """x^2 + x + 2 is irreducible and not the canonical modulus: three
    loads prove it once."""
    monkeypatch.setattr(fields, "_REGISTRY", {})
    calls = []
    real = fields.is_irreducible
    monkeypatch.setattr(fields, "is_irreducible", lambda f, p: calls.append(f) or real(f, p))
    assert (2, 1, 1) != field_build(3, 2).modulus
    loaded = [fields.field_from_json({"p": 3, "r": 2, "poly": [2, 1, 1]}) for _ in range(3)]
    assert loaded[0] is loaded[1] is loaded[2]
    assert calls == [(2, 1, 1)]


EXP_DIGEST = "3a10aa862d03351af5df06503eaa3371bf10edaff1ef07f55887db66389d9c8f"


def test_exponent_tables_pinned():
    """The discrete-exponent tables of eight tabled fields, from GF(2^9) up to
    the largest sizes the tables admit, are pinned byte for byte."""
    h = hashlib.sha256()
    for p, r in [(2, 9), (2, 10), (2, 16), (3, 8), (3, 10), (5, 6), (251, 2), (65521, 1)]:
        h.update(np.ascontiguousarray(field_build(p, r)._exp, dtype="<i8").tobytes())
    assert h.hexdigest() == EXP_DIGEST
