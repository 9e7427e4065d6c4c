"""Vectors and matrices over GF(q): elimination, the symplectic form, row
restriction, orthogonality predicates, quotient maps, and MDS verification.

VecGF and MatGF are values: both wrap a frozen array of cells (Cells), so
every function here builds its cells first and wraps them after, and
equality and hashing read one content key, which lets memos key on the
matrix itself.

Row-index subsets are 1-based everywhere in the public API, matching the
convention used for player/server labels.  Vectors in F_q^{2n} split into an
X part (entries 1..n) and a Z part (entries n+1..2n).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from . import _accel
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotSelfOrthogonal,
    OddLength,
    OutOfRange,
    RankDeficient,
    TooLarge,
    TooManyColumns,
    json_int,
)
from .fields import FieldCtx, field_from_json

MDS_MAX_ROWS = 24
MDS_BLOCK_CELLS = 1 << 15


class Cells:
    """An immutable array of field cells: the one value type behind VecGF
    and MatGF.  The constructor freezes the array it is handed, copying it
    first only when it is a view of an array that can still be written, so
    a built value never changes; equality and hashing read one content key,
    computed on first use and kept."""

    __slots__ = ("ctx", "a", "_key")

    def __init__(self, ctx: FieldCtx, a: np.ndarray):
        # a base that is no array (a buffer) is as writable as its view
        if a.base is not None and getattr(a.base, "flags", a.flags).writeable:
            a = a.copy()
        a.setflags(write=False)
        self.ctx, self.a, self._key = ctx, a, None

    @classmethod
    def zeros(cls, ctx: FieldCtx, *shape: int):
        return cls(ctx, ctx.cell_zeros(*shape))

    @property
    def key(self) -> tuple:
        """(field, shape, cell bytes): what equality and hashing compare."""
        if self._key is None:
            self._key = (id(self.ctx), self.a.shape, self.a.tobytes())
        return self._key

    def __eq__(self, other):
        return type(other) is type(self) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __add__(self, other):
        _same_ctx(self, other)
        if self.a.shape != other.a.shape:
            raise DimensionMismatch("shapes differ")
        return type(self)(self.ctx, self.ctx.ax_add(self.a, other.a))

    def __neg__(self):
        return type(self)(self.ctx, self.ctx.ax_neg(self.a))

    def __sub__(self, other):
        return self + (-other)

    def tolist(self):
        return self.ctx.ax_coeffs(self.a).tolist()


class VecGF(Cells):
    """Column vector over a FieldCtx."""

    __slots__ = ()

    @classmethod
    def from_elements(cls, ctx: FieldCtx, elts: Sequence) -> "VecGF":
        cells = ctx.cell_zeros(len(elts))
        for i, e in enumerate(elts):
            cells[i] = ctx.token_to_cell(e)
        return cls(ctx, cells)

    @classmethod
    def from_ints(cls, ctx: FieldCtx, vals: Sequence[int]) -> "VecGF":
        return cls.from_elements(ctx, [ctx.from_int(v) for v in vals])

    def __len__(self):
        return self.a.shape[0]

    def __getitem__(self, i: int):
        return self.ctx.cell_to_token(self.a[i])

    def is_zero(self) -> bool:
        return not bool(self.ctx.ax_nonzero(self.a).any())

    def __repr__(self):
        return f"VecGF({self.tolist()})"


class MatGF(Cells):
    """Dense matrix over a FieldCtx (row-major)."""

    __slots__ = ()

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, ctx: FieldCtx, k: int) -> "MatGF":
        cells = ctx.cell_zeros(k, k)
        cells[range(k), range(k)] = ctx.token_to_cell(ctx.one)
        return cls(ctx, cells)

    @classmethod
    def from_elements(cls, ctx: FieldCtx, rows: Sequence[Sequence]) -> "MatGF":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        cells = ctx.cell_zeros(nr, nc)
        for i, row in enumerate(rows):
            if len(row) != nc:
                raise DimensionMismatch("ragged rows")
            for j, e in enumerate(row):
                cells[i, j] = ctx.token_to_cell(e)
        return cls(ctx, cells)

    @classmethod
    def from_ints(cls, ctx: FieldCtx, rows: Sequence[Sequence[int]]) -> "MatGF":
        return cls.from_elements(
            ctx, [[ctx.from_int(v) for v in row] for row in rows])

    # -- shape / access --------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def col(self, j: int) -> VecGF:
        return VecGF(self.ctx, self.a[:, j])

    def transpose(self) -> "MatGF":
        return MatGF(self.ctx, np.swapaxes(self.a, 0, 1).copy())

    def __repr__(self):
        return f"MatGF({self.rows}x{self.cols} over GF({self.ctx.p}^{self.ctx.r}))"

    # -- arithmetic -------------------------------------------------------------

    def __matmul__(self, other):
        _same_ctx(self, other)
        if isinstance(other, VecGF):
            if self.cols != len(other):
                raise DimensionMismatch("matmul shapes")
            if self.cols == 0:
                return VecGF.zeros(self.ctx, self.rows)
            prods = self.ctx.ax_mul(self.a, other.a[None, :])
            return VecGF(self.ctx, _fold_add(self.ctx, prods))
        if self.cols != other.rows:
            raise DimensionMismatch("matmul shapes")
        if self.cols == 0:
            return MatGF.zeros(self.ctx, self.rows, other.cols)
        # cells sit in trailing axes: (rows, k, 1) x (1, k, cols) products
        prods = self.ctx.ax_mul(self.a[:, :, None], other.a[None])
        return MatGF(self.ctx, _fold_add(self.ctx, prods))


def _same_ctx(x, y):
    if x.ctx is not y.ctx:
        raise DimensionMismatch("elements from distinct field contexts never combine")


def _fold_add(ctx: FieldCtx, arr: np.ndarray) -> np.ndarray:
    """Sum cells along axis 1 with field addition."""
    if arr.shape[1] == 0:
        return np.zeros(arr.shape[:1] + arr.shape[2:], dtype=np.int64)
    acc = arr[:, 0]
    for k in range(1, arr.shape[1]):
        acc = ctx.ax_add(acc, arr[:, k])
    return acc


def hstack(mats: Sequence[MatGF]) -> MatGF:
    mats = [m for m in mats if m.cols > 0] or [mats[0]]
    ctx = mats[0].ctx
    for m in mats:
        _same_ctx(mats[0], m)
        if m.rows != mats[0].rows:
            raise DimensionMismatch("row counts differ")
    return MatGF(ctx, np.concatenate([m.a for m in mats], axis=1))


def beside(g: MatGF, fk: np.ndarray) -> np.ndarray:
    """[G | F] for every F of a stack fk (K, rows, cols[, r]) of cells."""
    return np.concatenate([np.broadcast_to(g.a, (len(fk),) + g.a.shape), fk], axis=2)


def mat_from_cols(cols: Sequence[VecGF]) -> MatGF:
    ctx = cols[0].ctx
    stacked = np.stack([v.a for v in cols], axis=1)
    return MatGF(ctx, stacked)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def rref(m: MatGF):
    """Reduced row echelon form; returns (MatGF, pivot columns, rank)."""
    a = m.a.copy()
    rank, piv = _accel.gf_rref(m.ctx, a[None])
    return MatGF(m.ctx, a), np.flatnonzero(piv[0]).tolist(), int(rank[0])


def rank(m: MatGF) -> int:
    return int(_accel.gf_rank(m.ctx, m.a[None].copy())[0][0])


def solve(m: MatGF, b: VecGF) -> Optional[VecGF]:
    """Any solution x of m @ x = b, or None.

    Deterministic: free variables are set to zero under the elimination pivot
    order, so the result is the lexicographically-first solution.
    """
    _same_ctx(m, b)
    if m.rows != len(b):
        raise DimensionMismatch("solve shapes")
    aug = MatGF(m.ctx, np.concatenate([m.a, b.a[:, None]], axis=1))
    red, piv, rk = rref(aug)
    if m.cols in piv:
        return None
    x = m.ctx.cell_zeros(m.cols)
    x[piv] = red.a[:rk, m.cols]
    return VecGF(m.ctx, x)


def nullspace(m: MatGF) -> MatGF:
    """Matrix whose columns span the right nullspace of m: I on the free
    coordinates and minus the RREF on the pivot ones."""
    a = m.a[None].copy()
    _, (piv,) = _accel.gf_rref(m.ctx, a)
    free = np.flatnonzero(~piv)
    out = m.ctx.cell_zeros(m.cols, len(free))
    out[free, range(len(free))] = m.ctx.token_to_cell(m.ctx.one)
    out[piv] = m.ctx.ax_neg(a[0, : piv.sum()][:, free])
    return MatGF(m.ctx, out)


# ---------------------------------------------------------------------------
# bilinear and symplectic forms
# ---------------------------------------------------------------------------

def bilinear(x: VecGF, y: VecGF) -> int:
    """tr(sum_i x_i y_i), an element of F_p returned as an int."""
    _same_ctx(x, y)
    if len(x) != len(y):
        raise DimensionMismatch("bilinear lengths")
    ctx = x.ctx
    acc = ctx.zero
    for i in range(len(x)):
        acc = ctx.add(acc, ctx.mul(x[i], y[i]))
    return ctx.trace(acc)


def symp_q(v: VecGF, w: VecGF):
    """F_q-valued symplectic pairing sum_i (v_x w_z - w_x v_z)."""
    _same_ctx(v, w)
    if len(v) != len(w) or len(v) % 2:
        raise OddLength("symplectic vectors must share an even length")
    n = len(v) // 2
    ctx = v.ctx
    acc = ctx.zero
    for i in range(n):
        acc = ctx.add(acc, ctx.mul(v[i], w[n + i]))
        acc = ctx.sub(acc, ctx.mul(w[i], v[n + i]))
    return acc


def symp(v: VecGF, w: VecGF) -> int:
    """The F_p-valued symplectic inner product <x,y'> - <x',y>."""
    return v.ctx.trace(symp_q(v, w))


def subset_rows(subset: Iterable[int], n: int) -> list[int]:
    """0-based indices of a 1-based subset of 1..n, ascending."""
    rows = sorted(set(int(s) for s in subset))
    if rows and not (rows[0] >= 1 and rows[-1] <= n):
        raise IndexOutOfRange(f"subset {rows} outside 1..{n}")
    return [s - 1 for s in rows]


def restrict(m: Cells, subset: Iterable[int]) -> Cells:
    """The rows of a matrix, or the entries of a vector, indexed by a
    1-based subset, in ascending order."""
    return type(m)(m.ctx, m.a[subset_rows(subset, len(m.a))])


def symp_j(ctx: FieldCtx, g: np.ndarray) -> np.ndarray:
    """J G = [G_z; -G_x] for each matrix of a stack (K, 2n, cols[, r]) of
    cells, so that symp_q(f, g) = f^T (J g)."""
    n = g.shape[1] // 2
    return np.concatenate([g[:, n:], ctx.ax_neg(g[:, :n])], axis=1)


def symp_rows(g: MatGF) -> MatGF:
    """(J g)^T, whose row j maps w to symp_q(w, g_j): its null space is the
    symplectic complement of the columns of g."""
    return MatGF(g.ctx, symp_j(g.ctx, g.a[None])[0]).transpose()


def symp_gram_q(ctx: FieldCtx, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """F_q-valued symp_q(f_i, g_j) for every column pair of each pair of
    matrices in two stacks of cells (K, 2n, cols[, r]), which broadcast
    over K: one Gram product F^T (J G)."""
    return _fold_add(ctx, ctx.ax_mul(f[:, :, :, None], symp_j(ctx, g)[:, :, None]))


def symp_gram(f: MatGF, g: MatGF) -> np.ndarray:
    """symp(f_i, g_j) for every column pair."""
    return f.ctx.ax_trace(symp_gram_q(f.ctx, f.a[None], g.a[None])[0])


def is_self_col_orth(g: MatGF) -> bool:
    """All columns pairwise null under the symplectic product."""
    if g.rows % 2:
        raise OddLength("matrix must have 2n rows")
    return not symp_gram(g, g).any()


def is_col_orth(f: MatGF, g: MatGF) -> bool:
    """Every column of f symplectically orthogonal to every column of g."""
    _same_ctx(f, g)
    if f.rows != g.rows or f.rows % 2:
        raise OddLength("matrices must share an even row count")
    return not symp_gram(f, g).any()


# ---------------------------------------------------------------------------
# quotient maps
# ---------------------------------------------------------------------------

class QuotientMap:
    """The row transform T of one elimination of [m | I]: T m is the RREF of
    m and T is invertible, so the rows of T past m's rank vanish exactly on
    the column span of m.  Every solve against many right-hand sides, coset
    coordinates and span-program decoding included, is a product with T."""

    def __init__(self, m: MatGF):
        a = np.concatenate([m.a, MatGF.identity(m.ctx, m.rows).a], axis=1)[None]
        _, piv = _accel.gf_rref(m.ctx, a)
        self.ctx = m.ctx
        self.ambient, self.cols = m.rows, m.cols
        self.pivots = np.flatnonzero(piv[0, :m.cols])  # m's pivot columns
        self.subspace_rank = len(self.pivots)
        self.t = MatGF(m.ctx, a[0, :, m.cols:])

    def solve_all(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve m x = z for every row z of cells in zs through one product
        T Z: the rows of solutions x, free variables zero as in solve, and
        the mask of the rows z inside the column span of m."""
        rk = self.subspace_rank
        tz = (self.t @ MatGF(self.ctx, np.swapaxes(zs, 0, 1))).a
        xs = self.ctx.cell_zeros(len(zs), self.cols)
        xs[:, self.pivots] = np.swapaxes(tz[:rk], 0, 1)
        return xs, ~self.ctx.ax_nonzero(tz[rk:]).any(axis=0)

    def coset_coords(self, v: VecGF) -> VecGF:
        """Linear coordinates that vanish exactly on the subspace."""
        if len(v) != self.ambient:
            raise DimensionMismatch("vector length != ambient dimension")
        return VecGF(self.ctx, (self.t @ v).a[self.subspace_rank:])


# ---------------------------------------------------------------------------
# MDS verification (k-row minors, or square submatrices of a systematic form)
# ---------------------------------------------------------------------------

def is_mds(m: MatGF) -> bool:
    """True iff every cols-row submatrix of m is invertible."""
    k = m.cols
    if k > m.rows:
        raise TooManyColumns("MDS check needs cols <= rows")
    if m.rows > MDS_MAX_ROWS:
        raise TooLarge(f"MDS brute force capped at {MDS_MAX_ROWS} rows")
    if k == 0:
        return True
    # stacks of about MDS_BLOCK_CELLS coefficients
    return _accel.gf_is_mds(m.ctx, m.a, k, MDS_BLOCK_CELLS // int(np.prod(m.a.shape[2:])))


def min_weight_nonzero(m: MatGF) -> int:
    """Minimum Hamming weight over the nonzero column-span of m.

    Brute-force codeword enumeration; guarded to q^cols <= 10^4.  Used as the
    independent oracle for the MDS predicate.
    """
    ctx = m.ctx
    q, k = ctx.q, m.cols
    if q**k > 10**4:
        raise TooLarge("codeword enumeration capped at q^k <= 10^4")
    best = None
    elts = list(ctx.elements())
    from itertools import product

    for combo in product(elts, repeat=k):
        if all(c == ctx.zero for c in combo):
            continue
        v = m @ VecGF.from_elements(ctx, list(combo))
        w = int(ctx.ax_nonzero(v.a).sum())
        best = w if best is None else min(best, w)
    return best if best is not None else 0


# ---------------------------------------------------------------------------
# symplectic completion
# ---------------------------------------------------------------------------

def dual_and_completion(g1: MatGF) -> tuple[MatGF, MatGF]:
    """Extend a self-column-orthogonal g1 to a Lagrangian basis and build the
    dual block.

    Returns (gbar, h1) with columns of (g1|gbar) mutually symplectically
    orthogonal, symp(h^j, g^{j'}) = delta_{j,j'} in F_p, and
    symp(h^j, h^{j'}) = 0.  Under this pairing W(H1 ybar) ladders the
    g-eigenvalue labels upward.  The completion is fixed by greedy pivoting
    in index order, so outputs are deterministic.
    """
    ctx = g1.ctx
    n2 = g1.rows
    if n2 % 2:
        raise OddLength("expected 2n rows")
    n = n2 // 2
    y1 = g1.cols
    if y1 > 0 and rank(g1) != y1:
        raise RankDeficient("columns of G1 are linearly dependent")
    for i in range(y1):
        for j in range(i, y1):
            if not _is_zero(ctx, symp_q(g1.col(i), g1.col(j))):
                raise NotSelfOrthogonal("G1 is not self-column-orthogonal")
    basis = [g1.col(j) for j in range(y1)]
    # extend to a Lagrangian (maximal isotropic) basis
    while len(basis) < n:
        cur = mat_from_cols(basis) if basis else MatGF.zeros(ctx, n2, 0)
        perp = nullspace(symp_rows(cur))
        # the first perp column outside span(cur) is the first pivot past cur
        new = [c - cur.cols for c in rref(hstack([cur, perp]))[1] if c >= cur.cols]
        if not new:
            raise NotSelfOrthogonal("could not extend isotropic subspace")
        basis.append(perp.col(new[0]))
    # dual vectors: sigma_q(w_j, u_i) = delta_{ij} for the Lagrangian basis u
    # (so the F_p-valued pairing satisfies symp(h^j, g^{j'}) = delta)
    sys_rows = symp_rows(mat_from_cols(basis))
    duals = []
    for j in range(y1):
        b = ctx.cell_zeros(n)
        b[j] = ctx.token_to_cell(ctx.one)
        w = solve(sys_rows, VecGF(ctx, b))
        assert w is not None, "symplectic form is nondegenerate"
        duals.append(w)
    # pairwise isotropy correction: w_j += c_{jk} u_k keeps sigma(w_j, u_i)
    for j in range(y1):
        for k in range(j):
            s = symp_q(duals[j], duals[k])  # want 0
            if not _is_zero(ctx, s):
                # sigma(w_j + c*u_k, w_k) = s + c*sigma(u_k, w_k) = s - c
                duals[j] = duals[j] + _scale(basis[k], s)
    # trace-normalize: sigma_q(g_j, h_j) = 1 gives symp = tr(1) = r mod p;
    # rescale so the F_p-valued pairing is exactly 1
    alpha = _unit_trace_element(ctx)
    h_cols = [_scale(w, alpha) for w in duals]
    gbar = mat_from_cols(basis[y1:]) if n > y1 else MatGF.zeros(ctx, n2, 0)
    h1 = mat_from_cols(h_cols) if h_cols else MatGF.zeros(ctx, n2, 0)
    return gbar, h1


def _is_zero(ctx: FieldCtx, e) -> bool:
    return e == ctx.zero


def _scale(v: VecGF, c) -> VecGF:
    return VecGF(v.ctx, v.ctx.ax_mul(v.a, np.asarray(v.ctx.token_to_cell(c))[None]))


def _unit_trace_element(ctx: FieldCtx):
    """Deterministic element with trace exactly 1."""
    for i in range(ctx.r):
        coeffs = [0] * ctx.r
        coeffs[i] = 1
        t = ctx.trace(ctx.from_coeffs(coeffs))
        if t != 0:
            coeffs[i] = pow(t, -1, ctx.p)
            return ctx.from_coeffs(coeffs)
    raise NotSelfOrthogonal("degenerate trace form")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def mat_to_json(m: MatGF) -> dict:
    return {
        "field": m.ctx.to_json(),
        "rows": m.rows,
        "cols": m.cols,
        "data": m.ctx.ax_coeffs(m.a).reshape(-1, m.ctx.r).tolist(),
    }


def mat_from_json(d: dict) -> MatGF:
    ctx = field_from_json(d["field"])
    rows, cols = json_int(d["rows"], "rows"), json_int(d["cols"], "cols")
    data = d["data"]
    if len(data) != rows * cols:
        raise DimensionMismatch("data length != rows*cols")
    flat = [json_int(c, "coefficient") for coeffs in data for c in coeffs]
    if any(not 0 <= c < ctx.p for c in flat):
        raise OutOfRange(f"coefficients must lie in 0..{ctx.p - 1}")
    out = ctx.cell_zeros(rows, cols)
    cells = [data[k] for k in range(rows * cols)]  # by index: a dict `data` is refused
    lens = np.array([len(coeffs) for coeffs in cells], dtype=np.int64)
    over = lens[lens > ctx.r]
    if over.size:  # the first long cell in row-major order, as from_coeffs would meet it
        raise DimensionMismatch(
            f"{over[0]} coefficients for an element of GF({ctx.p}^{ctx.r})")
    # one coefficient row per cell, short lists padded with zeros
    coeffs = np.zeros((len(cells), ctx.r), dtype=np.int64)
    coeffs[np.arange(ctx.r) < lens[:, None]] = flat
    out[...] = ctx.ax_from_coeffs(coeffs).reshape(out.shape)
    return MatGF(ctx, out)
