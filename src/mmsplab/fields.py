"""Exact arithmetic in GF(p^r), including quadratic extension towers.

Two classes hold the two element representations.  FieldCtx works for every
field: it encodes an element as the byte string of its coefficient vector
(uint8 while p < 256, wider above), multiplies exactly in float64 by an FFT,
and reduces the product by the sparse tail of the field polynomial: x^d =
sum c_k x^k folds each coefficient at or above x^d down with one shifted
multiply-add per nonzero c_k (two rounds for every canonical modulus).
Inverses follow Itoh-Tsujii: a Frobenius chain gives a^(-1) as a product of
conjugates over the norm.  It also owns all that does not depend on the
representation: the scalar API written over the ax_* cell operations,
trace, Frobenius, subfield bases, tower generators and JSON.  TabledField,
built for q <= 2^16, overrides the cell format and arithmetic with
discrete-log tables: an element is the integer index whose little-endian
base-p digits are its power-basis coefficients.  The rest of the package
treats elements as opaque tokens owned by their context.

Towers F_p[e_1, ..., e_K] are realized as the chain of subfields of degree
2^j inside one ambient field of degree 2^K; a subfield-membership test is a
Frobenius fixed-point check.  All construction choices (modulus, level
generators, fresh-element picks) are deterministic so serialized matrices
are reproducible bit for bit.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from . import _accel
from .errors import (
    DimensionMismatch,
    DivisionByZero,
    NoTower,
    NotPrime,
    OutOfRange,
    ReduciblePolynomial,
    TooLarge,
    TowerTooShallow,
    json_int,
)

TABLE_LIMIT = 1 << 16  # largest q handled by the index/table representation
TABLE2D_LIMIT = 512    # largest q that gets full 2-D add/mul tables
DEPTH_CAP = 9  # strict levels of the deepest tower: no field past degree 2^9


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (little-endian int64 coefficient rows)
# ---------------------------------------------------------------------------

def _ptrim(v: np.ndarray) -> np.ndarray:
    nz = np.nonzero(v)[0]
    return v[: nz[-1] + 1] if nz.size else v[:1]


EXACT = 2.0**53  # float64 holds every integer below this exactly
# largest product coefficient d (p-1)^2 for which a float64 FFT product still
# rounds to the exact integers, with a wide margin for its rounding error;
# the fused a b - c d of FieldCtx.ax_mulsub sums two such products, at most
# 2 d (p-1)^2 <= 2^41, which keeps a margin of 2^12 below 2^53
FFT_EXACT = 2**40


def _tail(mod: Sequence[int], p: int) -> tuple[tuple[int, int], ...]:
    """The nonzero terms (k, c) of x^d = sum c x^k mod the monic f of degree d."""
    mod = np.asarray(mod, dtype=np.int64)
    nz = np.nonzero(mod[:-1] % p)[0]
    return tuple(zip(nz.tolist(), ((-mod[nz]) % p).tolist()))


def _modp(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for integral float64 x with |x| < 2^53, as floats.

    x - p floor(x / p) is exact there, because a correctly rounded x / p
    never reaches the next integer, and is much faster than np.mod.
    """
    out = x / p
    np.floor(out, out=out)
    out *= -p
    out += x
    return out


def _reduce(full: np.ndarray, tail: tuple[tuple[int, int], ...], d: int, p: int,
            bound: float) -> np.ndarray:
    """Coefficient rows (..., L) modulo the monic f of degree d whose x^d
    equals `tail`, as int64 rows (..., min(L, d)) with entries in [0, p).

    `full` holds integral float64 values in [0, bound] and is overwritten.
    Each round folds the coefficients at x^(d+i) onto x^(i+k), one shifted
    multiply-add per tail term, which leaves n + e - d coefficients at or
    above x^d out of n for a tail of degree e; so a product of two reduced
    rows takes two rounds when e <= d/2.  Values are taken mod p once at
    the end, and between rounds only when the next one could reach 2^53.
    """
    e = tail[-1][0] if tail else 0
    growth = 1 + sum(c for _, c in tail)
    while full.shape[-1] > d:
        if bound * growth >= EXACT:
            full, bound = _modp(full, p), p - 1
        n = full.shape[-1] - d
        hi = full[..., d:].copy()
        full = full[..., : max(d, n + e)]
        full[..., d:] = 0
        scaled = {1: hi}  # c * hi, once per distinct tail coefficient
        for k, c in tail:
            if c not in scaled:
                scaled[c] = c * hi
            full[..., k : k + n] += scaled[c]
        bound *= growth
    return _modp(full, p).astype(np.int64)


def _pmulmod(a: np.ndarray, b: np.ndarray, mod: np.ndarray, p: int) -> np.ndarray:
    full = np.convolve(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    bound = min(len(a), len(b)) * (p - 1) ** 2
    return _ptrim(_reduce(full, _tail(mod, p), len(mod) - 1, p, bound))


def _ppowmod(a: np.ndarray, e: int, mod: np.ndarray, p: int) -> np.ndarray:
    result = np.array([1], dtype=np.int64)
    base = a % p
    while e:
        if e & 1:
            result = _pmulmod(result, base, mod, p)
        base = _pmulmod(base, base, mod, p)
        e >>= 1
    return result


def _pgcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    a, b = _ptrim(a % p), _ptrim(b % p)
    while np.any(b):
        # a mod b
        while len(a) >= len(b) and np.any(a):
            lead = a[-1] * pow(int(b[-1]), p - 2, p) % p
            a = a.copy()
            a[len(a) - len(b) :] = (a[len(a) - len(b) :] - lead * b) % p
            a = _ptrim(a)
            if len(a) == 1 and a[0] == 0:
                break
        a, b = b, a
    return a


def _psub(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.int64)
    out[: len(a)] += a
    out[: len(b)] -= b
    return _ptrim(out % p)


def _has_small_factor(f: np.ndarray, p: int, upto: int) -> bool:
    """Whether f has an irreducible factor of degree <= upto (<= 4).

    Every such degree divides upto - 1 or upto, so the factor divides
    x^(p^e) - x for one of those e, whose factors all have degree dividing
    e: one gcd with their product mod f decides it, after O(upto log p)
    products mod f.
    """
    x = np.array([0, 1], dtype=np.int64)
    xe, h = x, np.array([1], dtype=np.int64)
    for e in range(1, upto + 1):
        xe = _ppowmod(xe, p, f, p)  # x^(p^e) mod f
        if e >= upto - 1:
            h = _pmulmod(h, _psub(xe, x, p), f, p)
    return len(_pgcd(h, f, p)) > 1


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over F_p."""
    f = np.asarray(coeffs, dtype=np.int64) % p
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        return False
    if d == 1:
        return True
    x = np.array([0, 1], dtype=np.int64)
    if _has_small_factor(f, p, upto=min(4, d - 1)):
        return False
    for ell in _prime_factors(d):
        t = _ppowmod(x, p ** (d // ell), f, p)
        g = _pgcd(_psub(t, x, p), f, p)
        if len(g) > 1:
            return False
    xq = _ppowmod(x, p**d, f, p)
    return len(xq) == 2 and xq[0] == 0 and xq[1] == 1


@lru_cache(maxsize=None)
def _find_irreducible(p: int, d: int) -> tuple[int, ...]:
    """Monic irreducible of degree d over F_p, smallest by the little-endian
    base-p integer encoding of its non-leading coefficients."""
    if d == 1:
        return (0, 1)
    from ._moduli import CANONICAL_MODULI

    cached = CANONICAL_MODULI.get((p, d))
    if cached is not None:
        return cached
    for code in range(p**d):
        low = [(code // p**i) % p for i in range(d)]
        f = tuple(low) + (1,)
        if is_irreducible(f, p):
            return f
    raise ReduciblePolynomial(f"no irreducible polynomial of degree {d} over F_{p}")


RREF_PANEL = 64  # columns per blocked step of _modp_rref


def _gauss_jordan(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Scalar Gauss-Jordan of a float64 matrix with entries in [0, p), in
    place; returns the pivot columns and the row order it swapped into."""
    rows, cols = a.shape
    order = np.arange(rows)
    piv: list[int] = []
    for c in range(cols):
        r = len(piv)
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        sel = r + int(nz[0])
        if sel != r:
            a[[r, sel]] = a[[sel, r]]
            order[[r, sel]] = order[[sel, r]]
        # rows r.. are zero left of column c, so only columns c.. change
        a[r, c:] = _modp(a[r, c:] * pow(int(a[r, c]), p - 2, p), p)
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask, c:] = _modp(a[mask, c:] - col[mask, None] * a[r, c:][None, :], p)
        piv.append(c)
    return piv, order


def _modp_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF of an integer matrix mod a prime p, in exact float64 arithmetic;
    returns (matrix, pivot cols).

    Blocked after Dumas, Giorgi & Pernet (ACM TOMS 35(3), 2008): for each
    panel of RREF_PANEL columns, `_gauss_jordan` on the rows without a pivot
    yet finds the panel's k pivot columns and the rows that carry them; the
    inverse of that k x k pivot block M turns those rows into the new pivot
    rows T = M^-1 A_sel, and one BLAS product A -= A[:, piv] T clears the
    pivot columns from every other row, with one reduction mod p after it.
    RREF is unique, so this is the column-by-column result.  The products
    are exact: each sums k <= RREF_PANEL terms below p^2, and k <= r on
    the r-column matrices of a poly field, so at most r (p-1)^2 <= FFT_EXACT
    = 2^40 there (the guard in `_check_size`) and 64 (p-1)^2 < 2^38 on a
    tabled field (p < 2^16), both far below 2^53.
    """
    a = _modp(np.asarray(a, dtype=np.float64), p)
    piv: list[int] = []
    for c0 in range(0, a.shape[1], RREF_PANEL):
        r = len(piv)
        pc, order = _gauss_jordan(a[r:, c0 : c0 + RREF_PANEL].copy(), p)
        if not pc:
            continue
        k = len(pc)
        pc = [c0 + c for c in pc]
        a[r:] = a[r + order]  # the pivot-carrying rows first, in pivot order
        block = np.concatenate([a[r : r + k, pc], np.eye(k)], axis=1)
        _gauss_jordan(block, p)  # [M | I] -> [I | M^-1]
        top = _modp(block[:, k:] @ a[r : r + k, c0:], p)
        a[:, c0:] = _modp(a[:, c0:] - a[:, pc] @ top, p)
        a[r : r + k, c0:] = top  # the product zeroed these rows
        piv += pc
    return a, piv


# ---------------------------------------------------------------------------
# field contexts
# ---------------------------------------------------------------------------

class FieldCtx:
    """A concrete GF(p^r) with fixed modulus and optional tower structure.

    Build one with :func:`field_build` or :func:`tower_build`, which memoize
    so equal parameters give the identical context object (elements from
    distinct contexts never combine), a :class:`TabledField` when q <=
    TABLE_LIMIT.  Built directly, this class gives any field, small ones
    included, outside that registry.  Cells are coefficient rows.
    """

    kind = "poly"
    _tables: Optional[_accel.Tables] = None  # set by small TabledFields only

    def __init__(self, p: int, r: int, modulus: tuple[int, ...],
                 tower_levels: Optional[tuple[int, ...]]):
        self.p = p
        self.r = r
        self.q = p**r
        self.modulus = modulus
        self.tower_levels = tower_levels
        # the coefficient-row product, which TabledField's set-up runs too
        self._prod_bound = r * (p - 1) ** 2  # largest coefficient of a product
        self._tail = _tail(modulus, p)
        self._nfft = 1 << int(np.ceil(np.log2(max(2 * r - 1, 2))))
        self._init_cells()
        self._init_frobenius()
        self._trace_vec: Optional[np.ndarray] = None
        self._level_gens: dict[int, object] = {}
        self._sub_bases: dict[int, np.ndarray] = {}

    # -- construction helpers ------------------------------------------------

    def _init_cells(self):
        p, d = self.p, self.r
        # tokens are coefficient bytes; uint8 whenever it holds every residue
        self._tok = np.uint8 if p <= 1 << 8 else np.uint16 if p <= 1 << 16 else np.uint32
        self.zero = self.cell_to_token(np.zeros(d, dtype=np.int64))
        self.one = self.cell_to_token(np.eye(1, d, dtype=np.int64)[0])

    def _init_frobenius(self):
        p, r = self.p, self.r
        mod = np.asarray(self.modulus, dtype=np.int64)
        xp = _ppowmod(np.array([0, 1], dtype=np.int64), p, mod, p)
        frob = np.zeros((r, r), dtype=np.float64)
        cur = np.array([1], dtype=np.int64)
        for i in range(r):
            frob[: len(cur), i] = cur
            cur = _pmulmod(cur, xp, mod, p)
        self._frob = frob
        self._phis = [frob]
        if self.tower_levels:
            self._frobenius_powers(len(self.tower_levels))

    def _frobenius_powers(self, count: int) -> list[np.ndarray]:
        """phi_j = Frobenius^(2^j) as float64 matrices, for j < count.

        Squared with BLAS matmul, which is exact: every sum is at most
        r (p-1)^2 < 2^53.  Towers keep j = 0..K from set-up; other fields
        grow the list on first use.
        """
        while len(self._phis) < count:
            self._phis.append(_modp(self._phis[-1] @ self._phis[-1], self.p))
        return self._phis

    # -- scalar element API ----------------------------------------------------

    def from_coeffs(self, coeffs: Sequence[int]):
        if len(coeffs) > self.r:
            raise DimensionMismatch(
                f"{len(coeffs)} coefficients for an element of GF({self.p}^{self.r})")
        v = np.asarray(list(coeffs) + [0] * (self.r - len(coeffs)), dtype=np.int64) % self.p
        return self.cell_to_token(self.ax_from_coeffs(v))

    def coeffs(self, a) -> tuple[int, ...]:
        return tuple(self.ax_coeffs(self.token_to_cell(a)).tolist())

    def from_int(self, k: int):
        """The image of k mod p (an element index on a TabledField)."""
        return self.from_coeffs([k % self.p])

    def add(self, a, b):
        return self.cell_to_token(self.ax_add(self.token_to_cell(a), self.token_to_cell(b)))

    def neg(self, a):
        return self.cell_to_token(self.ax_neg(self.token_to_cell(a)))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self.cell_to_token(self.ax_mul(self.token_to_cell(a), self.token_to_cell(b)))

    def inv(self, a):
        return self.cell_to_token(self.ax_inv(self.token_to_cell(a)))

    def _poly_inv(self, a: np.ndarray) -> np.ndarray:
        """Itoh-Tsujii inverses of a stack (..., r) of nonzero cells:
        a^-1 = phi(S_(r-1)) N(a)^-1 with S_m = prod_(i<m) phi^i(a) and the
        norm N(a) = a phi(S_(r-1)) in F_p.

        S_(r-1) is built from u_j = S_(2^j), u_(j+1) = u_j phi^(2^j)(u_j),
        by S_(2^j+m) = u_j phi^(2^j)(S_m) over the set bits j of r-1, so the
        whole stack takes about 2 log2(r) ax_mul calls and Frobenius
        products v phi^T.
        """
        p, m = self.p, self.r - 1
        phis = self._frobenius_powers(m.bit_length())
        u, s = a, None
        for j in range(m.bit_length()):
            if m >> j & 1:
                s = u if s is None else self.ax_mul(u, _modp(s @ phis[j].T, p))
            if j + 1 < m.bit_length():
                u = self.ax_mul(u, _modp(u @ phis[j].T, p))
        rest = (np.eye(1, self.r, dtype=np.int64)[0] if s is None
                else _modp(s @ phis[0].T, p).astype(np.int64))
        norm = self.ax_mul(a, rest)[..., 0]
        inv = np.array([pow(int(v), -1, p) for v in norm.ravel()], dtype=np.int64)
        return rest * inv.reshape(norm.shape + (1,)) % p

    def pow_(self, a, e: int):
        if e < 0:
            return self.pow_(self.inv(a), -e)
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def elements(self) -> Iterator:
        raise TowerTooShallow("cannot enumerate a large field")

    # -- trace / Frobenius / tower ----------------------------------------------

    def trace(self, a) -> int:
        """Trace of the multiplication-by-a map, as an integer in [0, p)."""
        return int(self.ax_trace(self.token_to_cell(a)))

    def _trace_vector(self) -> np.ndarray:
        """tr(x^k) for k < r: the power sums of the modulus roots, by
        Newton's identities s_k = -(k f_(r-k) + sum_(0<j<k) f_(r-j) s_(k-j))."""
        if self._trace_vec is None:
            p, r = self.p, self.r
            f = np.asarray(self.modulus, dtype=np.int64)[::-1]  # f[j] = coeff of x^(r-j)
            s = np.zeros(r, dtype=np.int64)
            s[0] = r % p
            for k in range(1, r):
                s[k] = -(k * f[k] + f[1:k] @ s[k - 1 : 0 : -1]) % p
            self._trace_vec = s
        return self._trace_vec

    def frobenius(self, a):
        c = np.asarray(self.coeffs(a), dtype=np.int64)
        return self.from_coeffs((self._frob @ c) % self.p)

    def tower_level(self, a) -> int:
        """Smallest j with a fixed by Frobenius^(2^j); requires a tower."""
        if not self.tower_levels:
            raise NoTower("field has no tower structure")
        c = np.asarray(self.coeffs(a), dtype=np.int64)
        for j, phi in enumerate(self._phis):
            if np.array_equal(phi @ c % self.p, c):
                return j
        raise AssertionError("element not fixed by full Frobenius orbit")

    def _subfield_basis(self, j: int) -> np.ndarray:
        """F_p-basis (columns) of the level-j subfield, in the canonical form
        of a kernel basis of phi_j - I: each column is 1 on its own free
        coordinate and 0 on the other columns' free coordinates.

        Built top-down from level K, the whole field: x -> x + phi_j(x) is
        the relative trace from level j+1 onto level j, which is onto
        (Lidl & Niederreiter, Finite Fields, Thm 2.23), so it maps the
        level-(j+1) basis to a spanning set of level j.  A free coordinate
        is the last nonzero coordinate of some subfield element, so the
        canonical basis is the RREF of the spanning set, coordinates read
        in reverse: one elimination of rank d_j on d_(j+1) x r per level.
        """
        if j not in self._sub_bases:
            if j == len(self.tower_levels) - 1:
                b = np.eye(self.r, dtype=np.int64)
            else:
                up = self._subfield_basis(j + 1)
                span = _modp(up + self._phis[j] @ up, self.p)
                rr, piv = _modp_rref(span.T[:, ::-1], self.p)
                b = rr[len(piv) - 1 :: -1, ::-1].T.astype(np.int64)
            self._sub_bases[j] = b
        return self._sub_bases[j]

    def level_gen(self, j: int):
        """Canonical generator e_j of the level-j subfield (j >= 1)."""
        if not self.tower_levels:
            raise NoTower("field has no tower structure")
        if not 1 <= j < len(self.tower_levels):
            raise TowerTooShallow(f"tower has no level {j}")
        if j not in self._level_gens:
            self._level_gens[j] = self._new_level_gen(j)
        return self._level_gens[j]

    def _new_level_gen(self, j: int):
        """The first canonical basis vector of level j outside level j-1."""
        phi_prev = self._phis[j - 1]
        col = next(col for col in self._subfield_basis(j).T
                   if not np.array_equal(phi_prev @ col % self.p, col))
        return self.from_coeffs(col)

    def pick_fresh(self, j: int, variant: int = 0):
        """Deterministic element of tower level exactly j.

        variant 0 is the canonical generator e_j; higher variants add
        distinct elements of strictly lower level, which preserves the level.
        """
        e = self.level_gen(j)
        if variant == 0:
            return e
        basis = self._subfield_basis(j - 1)
        ncomb = self.p ** basis.shape[1]
        v = variant % ncomb
        digs = np.array([(v // self.p**i) % self.p for i in range(basis.shape[1])],
                        dtype=np.int64)
        shift = self.from_coeffs(basis @ digs % self.p)
        return self.add(e, shift)

    # -- vectorized cell ops (backing arrays used by linalg) --------------------
    #
    # A matrix cell is a length-r int64 coefficient row here and an int64
    # element index on a TabledField.  The ax_* ops broadcast.

    def ax_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.p

    def ax_neg(self, a: np.ndarray) -> np.ndarray:
        return (-np.asarray(a, dtype=np.int64)) % self.p

    def ax_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        fa = np.fft.rfft(np.asarray(a, dtype=np.float64), self._nfft, axis=-1)
        fb = np.fft.rfft(np.asarray(b, dtype=np.float64), self._nfft, axis=-1)
        full = np.rint(np.fft.irfft(fa * fb, self._nfft, axis=-1)[..., : 2 * self.r - 1])
        return _reduce(full, self._tail, self.r, self.p, self._prod_bound)

    def ax_mulsub(self, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                  d: np.ndarray) -> np.ndarray:
        """a b - c d cellwise, with broadcasting.  Both products are summed
        in the frequency domain, so one inverse FFT and one reduction serve
        them (see FFT_EXACT for its exactness)."""
        n = self._nfft
        fa, fb, fc, fd = (np.fft.rfft(np.asarray(x, dtype=np.float64), n, axis=-1)
                          for x in (a, b, c, self.ax_neg(d)))
        full = np.rint(np.fft.irfft(fa * fb + fc * fd, n, axis=-1)[..., : 2 * self.r - 1])
        return _reduce(full, self._tail, self.r, self.p, 2 * self._prod_bound)

    def ax_inv(self, a: np.ndarray) -> np.ndarray:
        """Inverse of every cell; raises DivisionByZero if any is zero."""
        if not self.ax_nonzero(a).all():
            raise DivisionByZero("inverse of zero")
        return self._poly_inv(np.asarray(a, dtype=np.int64))

    def ax_nonzero(self, a: np.ndarray) -> np.ndarray:
        """Boolean mask of nonzero cells (drops the coefficient axis if any)."""
        return np.asarray(a).any(axis=-1)

    def ax_trace(self, a: np.ndarray) -> np.ndarray:
        """Trace of every cell, as int64 values in [0, p)."""
        return self.ax_coeffs(a) @ self._trace_vector() % self.p

    def ax_coeffs(self, a: np.ndarray) -> np.ndarray:
        """The (..., r) int64 coefficients of cells; inverts ax_from_coeffs."""
        return np.asarray(a)

    def ax_from_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Cells of a (..., r) int64 array of coefficients in 0..p-1."""
        return coeffs

    def cell_to_token(self, cell):
        return np.asarray(cell, dtype=np.int64).astype(self._tok).tobytes()

    def token_to_cell(self, token):
        return np.frombuffer(token, dtype=self._tok).astype(np.int64)

    def cell_zeros(self, *shape) -> np.ndarray:
        return np.zeros(shape + (self.r,), dtype=np.int64)

    def random_cells(self, rng: np.random.Generator, *shape) -> np.ndarray:
        """Uniform cells of the given shape: coefficient rows over F_p here,
        element indices on a TabledField."""
        return rng.integers(0, self.p, size=shape + (self.r,)).astype(np.int64)

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        out = {"p": self.p, "r": self.r, "poly": list(self.modulus)}
        if self.tower_levels:
            out["tower"] = list(self.tower_levels)
        return out

    def tables(self) -> Optional[_accel.Tables]:
        return self._tables

    def __repr__(self):
        tower = f", tower={list(self.tower_levels)}" if self.tower_levels else ""
        return f"FieldCtx(GF({self.p}^{self.r}){tower})"


class TabledField(FieldCtx):
    """GF(p^r), q <= TABLE_LIMIT, on discrete-log tables (and full 2-D add and
    multiply tables when q <= TABLE2D_LIMIT): cells and tokens are the
    indices whose little-endian base-p digits are the coefficients."""

    kind = "tabled"

    def _init_cells(self):
        p, r, q = self.p, self.r, self.q
        self.zero, self.one = 0, 1
        self._powers = p ** np.arange(r, dtype=np.int64)
        self._digits_all = digits = (np.arange(q, dtype=np.int64)[:, None] // self._powers) % p
        # multiplicative generator: smallest index whose order is q-1
        factors = _prime_factors(q - 1) if q > 2 else []
        mod = np.asarray(self.modulus, dtype=np.int64)
        full_order = lambda c: all(
            not np.array_equal(_ppowmod(digits[c], (q - 1) // ell, mod, p), [1])
            for ell in factors)
        self.generator = gen = next((c for c in range(2, q) if full_order(c)), 1)  # q == 2: 1
        # g^0..g^(L-1) times g^L are g^L..g^(2L-1): the powers by doubling,
        # in about log2 q coefficient-row products
        rows, step = digits[1:2], digits[gen]
        while len(rows) < q - 1:
            rows = np.concatenate([rows, FieldCtx.ax_mul(self, rows, step)])
            step = FieldCtx.ax_mul(self, step, step)
        exp = rows[: q - 1] @ self._powers
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._exp, self._log = exp, log
        self._neg1d = self._encode((-digits) % p)
        self._inv1d = np.zeros(q, dtype=np.int64)
        self._inv1d[exp] = exp[-np.arange(q - 1) % (q - 1)]
        if q <= TABLE2D_LIMIT:
            add2 = self._encode((digits[:, None, :] + digits[None, :, :]) % p)
            mul2 = np.zeros((q, q), dtype=np.int64)
            la = log[1:]
            mul2[1:, 1:] = exp[(la[:, None] + la[None, :]) % (q - 1)]
            self._tables = _accel.Tables(add=add2, mul=mul2, q=q)

    def _encode(self, digits: np.ndarray) -> np.ndarray:
        return (digits % self.p) @ self._powers

    def from_int(self, k: int):
        """Element with index k."""
        return int(k) % self.q

    # scalar add/neg/mul on indices: the reference for the ax_* ops
    def add(self, a, b):
        return int(self._encode(self._digits_all[a] + self._digits_all[b]))

    def neg(self, a):
        return int(self._neg1d[a])

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(self._log[a] + self._log[b]) % (self.q - 1)])

    def elements(self) -> Iterator:
        return iter(range(self.q))

    def _new_level_gen(self, j: int):
        """g^m with m = (q-1)/(p^d_j - 1), a generator of the level-j
        subfield's multiplicative group."""
        m = (self.q - 1) // (self.p ** self.tower_levels[j] - 1)
        return int(self._exp[m % (self.q - 1)])

    def ax_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self._tables is not None:
            return self._tables.add[a, b]
        return self._encode(self._digits_all[a] + self._digits_all[b])

    def ax_neg(self, a: np.ndarray) -> np.ndarray:
        return self._neg1d[np.asarray(a, dtype=np.int64)]

    def ax_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self._tables is not None:
            return self._tables.mul[a, b]
        a, b = np.broadcast_arrays(a, b)
        out = np.zeros(a.shape, dtype=np.int64)
        mask = (a != 0) & (b != 0)
        if mask.any():
            out[mask] = self._exp[(self._log[a[mask]] + self._log[b[mask]]) % (self.q - 1)]
        return out

    def ax_mulsub(self, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                  d: np.ndarray) -> np.ndarray:
        if (t := self._tables) is not None:
            return t.add[t.mul[a, b], self._neg1d[t.mul[c, d]]]
        return self.ax_add(self.ax_mul(a, b), self.ax_neg(self.ax_mul(c, d)))

    def ax_inv(self, a: np.ndarray) -> np.ndarray:
        if not self.ax_nonzero(a).all():
            raise DivisionByZero("inverse of zero")
        return self._inv1d[np.asarray(a, dtype=np.int64)]

    def ax_nonzero(self, a: np.ndarray) -> np.ndarray:
        return np.asarray(a) != 0

    def ax_coeffs(self, a: np.ndarray) -> np.ndarray:
        return self._digits_all[a]

    def ax_from_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        return self._encode(coeffs)

    def cell_to_token(self, cell):
        return int(cell)

    def token_to_cell(self, token):
        return int(token)

    def cell_zeros(self, *shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def random_cells(self, rng: np.random.Generator, *shape) -> np.ndarray:
        return rng.integers(0, self.q, size=shape).astype(np.int64)


_REGISTRY: dict[tuple, FieldCtx] = {}


def _check_size(p: int, r: int) -> None:
    """Refuse, before the primality test and any modulus search, a degree
    past the deepest tower and a poly field whose products cannot be
    computed exactly in float64."""
    if r > 1 << DEPTH_CAP:
        raise TooLarge(f"GF({p}^{r}) has a degree above {1 << DEPTH_CAP}")
    if r * (p - 1) ** 2 > FFT_EXACT and p**r > TABLE_LIMIT:
        raise TooLarge(f"GF({p}^{r}) products exceed exact float64 arithmetic")


def field_build(p: int, r: int, poly: Optional[Sequence[int]] = None) -> FieldCtx:
    """GF(p^r) with the given monic modulus, or the canonical one if omitted."""
    _check_size(p, r)
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if r < 1:
        raise ReduciblePolynomial("extension degree must be >= 1")
    if poly is None:
        modulus = _find_irreducible(p, r)
    else:
        modulus = tuple(int(c) % p for c in poly)
        if len(modulus) != r + 1 or modulus[-1] != 1:
            raise ReduciblePolynomial("modulus must be monic of degree r")
    key = (p, r, modulus, None)
    if key not in _REGISTRY:
        # a modulus is registered only once proved here or found by
        # _find_irreducible, so a registered one is not proved again
        if poly is not None and r > 1 and not is_irreducible(modulus, p):
            raise ReduciblePolynomial(f"{list(modulus)} is reducible over F_{p}")
        cls = TabledField if p**r <= TABLE_LIMIT else FieldCtx
        _REGISTRY[key] = cls(p, r, modulus, None)
    return _REGISTRY[key]


def tower_build(p: int, depth: int) -> FieldCtx:
    """Ambient field of degree 2^depth over F_p with the full subfield chain."""
    if depth < 1:
        raise TowerTooShallow("tower depth must be >= 1")
    r = 1 << depth
    _check_size(p, r)
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    modulus = _find_irreducible(p, r)
    levels = tuple(1 << j for j in range(depth + 1))
    key = (p, r, modulus, levels)
    if key not in _REGISTRY:
        cls = TabledField if p**r <= TABLE_LIMIT else FieldCtx
        _REGISTRY[key] = cls(p, r, modulus, levels)
    return _REGISTRY[key]


def field_from_json(d: dict) -> FieldCtx:
    p, r = json_int(d["p"], "p"), json_int(d["r"], "r")
    poly = d.get("poly")
    if poly is not None:
        poly = [json_int(c, "modulus coefficient") for c in poly]
        if any(not 0 <= c < p for c in poly):
            raise OutOfRange(f"modulus coefficients must lie in 0..{p - 1}")
    tower = d.get("tower")
    if tower:
        tower = [json_int(t, "tower degree") for t in tower]
        ctx = tower_build(p, len(tower) - 1)
        if list(ctx.tower_levels) != tower:
            raise ReduciblePolynomial("tower degrees must be 1,2,4,...,2^K")
        if r != ctx.r:
            raise DimensionMismatch(f"r={r} but tower {tower} has degree {ctx.r}")
        if poly is not None and tuple(poly) != ctx.modulus:
            raise ReduciblePolynomial(f"a tower of degree {ctx.r} has the modulus "
                                      f"{list(ctx.modulus)}, not {list(poly)}")
        return ctx
    return field_build(p, r, poly)
