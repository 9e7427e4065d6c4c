"""Tower-staircase constructions: MDS matrices over extension towers, the
isotropic (A, B) pair with its C extension, and the theorem-level EA / CQ /
QQ bundle builders.

The staircase mechanism places entry (i, j) at tower level i+j-2 (the (1,1)
entry is 1), which makes every minor invertible: in any submatrix the
bottom-right entry lives strictly above the subfield generated by the rest.
Strict subfield chains double the ambient degree per level, so the demanded
depth is capped at DEPTH_CAP = 9 levels; virtual levels above the
cap compress onto the top level using distinct deterministic elements, and
every construction output is verified by brute force before it is returned
(a verification failure bumps the free choices and retries, then errors).

`build_amt` and `build_amx` prove every MDS fact the theorem-level builders
rest on, or raise: (G1, G2) and ((G1, G2), F) are A, a column prefix
(A, C^(s)) or (A, C), so a bundle records those facts by the names of the
`verify_amt`/`verify_amx` checks its pair and extension passed.

CQ is the EA build at y1 = n (a maximal G1) and a QQ-MDS code the QQ frame
at t' = n - r, so each pair of builders shares one body.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionFailedVerification,
    OutOfRange,
    TowerTooShallow,
)
from .fields import DEPTH_CAP, FieldCtx, tower_build
from .linalg import MatGF, hstack, is_col_orth, is_mds, is_self_col_orth
from .mmsp import MmspBundle, classify, is_qqmds, make_bundle

MAX_RETRIES = 16


class FreshPicker:
    """Deterministic source of elements at prescribed (virtual) tower levels.

    Levels at or below the context depth use the canonical generator e_j;
    deeper virtual levels compress onto the top level, each pick shifted by a
    distinct lower-level element so picks stay pairwise distinct.  The salt
    reshuffles compressed picks between verification retries.
    """

    def __init__(self, ctx: FieldCtx, salt: int = 0, stream: int = 0):
        if not ctx.tower_levels:
            raise TowerTooShallow("constructions need a tower context")
        self.ctx = ctx
        self.depth = len(ctx.tower_levels) - 1
        self.salt = salt
        self.stream = stream

    def fresh(self, level: int, i: int = 0, j: int = 0):
        """Element of (virtual) level `level` for staircase cell (i, j).

        The variant is a closed-form function of (i, j, stream, salt), so a
        pick depends only on its coordinates, never on build order or on the
        matrix width; 101 and 37 are coprime so distinct cells at the same
        compressed level always receive distinct elements.
        """
        if level == 0:
            return self.ctx.one
        if level <= self.depth and self.salt == 0:
            return self.ctx.level_gen(level)
        real = min(level, self.depth)
        variant = 1 + 101 * i + 37 * j + 2048 * self.stream + 4096 * self.salt
        return self.ctx.pick_fresh(real, variant)


@dataclass
class AmtPair:
    """The isotropic pair: A (2b x a) with A^T J A = 0 and its complement B."""

    a_mat: MatGF
    b_mat: MatGF
    a: int
    b: int

    @property
    def ctx(self):
        return self.a_mat.ctx


@dataclass
class AmxExtension:
    """The C extension of an AmtPair: (A,C), every prefix, and (B,C) are MDS."""

    c_mat: MatGF
    c: int


def required_depth(a: int, b: int, c: int = 0) -> int:
    """Tower levels the staircase patterns demand (PP8 indexing)."""
    base = max(2 * b - 2, 1)
    if c <= 0:
        return base
    return base + (2 * b - a) + c - 1


def construction_field(p: int, a: int, b: int, c: int = 0) -> FieldCtx:
    depth = min(required_depth(a, b, c), DEPTH_CAP)
    return tower_build(p, max(depth, 1))


# ---------------------------------------------------------------------------
# staircase MDS matrices
# ---------------------------------------------------------------------------

def _staircase(ctx: FieldCtx, nrows: int, ncols: int, picker: FreshPicker,
               offset: int = 0) -> list[list]:
    """alpha[i][j] fresh at level offset + i + j - 2, with alpha[1][1] = 1
    when offset is 0 (rows/cols 1-based in the formula)."""
    out = []
    for i in range(1, nrows + 1):
        row = []
        for j in range(1, ncols + 1):
            row.append(picker.fresh(offset + i + j - 2, i, j))
        out.append(row)
    return out


def mds_pp8(l: int, r_rows: int, ctx: FieldCtx) -> MatGF:
    """Identity block over a fresh-element staircase; verified (r_rows, l)-MDS."""
    if not l < r_rows:
        raise OutOfRange(f"need l < r_rows, got l={l}, r_rows={r_rows}")
    return _staircase_mds(l, l, r_rows, ctx)


def mds_l78(l: int, k: int, r_rows: int, ctx: FieldCtx) -> MatGF:
    """k > l columns: identity on the first l rows, staircase below."""
    if not (l < k < r_rows):
        raise OutOfRange(f"need l < k < r_rows, got {l}, {k}, {r_rows}")
    return _staircase_mds(l, k, r_rows, ctx)


def _first_verified(what: str, build, verify):
    """build(salt) for the first salt whose verify checks all pass."""
    for salt in range(MAX_RETRIES):
        out = build(salt)
        failed = [name for name, ok in verify(out) if not ok]
        if not failed:
            return out
    raise ConstructionFailedVerification(f"{what}: failed {failed}")


def _staircase_mds(l: int, k: int, r_rows: int, ctx: FieldCtx) -> MatGF:
    def build(salt):
        stairs = _staircase(ctx, r_rows - l, k, FreshPicker(ctx, salt))
        m = ctx.cell_zeros(r_rows, k)
        m[:min(l, k), :min(l, k)] = MatGF.identity(ctx, min(l, k)).a
        m[l:] = MatGF.from_elements(ctx, stairs).a
        return MatGF(ctx, m)
    return _first_verified("staircase matrix", build, lambda m: [("MDS", is_mds(m))])


# ---------------------------------------------------------------------------
# the (A, B) pair and its C extension
# ---------------------------------------------------------------------------

def _build_amt_once(a: int, b: int, ctx: FieldCtx, salt: int) -> AmtPair:
    picker = FreshPicker(ctx, salt)
    ba = b - a
    # global staircase alpha[i][j], i in 1..2b-a covering A1 (1..b-a),
    # A2 (b-a+1..2(b-a)), A3 (2(b-a)+1..2b-a), PP8-indexed levels i+j-2
    alpha = _staircase(ctx, 2 * b - a, a, picker)
    A1, A2, A3 = alpha[:ba], alpha[ba:2 * ba], alpha[2 * ba:]
    # solve the strict lower triangle of A3 from A^T J A = 0
    for j in range(a):
        for i in range(j):
            acc = A3[i][j]
            for k in range(ba):
                acc = ctx.add(acc, ctx.mul(A2[k][j], A1[k][i]))
                acc = ctx.sub(acc, ctx.mul(A2[k][i], A1[k][j]))
            A3[j][i] = acc
    cells = MatGF.from_elements(ctx, alpha).a
    a1, a2, a3 = cells[:ba], cells[ba:2 * ba], cells[2 * ba:]
    eye, zero = (lambda k: MatGF.identity(ctx, k).a), ctx.cell_zeros
    a_mat = MatGF(ctx, np.concatenate([a2, a3, a1, eye(a)], axis=0))
    # B = ((I,0,0); (-A1^T, A2^T, A3^T); (0,I,0); (0,0,I))
    t = lambda m: np.swapaxes(m, 0, 1)
    b_mat = MatGF(ctx, np.concatenate([
        np.concatenate(blocks, axis=1) for blocks in (
            (eye(ba), zero(ba, ba), zero(ba, a)),
            (t(ctx.ax_neg(a1)), t(a2), t(a3)),
            (zero(ba, ba), eye(ba), zero(ba, a)),
            (zero(a, ba), zero(a, ba), eye(a)))], axis=0))
    return AmtPair(a_mat=a_mat, b_mat=b_mat, a=a, b=b)


def verify_amt(pair: AmtPair) -> list[tuple[str, bool]]:
    """Isotropy and MDS facts for the pair, by direct computation."""
    checks = []
    checks.append(("A isotropic (A^T J A = 0)", is_self_col_orth(pair.a_mat)))
    checks.append(("B orthogonal to A (A^T J B = 0)",
                   is_col_orth(pair.b_mat, pair.a_mat)))
    a_ok = is_mds(pair.a_mat)
    checks.append((f"A is (2b,{pair.a})-MDS", a_ok))
    # B is A itself when a = b, where isotropy makes A3 symmetric
    checks.append((f"B is (2b,{2 * pair.b - pair.a})-MDS",
                   a_ok if pair.b_mat == pair.a_mat else is_mds(pair.b_mat)))
    return checks


_AMT_CACHE: dict = {}
_AMX_CACHE: dict = {}


def build_amt(a: int, b: int, ctx: FieldCtx) -> AmtPair:
    """The verified (A, B) pair over a tower; deterministic for fixed inputs."""
    if not 0 < a <= b:
        raise OutOfRange(f"need 0 < a <= b, got a={a}, b={b}")
    key = (id(ctx), a, b)
    if key not in _AMT_CACHE:
        _AMT_CACHE[key] = _first_verified(
            f"build_amt({a},{b})", lambda salt: _build_amt_once(a, b, ctx, salt), verify_amt)
    return _AMT_CACHE[key]


def _build_amx_once(pair: AmtPair, c: int, ctx: FieldCtx, salt: int) -> AmxExtension:
    a, b = pair.a, pair.b
    ba = b - a
    offset = max(2 * b - 2, 1)  # e' chain sits above every level A uses
    picker = FreshPicker(ctx, salt, stream=1)
    # gamma[i][j] for i in 1..2b-a covering C1 (1..b-a), C2 (..2(b-a)),
    # C3 (..2b-a); fresh at e'-level i+j-1, absolute offset+i+j-1.  Each
    # pick depends only on (i, j), so a width-c build is the column prefix
    # of any wider build, bit for bit.
    gamma = MatGF.from_elements(ctx, _staircase(ctx, 2 * b - a, c, picker,
                                                offset=offset + 1)).a
    # rows (C2; C3; C1; 0)
    c_mat = MatGF(ctx, np.concatenate([gamma[ba:], gamma[:ba],
                                       MatGF.zeros(ctx, a, c).a], axis=0))
    return AmxExtension(c_mat=c_mat, c=c)


def verify_amx(pair: AmtPair, ext: AmxExtension) -> list[tuple[str, bool]]:
    """Joint MDS facts for the extension: (A, C), every column prefix
    (A, C^(s)) and, for c <= a, (B, C)."""
    a, b, c = pair.a, pair.b, ext.c
    checks = []
    ac_mds = is_mds(hstack([pair.a_mat, ext.c_mat]))
    checks.append((f"(A,C) is (2b,{a + c})-MDS", ac_mds))
    for s in range(1, c):
        pref = MatGF(ext.c_mat.ctx, ext.c_mat.a[:, :s])
        checks.append((f"(A,C^({s})) is (2b,{a + s})-MDS",
                       is_mds(hstack([pair.a_mat, pref]))))
    if 2 * b - a + c <= 2 * b:
        # the (B,C) fact is well-formed only for c <= a (the QQ range)
        bc_mds = ac_mds if pair.b_mat == pair.a_mat else is_mds(
            hstack([pair.b_mat, ext.c_mat]))
        checks.append((f"(B,C) is (2b,{2 * b - a + c})-MDS", bc_mds))
    return checks


def build_amx(pair: AmtPair, c: int, ctx: FieldCtx) -> AmxExtension:
    """The verified C extension; deterministic for fixed inputs."""
    if c < 1:
        raise OutOfRange(f"need c >= 1, got {c}")
    if ctx is not pair.ctx:
        raise OutOfRange("extension must live in the pair's field")
    key = (id(ctx), pair.a, pair.b, c)
    if key not in _AMX_CACHE:
        _AMX_CACHE[key] = _first_verified(
            f"build_amx(c={c})", lambda salt: _build_amx_once(pair, c, ctx, salt),
            lambda ext: verify_amx(pair, ext))
    return _AMX_CACHE[key]


# ---------------------------------------------------------------------------
# theorem-level constructions
# ---------------------------------------------------------------------------

def eammsp_dims(r: int, t: int, n: int, y1: int) -> dict:
    return {"n": n, "y1": y1, "y2": 2 * t - y1, "x": 2 * (r - t)}


def cqmmsp_dims(r: int, t: int, n: int) -> dict:
    return {"n": n, "y1": n, "y2": max(2 * t - n, 0),
            "x": 2 * r - max(2 * t, n)}


def qqmmsp_dims(r: int, t: int, n: int) -> dict:
    tp = max(t, n - r)
    return {"n": n, "y1": n - r + tp, "y2": tp + r - n, "x": 2 * (r - tp),
            "t_prime": tp}


def _verdict(bundle: MmspBundle, r: int, t: int, n: int, proved: list[str]) -> MmspBundle:
    """Classify the bundle and record as verified the facts `proved` (checks
    its pair and extension builds passed) plus the classification."""
    rep = classify(bundle, r, t, n)
    bad = [name for name, ok, _ in rep.checks if not ok]
    if bad:
        raise ConstructionFailedVerification(f"failed: {bad}")
    bundle.params["verified"] = proved + [name for name, _, _ in rep.checks]
    return bundle


def _ea_from_amt(cls: str, r: int, t: int, n: int, dims: dict, p: int) -> MmspBundle:
    """G1 = A (y1 columns), G2 the first y2 columns of C (width 2r - y1) and
    F the next x; CQ is this build at y1 = n.  Fully verified."""
    y1, y2, x = dims["y1"], dims["y2"], dims["x"]
    c = 2 * r - y1
    ctx = construction_field(p, y1, n, c)
    pair = build_amt(y1, n, ctx)
    cm = build_amx(pair, c, ctx).c_mat.a
    bundle = make_bundle(cls, pair.a_mat, MatGF(ctx, cm[:, :y2]),
                         MatGF(ctx, cm[:, y2: y2 + x]), n=n, r=r, t=t)
    # (G1,G2) = (A, C^(y2)), A itself when y2 = 0, and ((G1,G2),F) = (A, C)
    return _verdict(bundle, r, t, n, [f"(G1,G2) is (2n,{y1 + y2})-MDS",
                                      f"((G1,G2),F) is (2n,{2 * r})-MDS"])


def construct_eammsp(r: int, t: int, n: int, y1: int, p: int = 3) -> MmspBundle:
    """EA bundle: G1 = A, G2 = first 2t-y1 columns of C, F the
    next 2(r-t) columns; fully verified."""
    if not (n >= r > t and 2 * t >= y1 > 0):
        raise OutOfRange(f"need n >= r > t >= y1/2 > 0, got {(r, t, n, y1)}")
    return _ea_from_amt("ea", r, t, n, eammsp_dims(r, t, n, y1), p)


def construct_cqmmsp(r: int, t: int, n: int, p: int = 3) -> MmspBundle:
    """CQ bundle (y1 = n): G2 gets [2t-n]_+ columns of C and F
    the next 2r - max(2t, n); fully verified."""
    if not (n >= r > t > 0 and 2 * r > n):
        raise OutOfRange(f"need n >= r > t > 0 and r > n/2, got {(r, t, n)}")
    return _ea_from_amt("cq", r, t, n, cqmmsp_dims(r, t, n), p)


def _qq_frame(n: int, a: int, c: int, p: int) -> tuple:
    """(A, C or None, the first 2(n - a) columns of B) over the construction
    field; for a = 0 (r = n, t' = 0) no stabilizer directions and B = I."""
    ctx = construction_field(p, a, n, c)
    if a == 0:
        return MatGF.zeros(ctx, 2 * n, 0), None, MatGF.identity(ctx, 2 * n)
    pair = build_amt(a, n, ctx)
    g2 = build_amx(pair, c, ctx).c_mat if c > 0 else None
    return pair.a_mat, g2, MatGF(ctx, pair.b_mat.a[:, : 2 * (n - a)])


def construct_qqmmsp(r: int, t: int, n: int, p: int = 3) -> MmspBundle:
    """QQ bundle with t' = max(t, n-r): G1 = A, G2 = C, F the
    first 2(r-t') columns of B; fully verified."""
    if not (n >= r > t > 0):
        raise OutOfRange(f"need n >= r > t > 0, got {(r, t, n)}")
    if 2 * r < n + 1:
        raise OutOfRange(f"(n+1)/2 bound violated: r={r}, n={n}")
    dims = qqmmsp_dims(r, t, n)
    g1, g2, f = _qq_frame(n, dims["y1"], dims["y2"], p)
    bundle = make_bundle("qq", g1, g2, f, n=n, r=r, t=t)
    # G1 = A is isotropic, F is a column prefix of B and (G1,G2) = (A, C)
    proved = ["G1 self-column-orthogonal", "F column-orthogonal to G1"]
    if g2 is not None:
        proved.append(f"(G1,G2) is (2n,{2 * dims['t_prime']})-MDS")
    return _verdict(bundle, r, t, n, proved)


def construct_qqmds(r: int, n: int, p: int = 3) -> tuple[MatGF, MatGF]:
    """The QQ frame at t' = n-r (no G2); returns a verified (G1, F)."""
    if not (n >= r and 2 * r > n):
        raise OutOfRange(f"need n >= r > n/2, got r={r}, n={n}")
    g1, _, f = _qq_frame(n, 2 * (n - r), 0, p)
    if not is_qqmds(g1, f):
        raise ConstructionFailedVerification("construct_qqmds failed is_qqmds")
    return g1, f
