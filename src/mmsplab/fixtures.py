"""Embedded worked examples and deterministic fixture pools.

The three F_3 examples are stored as literal matrices.  Example 2 as
printed in its source is rank-deficient (the second message column is a
combination of the others, contradicting the example's own acceptance
claim); the stored matrix carries the minimal single-entry correction in
row 5, the only row its displayed restrictions leave free, which restores
every stated property.

Fixture pools for the security-equivalence sweeps are generated by seeded
search: positives are small bundles whose classification verdict is true,
negatives are mutations of positives (a re-randomized message matrix
respecting the class orthogonality invariants) whose verdict is false.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional

import numpy as np

from . import _accel
from .access import AccessStructure, make_explicit, make_threshold, symplectify_structure
from .fields import field_build
from .linalg import MatGF, VecGF, beside, hstack, nullspace, rank, symp_gram_q, symp_rows
from .mmsp import MmspBundle, is_mmsp, make_bundle, mmsp_verdicts, set_block


@dataclass
class Example:
    name: str
    bundle: MmspBundle
    access: AccessStructure
    rate: Optional[Fraction] = None

    @property
    def g1(self) -> MatGF:
        return self.bundle.g1

    @property
    def f(self) -> MatGF:
        return self.bundle.f


def example1() -> Example:
    """(G1, F) over F_3 usable for every randomless protocol flavor."""
    ctx = field_build(3, 1)
    g1 = MatGF.from_ints(ctx, [[1, 0], [1, 0], [2, 2], [0, 1], [0, 1], [0, 2]])
    f = MatGF.from_ints(ctx, [[2, 0], [1, 0], [1, 2], [1, 0], [0, 2], [1, 2]])
    fs = make_explicit(3, [[1, 2], [2, 3], [1, 2, 3]], [[], [1], [2], [3]])
    return Example("example1", make_bundle("ea", g1, None, f, n=3), fs)


def example2() -> Example:
    """CQ example: y1 = n = 3; carries the documented row-5 correction."""
    ctx = field_build(3, 1)
    g1 = MatGF.from_ints(ctx, [[1, 0, 0], [1, 0, 0], [2, 2, 2],
                               [0, 1, 0], [0, 1, 2], [0, 2, 2]])
    f = MatGF.from_ints(ctx, [[2, 0], [1, 1], [1, 2],
                              [0, 0], [1, 2], [0, 2]])
    fs = make_explicit(3, [[1, 2, 3]], [[], [1], [2], [3], [1, 3]])
    return Example("example2", make_bundle("cq", g1, None, f, n=3), fs)


def example3(p: int = 3) -> Example:
    """The 2p x 2 pair over F_p accepting all pairs, rejecting singletons.

    The quoted rate 2 is the message-symbol count per share symbol: two
    message symbols ride on shares of one symbol each (log M / log q), the
    reading under which the source's claim holds.
    """
    ctx = field_build(p, 1)
    g = MatGF.from_ints(ctx, [[1, 0]] * p + [[0, 1]] * p)
    f = MatGF.from_ints(ctx, [[j, 0] for j in range(p)]
                        + [[0, j] for j in range(p)])
    fs = make_threshold(2, 1, p)
    return Example(f"example3(p={p})", make_bundle("ea", g, None, f, n=p), fs,
                   rate=Fraction(2))


def all_examples() -> list[Example]:
    return [example1(), example2(), example3(3)]


# ---------------------------------------------------------------------------
# seeded fixture pools
# ---------------------------------------------------------------------------

def _rand_isotropic(ctx, n: int, y1: int, rng) -> Optional[MatGF]:
    """Random self-column-orthogonal 2n x y1 of full rank, by greedy draws
    inside the running symplectic complement."""
    kept = MatGF.zeros(ctx, 2 * n, 0)
    for _ in range(200):
        cand = VecGF(ctx, rng.integers(0, ctx.q, size=2 * n).astype(np.int64))
        if cand.is_zero():
            continue
        if ctx.ax_nonzero(symp_gram_q(ctx, cand.a[None, :, None], kept.a[None])).any():
            continue
        grown = MatGF(ctx, np.concatenate([kept.a, cand.a[:, None]], axis=1))
        if rank(grown) == kept.cols:  # cand lies in the span of kept
            continue
        kept = grown
        if kept.cols == y1:
            return kept
    return None


def _orth_basis(g1: MatGF) -> Optional[MatGF]:
    """Columns spanning the symplectic complement of g1; None when g1 has no
    columns (the whole space)."""
    if g1.cols == 0:
        return None
    return nullspace(symp_rows(g1))


def _draw(ctx, basis: Optional[MatGF], rows: int, cols: int, k: int,
          rng) -> np.ndarray:
    """k random rows x cols matrices, a (k, rows, cols) stack of cells, with
    columns in the span of basis (None: anywhere); the rng is read as k
    draws of one matrix would read it."""
    if basis is None:
        return rng.integers(0, ctx.q, size=(k, rows, cols)).astype(np.int64)
    coeff = rng.integers(0, ctx.q, size=(k, basis.cols, cols)).astype(np.int64)
    wide = basis @ MatGF(ctx, np.moveaxis(coeff, 0, 1).reshape(basis.cols, k * cols))
    return np.moveaxis(wide.a.reshape((rows, k, cols) + wide.a.shape[2:]), 1, 0)


def _class_ok(cls: str, g1: MatGF, g: MatGF, fk: np.ndarray) -> np.ndarray:
    """Which message matrices of a stack fk keep the class invariants the
    pools need: for qq, F orthogonal to G1 with a nondegenerate Gram matrix
    (the message frame on the quotient); for cq, [G1 | G2 | F] of full
    column rank.  One Gram product or one stacked elimination each."""
    ctx, (k, _, x) = g.ctx, fk.shape[:3]
    ok = np.ones(k, dtype=bool)
    if cls == "qq":
        ok &= ~ctx.ax_trace(symp_gram_q(ctx, fk, g1.a[None])).reshape(k, -1).any(axis=1)
        ok &= _accel.gf_rank(ctx, ctx.ax_trace(symp_gram_q(ctx, fk, fk)))[0] == x
    if cls == "cq":
        ok &= _accel.gf_rank(ctx, beside(g, fk))[0] == g.cols + x
    return ok


def make_pools(kind: str, count: int, seed: int = 2024,
               n_values: tuple = (2, 3), p: int = 3) -> tuple[list, list]:
    """(positives, negatives): bundles over F_p plus threshold structures,
    searched deterministically.  kind in {plain, ea, cq, qq}."""
    ctx = field_build(p, 1)
    rng = np.random.default_rng(seed)
    pos, neg = [], []
    guard = 0
    while (len(pos) < count or len(neg) < count) and guard < 20000:
        guard += 1
        n = int(rng.choice(n_values))
        r = int(rng.integers(1, n + 1))
        t = int(rng.integers(0, r))
        if t < 1:
            continue
        fs = make_threshold(r, t, n)
        if kind == "plain":
            nbar = n
            y = t
            x = max(r - t, 1)
            g = MatGF(ctx, rng.integers(0, ctx.q, size=(nbar, y)).astype(np.int64))
            f = MatGF(ctx, rng.integers(0, ctx.q, size=(nbar, x)).astype(np.int64))
            bundle = make_bundle("plain", g, None, f, n=nbar, r=r, t=t)
            verdict = is_mmsp(g, f, fs)
        else:
            if kind == "cq":
                y1 = n
            elif kind == "qq":
                xq = int(rng.integers(1, max(2, n - 1)))
                y1 = n - xq
            else:
                y1 = int(rng.integers(0, n + 1))
            g1 = (_rand_isotropic(ctx, n, y1, rng) if y1
                  else MatGF.zeros(ctx, 2 * n, 0))
            if g1 is None:
                continue
            y2 = int(rng.integers(0, 2))
            g2 = (MatGF(ctx, rng.integers(0, ctx.q, size=(2 * n, y2)).astype(np.int64))
                  if y2 else MatGF.zeros(ctx, 2 * n, 0))
            if kind == "qq":
                fk = _draw(ctx, _orth_basis(g1), 2 * n, 2 * xq, 1, rng)
            else:
                fk = _draw(ctx, None, 2 * n, int(rng.integers(1, 3)), 1, rng)
            if not _class_ok(kind, g1, hstack([g1, g2]), fk)[0]:
                continue
            bundle = make_bundle(kind, g1, g2, MatGF(ctx, fk[0]), n=n, r=r, t=t)
            verdict = is_mmsp(bundle.g_stack(), bundle.f, symplectify_structure(fs))
        if verdict and len(pos) < count:
            pos.append((bundle, fs))
        elif not verdict and len(neg) < count:
            neg.append((bundle, fs))
    if len(pos) < count or len(neg) < count:
        raise RuntimeError(f"pool search exhausted for {kind}: "
                           f"{len(pos)} positive, {len(neg)} negative")
    return pos, neg


MUTATE_REDRAWS = 300


def mutate_negative(bundle: MmspBundle, fs: AccessStructure,
                    seed: int) -> Optional[MmspBundle]:
    """The first of up to MUTATE_REDRAWS redraws of the message matrix
    (respecting the class orthogonality invariants) whose span-program
    verdict is false, or None.  Redraws are drawn and judged in blocks that
    keep each stacked elimination within a set_block of restrictions."""
    ctx, g = bundle.ctx, bundle.g_stack()
    rng = np.random.default_rng(seed)
    target = fs if bundle.cls == "plain" else symplectify_structure(fs)
    n_sets = sum(1 for _ in chain(target.accept_iter(), target.reject_iter()))
    block = max(1, set_block(g, bundle.f) // max(1, n_sets))
    basis = _orth_basis(bundle.g1) if bundle.cls == "qq" else None
    for lo in range(0, MUTATE_REDRAWS, block):
        fk = _draw(ctx, basis, bundle.f.rows, bundle.x,
                   min(block, MUTATE_REDRAWS - lo), rng)
        keep = np.flatnonzero(_class_ok(bundle.cls, bundle.g1, g, fk))
        fails = keep[~mmsp_verdicts(g, fk[keep], target)]
        if fails.size:
            return make_bundle(bundle.cls, bundle.g1, bundle.g2,
                               MatGF(ctx, fk[fails[0]]), n=bundle.n,
                               **bundle.params)
    return None
