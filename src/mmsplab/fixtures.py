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
from typing import Optional

import numpy as np

from .access import AccessStructure, make_explicit, make_threshold
from .fields import field_build
from .linalg import MatGF, is_col_orth, nullspace, rank, symp_gram
from .mmsp import MmspBundle, is_mmsp, make_bundle


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
    from .linalg import mat_from_cols, VecGF, symp_q, in_span

    cols = []
    for _ in range(200):
        cand = VecGF(ctx, rng.integers(0, ctx.q, size=2 * n).astype(np.int64))
        if cand.is_zero():
            continue
        if any(symp_q(cand, c) != ctx.zero for c in cols):
            continue
        cur = mat_from_cols(cols) if cols else MatGF.zeros(ctx, 2 * n, 0)
        if cols and in_span(cur, cand):
            continue
        cols.append(cand)
        if len(cols) == y1:
            return mat_from_cols(cols)
    return None


def _orth_complement_draw(ctx, g1: MatGF, cols: int, rng) -> MatGF:
    """Random matrix whose columns are symplectically orthogonal to g1."""
    from .linalg import mat_from_cols, VecGF

    n2 = g1.rows
    if g1.cols == 0:
        return MatGF(ctx, rng.integers(0, ctx.q, size=(n2, cols)).astype(np.int64))
    # perp basis: null space of (J g1)^T
    from .linalg import _symp_gram_matrix
    j = _symp_gram_matrix(ctx, n2).transpose()
    rows = MatGF(ctx, np.stack([(j @ g1.col(i)).a for i in range(g1.cols)],
                               axis=0))
    basis = nullspace(rows)
    coeff = rng.integers(0, ctx.q, size=(basis.cols, cols)).astype(np.int64)
    return basis @ MatGF(ctx, coeff)


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
        from .access import symplectify_structure
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
            if g1 is None or (y1 and rank(g1) != y1):
                continue
            y2 = int(rng.integers(0, 2))
            g2 = (MatGF(ctx, rng.integers(0, ctx.q, size=(2 * n, y2)).astype(np.int64))
                  if y2 else MatGF.zeros(ctx, 2 * n, 0))
            if kind == "qq":
                x = 2 * xq
                f = _orth_complement_draw(ctx, g1, x, rng)
                if not is_col_orth(f, g1):
                    continue
                # message frame must be nondegenerate on the quotient
                if rank(MatGF(ctx, symp_gram(f, f))) != x:
                    continue
            else:
                x = int(rng.integers(1, 3))
                f = MatGF(ctx, rng.integers(0, ctx.q, size=(2 * n, x)).astype(np.int64))
            if kind == "cq" and rank(MatGF(ctx, np.concatenate(
                    [g1.a, g2.a, f.a], axis=1))) != y1 + y2 + x:
                continue
            bundle = make_bundle(kind, g1, g2, f, n=n, r=r, t=t)
            verdict = is_mmsp(bundle.g_stack(), f, symplectify_structure(fs))
        if verdict and len(pos) < count:
            pos.append((bundle, fs))
        elif not verdict and len(neg) < count:
            neg.append((bundle, fs))
    if len(pos) < count or len(neg) < count:
        raise RuntimeError(f"pool search exhausted for {kind}: "
                           f"{len(pos)} positive, {len(neg)} negative")
    return pos, neg


def mutate_negative(bundle: MmspBundle, fs: AccessStructure,
                    seed: int) -> Optional[MmspBundle]:
    """Redraw the message matrix (respecting the class orthogonality
    invariants) until the span-program verdict flips to false."""
    from .access import symplectify_structure

    ctx = bundle.ctx
    rng = np.random.default_rng(seed)
    sfs = symplectify_structure(fs)
    for _ in range(300):
        if bundle.cls == "qq":
            f = _orth_complement_draw(ctx, bundle.g1, bundle.x, rng)
            if not is_col_orth(f, bundle.g1):
                continue
            if rank(MatGF(ctx, symp_gram(f, f))) != bundle.x:
                continue
        else:
            f = MatGF(ctx, rng.integers(0, ctx.q, size=(bundle.f.rows, bundle.x))
                      .astype(np.int64))
        cand = make_bundle(bundle.cls, bundle.g1, bundle.g2, f, n=bundle.n,
                           **bundle.params)
        if bundle.cls == "cq" and rank(MatGF(ctx, np.concatenate(
                [cand.g1.a, cand.g2.a, cand.f.a], axis=1))) \
                != cand.y1 + cand.y2 + cand.x:
            continue
        if bundle.cls == "plain":
            verdict = is_mmsp(cand.g1, cand.f, fs)
        else:
            verdict = is_mmsp(cand.g_stack(), cand.f, sfs)
        if not verdict:
            return cand
    return None
